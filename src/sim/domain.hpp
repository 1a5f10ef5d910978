/**
 * @file
 * Sharded event domains over the DES core (ROADMAP item 4).
 *
 * A DomainSet splits one simulated machine into N event domains —
 * one per PIUMA node or DRAM-slice group — each backed by its own
 * Engine (its own calendar wheel, now queue and waitables). Two
 * execution modes share that layout:
 *
 *  - **Sequenced** (the default, used by the PIUMA model): every
 *    shard is bound to one Engine::SharedState — one clock, one
 *    global sequence counter, one stat block — and run() dispatches
 *    the global minimum (when, seq) across all shards each step.
 *    Because sequence numbers are assigned globally at schedule time
 *    exactly as in the serial engine, the dispatch order is the
 *    serial order *by construction*, independent of which shard's
 *    arena holds an event: `--domains N` output is bit-identical to
 *    `--domains 1` for any N. This is the mode that keeps every
 *    always-on stat (criticalPathEvents, stall taxonomy, fault retry
 *    accounting) and the determinism goldens unchanged.
 *
 *  - **Parallel**: each shard keeps its own state block and runs on
 *    its own std::thread under a conservative-lookahead window
 *    protocol (Chandy–Misra in barrier form). Let m be the minimum
 *    next-event time across all domains and L the lookahead — the
 *    minimum latency of any cross-domain interaction (for PIUMA, the
 *    minimum inter-node network latency from PiumaConfig). Every
 *    domain may safely dispatch all events strictly before
 *    H = m + L: any message sent during the window is sent at time
 *    >= m and arrives at >= m + L = H, so nothing dispatched inside
 *    the window can be invalidated. Cross-domain messages travel
 *    through bounded SPSC mailboxes (one per ordered domain pair)
 *    and are filed into the destination's calendar at each window
 *    boundary. Each carries a unique keyed sequence number (below),
 *    and the calendar dispatches by exact (timestamp, key), so the
 *    order in which a window's mailboxes are drained — which thread
 *    posted first — never reaches the dispatch order. An idle
 *    domain publishes +inf as its next-event time and keeps
 *    participating in the barriers — the null-message/idle-advance
 *    path — so a neighbor going quiet can never deadlock the set.
 *
 * When the PIUMA model runs Parallel: since the memory system moved
 * to a two-phase request/response protocol (PR 10), every
 * cross-domain interaction is a posted event bearing real modeled
 * latency — the DGAS network hop on requests and responses, the
 * timeout margin on failure notices — so the model's lookahead bound
 * (MemorySystem::modelLookaheadNs) is positive and Parallel mode is
 * legal. DomainSet::postKeyed is the only way a message crosses
 * domains. Bit-identity across modes *and* domain counts rests on
 * *keyed sequence numbers*: requests and responses carry canonical
 * (band, entity, stamp) sort keys assigned from per-entity counters
 * (kSeqBandRequest / kSeqBandResponse below), so the dispatch order
 * at equal timestamps is a property of the messages themselves, not
 * of which counter happened to stamp them. Ordinary events keep
 * their small engine-local sequence numbers and therefore always
 * dispatch before keyed messages at the same timestamp — a uniform
 * rule both modes share. See DESIGN.md §15 for the lookahead-bound
 * derivation and the auto-mode rules.
 */
#ifndef PGCN_SIM_DOMAIN_HPP
#define PGCN_SIM_DOMAIN_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace pgcn::sim {

/**
 * Canonical sequence-key bands for keyed cross-domain messages.
 * Engine-local sequence counters never reach 2^62 in practice, so:
 *
 *   band 0 (seq < 2^62)  — ordinary events; dispatch first at equal
 *                          timestamps, ordered by their engine-local
 *                          creation order (identical in both modes);
 *   kSeqBandRequest      — memory request arrivals, keyed by
 *                          (requester entity, per-entity stamp): the
 *                          arrival-order arbitration rule;
 *   kSeqBandResponse     — responses / failure notices, keyed by
 *                          (serving entity, per-entity stamp).
 *
 * Retried requests re-carry their original key, giving an in-flight
 * retry arbitration priority over fresher requests that arrive at
 * the same instant (attempts of one request are serial in time, so a
 * key is never pending twice).
 */
constexpr uint64_t kSeqBandRequest = uint64_t{1} << 62;
constexpr uint64_t kSeqBandResponse = uint64_t{1} << 63;
/// Entity id field width: bits [kSeqEntityShift, 62) — 2^18 entities.
constexpr unsigned kSeqEntityShift = 44;

/** Compose a keyed sequence number: band | entity | stamp. */
inline uint64_t
makeKeyedSeq(uint64_t band, unsigned entity, uint64_t stamp)
{
    PGCN_ASSERT(entity < (1u << (62 - kSeqEntityShift)),
                "keyed-seq entity " << entity << " out of range");
    PGCN_ASSERT(stamp < (uint64_t{1} << kSeqEntityShift),
                "keyed-seq stamp overflow");
    return band | (static_cast<uint64_t>(entity) << kSeqEntityShift) |
           stamp;
}

/**
 * A set of event domains simulating one machine. Owns one Engine per
 * domain plus the cross-domain plumbing (shared clock block or
 * mailboxes + barriers, depending on mode).
 */
class DomainSet
{
  public:
    /** How the domains execute relative to each other. */
    enum class Mode
    {
        /// One shared clock/sequence block; deterministic K-way merge
        /// on a single thread. Bit-identical to a serial engine.
        Sequenced,
        /// One thread per domain; conservative-lookahead windows with
        /// mailbox hand-off. Requires every cross-domain interaction
        /// to carry at least lookaheadNs of latency.
        Parallel,
    };

    struct Options
    {
        /// Number of event domains (>= 1).
        unsigned domains = 1;
        Mode mode = Mode::Sequenced;
        /// Minimum cross-domain latency (ns); the safe-window margin
        /// in Parallel mode. Unused by Sequenced mode.
        double lookaheadNs = 1.0;
    };

    explicit DomainSet(const Options &opts);

    /** Sequenced set with @p domains shards (the model's entry point). */
    explicit DomainSet(unsigned domains)
        : DomainSet(Options{domains, Mode::Sequenced, 1.0})
    {
    }

    DomainSet() : DomainSet(1u) {}

    DomainSet(const DomainSet &) = delete;
    DomainSet &operator=(const DomainSet &) = delete;

    /** Number of domains. */
    unsigned
    domains() const
    {
        return static_cast<unsigned>(engines_.size());
    }

    Mode mode() const { return mode_; }

    double lookaheadNs() const { return lookaheadNs_; }

    /** The engine backing domain @p d. */
    Engine &
    engine(unsigned d)
    {
        PGCN_ASSERT(d < engines_.size(), "domain " << d << " out of range");
        return *engines_[d];
    }

    const Engine &
    engine(unsigned d) const
    {
        PGCN_ASSERT(d < engines_.size(), "domain " << d << " out of range");
        return *engines_[d];
    }

    /**
     * Run the set until every domain's queue drains. Returns the
     * final simulated time (the shared clock in Sequenced mode, the
     * maximum domain clock in Parallel mode).
     *
     * @throws SimDeadlockError naming blocked agents *across all
     *         domains* when the queues drained with agents still
     *         suspended on any domain's waitables.
     * @throws SimLimitError / anything a dispatched event throws.
     */
    SimTime run();

    /**
     * Deliver @p fn to domain @p dst_domain at absolute time @p when
     * carrying the canonical sequence key @p keyed_seq (see the band
     * constants above) — the one way a message crosses domains. Its
     * equal-timestamp dispatch order is decided by the carried key,
     * identical in Sequenced and Parallel mode by construction; keys
     * must be unique among pending messages. In Sequenced mode (and
     * for same-domain posts) this files the event directly; in
     * Parallel mode a cross-domain post enqueues into the (src, dst)
     * mailbox — it must be called from src's worker thread, and
     * @p when must respect the lookahead: when >= src clock +
     * lookaheadNs.
     */
    void postKeyed(unsigned src_domain, unsigned dst_domain, SimTime when,
                   uint64_t keyed_seq, std::function<void()> fn);

    /**
     * Arm watchdog budgets. Sequenced mode arms the shared block
     * (any domain's dispatch can trip it); Parallel mode arms every
     * domain independently.
     */
    void setRunLimits(const Engine::RunLimits &limits);

    /**
     * Attach a telemetry observer. Sequenced mode samples on the
     * shared clock — the hook fires at the same global events as a
     * serial run. Parallel mode samples domain 0 only.
     */
    void attachObserver(Engine::Observer *observer, SimTime first_sample);

    /** Current simulated time (shared clock / max domain clock). */
    SimTime now() const;

    /** Total events dispatched across the set. */
    uint64_t eventsProcessed() const;

    /**
     * Longest dependency chain dispatched anywhere in the set (the
     * event-graph critical path). Every message carries its depth
     * across domain boundaries, so the value is identical in
     * Sequenced and Parallel mode.
     */
    uint64_t criticalPathEvents() const;

    /**
     * High-water mark of pending events. In Sequenced mode this is
     * the shared block's global peak (bit-identical across domain
     * counts); in Parallel mode the maximum per-domain peak — a
     * host-scheduling-dependent quantity, deliberately excluded from
     * cross-mode differential checks.
     */
    size_t peakQueueDepth() const;

    /**
     * Cross-domain keyed posts delivered so far. Deliberately
     * kept out of SpmmRunStats and telemetry counters: it depends on
     * the domain count, and everything in those channels must be
     * bit-identical across `--domains N`.
     */
    uint64_t crossDomainPosts() const;

  private:
    /** A cross-domain message parked in a mailbox. */
    struct Msg
    {
        SimTime when;
        uint32_t depth;
        uint64_t keyedSeq; ///< carried sequence key: the dispatch tiebreak
        std::function<void()> fn;
    };

    /**
     * Bounded SPSC mailbox for one ordered (src, dst) domain pair: a
     * fixed ring for the common case plus a spill vector so a bursty
     * window can never drop or block. The window protocol guarantees
     * the producer (src's thread, during a dispatch window) and the
     * consumer (dst's thread, during the post-barrier drain) never
     * run concurrently, and the barrier's mutex orders their memory
     * accesses — plain indices, no atomics needed.
     */
    class Mailbox
    {
      public:
        void
        push(Msg m)
        {
            if (size_ < kCapacity) {
                ring_[(head_ + size_) % kCapacity] = std::move(m);
                ++size_;
            } else {
                spill_.push_back(std::move(m));
            }
        }

        void
        drainTo(std::vector<Msg> &out)
        {
            for (size_t i = 0; i < size_; ++i)
                out.push_back(std::move(ring_[(head_ + i) % kCapacity]));
            head_ = 0;
            size_ = 0;
            for (Msg &m : spill_)
                out.push_back(std::move(m));
            spill_.clear();
        }

      private:
        static constexpr size_t kCapacity = 256;
        std::vector<Msg> ring_ = std::vector<Msg>(kCapacity);
        size_t head_ = 0;
        size_t size_ = 0;
        std::vector<Msg> spill_;
    };

    SimTime runSequenced();
    SimTime runParallel();

    /** Drain every mailbox addressed to @p dst into its engine. */
    void drainInbox(unsigned dst, std::vector<Msg> &scratch);

    /** Drain and discard @p dst's mailboxes (failed-domain path). */
    void drainDiscard(unsigned dst, std::vector<Msg> &scratch);

    /** Throw SimDeadlockError if any domain still has blocked agents. */
    void raiseIfBlockedAnywhere(SimTime at) const;

    Mode mode_;
    double lookaheadNs_;
    Engine::SharedState shared_{}; ///< the one clock block (Sequenced)
    std::vector<std::unique_ptr<Engine>> engines_;
    std::vector<Mailbox> boxes_;       ///< [src * D + dst], Parallel mode
    std::vector<uint64_t> crossPosts_; ///< per-source-domain tally
};

} // namespace pgcn::sim

#endif // PGCN_SIM_DOMAIN_HPP
