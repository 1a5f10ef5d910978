/**
 * @file
 * Discrete-event simulation core.
 *
 * The PIUMA timing model is built on this engine: simulated hardware
 * agents (MTP threads, DMA engines) are C++20 coroutines that
 * co_await simulated time (Engine::delay) and shared resources
 * (BandwidthResource, BoundedQueue). The engine is single-threaded
 * and fully deterministic: events at equal timestamps fire in
 * schedule order.
 *
 * The hot path is allocation-free. An event is a 24-byte POD: a
 * (when, seq) sort key plus a one-word payload that is either a
 * coroutine frame address or (tagged in the low bit) an index into a
 * reusable slab of the rare type-erased callbacks (tests, ad-hoc
 * hooks). Two arenas back the event queue:
 *
 *  - the "now queue": a FIFO of zero-delay events. Resumptions
 *    scheduled at the current timestamp (BoundedQueue hand-offs,
 *    DMA wakeups) are O(1) pushes that never touch the time-ordered
 *    heap;
 *  - the "far wheel": calendar buckets for events strictly in the
 *    future. Nodes live in a reusable slab and chain off an array of
 *    bucket heads indexed by floor(when / width); dispatch scans the
 *    current bucket (a handful of nodes) instead of sifting a
 *    thousands-deep comparison tree. The bucket width self-tunes to a
 *    few mean dispatch gaps, so for *spread* timestamps a bucket holds
 *    O(1) nodes and the per-event cost is independent of how many
 *    events are pending. Because floor(when / width) is monotone in
 *    `when` even under floating-point rounding, bucket order can
 *    never contradict (when, seq) order — the scan always finds the
 *    exact global minimum. Its "hot heap" absorbs bursts: events at
 *    *bit-identical* timestamps (every hardware thread of a kernel
 *    issuing its first request at t=0) land in one bucket however
 *    narrow the width, and scanning a B-node bucket per pop is O(B^2)
 *    for the burst. When the scan finds more than kHotThreshold
 *    current-revolution nodes in the bucket it lands on, it promotes
 *    them into a binary min-heap on exact (when, seq) — the
 *    ladder-queue idea (Tang et al., 2005): sort only the bucket that
 *    is dense. While the heap is non-empty it holds every pending far
 *    event whose bucket is <= the promoted ("hot") bucket, and the
 *    wheel only later buckets, so the heap top is the far minimum and
 *    a burst pop costs O(log B). Small buckets keep the linear scan.
 *
 * Every timed wait — Engine::delay, BandwidthResource::transfer, a
 * cross-domain inject — goes through these two arenas; there is no
 * side channel whose ordering has to be kept consistent with them.
 *
 * Determinism contract: every event is stamped with a global sequence
 * number at schedule time, and run() always dispatches the minimum
 * (when, seq) across both arenas, so the observable order is exactly
 * the seed engine's single-priority-queue order.
 *
 * Sharded event domains (sim/domain.hpp): several Engine instances
 * can be bound to one SharedState — a shared clock, sequence counter
 * and stat block — while each keeps its own event arenas. A DomainSet
 * then either merges the shards deterministically (dispatching the
 * global minimum (when, seq) each step, bit-identical to a single
 * engine by the contract above) or runs them on real threads under a
 * conservative-lookahead window protocol. The hooks this needs —
 * hasPending()/runUntil() plus the private peek/pop/dispatch/inject
 * primitives — are exactly the old run() loop split at its seams; a
 * solo engine's run() composes them back into the identical loop.
 *
 * Critical-path tracking: every event also carries the length of the
 * dependency chain that produced it — an event scheduled while
 * dispatching an event of depth d gets depth d+1 (events scheduled
 * outside run(), i.e. from setup code, start a chain at depth 1).
 * The maximum depth ever dispatched is the event-graph critical path:
 * no execution order, sequential or parallel, can finish in fewer
 * dependent steps. Resource-queueing delays (BandwidthResource
 * reservations) are deliberately *not* edges in this graph — they are
 * contention, not dataflow — so comparing total events to the
 * critical path separates "the algorithm ran out of parallelism"
 * from "a resource saturated". The cost is one integer store per
 * dispatch and one per schedule, cheap enough to stay always-on
 * (same budget class as the PR 6 remote-access counters).
 */
#ifndef PGCN_SIM_ENGINE_HPP
#define PGCN_SIM_ENGINE_HPP

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "sim/diagnostics.hpp"

namespace pgcn::sim {

/** Simulated time in nanoseconds. */
using SimTime = double;

class DomainSet;

/**
 * A detached simulation process. Any function returning Process and
 * containing co_await runs as an independent simulated agent; it
 * starts executing immediately on call and parks itself in the event
 * queue whenever it awaits. Lifetime is self-managed (the coroutine
 * frame is destroyed when the body returns).
 */
struct Process
{
    struct promise_type
    {
        Process get_return_object() noexcept { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };
};

/**
 * The event-driven simulation engine: a time-ordered queue of
 * coroutine resumptions (and rare callbacks) with a deterministic
 * FIFO tie-break at equal timestamps.
 */
class Engine
{
  public:
    /**
     * A passive telemetry observer: run() calls onSample() the first
     * time dispatch reaches each requested simulated timestamp.
     * Observers must only *read* simulation state — scheduling events
     * or mutating agents from a hook would break the determinism
     * contract. When not attached, the cost is one predictable branch
     * per dispatched event.
     */
    struct Observer
    {
        virtual ~Observer() = default;

        /**
         * Called with the engine's current time once dispatch first
         * reaches the requested sample point. Returns the next
         * simulated time at which to be called (must be > @p now).
         */
        virtual SimTime onSample(SimTime now, Engine &engine) = 0;
    };

    /**
     * A blocking primitive (e.g. BoundedQueue) that can hold suspended
     * coroutines *outside* the event queue. Registered instances are
     * consulted when the event queue drains: any remaining blocked
     * waiter means the simulation deadlocked rather than finished, and
     * run() reports every waiter instead of returning silently.
     */
    struct Waitable
    {
        virtual ~Waitable() = default;

        /** Number of coroutines currently suspended on this primitive. */
        virtual size_t blockedCount() const = 0;

        /** Append one BlockedAgent record per suspended coroutine. */
        virtual void appendBlocked(std::vector<BlockedAgent> &out) const = 0;
    };

    /** Per-run watchdog budgets; 0 means unlimited. */
    struct RunLimits
    {
        /// Abort once simulated time exceeds this many nanoseconds.
        SimTime maxSimTimeNs = 0.0;
        /// Abort once the host has spent this long inside run().
        double maxWallSeconds = 0.0;
        /// Abort after dispatching this many events.
        uint64_t maxEvents = 0;
    };

    /**
     * The per-run mutable state that must be *common* to every shard
     * of a sharded simulation for bit-identity: the clock, the global
     * sequence counter, the critical-path/dispatch counters, and the
     * observer/watchdog hooks (sampling and budget checks must fire at
     * the same global event no matter which shard dispatches it).
     * A standalone engine owns a private instance; DomainSet binds all
     * of its shards to one (sequenced mode) or leaves each shard its
     * own (parallel mode, aggregated at the end).
     */
    struct SharedState
    {
        static constexpr uint32_t kWallCheckPeriod = 4096;

        SimTime now = 0.0;
        uint64_t nextSeq = 0;
        uint32_t curDepth = 0; ///< depth of the event being dispatched
        uint64_t maxDepth = 0; ///< longest dependency chain (critical path)
        uint64_t eventsProcessed = 0;
        uint64_t coroutineEvents = 0;
        uint64_t callbackEvents = 0;
        size_t pending = 0;
        size_t peakQueueDepth = 0;
        Observer *observer = nullptr; ///< telemetry sample hook
        SimTime observerNext = 0.0;   ///< next requested sample time
        RunLimits limits{};
        bool limitsActive = false;
        std::chrono::steady_clock::time_point wallStart{};
        uint32_t wallCheckCountdown = kWallCheckPeriod;
    };

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Destroy any coroutine frames still parked in the event arenas.
     * After a clean run() this is a no-op; after a SimDeadlockError or
     * SimLimitError it releases the frames of every agent that never
     * finished (frames suspended on a Waitable are destroyed by that
     * Waitable — the two sets are disjoint because a coroutine is
     * suspended at exactly one point).
     */
    ~Engine()
    {
        for (size_t i = nowHead_; i < nowQ_.size(); ++i)
            destroyFramePayload(nowQ_[i].payload);
        for (const int32_t head : slotHeads_)
            for (int32_t n = head; n >= 0; n = farArena_[n].next)
                destroyFramePayload(farArena_[n].payload);
        for (const Event &ev : hot_)
            destroyFramePayload(ev.payload);
    }

    /**
     * Bind this engine to an external SharedState (sharded operation;
     * see DomainSet). Must be called before anything is scheduled —
     * the engine's own (now abandoned) state block must be untouched.
     */
    void
    bindShared(SharedState &shared)
    {
        PGCN_ASSERT(own_.nextSeq == 0 && own_.eventsProcessed == 0 &&
                        own_.pending == 0,
                    "bindShared() after events were scheduled");
        ctx_ = &shared;
    }

    /** The state block this engine dispatches against. */
    const SharedState &shared() const { return *ctx_; }

    /** Track @p waitable for deadlock reporting. */
    void registerWaitable(Waitable *waitable)
    {
        waitables_.push_back(waitable);
    }

    /** Stop tracking @p waitable (no-op when not registered). */
    void
    unregisterWaitable(Waitable *waitable)
    {
        const auto it =
            std::find(waitables_.begin(), waitables_.end(), waitable);
        if (it != waitables_.end())
            waitables_.erase(it);
    }

    /**
     * Re-point a registration after the waitable moved (keeps
     * registration valid across e.g. vector reallocation of the
     * owning object).
     */
    void
    replaceWaitable(Waitable *old_waitable, Waitable *new_waitable)
    {
        std::replace(waitables_.begin(), waitables_.end(), old_waitable,
                     new_waitable);
    }

    /**
     * Awaitable that names the calling agent for diagnostics
     * (deadlock reports, snapshots). Never suspends and schedules no
     * event, so it cannot perturb event counts or dispatch order:
     * `co_await engine.announce("core0.dma");`
     */
    auto
    announce(std::string name)
    {
        struct Awaiter
        {
            Engine &engine;
            std::string name;

            bool await_ready() const noexcept { return false; }
            bool
            await_suspend(std::coroutine_handle<> h)
            {
                engine.nameAgent(h.address(), std::move(name));
                return false; // resume immediately; no event scheduled
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, std::move(name)};
    }

    /** Record a diagnostic name for the agent whose frame is @p frame. */
    void
    nameAgent(void *frame, std::string name)
    {
        agentNames_[frame] = std::move(name);
    }

    /**
     * Diagnostic name of the agent whose coroutine frame is @p frame;
     * a frame-address placeholder when it never announced itself.
     */
    std::string
    agentName(void *frame) const
    {
        const auto it = agentNames_.find(frame);
        if (it != agentNames_.end())
            return it->second;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "agent@%p", frame);
        return buf;
    }

    /**
     * Arm (or, with a default-constructed RunLimits, disarm) the
     * watchdog budgets for subsequent run() calls. The wall clock
     * starts counting here. Under a shared state block the budgets
     * are global: any shard's dispatch can trip them.
     */
    void
    setRunLimits(const RunLimits &limits)
    {
        ctx_->limits = limits;
        ctx_->limitsActive = limits.maxSimTimeNs > 0.0 ||
                             limits.maxWallSeconds > 0.0 ||
                             limits.maxEvents > 0;
        ctx_->wallStart = std::chrono::steady_clock::now();
        ctx_->wallCheckCountdown = SharedState::kWallCheckPeriod;
    }

    /**
     * Human-readable dump of the engine state: time, event counters,
     * arena occupancies, and the blocked-agent table. Attached to
     * SimLimitError and usable ad hoc when debugging a wedged model.
     */
    std::string
    snapshot() const
    {
        std::ostringstream os;
        os << "--- engine snapshot ---\n"
           << "simulated time: " << ctx_->now << " ns\n"
           << "events dispatched: " << ctx_->eventsProcessed
           << " (coroutine " << ctx_->coroutineEvents << ", callback "
           << ctx_->callbackEvents << ")\n"
           << "pending events: " << ctx_->pending << " (now-queue "
           << (nowQ_.size() - nowHead_) << ", far wheel " << farCount_
           << "; peak " << ctx_->peakQueueDepth << ")\n"
           << "far-wheel buckets: " << slotHeads_.size() << " (width "
           << wheelWidth_ << " ns); hot heap: " << hot_.size()
           << " events";
        // A populated hot heap means a promoted equal-timestamp burst.
        if (!hot_.empty())
            os << " promoted from bucket " << hotBucket_ << " (t < "
               << static_cast<double>(hotBucket_ + 1) * wheelWidth_
               << " ns)";
        os << "\narena growths: " << arenaGrowths_ << "\n";
        std::vector<BlockedAgent> blocked;
        for (const Waitable *w : waitables_)
            w->appendBlocked(blocked);
        os << "blocked agents: " << blocked.size();
        for (const BlockedAgent &a : blocked) {
            os << "\n  - '" << a.agent << "' on '" << a.resource
               << "' since t=" << a.blockedSinceNs << " ns";
        }
        return os.str();
    }

    /**
     * Attach @p observer, to be first invoked when simulated time
     * reaches @p first_sample. Pass nullptr to detach.
     */
    void
    attachObserver(Observer *observer, SimTime first_sample)
    {
        ctx_->observer = observer;
        ctx_->observerNext = first_sample;
    }

    /** Current simulated time (ns). */
    SimTime now() const { return ctx_->now; }

    /** Total events dispatched so far. */
    uint64_t eventsProcessed() const { return ctx_->eventsProcessed; }

    /** Dispatched events that resumed a coroutine directly. */
    uint64_t coroutineEvents() const { return ctx_->coroutineEvents; }

    /** Dispatched events that went through the callback slab. */
    uint64_t callbackEvents() const { return ctx_->callbackEvents; }

    /**
     * Times any event arena (now queue, far-wheel slab, hot heap,
     * callback slab) had to grow its backing storage. Stays
     * O(log events) from cold and zero after reserveEvents() sized the
     * arenas — the per-event hot path itself never allocates.
     */
    uint64_t arenaGrowths() const { return arenaGrowths_; }

    /** Largest number of pending events observed. */
    size_t peakQueueDepth() const { return ctx_->peakQueueDepth; }

    /**
     * Length (in events) of the longest dependency chain dispatched
     * so far — the event-graph critical path. eventsProcessed() /
     * criticalPathEvents() is the run's available parallelism: an
     * upper bound on the speedup any execution of this event graph
     * can achieve.
     */
    uint64_t criticalPathEvents() const { return ctx_->maxDepth; }

    /** Events currently pending (all arenas). */
    size_t queueDepth() const { return ctx_->pending; }

    /** Events pending in *this* engine's local arenas. */
    bool
    hasPending() const
    {
        return nowHead_ < nowQ_.size() || farCount_ > 0;
    }

    /**
     * Pre-size the event arenas so a run of known magnitude never
     * reallocates: @p far bounds concurrent future events (roughly
     * the number of live agents), @p zero bounds concurrent
     * zero-delay events. The hot heap is sized for @p far too: a
     * burst can promote every pending far event into it.
     */
    void
    reserveEvents(size_t far, size_t zero = 0)
    {
        farArena_.reserve(far);
        hot_.reserve(far);
        nowQ_.reserve(zero ? zero : far);
    }

    /**
     * Schedule the resumption of @p h at @p delay ns from now — the
     * allocation-free fast path every awaitable uses. Negative delays
     * are a bug in the caller.
     */
    void
    schedule(SimTime delay, std::coroutine_handle<> h)
    {
        push(delay, reinterpret_cast<uintptr_t>(h.address()));
    }

    /**
     * Schedule @p fn to run @p delay ns from now. The type-erased
     * payload parks in the callback slab (reused across events); use
     * the coroutine overload on hot paths.
     */
    void
    schedule(SimTime delay, std::function<void()> fn)
    {
        push(delay, internCallback(std::move(fn)));
    }

    /**
     * Run until the event queue drains. Returns the final simulated
     * time.
     *
     * @throws SimDeadlockError if the queue drained while agents were
     *         still suspended on a registered Waitable (the model
     *         wedged rather than finished).
     * @throws SimLimitError if an armed RunLimits budget was breached.
     */
    SimTime
    run()
    {
        while (hasPending())
            dispatchEvent(popMinLocal());
        // The queue drained — but "no events" only means "finished"
        // if no agent is still suspended on a blocking primitive.
        if (blockedWaiters() > 0) [[unlikely]] {
            std::vector<BlockedAgent> agents;
            appendBlockedAgents(agents);
            throw SimDeadlockError(ctx_->now, std::move(agents));
        }
        return ctx_->now;
    }

    /**
     * Dispatch local events strictly before @p horizon, then stop
     * (the conservative-lookahead window of a parallel domain; see
     * DomainSet). Events this window schedules inside the horizon are
     * dispatched too. Returns the clock after the last dispatch.
     */
    SimTime
    runUntil(SimTime horizon)
    {
        while (hasPending()) {
            const Key k = peekMinKey();
            if (!(k.when < horizon))
                break;
            dispatchEvent(popMinLocal());
        }
        return ctx_->now;
    }

    /** Coroutines suspended on this engine's registered Waitables. */
    size_t
    blockedWaiters() const
    {
        size_t blocked = 0;
        for (const Waitable *w : waitables_)
            blocked += w->blockedCount();
        return blocked;
    }

    /** Append every blocked agent on this engine's Waitables. */
    void
    appendBlockedAgents(std::vector<BlockedAgent> &out) const
    {
        for (const Waitable *w : waitables_)
            w->appendBlocked(out);
    }

    /**
     * Awaitable suspension for @p ns simulated nanoseconds.
     * Usage inside a Process coroutine: `co_await engine.delay(10.0);`
     */
    auto
    delay(SimTime ns)
    {
        struct Awaiter
        {
            Engine &engine;
            SimTime ns;

            bool await_ready() const noexcept { return ns <= 0.0; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                engine.schedule(ns, h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, ns};
    }

    /**
     * Awaitable suspension until absolute simulated time @p when
     * (no-op if @p when is in the past).
     */
    auto
    delayUntil(SimTime when)
    {
        return delay(when - ctx_->now);
    }

  private:
    friend class DomainSet;

    /**
     * Enforce armed RunLimits; called once per dispatched event
     * behind the single limitsActive branch. The wall clock is only
     * sampled every kWallCheckPeriod events so the watchdog adds no
     * syscall-class cost to the hot loop.
     */
    void
    enforceLimits()
    {
        if (ctx_->limits.maxSimTimeNs > 0.0 &&
            ctx_->now > ctx_->limits.maxSimTimeNs) {
            std::ostringstream os;
            os << "simulated-time budget exceeded: t=" << ctx_->now
               << " ns > limit " << ctx_->limits.maxSimTimeNs << " ns";
            throw SimLimitError(os.str(), snapshot());
        }
        if (ctx_->limits.maxEvents > 0 &&
            ctx_->eventsProcessed >= ctx_->limits.maxEvents) {
            std::ostringstream os;
            os << "event budget exceeded: " << ctx_->eventsProcessed
               << " events dispatched >= limit " << ctx_->limits.maxEvents;
            throw SimLimitError(os.str(), snapshot());
        }
        if (ctx_->limits.maxWallSeconds > 0.0 &&
            --ctx_->wallCheckCountdown == 0) {
            ctx_->wallCheckCountdown = SharedState::kWallCheckPeriod;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - ctx_->wallStart)
                    .count();
            if (elapsed > ctx_->limits.maxWallSeconds) {
                std::ostringstream os;
                os << "wall-clock budget exceeded: " << elapsed
                   << " s > limit " << ctx_->limits.maxWallSeconds << " s";
                throw SimLimitError(os.str(), snapshot());
            }
        }
    }

    /** Destroy the coroutine frame behind a frame-tagged payload. */
    static void
    destroyFramePayload(uintptr_t p)
    {
        if ((p & kTagMask) == 0 && p != 0) {
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(p))
                .destroy();
        }
    }

    /**
     * What a dispatched event does, in one word. Coroutine frames are
     * new-aligned, so the address's low bits are free for a tag:
     * 0 resumes the frame at this address, kCallbackTag runs
     * callback-slab entry payload >> 2.
     */
    using Payload = uintptr_t;

    static constexpr uintptr_t kTagMask = 3;
    static constexpr uintptr_t kCallbackTag = 1;

    /** The 16-byte sort key; keys are stored contiguously. */
    struct Key
    {
        SimTime when;
        uint64_t seq;
    };

    /** A materialised event (now-queue slot / heapPop result). */
    struct Event
    {
        SimTime when;
        uint64_t seq;
        Payload payload;
        uint32_t depth; ///< dependency-chain length of this event
    };

    /** Strict (when, seq) dispatch order — the determinism contract. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Heap comparator: std::*_heap keep the (when, seq) minimum on top. */
    static bool
    hotAfter(const Event &a, const Event &b)
    {
        return before(Key{b.when, b.seq}, Key{a.when, a.seq});
    }

    /** Park @p fn in the callback slab; returns its tagged payload. */
    Payload
    internCallback(std::function<void()> fn)
    {
        uintptr_t slot;
        if (!freeCallbackSlots_.empty()) {
            slot = freeCallbackSlots_.back();
            freeCallbackSlots_.pop_back();
            callbackSlab_[slot] = std::move(fn);
        } else {
            slot = callbackSlab_.size();
            if (callbackSlab_.size() == callbackSlab_.capacity())
                ++arenaGrowths_;
            callbackSlab_.push_back(std::move(fn));
        }
        return (slot << 2) | kCallbackTag;
    }

    void
    push(SimTime delay, Payload p)
    {
        PGCN_ASSERT(delay >= 0.0, "negative event delay " << delay);
        const SimTime when = ctx_->now + delay;
        const uint64_t seq = ctx_->nextSeq++;
        const uint32_t depth = ctx_->curDepth + 1;
        if (delay == 0.0) {
            // Invariant: with non-negative delays every pending event
            // has when >= now, so zero-delay events are always ready
            // and FIFO-ordered among themselves — a plain queue slot.
            if (nowQ_.size() == nowQ_.capacity())
                ++arenaGrowths_;
            nowQ_.push_back(Event{when, seq, p, depth});
        } else {
            farPush(Key{when, seq}, p, depth);
        }
        ++ctx_->pending;
        ctx_->peakQueueDepth = std::max(ctx_->peakQueueDepth, ctx_->pending);
    }

    /**
     * File an event at absolute time @p when carrying a
     * *caller-chosen* sequence number — the keyed-message path
     * (DomainSet::postKeyed). Banded keys (sim/domain.hpp) make the
     * equal-timestamp dispatch order a property of the message itself
     * instead of the scheduling history, which is what keeps the
     * sequenced merge and the threaded Parallel mode bit-identical
     * for the memory request/response protocol. Always files into
     * the far wheel: the now queue's FIFO is only correct when seq
     * order equals insertion order, which carried keys deliberately
     * violate (farPush pulls the dispatch cursor back for when==now).
     */
    void
    injectKeyed(SimTime when, Payload p, uint64_t seq, uint32_t depth)
    {
        PGCN_ASSERT(when >= ctx_->now,
                    "keyed event at t=" << when
                        << " is behind the clock t=" << ctx_->now);
        farPush(Key{when, seq}, p, depth);
        ++ctx_->pending;
        ctx_->peakQueueDepth = std::max(ctx_->peakQueueDepth, ctx_->pending);
    }

    /**
     * Sort key of this engine's earliest local event (now queue vs far
     * wheel). Requires hasPending().
     */
    Key
    peekMinKey()
    {
        if (nowHead_ < nowQ_.size()) {
            const Event &nf = nowQ_[nowHead_];
            const Key nk{nf.when, nf.seq};
            if (farCount_ > 0) {
                const Key fk = farMinKey();
                if (before(fk, nk))
                    return fk;
            }
            return nk;
        }
        return farMinKey();
    }

    /**
     * Remove and return this engine's earliest local event — the
     * now-queue head unless a far event carries the same timestamp
     * with an earlier sequence number. Requires hasPending().
     */
    Event
    popMinLocal()
    {
        if (nowHead_ < nowQ_.size()) {
            // Zero-delay events share the clock's timestamp; a far
            // event dispatches first only if it carries the same
            // timestamp with an earlier sequence number.
            const Event &nf = nowQ_[nowHead_];
            if (farCount_ > 0 && before(farMinKey(), Key{nf.when, nf.seq}))
                return farPop();
            const Event ev = nf;
            if (++nowHead_ == nowQ_.size()) {
                nowQ_.clear();
                nowHead_ = 0;
            }
            return ev;
        }
        return farPop();
    }

    /**
     * Advance the clock to @p ev and execute it: the body of the old
     * monolithic run() loop, shared verbatim by run(), runUntil() and
     * the DomainSet sequenced merge.
     */
    void
    dispatchEvent(const Event &ev)
    {
        // Monotonicity is the bedrock invariant: delays are
        // non-negative, so the global minimum can never precede
        // the current time. A violation means arena corruption.
        PGCN_ASSERT(ev.when >= ctx_->now,
                    "simulated time ran backwards: dispatching t="
                        << ev.when << " at t=" << ctx_->now);
        ctx_->now = ev.when;
        if (ctx_->limitsActive) [[unlikely]] {
            try {
                enforceLimits();
            } catch (...) {
                // The breaching event already left the arenas, so the
                // destructor cannot see it: release its frame here.
                // Callbacks stay owned by the slab.
                destroyFramePayload(ev.payload);
                throw;
            }
        }
        // Telemetry sampling rides the dispatch loop instead of
        // scheduling its own events, so an attached observer can
        // never alter event order or keep the queue alive.
        if (ctx_->observer != nullptr && ctx_->now >= ctx_->observerNext)
            [[unlikely]]
            ctx_->observerNext = ctx_->observer->onSample(ctx_->now, *this);
        ++ctx_->eventsProcessed;
        --ctx_->pending;
        const uintptr_t tag = ev.payload & kTagMask;
        if (tag == 0) {
            ++ctx_->coroutineEvents;
            ctx_->curDepth = ev.depth;
            ctx_->maxDepth = std::max<uint64_t>(ctx_->maxDepth, ev.depth);
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(ev.payload))
                .resume();
        } else {
            ++ctx_->callbackEvents;
            ctx_->curDepth = ev.depth;
            ctx_->maxDepth = std::max<uint64_t>(ctx_->maxDepth, ev.depth);
            const size_t slot = ev.payload >> 2;
            // Move out before invoking: the callback may schedule
            // further events and recycle slab slots.
            std::function<void()> fn = std::move(callbackSlab_[slot]);
            callbackSlab_[slot] = nullptr;
            freeCallbackSlots_.push_back(slot);
            fn();
        }
    }

    /** Absolute calendar-bucket index of @p when. Monotone in when. */
    uint64_t
    bucketOf(SimTime when) const
    {
        return static_cast<uint64_t>(when * wheelInvWidth_);
    }

    /**
     * File a far event: into the hot heap when one is active and the
     * event's bucket is at or before the hot bucket (including events
     * behind the dispatch cursor and keyed injects carrying a seq lower
     * than seqs already present), else into the wheel.
     */
    void
    farPush(const Key &k, Payload p, uint32_t depth)
    {
        if (!hot_.empty() && bucketOf(k.when) <= hotBucket_)
            hotPush(Event{k.when, k.seq, p, depth});
        else
            wheelInsert(k, p, depth);
        ++farCount_;
    }

    /** Sift @p ev into the hot heap. O(log B), allocation-free once
     *  reserveEvents() sized the heap. */
    void
    hotPush(const Event &ev)
    {
        if (hot_.size() == hot_.capacity())
            ++arenaGrowths_;
        hot_.push_back(ev);
        std::push_heap(hot_.begin(), hot_.end(), hotAfter);
    }

    /** Link an event into its wheel bucket. O(1), allocation-free once
     *  the slab has reached its high-water mark. */
    void
    wheelInsert(const Key &k, Payload p, uint32_t depth)
    {
        int32_t n;
        if (farFree_ >= 0) {
            n = farFree_;
            farFree_ = farArena_[n].next;
        } else {
            if (farArena_.size() == farArena_.capacity())
                ++arenaGrowths_;
            farArena_.emplace_back();
            n = static_cast<int32_t>(farArena_.size() - 1);
        }
        const uint64_t bucket = bucketOf(k.when);
        const size_t slot = static_cast<size_t>(bucket) & slotMask_;
        farArena_[n] = FarNode{k.when, k.seq, p, slotHeads_[slot], depth};
        slotHeads_[slot] = n;
        // The dispatch cursor may have scanned ahead of now while
        // locating a minimum that lost the merge against the now
        // queue; a push landing behind it pulls it back so the new
        // event is seen (bucketOf is monotone, so bucket >= the
        // current time's bucket always holds).
        if (bucket < curBucket_)
            curBucket_ = bucket;
        // The cached minimum survives only pushes that can't precede
        // it: a push into an earlier-or-equal bucket may be the new
        // minimum, and one aliasing the cached slot stales the cached
        // predecessor link.
        if (minValid_ && (bucket <= minBucket_ || slot == minSlot_))
            minValid_ = false;
    }

    /**
     * Locate the pending event with the smallest (when, seq). Returns
     * true when it is the hot heap's top; otherwise caches its wheel
     * position. Every live wheel node's bucket is >= curBucket_
     * (events are never scheduled in the past), so the first bucket
     * holding a non-aliased node contains the global minimum — and if
     * that bucket is dense, it is promoted to the hot heap here.
     */
    bool
    farLocateMin()
    {
        if (!hot_.empty())
            return true;
        if (minValid_)
            return false;
        PGCN_ASSERT(farCount_ > 0, "min of an empty far wheel");
        size_t advanced = 0;
        for (;;) {
            const size_t slot =
                static_cast<size_t>(curBucket_) & slotMask_;
            int32_t best = -1;
            int32_t best_prev = -1;
            size_t live = 0;
            for (int32_t prev = -1, i = slotHeads_[slot]; i >= 0;
                 prev = i, i = farArena_[i].next) {
                const FarNode &nd = farArena_[i];
                if (bucketOf(nd.when) != curBucket_)
                    continue; // a later revolution aliasing this slot
                ++live;
                if (best < 0 ||
                    before(Key{nd.when, nd.seq},
                           Key{farArena_[best].when,
                               farArena_[best].seq})) {
                    best = i;
                    best_prev = prev;
                }
            }
            if (live > kHotThreshold) {
                promoteBucket(slot);
                return true;
            }
            if (best >= 0) {
                minValid_ = true;
                minNode_ = best;
                minPrev_ = best_prev;
                minSlot_ = slot;
                minBucket_ = curBucket_;
                return false;
            }
            ++curBucket_;
            if (++advanced == slotHeads_.size()) {
                // A full revolution of empty buckets: everything
                // pending is over one wheel span ahead. Jump straight
                // to the earliest occupied bucket.
                uint64_t min_bucket = ~uint64_t{0};
                for (const int32_t head : slotHeads_)
                    for (int32_t i = head; i >= 0; i = farArena_[i].next)
                        min_bucket =
                            std::min(min_bucket, bucketOf(farArena_[i].when));
                curBucket_ = min_bucket;
                advanced = 0;
            }
        }
    }

    /**
     * Move every current-revolution node of the dense bucket
     * curBucket_ (held in @p slot) into the empty hot heap and recycle
     * their wheel nodes. Aliased later-revolution nodes stay chained.
     * The cursor steps past the hot bucket: the wheel now holds only
     * later buckets.
     */
    void
    promoteBucket(size_t slot)
    {
        int32_t *link = &slotHeads_[slot];
        while (*link >= 0) {
            const int32_t i = *link;
            FarNode &nd = farArena_[i];
            if (bucketOf(nd.when) != curBucket_) {
                link = &nd.next;
                continue;
            }
            if (hot_.size() == hot_.capacity())
                ++arenaGrowths_;
            hot_.push_back(Event{nd.when, nd.seq, nd.payload, nd.depth});
            *link = nd.next;
            nd.next = farFree_;
            farFree_ = i;
        }
        std::make_heap(hot_.begin(), hot_.end(), hotAfter);
        hotBucket_ = curBucket_;
        curBucket_ = hotBucket_ + 1;
    }

    /** Sort key of the earliest pending far event. */
    Key
    farMinKey()
    {
        if (farLocateMin())
            return Key{hot_.front().when, hot_.front().seq};
        const FarNode &nd = farArena_[minNode_];
        return Key{nd.when, nd.seq};
    }

    /** Remove and return the earliest pending far event. */
    Event
    farPop()
    {
        const Event ev = farLocateMin() ? hotPop() : wheelPopMin();
        --farCount_;
        // Track the mean dispatch gap so the bucket width can follow
        // the workload's event density.
        gapEma_ += (ev.when - lastFarWhen_ - gapEma_) * (1.0 / 32.0);
        lastFarWhen_ = ev.when;
        if (++farPopsSinceRetune_ >= kRetunePeriod) {
            farPopsSinceRetune_ = 0;
            maybeRetune();
        }
        return ev;
    }

    /** Remove the hot heap's top. */
    Event
    hotPop()
    {
        std::pop_heap(hot_.begin(), hot_.end(), hotAfter);
        const Event ev = hot_.back();
        hot_.pop_back();
        return ev;
    }

    /** Unlink the wheel minimum cached by farLocateMin(). */
    Event
    wheelPopMin()
    {
        FarNode &nd = farArena_[minNode_];
        const Event ev{nd.when, nd.seq, nd.payload, nd.depth};
        if (minPrev_ < 0)
            slotHeads_[minSlot_] = nd.next;
        else
            farArena_[minPrev_].next = nd.next;
        nd.next = farFree_;
        farFree_ = minNode_;
        minValid_ = false;
        return ev;
    }

    /**
     * Re-tune the wheel: aim the bucket width at a few mean dispatch
     * gaps and the bucket count at twice the pending population, so a
     * bucket scan touches O(1) nodes for spread timestamps. Runs at
     * most every kRetunePeriod far dispatches; a rebuild relinks the
     * live nodes in place (no node is copied or reallocated) and
     * flushes the hot heap back into the rebuilt wheel — its bucket
     * index is in the old width's units. A still-dense bucket is
     * re-promoted by the next farLocateMin().
     */
    void
    maybeRetune()
    {
        const double target =
            std::clamp(3.0 * gapEma_, 1e-6, 1e9);
        size_t nb = slotHeads_.size();
        while (nb < 2 * farCount_ && nb < kMaxSlots)
            nb *= 2;
        if (nb == slotHeads_.size() && target < 2.0 * wheelWidth_ &&
            target > 0.5 * wheelWidth_)
            return;
        retuneScratch_.clear();
        for (const int32_t head : slotHeads_)
            for (int32_t i = head; i >= 0; i = farArena_[i].next)
                retuneScratch_.push_back(i);
        wheelWidth_ = target;
        wheelInvWidth_ = 1.0 / target;
        slotHeads_.assign(nb, -1);
        slotMask_ = nb - 1;
        curBucket_ = bucketOf(ctx_->now);
        for (const int32_t i : retuneScratch_) {
            const size_t slot =
                static_cast<size_t>(bucketOf(farArena_[i].when)) &
                slotMask_;
            farArena_[i].next = slotHeads_[slot];
            slotHeads_[slot] = i;
        }
        minValid_ = false;
        for (const Event &ev : hot_)
            wheelInsert(Key{ev.when, ev.seq}, ev.payload, ev.depth);
        hot_.clear();
    }

    /** One far event: sort key, payload, and intrusive bucket link.
     *  The depth field occupies what was padding — FarNode stays 32
     *  bytes, so critical-path tracking costs the far wheel nothing. */
    struct FarNode
    {
        SimTime when;
        uint64_t seq;
        Payload payload;
        int32_t next; ///< next node in bucket chain / free list (-1 end)
        uint32_t depth; ///< dependency-chain length of this event
    };

    static constexpr size_t kInitialSlots = 1024;
    static constexpr size_t kMaxSlots = size_t{1} << 18;
    static constexpr uint32_t kRetunePeriod = 1024;
    /// Current-revolution nodes a bucket may hold before farLocateMin
    /// promotes it to the hot heap. Below this a linear scan beats
    /// heap upkeep (the common, spread-timestamp case).
    static constexpr size_t kHotThreshold = 32;

    std::vector<FarNode> farArena_;     ///< far-wheel node slab
    std::vector<int32_t> slotHeads_ =
        std::vector<int32_t>(kInitialSlots, -1); ///< bucket chain heads
    std::vector<int32_t> retuneScratch_; ///< live-node list for rebuilds
    size_t slotMask_ = kInitialSlots - 1;
    int32_t farFree_ = -1;              ///< slab free-list head
    size_t farCount_ = 0;               ///< live far events
    uint64_t curBucket_ = 0;            ///< dispatch scan position
    double wheelWidth_ = 1.0;           ///< bucket width (ns)
    double wheelInvWidth_ = 1.0;
    double gapEma_ = 1.0;               ///< mean far dispatch gap (ns)
    SimTime lastFarWhen_ = 0.0;
    uint32_t farPopsSinceRetune_ = 0;
    bool minValid_ = false;             ///< cached-minimum fields valid?
    int32_t minNode_ = -1;
    int32_t minPrev_ = -1;
    size_t minSlot_ = 0;
    uint64_t minBucket_ = 0;            ///< absolute bucket of cached min
    /// Min-heap (hotAfter) of every pending far event in buckets
    /// <= hotBucket_; empty when no dense bucket is promoted.
    std::vector<Event> hot_;
    uint64_t hotBucket_ = 0;            ///< promoted bucket (hot_ non-empty)
    std::vector<Event> nowQ_;           ///< FIFO of zero-delay events
    size_t nowHead_ = 0;                ///< dispatch cursor into nowQ_
    std::vector<std::function<void()>> callbackSlab_;
    std::vector<size_t> freeCallbackSlots_;
    std::vector<Waitable *> waitables_; ///< deadlock-report registry
    std::unordered_map<void *, std::string> agentNames_;
    uint64_t arenaGrowths_ = 0;
    /// Clock/sequence/counter block: private by default, shared when
    /// this engine is one shard of a DomainSet (see bindShared).
    SharedState own_{};
    SharedState *ctx_ = &own_;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_ENGINE_HPP
