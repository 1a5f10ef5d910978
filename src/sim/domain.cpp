/**
 * @file
 * DomainSet implementation: the sequenced K-way merge and the
 * parallel conservative-lookahead window protocol. See domain.hpp
 * for the model-level rationale and DESIGN.md §15 for the proofs.
 */
#include "sim/domain.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

namespace pgcn::sim {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/**
 * A reusable two-phase barrier: the last arriver runs the completion
 * callback under the barrier lock, then releases everyone. The lock
 * hand-off is what makes the surrounding window protocol data-race
 * free with plain (non-atomic) shared fields: everything a worker
 * wrote before arriving happens-before everything any worker reads
 * after leaving.
 */
class Barrier
{
  public:
    explicit Barrier(unsigned count) : count_(count) {}

    template <typename Completion>
    void
    arriveAndWait(const Completion &completion)
    {
        std::unique_lock<std::mutex> lock(mu_);
        const uint64_t gen = generation_;
        if (++waiting_ == count_) {
            waiting_ = 0;
            ++generation_;
            completion();
            cv_.notify_all();
        } else {
            cv_.wait(lock, [&] { return generation_ != gen; });
        }
    }

    void
    arriveAndWait()
    {
        arriveAndWait([] {});
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    const unsigned count_;
    unsigned waiting_ = 0;
    uint64_t generation_ = 0;
};

} // namespace

DomainSet::DomainSet(const Options &opts)
    : mode_(opts.mode), lookaheadNs_(opts.lookaheadNs)
{
    const unsigned d = std::max(1u, opts.domains);
    PGCN_ASSERT(mode_ == Mode::Sequenced || lookaheadNs_ > 0.0,
                "parallel mode needs a positive lookahead");
    engines_.reserve(d);
    for (unsigned i = 0; i < d; ++i) {
        engines_.push_back(std::make_unique<Engine>());
        if (mode_ == Mode::Sequenced)
            engines_.back()->bindShared(shared_);
    }
    if (mode_ == Mode::Parallel)
        boxes_.resize(static_cast<size_t>(d) * d);
    crossPosts_.assign(d, 0);
}

void
DomainSet::postKeyed(unsigned src_domain, unsigned dst_domain,
                     SimTime when, uint64_t keyed_seq,
                     std::function<void()> fn)
{
    PGCN_ASSERT(keyed_seq >= kSeqBandRequest,
                "keyed post without a band bit (seq=" << keyed_seq << ")");
    if (mode_ == Mode::Sequenced || src_domain == dst_domain) {
        Engine &e = engine(dst_domain);
        e.injectKeyed(when, e.internCallback(std::move(fn)), keyed_seq,
                      e.ctx_->curDepth + 1);
        if (src_domain != dst_domain)
            ++crossPosts_[src_domain];
        return;
    }
    Engine &src = engine(src_domain);
    PGCN_ASSERT(when + 1e-9 >= src.now() + lookaheadNs_,
                "keyed cross-domain post at t="
                    << when << " violates lookahead " << lookaheadNs_
                    << " (src clock t=" << src.now() << ")");
    const unsigned d = domains();
    boxes_[static_cast<size_t>(src_domain) * d + dst_domain].push(
        Msg{when, src.ctx_->curDepth + 1, keyed_seq, std::move(fn)});
    ++crossPosts_[src_domain];
}

void
DomainSet::drainInbox(unsigned dst, std::vector<Msg> &scratch)
{
    scratch.clear();
    const unsigned d = domains();
    for (unsigned src = 0; src < d; ++src)
        boxes_[static_cast<size_t>(src) * d + dst].drainTo(scratch);
    // Every message carries a unique key and files into the far
    // wheel, which dispatches by exact (when, key): the drain order
    // here (source domain, then post order) never reaches dispatch.
    Engine &e = engine(dst);
    for (Msg &m : scratch)
        e.injectKeyed(m.when, e.internCallback(std::move(m.fn)), m.keyedSeq,
                      m.depth);
}

void
DomainSet::raiseIfBlockedAnywhere(SimTime at) const
{
    size_t blocked = 0;
    for (const auto &e : engines_)
        blocked += e->blockedWaiters();
    if (blocked == 0)
        return;
    std::vector<BlockedAgent> agents;
    for (const auto &e : engines_)
        e->appendBlockedAgents(agents);
    throw SimDeadlockError(at, std::move(agents));
}

SimTime
DomainSet::runSequenced()
{
    if (engines_.size() == 1)
        return engines_[0]->run();
    for (;;) {
        // Dispatch the global minimum (when, seq). The scan is O(D)
        // per event with D <= a handful of shards; each peek is O(1)
        // amortized (the per-engine minimum is cached).
        Engine *best = nullptr;
        Engine::Key best_key{};
        for (const auto &e : engines_) {
            if (!e->hasPending())
                continue;
            const Engine::Key k = e->peekMinKey();
            if (best == nullptr || Engine::before(k, best_key)) {
                best = e.get();
                best_key = k;
            }
        }
        if (best == nullptr)
            break;
        best->dispatchEvent(best->popMinLocal());
    }
    raiseIfBlockedAnywhere(shared_.now);
    return shared_.now;
}

SimTime
DomainSet::runParallel()
{
    const unsigned d = domains();
    if (d == 1)
        return engines_[0]->run();

    std::vector<SimTime> next(d, kInf);
    std::vector<std::exception_ptr> errors(d);
    Barrier barrier_a(d);
    Barrier barrier_b(d);
    // Written only inside barrier_b's completion (under its lock),
    // read by workers after leaving the barrier — the lock hand-off
    // orders every access, so plain fields suffice.
    bool done = false;
    SimTime horizon = 0.0;

    auto worker = [&](unsigned dom) {
        Engine &e = *engines_[dom];
        std::vector<Msg> scratch;
        bool failed = false;
        for (;;) {
            // Barrier A: every domain finished the previous window,
            // so every mailbox this domain will drain is complete.
            barrier_a.arriveAndWait();
            if (!failed) {
                try {
                    drainInbox(dom, scratch);
                } catch (...) {
                    errors[dom] = std::current_exception();
                    failed = true;
                }
            }
            if (failed) {
                // Keep participating so the others can finish, but
                // discard anything still addressed here.
                drainDiscard(dom, scratch);
            }
            next[dom] = (!failed && e.hasPending())
                            ? e.peekMinKey().when
                            : kInf;
            // Barrier B: all next-event times published; the last
            // arriver computes the safe horizon (or declares the set
            // drained — the idle-advance/null-message equivalent: an
            // idle domain publishes +inf and never blocks progress).
            barrier_b.arriveAndWait([&] {
                SimTime m = kInf;
                for (unsigned i = 0; i < d; ++i)
                    m = std::min(m, next[i]);
                if (m == kInf)
                    done = true;
                else
                    horizon = m + lookaheadNs_;
            });
            if (done)
                return;
            if (failed)
                continue;
            try {
                // Dispatch everything strictly before the horizon.
                // Any cross-domain post made in here lands at
                // >= m + lookahead = horizon, i.e. outside every
                // domain's current window — that is the conservative
                // guarantee that makes the dispatch safe.
                e.runUntil(horizon);
            } catch (...) {
                errors[dom] = std::current_exception();
                failed = true;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(d - 1);
    for (unsigned i = 1; i < d; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread &t : threads)
        t.join();

    for (std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);

    SimTime end = 0.0;
    for (const auto &e : engines_)
        end = std::max(end, e->now());
    raiseIfBlockedAnywhere(end);
    return end;
}

void
DomainSet::drainDiscard(unsigned dst, std::vector<Msg> &scratch)
{
    scratch.clear();
    const unsigned d = domains();
    for (unsigned src = 0; src < d; ++src)
        boxes_[static_cast<size_t>(src) * d + dst].drainTo(scratch);
    scratch.clear();
}

SimTime
DomainSet::run()
{
    return mode_ == Mode::Sequenced ? runSequenced() : runParallel();
}

void
DomainSet::setRunLimits(const Engine::RunLimits &limits)
{
    if (mode_ == Mode::Sequenced) {
        engines_[0]->setRunLimits(limits); // one shared block
    } else {
        for (const auto &e : engines_)
            e->setRunLimits(limits);
    }
}

void
DomainSet::attachObserver(Engine::Observer *observer, SimTime first_sample)
{
    engines_[0]->attachObserver(observer, first_sample);
}

SimTime
DomainSet::now() const
{
    if (mode_ == Mode::Sequenced)
        return shared_.now;
    SimTime t = 0.0;
    for (const auto &e : engines_)
        t = std::max(t, e->now());
    return t;
}

uint64_t
DomainSet::eventsProcessed() const
{
    if (mode_ == Mode::Sequenced)
        return shared_.eventsProcessed;
    uint64_t total = 0;
    for (const auto &e : engines_)
        total += e->eventsProcessed();
    return total;
}

uint64_t
DomainSet::criticalPathEvents() const
{
    if (mode_ == Mode::Sequenced)
        return shared_.maxDepth;
    uint64_t depth = 0;
    for (const auto &e : engines_)
        depth = std::max(depth, e->criticalPathEvents());
    return depth;
}

size_t
DomainSet::peakQueueDepth() const
{
    if (mode_ == Mode::Sequenced)
        return shared_.peakQueueDepth;
    size_t peak = 0;
    for (const auto &e : engines_)
        peak = std::max(peak, e->peakQueueDepth());
    return peak;
}

uint64_t
DomainSet::crossDomainPosts() const
{
    uint64_t total = 0;
    for (const uint64_t c : crossPosts_)
        total += c;
    return total;
}

} // namespace pgcn::sim
