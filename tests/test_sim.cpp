/**
 * @file
 * Tests for the discrete-event core: event ordering, coroutine
 * processes, delay awaitables, bandwidth resources (queueing,
 * utilisation accounting) and the bounded hand-off queue.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/queue.hpp"
#include "sim/resource.hpp"

namespace {

using namespace pgcn::sim;

TEST(Engine, EventsFireInTimeOrder)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(30.0, [&] { order.push_back(3); });
    engine.schedule(10.0, [&] { order.push_back(1); });
    engine.schedule(20.0, [&] { order.push_back(2); });
    const SimTime end = engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(end, 30.0);
}

TEST(Engine, EqualTimestampsFifo)
{
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        engine.schedule(7.0, [&order, i] { order.push_back(i); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedScheduling)
{
    Engine engine;
    SimTime inner_fired = -1;
    engine.schedule(5.0, [&] {
        engine.schedule(10.0, [&] { inner_fired = engine.now(); });
    });
    engine.run();
    EXPECT_DOUBLE_EQ(inner_fired, 15.0);
}

TEST(Engine, EventCountTracked)
{
    Engine engine;
    for (int i = 0; i < 10; ++i)
        engine.schedule(1.0 * i, [] {});
    engine.run();
    EXPECT_EQ(engine.eventsProcessed(), 10u);
}

Process
delayTwice(Engine &engine, std::vector<SimTime> &marks)
{
    co_await engine.delay(10.0);
    marks.push_back(engine.now());
    co_await engine.delay(5.0);
    marks.push_back(engine.now());
}

TEST(Process, DelaysAccumulate)
{
    Engine engine;
    std::vector<SimTime> marks;
    delayTwice(engine, marks);
    engine.run();
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_DOUBLE_EQ(marks[0], 10.0);
    EXPECT_DOUBLE_EQ(marks[1], 15.0);
}

TEST(Process, ZeroDelayDoesNotSuspend)
{
    Engine engine;
    std::vector<SimTime> marks;
    [](Engine &eng, std::vector<SimTime> &out) -> Process {
        co_await eng.delay(0.0);
        out.push_back(eng.now());
    }(engine, marks);
    // Body ran to completion synchronously (no events needed).
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_DOUBLE_EQ(marks[0], 0.0);
}

// delayUntil a time already reached (or passed) is the fast path:
// no suspension, no event, no sequence number consumed.
TEST(Process, DelayUntilPastDeadlineConsumesNothing)
{
    Engine engine;
    std::vector<SimTime> marks;
    uint64_t seq_before = 0;
    uint64_t seq_after = 0;
    [](Engine &eng, std::vector<SimTime> &out, uint64_t &before,
       uint64_t &after) -> Process {
        co_await eng.delay(3.0);
        before = eng.shared().nextSeq;
        co_await eng.delayUntil(3.0);  // t == now
        co_await eng.delayUntil(-1.0); // t < now
        after = eng.shared().nextSeq;
        out.push_back(eng.now());
    }(engine, marks, seq_before, seq_after);
    engine.run();
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_DOUBLE_EQ(marks[0], 3.0);
    EXPECT_EQ(seq_after, seq_before);
    EXPECT_EQ(engine.eventsProcessed(), 1u); // the delay(3.0) wake only
}

TEST(Resource, BackToBackRequestsQueue)
{
    Engine engine;
    BandwidthResource res(engine, 2.0); // 2 units/ns
    EXPECT_DOUBLE_EQ(res.reserve(10.0), 5.0);
    EXPECT_DOUBLE_EQ(res.reserve(10.0), 10.0); // queued behind first
    EXPECT_DOUBLE_EQ(res.busyTime(), 10.0);
    EXPECT_DOUBLE_EQ(res.totalUnits(), 20.0);
    EXPECT_EQ(res.requests(), 2u);
}

TEST(Resource, IdleGapThenRequest)
{
    Engine engine;
    BandwidthResource res(engine, 1.0);
    engine.schedule(100.0, [&] {
        EXPECT_DOUBLE_EQ(res.reserve(5.0), 105.0);
    });
    engine.run();
    EXPECT_DOUBLE_EQ(res.utilization(105.0), 5.0 / 105.0);
}

TEST(Resource, EarliestStartHonoured)
{
    Engine engine;
    BandwidthResource res(engine, 1.0);
    EXPECT_DOUBLE_EQ(res.reserve(5.0, 50.0), 55.0);
    // A later request starting "now" still queues behind it.
    EXPECT_DOUBLE_EQ(res.reserve(5.0), 60.0);
}

Process
transferProc(Engine &engine, BandwidthResource &res, double amount,
             SimTime &done)
{
    co_await res.transfer(amount);
    done = engine.now();
}

TEST(Resource, TransferAwaitsCompletion)
{
    Engine engine;
    BandwidthResource res(engine, 4.0);
    SimTime a = -1, b = -1;
    transferProc(engine, res, 40.0, a); // 10 ns
    transferProc(engine, res, 20.0, b); // +5 ns queued
    engine.run();
    EXPECT_DOUBLE_EQ(a, 10.0);
    EXPECT_DOUBLE_EQ(b, 15.0);
}

Process
producer(Engine &engine, BoundedQueue<int> &q, int count, SimTime gap)
{
    for (int i = 0; i < count; ++i) {
        co_await q.push(i);
        if (gap > 0)
            co_await engine.delay(gap);
    }
}

Process
consumer(Engine &engine, BoundedQueue<int> &q, int count, SimTime gap,
         std::vector<int> &out)
{
    for (int i = 0; i < count; ++i) {
        int v = co_await q.pop();
        out.push_back(v);
        if (gap > 0)
            co_await engine.delay(gap);
    }
}

TEST(Queue, FifoOrderPreserved)
{
    Engine engine;
    BoundedQueue<int> q(engine, 4);
    std::vector<int> out;
    producer(engine, q, 20, 1.0);
    consumer(engine, q, 20, 0.5, out);
    engine.run();
    ASSERT_EQ(out.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(Queue, FastProducerBlocksOnCapacity)
{
    Engine engine;
    BoundedQueue<int> q(engine, 2);
    std::vector<int> out;
    // Producer pushes with no delay; consumer drains slowly. The
    // bounded queue must throttle the producer, not grow unbounded.
    producer(engine, q, 10, 0.0);
    consumer(engine, q, 10, 10.0, out);
    engine.run();
    ASSERT_EQ(out.size(), 10u);
    EXPECT_LE(q.highWater(), 2u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(Queue, ConsumerWaitsForProducer)
{
    Engine engine;
    BoundedQueue<int> q(engine, 4);
    std::vector<int> out;
    SimTime consumed_at = -1;
    [](Engine &eng, BoundedQueue<int> &queue, std::vector<int> &sink,
       SimTime &at) -> Process {
        sink.push_back(co_await queue.pop());
        at = eng.now();
    }(engine, q, out, consumed_at);
    [](Engine &eng, BoundedQueue<int> &queue) -> Process {
        co_await eng.delay(42.0);
        co_await queue.push(99);
    }(engine, q);
    engine.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 99);
    EXPECT_DOUBLE_EQ(consumed_at, 42.0);
}

TEST(Queue, ManyProducersOneConsumer)
{
    Engine engine;
    BoundedQueue<int> q(engine, 3);
    std::vector<int> out;
    for (int p = 0; p < 8; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            co_await eng.delay(static_cast<SimTime>(id));
            co_await queue.push(id);
        }(engine, q, p);
    }
    consumer(engine, q, 8, 2.0, out);
    engine.run();
    EXPECT_EQ(out.size(), 8u);
    // Every producer's value arrives exactly once.
    std::vector<int> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sorted[i], i);
}

// ------------------------------------- zero-delay fast path & arenas

TEST(NowQueue, ZeroDelayFifoAfterSameTimestampFarEvents)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(5.0, [&] {
        order.push_back(0);
        // Zero-delay events land in the now queue...
        engine.schedule(0.0, [&] { order.push_back(2); });
        engine.schedule(0.0, [&] { order.push_back(3); });
        // ...while a coroutine awaiting delay(0) runs synchronously,
        // before anything queued above.
        [](Engine &eng, std::vector<int> &out) -> Process {
            co_await eng.delay(0.0);
            out.push_back(1);
        }(engine, order);
    });
    // Scheduled before run(): an earlier sequence number at the same
    // timestamp, so this far event must fire before the zero-delay
    // events created during dispatch at t=5.
    engine.schedule(5.0, [&] { order.push_back(4); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(NowQueue, RearmingZeroDelayChainsInterleaveBreadthFirst)
{
    Engine engine;
    std::vector<int> order;
    // Three chains of zero-delay events, each step re-arming the next
    // through the now queue. FIFO dispatch means the chains interleave
    // breadth-first in schedule order, never depth-first.
    std::function<void(int, int)> step = [&](int chain, int k) {
        order.push_back(chain * 10 + k);
        if (k < 2)
            engine.schedule(0.0, [&step, chain, k] { step(chain, k + 1); });
    };
    for (int c = 0; c < 3; ++c)
        engine.schedule(0.0, [&step, c] { step(c, 0); });
    engine.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
    EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Queue, BlockedProducersWakeInBlockOrder)
{
    Engine engine;
    BoundedQueue<int> q(engine, 1);
    std::vector<int> out;
    // Three producers, two pushes each, all blocking at t=0 on the
    // one-slot queue. Each pop must admit exactly the longest-blocked
    // producer's value.
    for (int p = 0; p < 3; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            (void)eng;
            co_await queue.push(id * 10);
            co_await queue.push(id * 10 + 1);
        }(engine, q, p);
    }
    consumer(engine, q, 6, 1.0, out);
    engine.run();
    // P0 buffers 0 and blocks on 1; P1 and P2 block behind it. Pops
    // then admit values in block order: 1, then P1's 10, then P2's 20
    // (P1 re-blocks with 11 before P2 re-blocks with 21).
    EXPECT_EQ(out, (std::vector<int>{0, 1, 10, 20, 11, 21}));
}

TEST(Engine, ReservedArenasNeverGrowOnResumePath)
{
    // With pre-sized arenas, a pure coroutine workload performs no
    // per-event allocation: the growth counter stays at zero across
    // tens of thousands of dispatches. Half the agents sleep; the
    // other half queue transfers on one shared BandwidthResource, so
    // resource waits are covered by the same contract as delays.
    constexpr int kAgents = 64;
    constexpr int kRounds = 200;
    auto spawn = [](Engine &eng, BandwidthResource &link) {
        for (int a = 0; a < kAgents; ++a) {
            [](Engine &e, int id) -> Process {
                for (int i = 0; i < kRounds; ++i)
                    co_await e.delay(1.0 + 0.25 * (id % 4));
            }(eng, a);
            [](BandwidthResource &res, int id) -> Process {
                for (int i = 0; i < kRounds; ++i)
                    co_await res.transfer(1.0 + (id % 3));
            }(link, a);
        }
    };
    Engine engine;
    engine.reserveEvents(2 * kAgents, kAgents);
    BandwidthResource link(engine, 4.0, "shared-link");
    spawn(engine, link);
    engine.run();
    EXPECT_EQ(engine.arenaGrowths(), 0u);
    EXPECT_EQ(engine.coroutineEvents(), 2u * kAgents * kRounds);
    EXPECT_EQ(link.requests(), static_cast<uint64_t>(kAgents) * kRounds);

    // Sanity: the counter does count — the same workload without
    // reserveEvents() must grow the arenas at least once.
    Engine cold;
    BandwidthResource cold_link(cold, 4.0, "shared-link");
    spawn(cold, cold_link);
    cold.run();
    EXPECT_GT(cold.arenaGrowths(), 0u);
}

} // namespace

// ------------------------------------------------ stress & property

namespace {

using namespace pgcn::sim;

TEST(EngineProperty, RandomScheduleRunsInOrder)
{
    // Schedule events at pseudo-random times; observed firing times
    // must be non-decreasing and the count exact.
    Engine engine;
    uint64_t state = 77;
    int fired = 0;
    SimTime last = -1.0;
    for (int i = 0; i < 5000; ++i) {
        const double when =
            static_cast<double>(pgcn::splitMix64(state) % 100000) / 10.0;
        engine.schedule(when, [&, when] {
            EXPECT_GE(engine.now(), last);
            EXPECT_DOUBLE_EQ(engine.now(), when);
            last = engine.now();
            ++fired;
        });
    }
    engine.run();
    EXPECT_EQ(fired, 5000);
}

TEST(ResourceProperty, BusyTimeNeverExceedsMakespan)
{
    Engine engine;
    BandwidthResource res(engine, 3.0);
    uint64_t state = 5;
    for (int i = 0; i < 200; ++i) {
        const double delay =
            static_cast<double>(pgcn::splitMix64(state) % 1000);
        const double amount =
            static_cast<double>(pgcn::splitMix64(state) % 500 + 1);
        engine.schedule(delay, [&res, amount] { res.reserve(amount); });
    }
    const SimTime end = engine.run();
    EXPECT_LE(res.busyTime(), std::max(end, res.nextFree()) + 1e-9);
    EXPECT_EQ(res.requests(), 200u);
}

TEST(QueueProperty, InterleavedProducersConsumersConserveItems)
{
    Engine engine;
    BoundedQueue<int> q(engine, 5);
    std::vector<int> seen;
    constexpr int kItems = 300;
    // Three producers with different pacing, one consumer.
    for (int p = 0; p < 3; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            for (int i = 0; i < kItems / 3; ++i) {
                co_await queue.push(id * 1000 + i);
                co_await eng.delay(static_cast<SimTime>(1 + id));
            }
        }(engine, q, p);
    }
    [](Engine &eng, BoundedQueue<int> &queue,
       std::vector<int> &sink) -> Process {
        for (int i = 0; i < kItems; ++i) {
            sink.push_back(co_await queue.pop());
            co_await eng.delay(0.5);
        }
    }(engine, q, seen);
    engine.run();
    ASSERT_EQ(seen.size(), static_cast<size_t>(kItems));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end())
        << "duplicate delivery";
    EXPECT_LE(q.highWater(), 5u);
}

TEST(QueueProperty, PerProducerOrderPreserved)
{
    Engine engine;
    BoundedQueue<int> q(engine, 2);
    std::vector<int> seen;
    [](Engine &, BoundedQueue<int> &queue) -> Process {
        for (int i = 0; i < 50; ++i)
            co_await queue.push(i);
    }(engine, q);
    [](Engine &eng, BoundedQueue<int> &queue,
       std::vector<int> &sink) -> Process {
        for (int i = 0; i < 50; ++i) {
            sink.push_back(co_await queue.pop());
            co_await eng.delay(1.0);
        }
    }(engine, q, seen);
    engine.run();
    ASSERT_EQ(seen.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(seen[i], i);
}

} // namespace

// ------------------------------------------------ equal-timestamp bursts
//
// Events at one bit-identical timestamp share a calendar bucket however
// narrow the bucket width, so the engine promotes a dense bucket to an
// exact (when, seq) heap. These tests pin that the promotion keeps the
// global dispatch order, releases parked frames on an aborted run and
// keeps the allocation-free contract. The EngineBurst suite runs under
// a tight ctest TIMEOUT (tests/CMakeLists.txt): scanning the dense
// bucket on every pop is quadratic in the burst and cannot finish.

namespace {

using namespace pgcn::sim;

/** One dispatched callback: its time and its schedule-order id. */
struct Fired
{
    SimTime when;
    uint64_t id;

    bool
    operator==(const Fired &o) const
    {
        return when == o.when && id == o.id;
    }
};

/**
 * Schedules logging callbacks. Every schedule() takes exactly one
 * engine sequence number, so ids issued in schedule order sort like
 * the engine's (when, seq) keys.
 */
struct BurstLog
{
    Engine &engine;
    uint64_t nextId = 0;
    std::vector<Fired> fired;

    void
    at(SimTime delay, std::function<void()> then = {})
    {
        const uint64_t id = nextId++;
        engine.schedule(delay, [this, id, then = std::move(then)] {
            fired.push_back({engine.now(), id});
            if (then)
                then();
        });
    }
};

TEST(EngineBurst, EqualTimestampBurstDispatchesInWhenSeqOrder)
{
    constexpr uint64_t kBurst = uint64_t{1} << 17;
    constexpr SimTime kT = 100.0;
    Engine engine;
    BurstLog log{engine, 0, {}};
    std::string mid_snapshot;

    // At t=50 a zero-delay follow-up makes the merge peek the far
    // wheel, which promotes the t=100 burst bucket while dispatch is
    // still at t=50; the follow-up then files events *behind* the
    // promoted bucket (t=60, t=75) and into it (t=100, later seq).
    log.at(50.0, [&] {
        log.at(0.0, [&] {
            log.at(10.0, [&] { log.at(40.0); });
            log.at(25.0);
            log.at(kT - 50.0);
        });
    });
    for (uint64_t i = 0; i < kBurst; ++i) {
        if (i % 4096 == 7) {
            // Burst members pushing into the promoted bucket (a
            // sub-bucket delay), the now queue and later buckets.
            log.at(kT, [&] {
                log.at(1e-9);
                log.at(0.0);
                log.at(0.5);
                log.at(37.25);
            });
        } else if (i == kBurst / 2) {
            log.at(kT, [&] { mid_snapshot = engine.snapshot(); });
        } else {
            log.at(kT);
        }
    }
    // Spread events after the burst and well before t=50 (nothing
    // may sit between t=50 and the burst, or the t=50 peek would stop
    // at that bucket instead of promoting the burst).
    for (int k = 1; k <= 1000; ++k)
        log.at(kT + 0.37 * k);
    for (int k = 1; k <= 64; ++k)
        log.at(10.0 + 0.5 * k);

    engine.run();

    ASSERT_EQ(log.fired.size(), log.nextId);
    std::vector<Fired> expected = log.fired;
    std::sort(expected.begin(), expected.end(),
              [](const Fired &a, const Fired &b) {
                  return a.when != b.when ? a.when < b.when : a.id < b.id;
              });
    const auto diverge = std::mismatch(log.fired.begin(), log.fired.end(),
                                       expected.begin());
    EXPECT_TRUE(diverge.first == log.fired.end())
        << "dispatch order diverges from (when, seq) at event "
        << (diverge.first - log.fired.begin()) << ": got t="
        << diverge.first->when << " id=" << diverge.first->id
        << ", expected t=" << diverge.second->when
        << " id=" << diverge.second->id;
    // Halfway through, the burst is served from the hot heap again
    // after the wheel was rebuilt: the first retune (far pop 1024,
    // mid-burst) grows the wheel past its initial 1024 buckets and so
    // flushes the populated heap back into it.
    EXPECT_NE(mid_snapshot.find("promoted from bucket"), std::string::npos)
        << mid_snapshot;
    EXPECT_EQ(mid_snapshot.find("far-wheel buckets: 1024 "),
              std::string::npos)
        << mid_snapshot;
}

TEST(EngineBurst, AbortedRunReleasesHotHeapFrames)
{
    // An event budget that trips halfway through the second of two
    // bursts leaves half the agents parked in the hot heap. Destroying
    // the engine must destroy each of those frames exactly once
    // (every frame's guard runs its destructor once, whether the
    // agent finished or was released).
    constexpr int kAgents = 4096;
    struct Guard
    {
        int &count;
        ~Guard() { ++count; }
    };
    int destroyed = 0;
    std::string breach;
    {
        Engine engine;
        for (int a = 0; a < kAgents; ++a) {
            [](Engine &eng, int &count) -> Process {
                Guard guard{count};
                co_await eng.delay(10.0);
                co_await eng.delay(10.0);
            }(engine, destroyed);
        }
        Engine::RunLimits limits;
        limits.maxEvents = kAgents + kAgents / 2;
        engine.setRunLimits(limits);
        try {
            engine.run();
            ADD_FAILURE() << "expected SimLimitError";
        } catch (const SimLimitError &e) {
            breach = e.what();
        }
        EXPECT_LT(destroyed, kAgents);
    }
    EXPECT_EQ(destroyed, kAgents);
    EXPECT_NE(breach.find("promoted from bucket"), std::string::npos)
        << breach;
}

TEST(EngineBurst, ReservedArenasNeverGrowOnResumePath)
{
    // The burst variant of Engine.ReservedArenasNeverGrowOnResumePath:
    // every agent wakes at the same timestamps, so each round is one
    // promoted bucket. reserveEvents() also sizes the hot heap, and
    // flushing it into a retuned wheel reuses the recycled wheel nodes.
    constexpr int kAgents = 4096;
    constexpr int kRounds = 16;
    auto spawn = [](Engine &eng, std::string &mid) {
        for (int a = 0; a < kAgents; ++a) {
            [](Engine &e, int id, std::string &probe) -> Process {
                for (int i = 0; i < kRounds; ++i) {
                    co_await e.delay(1.0);
                    if (id == kAgents / 2 + 7 && i == kRounds / 2)
                        probe = e.snapshot();
                }
            }(eng, a, mid);
        }
    };
    Engine engine;
    engine.reserveEvents(kAgents, kAgents);
    std::string mid;
    spawn(engine, mid);
    engine.run();
    EXPECT_EQ(engine.arenaGrowths(), 0u);
    EXPECT_EQ(engine.coroutineEvents(),
              static_cast<uint64_t>(kAgents) * kRounds);
    EXPECT_NE(mid.find("promoted from bucket"), std::string::npos) << mid;

    // Sanity: without reserveEvents() the hot heap has to grow.
    Engine cold;
    std::string cold_mid;
    spawn(cold, cold_mid);
    cold.run();
    EXPECT_GT(cold.arenaGrowths(), 0u);
}

} // namespace
