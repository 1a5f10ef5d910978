#include "piuma/dense_programs.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "piuma/memory.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "telemetry/session.hpp"

namespace pgcn::piuma {

namespace {

struct DenseContext
{
    DenseContext(const PiumaConfig &cfg_in)
        : engine(domains.engine(0)), cfg(cfg_in), memory(domains, cfg_in)
    {
        const unsigned total_mtps = cfg.numCores * cfg.mtpsPerCore;
        mtpIssue.reserve(total_mtps);
        for (unsigned m = 0; m < total_mtps; ++m)
            mtpIssue.emplace_back(engine, cfg.clockGhz);
    }

    /// Single-domain set: the dense kernel is a calibration-sized
    /// model (no sharding knob), but the memory system's protocol
    /// requires a DomainSet to route its request/response events.
    sim::DomainSet domains{1u};
    sim::Engine &engine;
    const PiumaConfig &cfg;
    MemorySystem memory;
    std::vector<sim::BandwidthResource> mtpIssue;

    /// Fault machinery (null / zero without injection). Coroutines
    /// record unrecoverable faults here and bail; simulateDenseMm
    /// raises SimFaultError after the run drains.
    sim::FaultInjector *faults = nullptr;
    double recoveryNs = 0.0;
    uint64_t stuckResets = 0;
    bool faulted = false;
    std::string faultSite;
    sim::SimTime faultWhenNs = 0.0;

    /** First unrecoverable fault wins (the run throws anyway). */
    void
    recordFault(const char *what, unsigned core, unsigned slice)
    {
        if (faulted)
            return;
        faulted = true;
        faultSite = "core" + std::to_string(core) + " " + what +
                    " on slice " + std::to_string(slice);
        faultWhenNs = engine.now();
    }
};

/**
 * One hardware thread computing its contiguous row range. Per row:
 * stream the K_in-float input row in (DMA-style pipelined read, so
 * transfer overlaps compute of the previous row), issue the
 * K_in x K_out MACs on the scalar pipeline, write the K_out-float
 * result row (posted).
 */
sim::Process
denseThreadProc(DenseContext &ctx, unsigned tid, uint64_t row_begin,
                uint64_t row_end, uint64_t k_in, uint64_t k_out)
{
    const unsigned core =
        tid / (ctx.cfg.mtpsPerCore * ctx.cfg.threadsPerMtp);
    auto &issue = ctx.mtpIssue[tid / ctx.cfg.threadsPerMtp];
    const double in_bytes = 4.0 * static_cast<double>(k_in);
    const double out_bytes = 4.0 * static_cast<double>(k_out);
    const double macs_per_row =
        static_cast<double>(k_in) * static_cast<double>(k_out);

    // Stuck-core hazard: drawn once per thread at start; the watchdog
    // reset costs stuckResetNs before the thread makes progress.
    if (ctx.faults != nullptr) [[unlikely]] {
        if (ctx.faults->stuckCore()) {
            co_await ctx.engine.delay(ctx.faults->config().stuckResetNs);
            ctx.recoveryNs += ctx.faults->config().stuckResetNs;
            ++ctx.stuckResets;
        }
    }

    for (uint64_t row = row_begin; row < row_end; ++row) {
        uint64_t h = row;
        const auto slice = static_cast<unsigned>(
            pgcn::splitMix64(h) % ctx.cfg.numCores);
        // Streamed input row: bandwidth reserved, latency pipelined
        // behind the previous row's compute (the response only pays
        // the return hop past bandwidth service).
        const MemoryAccess read = co_await ctx.memory.readStriped(
            core, slice, in_bytes, /*pipelined=*/true);
        ctx.recoveryNs += read.recoveryNs;
        if (read.failed) [[unlikely]] {
            ctx.recordFault("input-row read", core, slice);
            co_return;
        }

        // The MAC loop on the scalar pipeline (loop-unrolled; see
        // PiumaConfig::issueCostPerMac).
        co_await issue.transfer(ctx.cfg.issueCostPerMac * macs_per_row +
                                ctx.cfg.issueCostPerEdge);

        // Posted result-row write: the thread does not wait, so the
        // write is request-only traffic — but an unrecoverable drop
        // of it is still a lost result. Its recovery time and first
        // failure are recorded slice-side and consumed by
        // simulateDenseMm after the run drains (postedRecoveryNs /
        // postedFault).
        ctx.memory.writeStripedPosted(core, slice, out_bytes,
                                      /*pipelined=*/true);
    }
}

} // namespace

DenseRunStats
simulateDenseMm(uint64_t num_vertices, uint64_t k_in, uint64_t k_out,
                const PiumaConfig &cfg, telemetry::Session *session,
                const sim::SimControls *controls)
{
    cfg.validate();
    if (num_vertices == 0 || k_in == 0 || k_out == 0)
        PGCN_THROW(ShapeError, "dense MM needs positive dimensions");

    DenseContext ctx(cfg);

    if (controls != nullptr) {
        ctx.memory.setFaultInjector(controls->faults);
        ctx.faults = controls->faults;
        ctx.domains.setRunLimits(controls->limits);
    }

    if (session != nullptr) {
        session->beginKernel("dense/k_in=" + std::to_string(k_in) +
                             "/k_out=" + std::to_string(k_out));
        ctx.memory.attachTelemetry(session);
        telemetry::Registry &reg = session->registry();
        reg.registerGauge("sim.queue_depth", telemetry::GaugeKind::Value,
                          [&ctx] {
                              return static_cast<double>(
                                  ctx.engine.queueDepth());
                          });
        reg.registerGauge(
            "piuma.mtp.issue_util", telemetry::GaugeKind::Rate, [&ctx] {
                double busy = 0.0;
                for (const auto &r : ctx.mtpIssue)
                    busy += r.busyTime();
                return busy / static_cast<double>(ctx.mtpIssue.size());
            });
        if (session->samplePeriodNs() > 0.0) {
            ctx.domains.attachObserver(&session->sampler(),
                                       session->samplePeriodNs());
        }
    }

    const unsigned total_threads = cfg.totalThreads();
    for (unsigned tid = 0; tid < total_threads; ++tid) {
        const uint64_t begin = num_vertices * tid / total_threads;
        const uint64_t end = num_vertices * (tid + 1) / total_threads;
        if (begin < end)
            denseThreadProc(ctx, tid, begin, end, k_in, k_out);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    const sim::SimTime makespan = ctx.domains.run();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

    // Typed fault surfaces only after the run drains (coroutines never
    // throw through the engine). Posted result-row writes record their
    // unrecoverable drops slice-side; the earliest fault of either
    // kind wins.
    const PostedFault posted = ctx.memory.postedFault();
    if (posted.failed &&
        (!ctx.faulted || posted.whenNs < ctx.faultWhenNs)) {
        ctx.faulted = true;
        ctx.faultSite = "core" + std::to_string(posted.core) +
                        " result-row write on slice " +
                        std::to_string(posted.slice);
        ctx.faultWhenNs = posted.whenNs;
    }
    if (ctx.faulted) {
        throw sim::SimFaultError(
            ctx.faultSite, ctx.faultWhenNs,
            ctx.faults != nullptr ? ctx.faults->config().maxRetries + 1
                                  : 1);
    }

    DenseRunStats stats;
    stats.makespanNs = makespan;
    stats.flop = 2.0 * static_cast<double>(num_vertices) *
                 static_cast<double>(k_in) * static_cast<double>(k_out);
    stats.gflops = makespan > 0 ? stats.flop / makespan : 0.0;
    stats.memUtilization = ctx.memory.averageSliceUtilization(makespan);
    double issue_busy = 0.0;
    for (const auto &mtp : ctx.mtpIssue)
        issue_busy += mtp.utilization(makespan);
    stats.issueUtilization =
        issue_busy / static_cast<double>(ctx.mtpIssue.size());
    stats.retries = ctx.memory.retries();
    stats.timeoutsFired = ctx.memory.timeoutsFired() + ctx.stuckResets;
    stats.goodputBytes = ctx.memory.bytesRead() + ctx.memory.bytesWritten();
    stats.recoveryNs = ctx.recoveryNs + ctx.memory.postedRecoveryNs();
    stats.simEvents = ctx.domains.eventsProcessed();
    stats.wallSeconds = wall;
    stats.eventsPerSec =
        wall > 0.0 ? static_cast<double>(stats.simEvents) / wall : 0.0;
    stats.peakEventQueueDepth = ctx.domains.peakQueueDepth();
    checkRunStats(stats, num_vertices, k_in, k_out, cfg, controls);

    if (session != nullptr) {
        telemetry::Registry &reg = session->registry();
        reg.counter("piuma.dense.makespan_ns").add(stats.makespanNs);
        reg.counter("piuma.dense.flop").add(stats.flop);
        reg.counter("sim.events")
            .add(static_cast<double>(stats.simEvents));
        session->endKernel(stats.makespanNs);
    }
    return stats;
}

void
checkRunStats(const DenseRunStats &stats, uint64_t num_vertices,
              uint64_t k_in, uint64_t k_out, const PiumaConfig &cfg,
              const sim::SimControls *controls)
{
    // The bound is taken from the array sizes, not from the counted
    // traffic, so traffic the program drops or under-counts cannot
    // lower it.
    const double traffic = 4.0 * static_cast<double>(num_vertices) *
                           static_cast<double>(k_in + k_out);
    if (!(stats.goodputBytes >= traffic)) {
        PGCN_THROW(SimError, "dense run goodputBytes "
                                 << stats.goodputBytes
                                 << " below the traffic floor of X and Y, "
                                 << traffic);
    }
    const double bound = traffic / cfg.aggregateBandwidth();
    if (!(stats.makespanNs >= bound)) {
        PGCN_THROW(SimError, "dense makespan "
                                 << stats.makespanNs
                                 << " ns beats the bandwidth bound " << bound
                                 << " ns");
    }
    const bool drops = controls != nullptr && controls->faults != nullptr &&
                       controls->faults->config().anyDrops();
    if (!drops && (stats.retries != 0 || stats.timeoutsFired != 0)) {
        PGCN_THROW(SimError, "dense run with no drop fault armed fired "
                                 << stats.retries << " retries and "
                                 << stats.timeoutsFired << " timeouts");
    }
}

} // namespace pgcn::piuma
