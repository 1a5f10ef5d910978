#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/manifest.hpp"
#include "common/stats.hpp"
#include "common/version.hpp"
#include "core/gcn.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmm.hpp"
#include "model/spmm_model.hpp"
#include "parallel/thread_pool.hpp"
#include "piuma/memory.hpp"
#include "tensor/dense_mm.hpp"

namespace perfbench {

namespace {

namespace sim = pgcn::sim;
using pgcn::fnv1a64;
using piuma::SpmmAlgorithm;
using tensor::DenseMatrix;

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 5;

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
fmt(double v)
{
    std::ostringstream s;
    s.precision(10);
    s << v;
    return s.str();
}

/** Provenance common to every workload. */
void
addProvenance(Outcome &out, const RunOptions &opts)
{
    out.provenance = {
        {"workload", opts.workload},
        {"seed", std::to_string(opts.seed)},
        {"seconds", fmt(opts.seconds)},
        {"run", opts.trace ? "traced (per-layer)" : "end-to-end (untraced)"},
        {"inputs", opts.tiny ? "tiny (test only, not for recording)"
                             : "full"},
        {"git_sha", pgcn::version::kGitSha},
        {"git_dirty", pgcn::version::kGitDirty ? "true" : "false"},
        {"build_type", pgcn::version::kBuildType},
        {"compiler", pgcn::version::kCompiler},
        {"assertions", kAssertions
                           ? "ON (no NDEBUG): timings unfit to record"
                           : "off (NDEBUG)"},
        {"simd_tier", pgcn::kernels::simd::tierName(
                          pgcn::kernels::simd::activeTier())},
        {"nproc", std::to_string(hostThreads())},
    };
}

void
addGraphProvenance(Outcome &out, const graph::Csr &csr, const RmatShape &shape)
{
    out.provenance.emplace_back(
        "graph", "rmat scale " + std::to_string(shape.scale) + ", " +
                     std::to_string(shape.edges) + " samples -> |V|=" +
                     std::to_string(csr.numVertices()) +
                     " |E|=" + std::to_string(csr.numEdges()) +
                     " digest " + pgcn::hashHex(graphDigest(csr)));
}

/** Per-layer values, every name present and zero until measured. */
std::map<std::string, double>
zeroLayers()
{
    std::map<std::string, double> layers;
    for (const auto &[name, unit] : perLayerMetrics())
        layers[name] = 0.0;
    return layers;
}

/** The end-to-end metrics, in endToEndMetrics() order. */
void
emitEndToEnd(Outcome &out, const std::vector<double> &setup_ns,
             const std::vector<double> &pass_ns)
{
    out.add("setup_s", pgcn::percentile(setup_ns, 50.0) / 1e9, "s");
    out.add("wall_s", pgcn::percentile(pass_ns, 50.0) / 1e9, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

void
emitLayers(Outcome &out, const std::map<std::string, double> &layers)
{
    for (const auto &[name, unit] : perLayerMetrics())
        out.add(name, layers.at(name), unit);
}

void
writeTrace(const Tracer &tracer, const RunOptions &opts, Outcome &out)
{
    std::filesystem::create_directories(opts.traceDir);
    const std::string path = opts.traceDir + "/trace-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    tracer.writeJson(path, out.provenance);
    out.notes.emplace_back("trace_file", path + " (" +
                                             std::to_string(
                                                 tracer.spans().size()) +
                                             " spans)");
}

// ---- DES workloads ---------------------------------------------------

/** One simulated kernel call. */
struct DesRequest
{
    bool dense = false;
    unsigned cores = 1;
    unsigned k = 8; ///< SpMM K, or K_in == K_out of the dense update
    SpmmAlgorithm alg = SpmmAlgorithm::Dma;
};

std::string
describe(const DesRequest &r)
{
    std::string s = r.dense ? "dense" : std::string("spmm/") +
                                            piuma::spmmAlgorithmName(r.alg);
    return s + "/cores=" + std::to_string(r.cores) +
           "/k=" + std::to_string(r.k);
}

struct DesSpec
{
    RmatShape shape;
    std::vector<DesRequest> list;
};

DesSpec
desSpec(const RunOptions &opts)
{
    const auto dma = SpmmAlgorithm::Dma;
    const auto lu = SpmmAlgorithm::LoopUnrolled;
    DesSpec spec;
    if (opts.workload == "des-sweep") {
        // The Fig. 7/8/10 regime on the products proxy: 1-32 cores,
        // K in {8, 64, 256}, both SpMM algorithms, plus dense updates.
        // Under 64 cores the auto plan picks one sequenced domain.
        spec.shape = proxyShape(graph::datasetByName("products"),
                                opts.tiny ? 1u << 12 : 1u << 18);
        spec.list = {
            {false, 1, 64, lu},  {false, 1, 256, dma}, {false, 2, 64, dma},
            {false, 16, 8, dma}, {false, 32, 8, lu},   {true, 1, 256, dma},
            {true, 8, 64, dma},  {true, 32, 8, dma},
        };
        // A fixed list in a seeded order.
        std::mt19937_64 rng(opts.seed);
        std::shuffle(spec.list.begin(), spec.list.end(), rng);
    } else {
        // One GCN layer at large-machine scale on a skewed RMAT proxy:
        // dense update, then the DMA SpMM. Scale 12 rather than the
        // rmat-14 graph of fig8 --mega: at 128 cores it keeps the
        // parallel plan, ~60 K-deep calendars and the dense program's
        // cost growth, while a pass (~4 s instead of ~15 s) repeats
        // often enough in a run for its median to be steady.
        spec.shape = opts.tiny ? RmatShape{10, 1u << 13}
                               : RmatShape{12, 1u << 16};
        const unsigned cores = opts.tiny ? 64 : 128;
        spec.list = {{true, cores, 16, dma}, {false, cores, 16, dma}};
    }
    return spec;
}

/** The plan's domain count and mode for a simulation. */
sim::SimControls
autoControls()
{
    sim::SimControls controls;
    controls.domains = 0; // auto
    controls.domainMode = sim::DomainMode::Auto;
    return controls;
}

piuma::PiumaConfig
configFor(const DesRequest &r)
{
    piuma::PiumaConfig cfg;
    cfg.numCores = r.cores;
    return cfg;
}

/** The domain plan the program picks for an SpMM request. */
sim::DomainSet::Options
planFor(const DesRequest &r)
{
    const sim::SimControls controls = autoControls();
    return piuma::MemorySystem::domainPlan(configFor(r), &controls, false);
}

struct DesResult
{
    DesRequest req;
    piuma::SpmmRunStats spmm;
    piuma::DenseRunStats dense;
    double hostNs = 0.0;
    uint64_t digest = 0;
    std::string error;
};

DesResult
runDes(const DesRequest &req, const graph::Csr &csr,
       const sim::SimControls &controls, Tracer *tracer, uint64_t request)
{
    DesResult r;
    r.req = req;
    const piuma::PiumaConfig cfg = configFor(req);
    try {
        ScopedSpan span(tracer,
                        req.dense ? "piuma.simulateDenseMm"
                                  : "piuma.simulateSpmm",
                        request);
        const double t0 = nowNs();
        if (req.dense) {
            r.dense = piuma::simulateDenseMm(csr.numVertices(), req.k,
                                             req.k, cfg, nullptr, &controls);
        } else {
            r.spmm = piuma::simulateSpmm(csr, req.k, cfg, req.alg, nullptr,
                                         &controls);
        }
        r.hostNs = nowNs() - t0;
    } catch (const std::exception &e) {
        r.error = describe(req) + ": threw: " + e.what();
        return r;
    }
    r.error = req.dense
                  ? checkDense(csr.numVertices(), req.k, req.k, cfg, r.dense)
                  : checkSpmm(csr, req.k, cfg, r.spmm);
    r.digest = req.dense ? statsDigest(r.dense) : statsDigest(r.spmm);
    if (!r.error.empty())
        r.error = describe(req) + ": " + r.error;
    return r;
}

struct DesPass
{
    std::vector<DesResult> results;
    double wallNs = 0.0;
};

/**
 * Run the request list once, in order, recording each request. A
 * request also fails when its statistics differ from the same
 * request's in @p first (the run's first pass): the model is
 * deterministic, so any drift is a bug.
 */
DesPass
runDesPass(const DesSpec &spec, const graph::Csr &csr, Outcome &out,
           Tracer *tracer, uint64_t &next_request, const DesPass *first)
{
    DesPass pass;
    const sim::SimControls controls = autoControls();
    const double t0 = nowNs();
    for (size_t i = 0; i < spec.list.size(); ++i) {
        DesResult r =
            runDes(spec.list[i], csr, controls, tracer, next_request++);
        if (r.error.empty() && first != nullptr &&
            r.digest != first->results[i].digest) {
            r.error = describe(r.req) + ": statistics differ from the "
                                        "first pass (digest " +
                      pgcn::hashHex(r.digest) + " vs " +
                      pgcn::hashHex(first->results[i].digest) + ")";
        }
        out.record(r.error);
        pass.results.push_back(std::move(r));
    }
    pass.wallNs = nowNs() - t0;
    return pass;
}

uint64_t
passDigest(const DesPass &pass)
{
    uint64_t h = pgcn::kFnv1aOffset;
    for (const DesResult &r : pass.results)
        h = fnv1a64(r.digest, h);
    return h;
}

void
addPlanProvenance(Outcome &out, const DesSpec &spec)
{
    std::vector<unsigned> seen;
    for (const DesRequest &r : spec.list) {
        if (r.dense || std::find(seen.begin(), seen.end(), r.cores) !=
                           seen.end()) {
            continue;
        }
        seen.push_back(r.cores);
        const auto plan = planFor(r);
        out.provenance.emplace_back(
            "domain_plan cores=" + std::to_string(r.cores),
            std::to_string(plan.domains) + " domain(s), " +
                (plan.mode == sim::DomainSet::Mode::Parallel ? "parallel"
                                                             : "sequenced") +
                ", lookahead " + fmt(plan.lookaheadNs) + " ns");
    }
}

double
sumMakespanUs(const DesPass &pass)
{
    double ns = 0.0;
    for (const DesResult &r : pass.results)
        ns += r.req.dense ? r.dense.makespanNs : r.spmm.makespanNs;
    return ns / 1e3;
}

/** The sim/piuma per-layer values of one traced pass. */
void
desLayers(const DesPass &pass, std::map<std::string, double> &layers)
{
    double spmm_events = 0, dense_events = 0, spmm_flop = 0, dense_flop = 0;
    double spmm_makespan = 0, dense_makespan = 0, cp_events = 0;
    double mem_accesses = 0, remote_accesses = 0;
    double peak_depth = 0, domains = 0, parallel = 0;
    // Utilisations: makespan-weighted means over the SpMM calls.
    double mem = 0, max_mem = 0, net = 0, dma = 0, issue = 0;
    double stall_mem = 0, stall_net = 0, dma_queue = 0;
    for (const DesResult &r : pass.results) {
        if (r.req.dense) {
            const auto &s = r.dense;
            dense_events += static_cast<double>(s.simEvents);
            dense_flop += s.flop;
            dense_makespan += s.makespanNs;
            peak_depth = std::max(peak_depth,
                                  static_cast<double>(s.peakEventQueueDepth));
            continue;
        }
        const auto &s = r.spmm;
        const double w = s.makespanNs;
        spmm_events += static_cast<double>(s.simEvents);
        spmm_flop += s.flop;
        spmm_makespan += w;
        cp_events += static_cast<double>(s.criticalPathEvents);
        mem_accesses += static_cast<double>(s.memAccesses);
        remote_accesses += static_cast<double>(s.memRemoteAccesses);
        peak_depth = std::max(peak_depth,
                              static_cast<double>(s.peakEventQueueDepth));
        mem += w * s.memUtilization;
        max_mem += w * s.maxMemUtilization;
        net += w * s.netUtilization;
        dma += w * s.dmaUtilization;
        issue += w * s.issueUtilization;
        stall_mem += s.stallMemoryNs;
        stall_net += s.stallNetworkNs;
        dma_queue += s.dmaQueueStallNs;
        const auto plan = planFor(r.req);
        domains = std::max(domains, static_cast<double>(plan.domains));
        if (plan.mode == sim::DomainSet::Mode::Parallel)
            parallel = 1.0;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    layers["sim.events"] = spmm_events + dense_events;
    layers["sim.peak_queue_depth"] = peak_depth;
    layers["sim.cp_parallelism"] = ratio(spmm_events, cp_events);
    layers["sim.domains"] = domains;
    layers["sim.parallel"] = parallel;
    layers["sim.makespan_us"] = sumMakespanUs(pass);
    layers["piuma.spmm.gflops"] = ratio(spmm_flop, spmm_makespan);
    layers["piuma.dense.gflops"] = ratio(dense_flop, dense_makespan);
    layers["piuma.mem_util"] = ratio(mem, spmm_makespan);
    layers["piuma.max_mem_util"] = ratio(max_mem, spmm_makespan);
    layers["piuma.net_util"] = ratio(net, spmm_makespan);
    layers["piuma.dma_util"] = ratio(dma, spmm_makespan);
    layers["piuma.issue_util"] = ratio(issue, spmm_makespan);
    layers["piuma.remote_fraction"] = ratio(remote_accesses, mem_accesses);
    layers["piuma.stall_mem_ns"] = stall_mem;
    layers["piuma.stall_net_ns"] = stall_net;
    layers["piuma.dma_queue_stall_ns"] = dma_queue;
    layers["sim.spmm.events"] = spmm_events;
    layers["sim.dense.events"] = dense_events;
}

Outcome
runDesWorkload(const RunOptions &opts)
{
    Outcome out;
    addProvenance(out, opts);
    const DesSpec spec = desSpec(opts);
    std::string order;
    for (const DesRequest &r : spec.list)
        order += (order.empty() ? "" : ", ") + describe(r);
    out.provenance.emplace_back("request_list", order);
    addPlanProvenance(out, spec);

    Tracer tracer;
    Tracer *traced = opts.trace ? &tracer : nullptr;
    uint64_t next_request = 1;

    // Set-up: generate and normalise the graph, kSetupReps times (once
    // in the traced run, under spans).
    std::vector<double> setup_ns;
    GraphInput input;
    for (unsigned rep = 0; rep < (opts.trace ? 1u : kSetupReps); ++rep) {
        const double t0 = nowNs();
        input = makeGraph(spec.shape, opts.seed, traced, next_request++);
        setup_ns.push_back(nowNs() - t0);
    }
    const graph::Csr &csr = input.adjacency;
    addGraphProvenance(out, csr, spec.shape);

    const double start = nowNs();
    std::vector<double> walls, traced_walls;
    DesPass first, last_traced;
    auto untraced_pass = [&] {
        DesPass pass = runDesPass(spec, csr, out, nullptr, next_request,
                                  walls.empty() ? nullptr : &first);
        walls.push_back(pass.wallNs);
        if (walls.size() == 1)
            first = std::move(pass);
    };
    auto traced_pass = [&] {
        last_traced = runDesPass(spec, csr, out, traced, next_request, &first);
        traced_walls.push_back(last_traced.wallNs);
    };
    do {
        // The traced run alternates which pass of a pair goes first, so
        // trace.overhead_frac carries no ordering bias.
        const bool traced_first = opts.trace && walls.size() % 2 == 1;
        if (traced_first)
            traced_pass();
        untraced_pass();
        if (opts.trace && !traced_first)
            traced_pass();
    } while (nowNs() - start < opts.seconds * 1e9);

    out.notes.emplace_back(
        "passes", std::to_string(walls.size()) + " (host s: min " +
                      fmt(*std::min_element(walls.begin(), walls.end()) / 1e9) +
                      ", max " +
                      fmt(*std::max_element(walls.begin(), walls.end()) / 1e9) +
                      ")");
    out.notes.emplace_back("sim_makespan_us (simulated)",
                           fmt(sumMakespanUs(first)));
    out.notes.emplace_back("stats_digest", pgcn::hashHex(passDigest(first)));

    if (!opts.trace) {
        double events = 0, host_ns = 0;
        for (const DesResult &r : first.results) {
            events += static_cast<double>(r.req.dense ? r.dense.simEvents
                                                      : r.spmm.simEvents);
            host_ns += r.hostNs;
        }
        out.notes.emplace_back("host_events_per_s",
                               fmt(events / (host_ns / 1e9)));
        emitEndToEnd(out, setup_ns, walls);
        return out;
    }

    // The auto plan must give the same statistics as the sequenced
    // oracle: rerun every multi-domain SpMM under DomainMode::Sequenced
    // with the plan's domain count.
    for (const DesResult &r : last_traced.results) {
        if (r.req.dense)
            continue;
        const auto plan = planFor(r.req);
        if (plan.domains < 2)
            continue;
        sim::SimControls sequenced;
        sequenced.domains = plan.domains;
        sequenced.domainMode = sim::DomainMode::Sequenced;
        DesResult oracle = runDes(r.req, csr, sequenced, nullptr,
                                  next_request++);
        if (oracle.error.empty() && oracle.digest != r.digest) {
            oracle.error = describe(r.req) +
                           ": sequenced statistics differ from the auto "
                           "plan's (digest " +
                           pgcn::hashHex(oracle.digest) + " vs " +
                           pgcn::hashHex(r.digest) + ")";
        }
        out.record(oracle.error);
        out.notes.emplace_back("sequenced_check " + describe(r.req),
                               oracle.error.empty() ? "identical"
                                                    : "DIFFERS");
    }

    auto layers = zeroLayers();
    const double passes = static_cast<double>(traced_walls.size());
    layers["graph.build_s"] = input.buildNs / 1e9;
    layers["graph.normalize_s"] = input.normalizeNs / 1e9;
    desLayers(last_traced, layers);
    const double spmm_ns = tracer.totalNs("piuma.simulateSpmm") / passes;
    const double dense_ns = tracer.totalNs("piuma.simulateDenseMm") / passes;
    layers["piuma.spmm.host_s"] = spmm_ns / 1e9;
    layers["piuma.dense.host_s"] = dense_ns / 1e9;
    layers["piuma.spmm.calls"] =
        static_cast<double>(tracer.count("piuma.simulateSpmm")) / passes;
    layers["piuma.dense.calls"] =
        static_cast<double>(tracer.count("piuma.simulateDenseMm")) / passes;
    if (layers["sim.spmm.events"] > 0)
        layers["sim.spmm.ns_per_event"] = spmm_ns / layers["sim.spmm.events"];
    if (layers["sim.dense.events"] > 0)
        layers["sim.dense.ns_per_event"] =
            dense_ns / layers["sim.dense.events"];
    layers["trace.overhead_frac"] = pgcn::percentile(traced_walls, 50.0) /
                                        pgcn::percentile(walls, 50.0) -
                                    1.0;
    emitLayers(out, layers);
    writeTrace(tracer, opts, out);
    return out;
}

// ---- host-infer --------------------------------------------------------

pgcn::core::GcnModelConfig
hostModelConfig()
{
    pgcn::core::GcnModelConfig cfg;
    cfg.inputDim = 100; // products features
    cfg.hiddenDim = 128;
    cfg.outputDim = 47; // products classes
    cfg.numLayers = 3;
    return cfg;
}

/** The products proxy host-infer runs on (2^20-edge budget). */
RmatShape
hostShape(const RunOptions &opts)
{
    return proxyShape(graph::datasetByName("products"),
                      opts.tiny ? 1u << 14 : 1u << 20);
}

/** Everything host-infer's set-up builds. */
struct HostSetup
{
    GraphInput graph;
    DenseMatrix features;
    std::unique_ptr<pgcn::core::GcnModel> model;
    std::unique_ptr<pgcn::parallel::ThreadPool> pool;
};

HostSetup
hostSetup(const RunOptions &opts, Tracer *tracer, uint64_t request)
{
    HostSetup s;
    s.graph = makeGraph(hostShape(opts), opts.seed, tracer, request);
    const auto cfg = hostModelConfig();
    s.features.resize(s.graph.adjacency.numVertices(), cfg.inputDim);
    s.features.fillRandom(opts.seed ^ 0x9e3779b97f4a7c15ull);
    s.model = std::make_unique<pgcn::core::GcnModel>(cfg, opts.seed);
    s.pool = std::make_unique<pgcn::parallel::ThreadPool>(hostThreads());
    return s;
}

/** Logits from the serial reference kernels (computed once, untimed). */
DenseMatrix
referenceLogits(const HostSetup &s)
{
    const auto &cfg = s.model->config();
    DenseMatrix h = s.features;
    DenseMatrix mid;
    DenseMatrix out;
    for (unsigned l = 0; l < cfg.numLayers; ++l) {
        if (cfg.order == pgcn::core::LayerOrder::TransformThenAggregate) {
            tensor::denseMmReference(h, s.model->weights(l), mid);
            pgcn::kernels::spmmReference(s.graph.adjacency, mid, out);
        } else {
            pgcn::kernels::spmmReference(s.graph.adjacency, h, mid);
            tensor::denseMmReference(mid, s.model->weights(l), out);
        }
        if (l + 1 < cfg.numLayers) {
            float *v = out.data();
            for (uint64_t i = 0; i < out.rows() * out.cols(); ++i)
                v[i] = std::max(v[i], 0.0f);
        }
        std::swap(h, out);
    }
    return h;
}

/**
 * The inference pass rebuilt from the public kernels, with a span
 * around each call: GcnModel::infer's sequence for the library's
 * default SpMM kind (vertex-parallel).
 */
DenseMatrix
rebuiltPass(const HostSetup &s, Tracer *tracer, uint64_t request)
{
    const auto &cfg = s.model->config();
    const graph::Csr &a = s.graph.adjacency;
    ScopedSpan pass(tracer, "rebuilt.pass", request);
    DenseMatrix h = s.features;
    DenseMatrix mid;
    DenseMatrix out;
    auto spmm = [&](const DenseMatrix &in, DenseMatrix &res) {
        ScopedSpan span(tracer, "kernels.spmmVertexParallel", request,
                        pass.id());
        pgcn::kernels::spmmVertexParallel(a, in, res, *s.pool);
    };
    auto gemm = [&](const DenseMatrix &in, unsigned l, DenseMatrix &res) {
        ScopedSpan span(tracer, "tensor.denseMmBlocked", request, pass.id());
        tensor::denseMmBlocked(in, s.model->weights(l), res);
    };
    for (unsigned l = 0; l < cfg.numLayers; ++l) {
        if (cfg.order == pgcn::core::LayerOrder::TransformThenAggregate) {
            gemm(h, l, mid);
            spmm(mid, out);
        } else {
            spmm(h, mid);
            gemm(mid, l, out);
        }
        if (l + 1 < cfg.numLayers) {
            ScopedSpan span(tracer, "tensor.reluInPlace", request, pass.id());
            tensor::reluInPlace(out);
        }
        std::swap(h, out);
    }
    return h;
}

/** Time one GcnModel::infer call and check its logits. */
double
timedInfer(const HostSetup &s, const DenseMatrix &ref, Outcome &out,
           Tracer *tracer, uint64_t request, DenseMatrix *logits = nullptr)
{
    std::string error;
    double ns = 0.0;
    try {
        DenseMatrix y;
        {
            ScopedSpan span(tracer, "core.infer", request);
            const double t0 = nowNs();
            y = s.model->infer(s.graph.adjacency, s.features, *s.pool);
            ns = nowNs() - t0;
        }
        error = checkLogits(y, ref);
        if (logits != nullptr)
            *logits = std::move(y);
    } catch (const std::exception &e) {
        error = std::string("infer threw: ") + e.what();
    }
    out.record(error);
    return ns;
}

Outcome
runHostWorkload(const RunOptions &opts)
{
    Outcome out;
    addProvenance(out, opts);
    out.provenance.emplace_back(
        "model", "GCN 3 layers 100->128->128->47, default SpMM kind, "
                 "ThreadPool(" + std::to_string(hostThreads()) + ")");
    Tracer tracer;
    Tracer *traced = opts.trace ? &tracer : nullptr;
    uint64_t next_request = 1;

    std::vector<double> setup_ns;
    HostSetup setup;
    for (unsigned rep = 0; rep < (opts.trace ? 1u : kSetupReps); ++rep) {
        setup = HostSetup{}; // release the previous set-up first
        const double t0 = nowNs();
        setup = hostSetup(opts, traced, next_request++);
        setup_ns.push_back(nowNs() - t0);
    }
    addGraphProvenance(out, setup.graph.adjacency, hostShape(opts));
    const DenseMatrix ref = referenceLogits(setup);
    std::ostringstream tolerance;
    tolerance << "max |infer - reference| <= " << kLogitTolerance
              << " * max(1, max |reference|)";
    out.notes.emplace_back("logit_tolerance", tolerance.str());

    const auto &a = setup.graph.adjacency;
    const double start = nowNs();
    std::vector<double> lat, traced_lat;
    std::vector<double> spmm_ns, gemm_ns, relu_ns;
    float rebuilt_diff = 0.0f;
    auto traced_iteration = [&] {
        const uint64_t request = next_request++;
        DenseMatrix logits;
        traced_lat.push_back(
            timedInfer(setup, ref, out, traced, request, &logits));
        // The rebuilt pass must give infer's logits (same kernels).
        const size_t before = tracer.spans().size();
        std::string error;
        try {
            const DenseMatrix rebuilt = rebuiltPass(setup, traced, request);
            error = checkLogits(rebuilt, logits);
            if (error.empty())
                rebuilt_diff = std::max(rebuilt_diff,
                                        tensor::maxAbsDiff(rebuilt, logits));
            else
                error = "rebuilt pass vs infer: " + error;
        } catch (const std::exception &e) {
            error = std::string("rebuilt pass threw: ") + e.what();
        }
        out.record(error);
        double s = 0, g = 0, r = 0;
        for (size_t i = before; i < tracer.spans().size(); ++i) {
            const Span &sp = tracer.spans()[i];
            const double d = sp.endNs - sp.startNs;
            if (sp.name == "kernels.spmmVertexParallel")
                s += d;
            else if (sp.name == "tensor.denseMmBlocked")
                g += d;
            else if (sp.name == "tensor.reluInPlace")
                r += d;
        }
        spmm_ns.push_back(s);
        gemm_ns.push_back(g);
        relu_ns.push_back(r);
    };
    do {
        // As for the DES workloads: alternate the order in the traced run.
        const bool traced_first = opts.trace && lat.size() % 2 == 1;
        if (traced_first)
            traced_iteration();
        lat.push_back(timedInfer(setup, ref, out, nullptr, next_request++));
        if (opts.trace && !traced_first)
            traced_iteration();
    } while (nowNs() - start < opts.seconds * 1e9);

    if (!opts.trace) {
        const size_t n = lat.size();
        double total = 0;
        for (double v : lat)
            total += v;
        out.notes.emplace_back("infer_samples", std::to_string(n));
        out.notes.emplace_back("infer_p50_ms",
                               fmt(pgcn::percentile(lat, 50.0) / 1e6));
        out.notes.emplace_back(
            "infer_p90_ms",
            samplesBeyond(n, 90.0) >= kMinSamplesBeyond
                ? fmt(pgcn::percentile(lat, 90.0) / 1e6)
                : "n/a (" + std::to_string(n) +
                      " samples; p90 needs 10 beyond it)");
        out.notes.emplace_back("infer_per_s", fmt(n / (total / 1e9)));
        emitEndToEnd(out, setup_ns, lat);
        return out;
    }

    out.notes.emplace_back("rebuilt_vs_infer_max_abs_diff",
                           fmt(rebuilt_diff));
    const auto cfg = setup.model->config();
    double spmm_flop = 0, gemm_flop = 0, spmm_bytes = 0;
    const double v = static_cast<double>(a.numVertices());
    const double e = static_cast<double>(a.numEdges());
    for (const auto &d : cfg.layerDims()) {
        const uint64_t k = cfg.spmmDim(d);
        spmm_flop += 2.0 * e * static_cast<double>(k);
        gemm_flop += 2.0 * v * static_cast<double>(d.inDim * d.outDim);
        // Eq. 1-3 byte counts, computed from the array sizes.
        spmm_bytes += pgcn::model::estimateSpmm(
                          {a.numVertices(), a.numEdges(), k}, 1.0, 1.0)
                          .totalBytes();
    }
    auto layers = zeroLayers();
    layers["graph.build_s"] = setup.graph.buildNs / 1e9;
    layers["graph.normalize_s"] = setup.graph.normalizeNs / 1e9;
    const double s_ns = pgcn::percentile(spmm_ns, 50.0);
    const double g_ns = pgcn::percentile(gemm_ns, 50.0);
    const double r_ns = pgcn::percentile(relu_ns, 50.0);
    const double infer_ns = pgcn::percentile(traced_lat, 50.0);
    layers["kernels.spmm_ms"] = s_ns / 1e6;
    layers["kernels.spmm_gflops"] = spmm_flop / s_ns;
    layers["kernels.spmm_bytes"] = spmm_bytes;
    layers["tensor.gemm_ms"] = g_ns / 1e6;
    layers["tensor.gemm_gflops"] = gemm_flop / g_ns;
    layers["tensor.relu_ms"] = r_ns / 1e6;
    layers["core.infer_ms"] = infer_ns / 1e6;
    layers["core.self_ms"] = (infer_ns - s_ns - g_ns - r_ns) / 1e6;
    layers["trace.overhead_frac"] =
        infer_ns / pgcn::percentile(lat, 50.0) - 1.0;
    emitLayers(out, layers);
    writeTrace(tracer, opts, out);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"des-sweep", "des-machine",
                                                "host-infer"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m{
        {"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MB"}};
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m{
        {"graph.build_s", "s"},
        {"graph.normalize_s", "s"},
        {"piuma.spmm.host_s", "s"},
        {"piuma.dense.host_s", "s"},
        {"piuma.spmm.calls", "count"},
        {"piuma.dense.calls", "count"},
        {"sim.events", "count"},
        {"sim.spmm.events", "count"},
        {"sim.dense.events", "count"},
        {"sim.spmm.ns_per_event", "ns"},
        {"sim.dense.ns_per_event", "ns"},
        {"sim.peak_queue_depth", "count"},
        {"sim.cp_parallelism", "ratio"},
        {"sim.domains", "count"},
        {"sim.parallel", "flag"},
        {"sim.makespan_us", "sim_us"},
        {"piuma.spmm.gflops", "GFLOP/s"},
        {"piuma.dense.gflops", "GFLOP/s"},
        {"piuma.mem_util", "fraction"},
        {"piuma.max_mem_util", "fraction"},
        {"piuma.net_util", "fraction"},
        {"piuma.dma_util", "fraction"},
        {"piuma.issue_util", "fraction"},
        {"piuma.remote_fraction", "fraction"},
        {"piuma.stall_mem_ns", "sim_ns"},
        {"piuma.stall_net_ns", "sim_ns"},
        {"piuma.dma_queue_stall_ns", "sim_ns"},
        {"kernels.spmm_ms", "ms"},
        {"kernels.spmm_gflops", "GFLOP/s"},
        {"kernels.spmm_bytes", "bytes"},
        {"tensor.gemm_ms", "ms"},
        {"tensor.gemm_gflops", "GFLOP/s"},
        {"tensor.relu_ms", "ms"},
        {"core.infer_ms", "ms"},
        {"core.self_ms", "ms"},
        {"trace.overhead_frac", "fraction"},
    };
    return m;
}

Outcome
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "des-sweep" || opts.workload == "des-machine")
        return runDesWorkload(opts);
    if (opts.workload == "host-infer")
        return runHostWorkload(opts);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

RmatShape
proxyShape(const graph::DatasetInfo &info, graph::EdgeId max_edges)
{
    // graph::buildProxy's sizing for a skewed dataset: shrink vertices
    // and edges by one factor, round |V| up to a power of two.
    const double shrink =
        std::max(1.0, static_cast<double>(info.numEdges) /
                          static_cast<double>(max_edges));
    const auto edges = static_cast<graph::EdgeId>(
        static_cast<double>(info.numEdges) / shrink);
    const auto vertices = static_cast<uint64_t>(
        std::max(2.0, static_cast<double>(info.numVertices) / shrink));
    uint32_t scale = 1;
    while ((uint64_t{1} << scale) < vertices)
        ++scale;
    return RmatShape{scale, edges};
}

GraphInput
makeGraph(const RmatShape &shape, uint64_t seed, Tracer *tracer,
          uint64_t request)
{
    GraphInput in;
    ScopedSpan setup(tracer, "setup.graph", request);
    double t0 = nowNs();
    graph::Coo coo(0);
    {
        ScopedSpan span(tracer, "graph.generateRmat", request, setup.id());
        coo = graph::generateRmat(shape.scale, shape.edges,
                                  graph::rmatSkewed(), seed);
    }
    in.buildNs = nowNs() - t0;
    t0 = nowNs();
    {
        ScopedSpan span(tracer, "graph.normalizedAdjacency", request,
                        setup.id());
        in.adjacency = graph::normalizedAdjacency(coo);
    }
    in.normalizeNs = nowNs() - t0;
    return in;
}

uint64_t
graphDigest(const graph::Csr &csr)
{
    const auto &ro = csr.rowOffsets();
    const auto &cols = csr.cols();
    const auto &vals = csr.vals();
    uint64_t h = fnv1a64(ro.data(), ro.size() * sizeof(ro[0]));
    h = fnv1a64(cols.data(), cols.size() * sizeof(cols[0]), h);
    return fnv1a64(vals.data(), vals.size() * sizeof(vals[0]), h);
}

uint64_t
statsDigest(const piuma::SpmmRunStats &s)
{
    uint64_t h = pgcn::kFnv1aOffset;
    for (const double v :
         {s.makespanNs, s.flop, s.gflops, s.bytesRead, s.bytesWritten,
          s.bytesServed, s.memUtilization, s.maxMemUtilization,
          s.netUtilization, s.remoteAccessFraction, s.maxSliceBytesFraction,
          s.nnzStallNs, s.rowOffsetStallNs, s.featureStallNs,
          s.dmaQueueStallNs, s.issueNs, s.stallMemoryNs, s.stallNetworkNs,
          s.issueUtilization, s.dmaUtilization, s.criticalPathParallelism,
          s.latencyHidingEffectiveness, s.exposedStallNs, s.avgNnzLatencyNs,
          s.goodputBytes, s.retriedBytes, s.recoveryNs}) {
        h = fnv1a64(v, h);
    }
    for (const uint64_t v :
         {s.memAccesses, s.memRemoteAccesses, s.criticalPathEvents,
          s.nnzReads, s.dmaDescriptors, s.simEvents, s.retries,
          s.timeoutsFired, s.stuckResets}) {
        h = fnv1a64(v, h);
    }
    return h;
}

uint64_t
statsDigest(const piuma::DenseRunStats &s)
{
    uint64_t h = pgcn::kFnv1aOffset;
    for (const double v : {s.makespanNs, s.flop, s.gflops, s.memUtilization,
                           s.issueUtilization, s.goodputBytes, s.recoveryNs})
        h = fnv1a64(v, h);
    for (const uint64_t v : {s.simEvents, s.retries, s.timeoutsFired})
        h = fnv1a64(v, h);
    return h;
}

std::string
checkSpmm(const graph::Csr &csr, unsigned k, const piuma::PiumaConfig &cfg,
          const piuma::SpmmRunStats &s)
{
    const double flop =
        2.0 * static_cast<double>(csr.numEdges()) * static_cast<double>(k);
    if (s.flop != flop)
        return "flop " + fmt(s.flop) + " != 2|E|K = " + fmt(flop);
    const double traffic = s.bytesRead + s.bytesWritten;
    if (std::abs(s.bytesServed - traffic) > 1e-9 * std::max(1.0, traffic))
        return "bytesServed " + fmt(s.bytesServed) +
               " != bytesRead + bytesWritten = " + fmt(traffic);
    if (s.retries != 0)
        return "retries " + std::to_string(s.retries) + " without faults";
    const double bw = cfg.aggregateBandwidth();
    const double bound =
        pgcn::model::estimateSpmm({csr.numVertices(), csr.numEdges(), k},
                                  bw, bw)
            .timeNs;
    if (!(s.makespanNs >= bound))
        return "makespan " + fmt(s.makespanNs) +
               " ns below the bandwidth bound " + fmt(bound) + " ns";
    return "";
}

std::string
checkDense(uint64_t rows, unsigned k_in, unsigned k_out,
           const piuma::PiumaConfig &cfg, const piuma::DenseRunStats &s)
{
    const double flop = 2.0 * static_cast<double>(rows) *
                        static_cast<double>(k_in) * static_cast<double>(k_out);
    if (s.flop != flop)
        return "flop " + fmt(s.flop) + " != 2|V|K_in K_out = " + fmt(flop);
    if (s.retries != 0)
        return "retries " + std::to_string(s.retries) + " without faults";
    // The update must at least read X (|V| x K_in) and write Y
    // (|V| x K_out) in float32; the bound is taken from that figure, so
    // traffic the program drops or under-counts cannot lower it.
    const double traffic = 4.0 * static_cast<double>(rows) *
                           static_cast<double>(k_in + k_out);
    if (!(s.goodputBytes >= traffic))
        return "goodputBytes " + fmt(s.goodputBytes) +
               " below the traffic of X and Y, " + fmt(traffic);
    const double bound = traffic / cfg.aggregateBandwidth();
    if (!(s.makespanNs >= bound))
        return "makespan " + fmt(s.makespanNs) +
               " ns below the bandwidth bound " + fmt(bound) + " ns";
    return "";
}

std::string
checkLogits(const DenseMatrix &got, const DenseMatrix &ref)
{
    if (got.rows() != ref.rows() || got.cols() != ref.cols())
        return "logits shape " + std::to_string(got.rows()) + "x" +
               std::to_string(got.cols()) + " != " +
               std::to_string(ref.rows()) + "x" + std::to_string(ref.cols());
    float scale = 1.0f;
    const float *r = ref.data();
    for (uint64_t i = 0; i < ref.rows() * ref.cols(); ++i)
        scale = std::max(scale, std::abs(r[i]));
    const float diff = tensor::maxAbsDiff(got, ref);
    if (!(diff <= kLogitTolerance * scale))
        return "logits differ from the reference by " + fmt(diff) +
               " (limit " + fmt(kLogitTolerance * scale) + ")";
    return "";
}

} // namespace perfbench
