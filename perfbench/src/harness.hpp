/**
 * @file
 * Measurement plumbing of the benchmark: clocks, percentiles, an
 * in-memory span recorder, peak RSS, and the result line.
 *
 * Nothing here knows about the workloads; workloads.hpp drives the
 * program's public entry points and reports through these types.
 */
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds (std::chrono::steady_clock). */
double nowNs();

/**
 * Samples ranked beyond the @p p-th percentile (0..100) of @p n
 * samples as pgcn::percentile computes it. A percentile is reported
 * only when this is at least kMinSamplesBeyond (so p90 needs at least
 * 92 samples).
 */
std::size_t samplesBeyond(std::size_t n, double p);

/** Samples a reported percentile must have beyond it. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** Peak resident set size of this process, in MB (getrusage). */
double peakRssMb();

/** One recorded span: a timed call at a layer boundary. */
struct Span
{
    std::string name;
    uint64_t id = 0;      ///< 1-based; 0 is "no span"
    uint64_t parent = 0;  ///< enclosing span, 0 for a root span
    uint64_t request = 0; ///< id of the request the span belongs to
    double startNs = 0.0;
    double endNs = 0.0;
};

/**
 * Keeps spans in memory; write them out once, when the run ends.
 * Single-threaded: spans are opened and closed by the benchmark's one
 * client thread, around calls into the program.
 */
class Tracer
{
  public:
    /** Open a span and return its id. */
    uint64_t begin(std::string name, uint64_t request, uint64_t parent = 0);

    /** Close span @p id (stamps its end time). */
    void end(uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of the durations of every closed span named @p name (ns). */
    double totalNs(std::string_view name) const;

    /** Number of spans named @p name. */
    std::size_t count(std::string_view name) const;

    /**
     * Write the spans as JSON: {"provenance": {...}, "spans": [...]}.
     * Throws std::runtime_error when @p path cannot be written.
     */
    void writeJson(const std::string &path,
                   const std::vector<std::pair<std::string, std::string>>
                       &provenance) const;

  private:
    std::vector<Span> spans_;
};

/**
 * RAII span. A null tracer makes it a no-op, which is how the
 * untraced (end-to-end) runs call the same code without recording.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, uint64_t request,
               uint64_t parent = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when tracing is off). */
    uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    uint64_t id_ = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run reports. */
struct Outcome
{
    uint64_t attempted = 0; ///< requests issued
    uint64_t failed = 0;    ///< requests that threw or failed a check
    std::vector<Metric> metrics;
    /// Key/value lines printed before the result (git SHA, seeds, plan).
    std::vector<std::pair<std::string, std::string>> provenance;
    /// Non-metric results printed for the reader (digests, notes).
    std::vector<std::pair<std::string, std::string>> notes;
    /// First few failure reasons, for the log.
    std::vector<std::string> failures;

    /** Count a request; @p error empty means it passed. */
    void record(const std::string &error);

    void add(std::string name, double value, std::string unit);

    /** Value of metric @p name; throws std::out_of_range if absent. */
    double value(std::string_view name) const;
};

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every value printed to full (round-trip) precision.
 */
std::string resultJson(const Outcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
