/**
 * @file
 * Benchmark entry point:
 *
 *   pgcn_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-dir <dir>] [--tiny]
 *
 * Prints the provenance, every metric by name with its unit, and as
 * the last line of standard output the JSON result
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics (no spans recorded); --trace 1 is the
 * separate traced run that reports the per-layer metrics and writes
 * its spans to --trace-dir. Exit code 0 means the run completed
 * (correctness is reported in the JSON), 2 means bad arguments or a
 * run that could not complete.
 */
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pgcn_perfbench: " << why
              << "\nusage: pgcn_perfbench --workload <";
    for (size_t i = 0; i < perfbench::workloadNames().size(); ++i)
        std::cerr << (i ? "|" : "") << perfbench::workloadNames()[i];
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-dir <dir>] [--tiny]\n";
    std::exit(2);
}

perfbench::RunOptions
parse(int argc, char **argv)
{
    perfbench::RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opts.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opts.workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (arg == "--trace-dir")
                opts.traceDir = value;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::RunOptions opts = parse(argc, argv);
    perfbench::Outcome out;
    try {
        out = perfbench::runWorkload(opts);
    } catch (const std::exception &e) {
        std::cerr << "pgcn_perfbench: run failed: " << e.what() << "\n";
        return 2;
    }

    for (const auto &[key, value] : out.provenance)
        std::cout << "# " << key << ": " << value << "\n";
    for (const auto &[key, value] : out.notes)
        std::cout << "  " << key << ": " << value << "\n";
    for (const std::string &f : out.failures)
        std::cout << "  FAILED: " << f << "\n";
    std::cout << "  error_rate (failed/attempted): "
              << static_cast<double>(out.failed) /
                     static_cast<double>(out.attempted)
              << " (" << out.failed << "/" << out.attempted << ")\n";
    for (const perfbench::Metric &m : out.metrics) {
        std::cout << "  " << std::left << std::setw(26) << m.name << " "
                  << std::setprecision(6) << m.value << " " << m.unit
                  << "\n";
    }
    std::cout << perfbench::resultJson(out) << std::endl;
    return 0;
}
