#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** %.17g: enough digits to round-trip any double. */
std::string
fullPrecision(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    // pgcn::percentile interpolates at rank p/100 (n - 1); every sample
    // ranked above that rank's floor is beyond the percentile.
    const auto rank = static_cast<std::size_t>(
        std::floor(p / 100.0 * static_cast<double>(n - 1)));
    return n - 1 - std::min(rank, n - 1);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

uint64_t
Tracer::begin(std::string name, uint64_t request, uint64_t parent)
{
    Span span;
    span.name = std::move(name);
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::end(uint64_t id)
{
    spans_.at(id - 1).endNs = nowNs();
}

double
Tracer::totalNs(std::string_view name) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name && s.endNs > 0.0)
            total += s.endNs - s.startNs;
    }
    return total;
}

std::size_t
Tracer::count(std::string_view name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [name](const Span &s) { return s.name == name; }));
}

void
Tracer::writeJson(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &provenance)
    const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    out << "{\"provenance\": {";
    for (std::size_t i = 0; i < provenance.size(); ++i) {
        out << (i ? ", " : "") << jsonString(provenance[i].first) << ": "
            << jsonString(provenance[i].second);
    }
    out << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request
            << ", \"start_ns\": " << fullPrecision(s.startNs)
            << ", \"end_ns\": " << fullPrecision(s.endNs) << "}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("failed writing trace file " + path);
}

ScopedSpan::ScopedSpan(Tracer *tracer, std::string name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        id_ = tracer_->begin(std::move(name), request, parent);
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ != nullptr)
        tracer_->end(id_);
}

void
Outcome::record(const std::string &error)
{
    ++attempted;
    if (error.empty())
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(error);
}

void
Outcome::add(std::string name, double value, std::string unit)
{
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

double
Outcome::value(std::string_view name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    throw std::out_of_range("no metric " + std::string(name));
}

std::string
resultJson(const Outcome &outcome)
{
    std::ostringstream out;
    out << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << outcome.attempted
        << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        out << (i ? ", " : "") << jsonString(m.name)
            << ": {\"value\": " << fullPrecision(m.value)
            << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
