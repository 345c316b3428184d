// perfbench — common.hpp
// Shared plumbing of the benchmark binary: workload parameters, clocks and
// quantiles, the result record every workload fills, exact JSON output, and
// the layer tracer that times calls into the library from this directory
// (the library itself is never instrumented by the benchmark).
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// splitmix64: the benchmark's own seeded stream (inputs, samples, choice
/// oracles), deliberately independent of the library's PRNG.
class rng {
public:
    explicit rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : next() % bound; }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t state_;
};

/// Command-line configuration of one workload run.  `params` holds the
/// workload's settings from workloads.json, passed as --param key=value.
struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".";
    /// Deliberate corruption of one recorded result before the oracles run
    /// (self-test only): "verdict", "cycle", "edge", "reply" or "".
    std::string corrupt;
    std::map<std::string, std::string> params;

    [[nodiscard]] long long integer(const std::string& key) const;
    [[nodiscard]] double real(const std::string& key) const;
    [[nodiscard]] const std::string& text(const std::string& key) const;
};

/// Linear-interpolation quantile (q in [0,1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// What one workload run reports back to run.py.
struct run_result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Oracle mismatches; any entry makes the run incorrect.
    std::vector<std::string> mismatches;
    /// Names of the oracles that ran (so a run cannot pass vacuously).
    std::vector<std::string> checks;
    std::vector<double> setup_samples_s;
    /// Metric name -> value; units live in BENCHMARK.json / workloads.json.
    std::map<std::string, double> metrics;
    /// The per-repetition samples behind the medians, kept in the result
    /// record so run-to-run noise can be told apart from in-run noise.
    std::map<std::string, std::vector<double>> samples;

    void check(const std::string& name) { checks.push_back(name); }
    void mismatch(const std::string& what)
    {
        if (std::find(mismatches.begin(), mismatches.end(), what) == mismatches.end()) {
            mismatches.push_back(what);
        }
    }
};

/// Shortest decimal that round-trips `value` (never %g-style truncation).
[[nodiscard]] std::string exact(double value);
/// JSON string literal (quotes and escapes).
[[nodiscard]] std::string quote(const std::string& text);

/// Times calls into one library layer.  Each span also opens an obs::span,
/// so the Chrome trace shows the benchmark's layer boundaries next to the
/// library's own spans.  Self time is the span's duration minus the time
/// covered by child layer spans on the same thread.
class layer_span {
public:
    explicit layer_span(const char* layer) noexcept;
    ~layer_span();
    layer_span(const layer_span&) = delete;
    layer_span& operator=(const layer_span&) = delete;

private:
    fcqss::obs::span obs_span_;
    const char* layer_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t child_ns_ = 0;
    layer_span* parent_ = nullptr;
};

struct layer_stat {
    double self_ms = 0;
    std::uint64_t count = 0;
};

/// Process-wide layer table fed by layer_span while tracing is on.
class layer_table {
public:
    static layer_table& global();
    void set_enabled(bool on);
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void add(const char* layer, std::uint64_t self_ns);
    [[nodiscard]] std::map<std::string, layer_stat> snapshot() const;
    /// Self ms of one layer (0 when it never ran).
    [[nodiscard]] double self_ms(const std::string& layer) const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards stats_
    std::map<std::string, layer_stat> stats_;
};

/// Writes the Chrome trace and the per-layer table of a traced run under
/// `out_dir`, and returns the table as text.
std::string write_trace_outputs(const run_config& config);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
