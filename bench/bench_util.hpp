// Shared helpers for the reproduction benches: each bench binary first
// prints the paper-facing report (the rows/series the paper's figure or
// table shows), then runs its google-benchmark timings.
//
// Passing --json (or setting FCQSS_BENCH_JSON in the environment) makes
// every row() additionally emit one machine-readable JSON line
//   {"bench":"<heading>","label":"...","value":"..."}
// so BENCH_*.json trajectories can be scraped straight from bench output.
#ifndef FCQSS_BENCH_BENCH_UTIL_HPP
#define FCQSS_BENCH_BENCH_UTIL_HPP

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace fcqss::benchutil {

inline bool& json_mode()
{
    static bool enabled = std::getenv("FCQSS_BENCH_JSON") != nullptr;
    return enabled;
}

/// `prefix` followed by the decimal digits of `n` ("p", 3 -> "p3"): the
/// element names of generated bench nets.  Appends instead of concatenating
/// onto a temporary, which GCC 12 misreports under -Wrestrict.
inline std::string numbered(std::string prefix, long long n)
{
    prefix += std::to_string(n);
    return prefix;
}

inline std::string& current_heading()
{
    static std::string heading;
    return heading;
}

inline std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

inline void heading(const std::string& title)
{
    current_heading() = title;
    std::printf("\n==== %s ====\n", title.c_str());
}

inline void row(const std::string& label, const std::string& value)
{
    std::printf("  %-44s %s\n", (label + ":").c_str(), value.c_str());
    if (json_mode()) {
        std::printf("{\"bench\":\"%s\",\"label\":\"%s\",\"value\":\"%s\"}\n",
                    json_escape(current_heading()).c_str(), json_escape(label).c_str(),
                    json_escape(value).c_str());
    }
}

/// Consumes a leading --json flag (google-benchmark rejects flags it does
/// not know), leaving the rest of argv for benchmark::Initialize.
inline void parse_json_flag(int& argc, char** argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_mode() = true;
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
}

/// Standard main body: print the report, then run benchmarks.
#define FCQSS_BENCH_MAIN(report_fn)                                                      \
    int main(int argc, char** argv)                                                     \
    {                                                                                    \
        ::fcqss::benchutil::parse_json_flag(argc, argv);                                 \
        report_fn();                                                                     \
        ::benchmark::Initialize(&argc, argv);                                            \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {                      \
            return 1;                                                                    \
        }                                                                                \
        ::benchmark::RunSpecifiedBenchmarks();                                           \
        ::benchmark::Shutdown();                                                         \
        return 0;                                                                        \
    }

} // namespace fcqss::benchutil

#endif // FCQSS_BENCH_BENCH_UTIL_HPP
