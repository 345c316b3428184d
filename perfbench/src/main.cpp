// perfbench — main.cpp
// One workload run in this process:
//
//   fcqss_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out DIR [--corrupt KIND] --param key=value...
//
// Prints one JSON object as its last line: the run's attempted/failed
// counts, the oracles that ran and any mismatch, the set-up samples, and the
// metrics.  run.py drives it (one child process per workload) and turns the
// object into the benchmark's result line.
#include <exception>
#include <iostream>
#include <sstream>

#include "workloads.hpp"

namespace perfbench {

namespace {

run_config parse_args(int argc, char** argv)
{
    run_config config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::runtime_error("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            config.workload = value;
        } else if (flag == "--seed") {
            config.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            config.seconds = std::stod(value);
        } else if (flag == "--trace") {
            config.trace = value == "1";
        } else if (flag == "--out") {
            config.out_dir = value;
        } else if (flag == "--corrupt") {
            config.corrupt = value;
        } else if (flag == "--param") {
            const std::size_t eq = value.find('=');
            if (eq == std::string::npos) {
                throw std::runtime_error("--param wants key=value, got " + value);
            }
            config.params[value.substr(0, eq)] = value.substr(eq + 1);
        } else {
            throw std::runtime_error("unknown flag " + flag);
        }
    }
    return config;
}

std::string render(const run_config& config, const run_result& result)
{
    const auto list = [](const std::vector<std::string>& items) {
        std::string out = "[";
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += quote(items[i]);
        }
        return out + "]";
    };
    std::ostringstream out;
    out << "{\"workload\":" << quote(config.workload)
        << ",\"correct\":" << (result.mismatches.empty() && !result.checks.empty() ? "true" : "false")
        << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
        << ",\"checks\":" << list(result.checks) << ",\"mismatches\":" << list(result.mismatches)
        << ",\"setup_s\":[";
    for (std::size_t i = 0; i < result.setup_samples_s.size(); ++i) {
        out << (i ? "," : "") << exact(result.setup_samples_s[i]);
    }
    out << "],\"samples\":{";
    bool first_sample = true;
    for (const auto& [name, values] : result.samples) {
        out << (first_sample ? "" : ",") << quote(name) << ":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            out << (i ? "," : "") << exact(values[i]);
        }
        out << "]";
        first_sample = false;
    }
    out << "},\"metrics\":{";
    bool comma = false;
    for (const auto& [name, value] : result.metrics) {
        out << (comma ? "," : "") << quote(name) << ":" << exact(value);
        comma = true;
    }
    out << "}}";
    return out.str();
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv)
{
    using namespace perfbench;
    try {
        const run_config config = parse_args(argc, argv);
        run_result result;
        if (config.workload == "batch_fc") {
            result = run_batch_fc(config);
        } else if (config.workload == "serve_mixed") {
            result = run_serve_mixed(config);
        } else if (config.workload == "explore_wide" ||
                   config.workload == "explore_par_spill") {
            result = run_explore(config);
        } else {
            std::cerr << "unknown workload '" << config.workload << "'\n";
            return 2;
        }
        if (config.trace) {
            std::cerr << write_trace_outputs(config);
        }
        for (const std::string& mismatch : result.mismatches) {
            std::cerr << "ORACLE MISMATCH: " << mismatch << '\n';
        }
        std::cout << render(config, result) << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "fcqss_perfbench: " << e.what() << '\n';
        return 1;
    }
}
