// perfbench — common.cpp
#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

long long run_config::integer(const std::string& key) const
{
    return std::stoll(text(key));
}

double run_config::real(const std::string& key) const
{
    return std::stod(text(key));
}

const std::string& run_config::text(const std::string& key) const
{
    const auto it = params.find(key);
    if (it == params.end()) {
        throw std::runtime_error("missing --param " + key + " for workload " + workload);
    }
    return it->second;
}

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double weight = position - static_cast<double>(lower);
    return values[lower] + (values[upper] - values[lower]) * weight;
}

std::string exact(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    char buffer[64];
    const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
    (void)error;
    return std::string(buffer, end);
}

std::string quote(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
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
    return out + "\"";
}

// -- layer tracing -----------------------------------------------------------

namespace {
thread_local layer_span* tl_top = nullptr;
}

layer_span::layer_span(const char* layer) noexcept : obs_span_(layer)
{
    if (!layer_table::global().enabled()) {
        return;
    }
    layer_ = layer;
    parent_ = tl_top;
    tl_top = this;
    start_ns_ = fcqss::obs::now_ns();
}

layer_span::~layer_span()
{
    if (layer_ == nullptr) {
        return;
    }
    const std::uint64_t duration = fcqss::obs::now_ns() - start_ns_;
    if (parent_ != nullptr) {
        parent_->child_ns_ += duration;
    }
    tl_top = parent_;
    layer_table::global().add(layer_, duration > child_ns_ ? duration - child_ns_ : 0);
}

layer_table& layer_table::global()
{
    static layer_table table;
    return table;
}

void layer_table::set_enabled(bool on)
{
    enabled_ = on;
}

void layer_table::add(const char* layer, std::uint64_t self_ns)
{
    const std::lock_guard lock(mutex_);
    layer_stat& stat = stats_[layer];
    stat.self_ms += static_cast<double>(self_ns) / 1e6;
    ++stat.count;
}

std::map<std::string, layer_stat> layer_table::snapshot() const
{
    const std::lock_guard lock(mutex_);
    return stats_;
}

double layer_table::self_ms(const std::string& layer) const
{
    const std::lock_guard lock(mutex_);
    const auto it = stats_.find(layer);
    return it == stats_.end() ? 0 : it->second.self_ms;
}


std::string write_trace_outputs(const run_config& config)
{
    const std::string stem = config.out_dir + "/" + config.workload + "_seed" +
                             std::to_string(config.seed);
    {
        std::ofstream trace(stem + ".trace.json");
        trace << fcqss::obs::chrome_trace_json();
    }
    const auto stats = layer_table::global().snapshot();
    double total = 0;
    for (const auto& [name, stat] : stats) {
        total += stat.self_ms;
    }
    std::vector<std::pair<std::string, layer_stat>> rows(stats.begin(), stats.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_ms > b.second.self_ms;
    });
    std::ostringstream table;
    table << "layer\tself_ms\tshare\tcount\n";
    for (const auto& [name, stat] : rows) {
        table << name << '\t' << exact(stat.self_ms) << '\t'
              << exact(total > 0 ? stat.self_ms / total : 0) << '\t' << stat.count << '\n';
    }
    std::ofstream(stem + ".layers.tsv") << table.str();
    return table.str();
}

} // namespace perfbench
