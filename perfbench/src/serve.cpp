// perfbench — serve.cpp
// serve_mixed: an open loop of JSONL synthesize requests over loopback TCP
// into svc::serve_tcp.  Requests are hot-key skewed over a pool of small
// free-choice and dataflow nets, with a share of fresh nets never sent
// before.  Each request is timed from the moment it was due, so a stall
// also charges the requests queued behind it.  A reference rate gives the
// latency percentiles; a closed loop with a fixed number of requests in
// flight per connection gives the highest rate the server sustains.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

#include "oracle.hpp"
#include "pipeline/net_generator.hpp"
#include "pipeline/service.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"
#include "stages.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fcqss;

namespace {

/// Pool fc nets: two sources at depth 3, kept only when their allocation
/// count is at most 64, so QSS enumeration stays negligible beside linalg
/// and codegen.
constexpr int fc_sources = 2;
constexpr int fc_depth = 3;
constexpr std::uint64_t fc_max_allocations = 64;
/// Share of requests (percent) that go to the hot nets of the pool, and that
/// carry a fresh net never sent before.
constexpr std::uint64_t hot_percent = 70;
constexpr std::uint64_t fresh_percent = 10;
/// Client connections (each one sender and one reader thread) and service
/// workers: together within the 4 vCPUs of the reference machine.
constexpr std::size_t connections = 2;
constexpr std::size_t service_jobs = 4;
/// Far above any backlog the load builds, so no request is refused.
constexpr std::size_t max_queue = 100000;
/// How long after a phase's last send a missing reply is waited for.
constexpr double drain_timeout_s = 20;

// -- a minimal reader for the flat reply objects -------------------------------

/// Parses one flat JSON object into key -> value; other scalars are kept as
/// their literal text, strings are unescaped when `unescape` is set and kept
/// as their raw escaped bytes otherwise (enough to compare replies, and far
/// cheaper on replies that carry the generated C).  Nested values are not
/// used by the reply events and are rejected.
std::optional<std::map<std::string, std::string>> parse_flat(const std::string& line,
                                                             bool unescape)
{
    std::map<std::string, std::string> fields;
    std::size_t i = 0;
    const auto skip = [&] {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
            ++i;
        }
    };
    const auto read_string = [&](std::string& out) {
        if (i >= line.size() || line[i] != '"') {
            return false;
        }
        if (!unescape) {
            const std::size_t start = ++i;
            for (; i < line.size() && line[i] != '"'; ++i) {
                i += line[i] == '\\' ? 1 : 0;
            }
            if (i >= line.size()) {
                return false;
            }
            out.assign(line, start, i++ - start);
            return true;
        }
        for (++i; i < line.size(); ++i) {
            const char c = line[i];
            if (c == '"') {
                ++i;
                return true;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (++i >= line.size()) {
                return false;
            }
            switch (line[i]) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (i + 4 >= line.size()) {
                    return false;
                }
                const auto code = std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16);
                i += 4;
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else {
                    out += '?'; // non-ASCII never occurs in generated names or C
                }
                break;
            }
            default: out += line[i];
            }
        }
        return false;
    };
    skip();
    if (i >= line.size() || line[i++] != '{') {
        return std::nullopt;
    }
    while (true) {
        skip();
        if (i < line.size() && line[i] == '}') {
            return fields;
        }
        std::string key;
        if (!read_string(key)) {
            return std::nullopt;
        }
        skip();
        if (i >= line.size() || line[i++] != ':') {
            return std::nullopt;
        }
        skip();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!read_string(value)) {
                return std::nullopt;
            }
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}') {
                if (line[i] == '{' || line[i] == '[') {
                    return std::nullopt;
                }
                value += line[i++];
            }
            while (!value.empty() && value.back() == ' ') {
                value.pop_back();
            }
        }
        fields[key] = std::move(value);
        skip();
        if (i < line.size() && line[i] == ',') {
            ++i;
        }
    }
}

/// FNV-1a over bytes.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash)
{
    for (const char c : bytes) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return hash;
}

/// Digest of everything a reply says about the net: all fields except the
/// per-request ones (ids, dedupe flags, timing).
std::uint64_t reply_digest(const std::map<std::string, std::string>& fields)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto& [key, value] : fields) {
        if (key == "event" || key == "id" || key == "request" || key == "deduplicated" ||
            key == "cached" || key == "micros") {
            continue;
        }
        hash = fnv1a(value, fnv1a(key, hash) ^ 0xff);
    }
    return hash;
}

// -- the net pool ----------------------------------------------------------------

struct pool_net {
    std::string text;
    std::string quoted; ///< JSON string literal of text
};

pool_net make_entry(const pn::petri_net& net)
{
    pool_net entry;
    entry.text = pnio::write_net(net);
    entry.quoted = quote(entry.text);
    return entry;
}

/// Round-robin over the three families: small free-choice nets (allocation
/// count capped), layered dataflow and bursty multirate nets.
class net_source_mix {
public:
    net_source_mix(const run_config& config, std::uint64_t seed)
        : fc_(seed, options(pipeline::net_family::free_choice, fc_sources, fc_depth)),
          layered_(seed + 1, options(pipeline::net_family::layered_pipeline,
                                     config.integer("layered_sources"),
                                     config.integer("layered_depth"))),
          bursty_(seed + 2, options(pipeline::net_family::bursty_multirate,
                                    config.integer("bursty_sources"),
                                    config.integer("bursty_depth")))
    {
    }

    pool_net next()
    {
        switch (turn_++ % 3) {
        case 0:
            while (true) {
                pn::petri_net net = fc_.next();
                if (allocation_product(net) <= fc_max_allocations) {
                    return make_entry(net);
                }
            }
        case 1: return make_entry(layered_.next());
        default: return make_entry(bursty_.next());
        }
    }

private:
    static pipeline::generator_options options(pipeline::net_family family, long long sources,
                                               long long depth)
    {
        pipeline::generator_options o;
        o.family = family;
        o.sources = static_cast<int>(sources);
        o.depth = static_cast<int>(depth);
        return o;
    }

    pipeline::net_generator fc_;
    pipeline::net_generator layered_;
    pipeline::net_generator bursty_;
    std::size_t turn_ = 0;
};

// -- sockets ---------------------------------------------------------------------

unsigned short free_port()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = 0;
    socklen_t length = sizeof address;
    if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
        throw std::runtime_error("serve_mixed: cannot find a free loopback port");
    }
    ::close(fd);
    return ntohs(address.sin_port);
}

int connect_to(unsigned short port)
{
    const auto give_up = clock_type::now() + std::chrono::seconds(10);
    while (clock_type::now() < give_up) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address.sin_port = htons(port);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return fd;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("serve_mixed: cannot connect to the server");
}

void write_all(int fd, const std::string& bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            throw std::runtime_error("serve_mixed: write to the server failed");
        }
        done += static_cast<std::size_t>(n);
    }
}

/// Reads newline-delimited lines from a socket.
class line_reader {
public:
    explicit line_reader(int fd) : fd_(fd) {}
    bool next(std::string& line)
    {
        while (true) {
            const std::size_t newline = buffer_.find('\n', start_);
            if (newline != std::string::npos) {
                line.assign(buffer_, start_, newline - start_);
                start_ = newline + 1;
                return true;
            }
            buffer_.erase(0, start_);
            start_ = 0;
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return false;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_;
    std::string buffer_;
    std::size_t start_ = 0;
};

// -- the server under test ---------------------------------------------------------

/// svc::serve_tcp on its own thread over a fresh pipeline::service, for the
/// lifetime of the object.
class server_under_test {
public:
    server_under_test()
    {
        pipeline::service_options options;
        options.jobs = service_jobs;
        options.max_queue = max_queue;
        service_.emplace(options);
        port_ = free_port();
        thread_ = std::thread([this] {
            svc::server_options server;
            server.session.include_code = true;
            (void)svc::serve_tcp(*service_, port_, server);
        });
        try {
            ::close(connect_to(port_)); // ready once a connection is accepted
        } catch (...) {
            // Nothing accepts: serve_tcp failed to bind and has returned.
            thread_.join();
            throw;
        }
    }

    ~server_under_test()
    {
        // A shutdown request drains the service and ends serve_tcp.  If it
        // cannot be delivered the server has already stopped, and the join
        // below returns at once.
        try {
            const int fd = connect_to(port_);
            write_all(fd, "{\"op\":\"shutdown\"}\n");
            line_reader reader(fd);
            std::string line;
            while (reader.next(line)) {
            }
            ::close(fd);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "serve_mixed: shutdown request failed: %s\n", e.what());
        }
        thread_.join();
    }

    server_under_test(const server_under_test&) = delete;
    server_under_test& operator=(const server_under_test&) = delete;
    server_under_test(server_under_test&&) = delete;
    server_under_test& operator=(server_under_test&&) = delete;

    [[nodiscard]] unsigned short port() const { return port_; }
    [[nodiscard]] pipeline::service& service() { return *service_; }

private:
    std::optional<pipeline::service> service_;
    unsigned short port_ = 0;
    std::thread thread_;
};

// -- the open-loop client ------------------------------------------------------------

struct request_record {
    int pool_index = -1; ///< -1: a fresh net
    std::size_t fresh_index = 0;
    double due = 0, sent = -1, accepted = -1, done = -1;
    double stage_micros = 0;
    bool rejected = false;
    bool errored = false;
    std::uint64_t digest = 0;
    std::map<std::string, std::string> reply;
};

struct phase_outcome {
    std::vector<request_record> records;
    /// Closed loop only: replies per second in each of about one-second
    /// equal slices of the phase.
    std::vector<double> slice_rates;
};

class load_generator {
public:
    load_generator(const run_config& config, const std::vector<pool_net>& pool,
                   const std::vector<pool_net>& fresh)
        : config_(config), pool_(pool), fresh_(fresh),
          hot_(static_cast<std::size_t>(config.integer("hot_nets")))
    {
        if (hot_ == 0 || hot_ >= pool_.size()) {
            throw std::runtime_error("serve_mixed: need 0 < hot_nets < pool_nets");
        }
    }

    [[nodiscard]] std::size_t fresh_used() const { return fresh_cursor_; }

    /// Open loop (`window` == 0): `rate * seconds` requests, each due at
    /// i / rate.  Closed loop (`window` > 0): for `seconds`, each connection
    /// keeps `window` requests in flight; a request is due when it is sent.
    phase_outcome run(unsigned short port, double rate, double seconds, std::size_t window,
                      bool stream, std::uint64_t phase_seed, bool keep_replies)
    {
        phase_outcome outcome;
        const auto count = static_cast<std::size_t>(rate * seconds);
        rng pick(phase_seed);
        outcome.records.resize(count);
        std::size_t fresh_cursor = fresh_cursor_;
        double due = 0;
        for (std::size_t i = 0; i < count; ++i) {
            request_record& r = outcome.records[i];
            // Open-loop arrivals are a seeded Poisson process: with evenly
            // spaced sends every reply delayed by Nagle's algorithm would wait
            // a whole number of send intervals, and the percentiles would
            // jump between those steps from run to run.
            r.due = window > 0 ? -1 : due;
            due += -std::log(1.0 - pick.unit()) / rate;
            if (pick.below(100) < fresh_percent && fresh_cursor < fresh_.size()) {
                r.fresh_index = fresh_cursor++;
            } else if (pick.below(100) < hot_percent) {
                r.pool_index = static_cast<int>(pick.below(hot_));
            } else {
                r.pool_index = static_cast<int>(hot_ + pick.below(pool_.size() - hot_));
            }
        }
        std::vector<int> fds;
        for (std::size_t c = 0; c < connections; ++c) {
            fds.push_back(connect_to(port));
        }
        const auto t0 = clock_type::now() + std::chrono::milliseconds(5);
        const auto since = [t0] {
            return std::chrono::duration<double>(clock_type::now() - t0).count();
        };
        struct lane {
            std::atomic<std::size_t> issued{0};
            std::atomic<std::size_t> completed{0};
            std::atomic<bool> sending{true};
            bool stop = false; ///< guarded by mutex
            std::mutex mutex;
            std::condition_variable replied;
        };
        std::vector<lane> lanes(connections);
        // Full replies are kept only for the first reply of each pool net and
        // a handful of fresh nets: the oracles compare those against the batch.
        std::vector<std::atomic<bool>> kept(pool_.size());
        std::atomic<long long> fresh_kept{0};
        const long long fresh_keep = config_.integer("fresh_checks");
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < connections; ++c) {
            threads.emplace_back([&, c] {
                lane& l = lanes[c];
                for (std::size_t i = c; i < count; i += connections) {
                    request_record& r = outcome.records[i];
                    if (window == 0) {
                        std::this_thread::sleep_until(
                            t0 + std::chrono::duration_cast<clock_type::duration>(
                                     std::chrono::duration<double>(r.due)));
                    } else {
                        std::unique_lock lock(l.mutex);
                        l.replied.wait(lock, [&] {
                            return l.stop || l.issued.load() - l.completed.load() < window;
                        });
                        if (l.stop || since() >= seconds) {
                            break;
                        }
                    }
                    const pool_net& net = r.pool_index >= 0 ? pool_[r.pool_index]
                                                            : fresh_[r.fresh_index];
                    std::string line = "{\"op\":\"synthesize\",\"id\":\"r" + std::to_string(i) +
                                       "\",\"net\":" + net.quoted +
                                       (stream ? ",\"stream\":true}\n" : "}\n");
                    r.sent = since();
                    if (window > 0) {
                        r.due = r.sent;
                    }
                    ++l.issued;
                    try {
                        write_all(fds[c], line);
                    } catch (const std::exception& e) {
                        // The request stays unanswered and counts as failed.
                        // In the open loop so does every later request of
                        // this connection: each was due and never got a
                        // reply.  (The closed loop sends only what it can.)
                        std::fprintf(stderr, "%s\n", e.what());
                        for (std::size_t j = i + connections; window == 0 && j < count;
                             j += connections) {
                            outcome.records[j].sent = outcome.records[j].due;
                        }
                        break;
                    }
                }
                l.sending = false;
            });
            threads.emplace_back([&, c] {
                lane& l = lanes[c];
                line_reader reader(fds[c]);
                std::string line;
                while (reader.next(line)) {
                    const double now = since();
                    const auto fields = parse_flat(line, false);
                    if (!fields) {
                        continue;
                    }
                    const auto field = [&](const char* key) {
                        const auto it = fields->find(key);
                        return it == fields->end() ? std::string() : it->second;
                    };
                    const std::string id = field("id");
                    const std::size_t i = id.size() > 1 && id[0] == 'r'
                                              ? std::strtoull(id.c_str() + 1, nullptr, 10)
                                              : count;
                    if (i >= count) {
                        continue;
                    }
                    request_record& r = outcome.records[i];
                    const std::string event = field("event");
                    if (event == "accepted") {
                        r.accepted = now;
                    } else if (event == "stage") {
                        r.stage_micros += std::strtod(field("micros").c_str(), nullptr);
                    } else if (event == "done" || event == "rejected" || event == "error") {
                        r.done = now;
                        r.rejected = event == "rejected";
                        r.errored = event == "error";
                        if (event == "done") {
                            r.digest = reply_digest(*fields);
                            const bool keep =
                                keep_replies && (r.pool_index >= 0
                                                     ? !kept[r.pool_index].exchange(true)
                                                     : fresh_kept++ < fresh_keep);
                            if (keep) {
                                r.reply = parse_flat(line, true).value_or(r.reply);
                            }
                        }
                        {
                            const std::lock_guard lock(l.mutex);
                            ++l.completed;
                        }
                        l.replied.notify_one();
                    }
                }
            });
        }
        // Wait for every sent request to reply; a reply that never comes must
        // not hang the run, so after the timeout it counts as missing.
        const auto give_up =
            t0 + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(
                     seconds + drain_timeout_s));
        const auto settled = [&] {
            for (const lane& l : lanes) {
                if (l.sending.load() || l.completed.load() < l.issued.load()) {
                    return false;
                }
            }
            return true;
        };
        while (!settled() && clock_type::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (const int fd : fds) {
            ::shutdown(fd, SHUT_RDWR); // ends the readers' blocking reads
        }
        for (lane& l : lanes) {
            {
                const std::lock_guard lock(l.mutex);
                l.stop = true; // releases a sender still waiting for its window
            }
            l.replied.notify_all();
        }
        for (std::thread& t : threads) {
            t.join();
        }
        for (const int fd : fds) {
            ::close(fd);
        }
        // Only the closed loop leaves requests unsent: those past its end.
        std::erase_if(outcome.records, [](const request_record& r) { return r.sent < 0; });
        std::size_t used = fresh_cursor_;
        for (const request_record& r : outcome.records) {
            if (r.pool_index < 0) {
                used = std::max(used, r.fresh_index + 1);
            }
        }
        fresh_cursor_ = used;
        if (window > 0) {
            const auto slices = static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
            const double slice_s = seconds / static_cast<double>(slices);
            outcome.slice_rates.assign(slices, 0.0);
            for (const request_record& r : outcome.records) {
                const double slice = r.done / slice_s;
                if (r.done >= 0 && slice < static_cast<double>(slices)) {
                    outcome.slice_rates[static_cast<std::size_t>(slice)] += 1 / slice_s;
                }
            }
        }
        return outcome;
    }

private:
    const run_config& config_;
    const std::vector<pool_net>& pool_;
    const std::vector<pool_net>& fresh_;
    std::size_t hot_;
    std::size_t fresh_cursor_ = 0;
};

bool replied(const request_record& r)
{
    return r.done >= 0 && !r.rejected && !r.errored;
}

/// Due-to-reply latency; a refused or missing reply counts as missing any
/// latency limit.
double latency_ms(const request_record& r)
{
    return replied(r) ? (r.done - r.due) * 1000.0 : 1e9;
}

std::vector<double> latencies_ms(const phase_outcome& phase)
{
    std::vector<double> out;
    for (const request_record& r : phase.records) {
        out.push_back(latency_ms(r));
    }
    return out;
}

/// Quantile q of each of `windows` equal consecutive slices of `latencies`.
std::vector<double> window_quantiles(const std::vector<double>& latencies, std::size_t windows,
                                     double q)
{
    std::vector<double> out;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = latencies.begin() +
                           static_cast<std::ptrdiff_t>(latencies.size() * w / windows);
        const auto end = latencies.begin() +
                         static_cast<std::ptrdiff_t>(latencies.size() * (w + 1) / windows);
        out.push_back(quantile(std::vector<double>(begin, end), q));
    }
    return out;
}

} // namespace

run_result run_serve_mixed(const run_config& config)
{
    run_result result;
    const double ref_rate = config.real("reference_rps");
    const double ref_seconds = config.seconds * config.real("reference_share");
    const double capacity_seconds = config.seconds - ref_seconds;
    const double capacity_ceiling = config.real("capacity_max_rps");
    const auto window = static_cast<std::size_t>(config.integer("capacity_window"));

    // -- set-up: pool, fresh nets, request texts and the server ------------------
    const double requests_max = ref_rate * ref_seconds + capacity_ceiling * capacity_seconds;
    const std::size_t fresh_needed =
        static_cast<std::size_t>(requests_max * static_cast<double>(fresh_percent) / 100.0 * 1.2) + 16;
    // A slow spell of the host can last a second or more, so `setup_reps`
    // set-ups run before the measurement and `setup_reps` more after it;
    // setup_s is the median of all of them.
    std::vector<pool_net> pool, fresh;
    std::optional<server_under_test> server;
    const auto set_up = [&] {
        for (long long rep = 0; rep < config.integer("setup_reps"); ++rep) {
            server.reset();
            const auto start = clock_type::now();
            net_source_mix pool_mix(config, config.seed);
            pool.clear();
            for (long long i = 0; i < config.integer("pool_nets"); ++i) {
                pool.push_back(pool_mix.next());
            }
            net_source_mix fresh_mix(config, config.seed ^ 0xf7e5000000000000ULL);
            fresh.clear();
            for (std::size_t i = 0; i < fresh_needed; ++i) {
                fresh.push_back(fresh_mix.next());
            }
            for (const pool_net& net : pool) {
                (void)pnio::parse_net(net.text);
            }
            server.emplace();
            result.setup_samples_s.push_back(seconds_since(start));
        }
    };
    set_up();

    // -- measurement ----------------------------------------------------------------
    load_generator load(config, pool, fresh);
    std::uint64_t phase_seed = config.seed * 1000;
    // phases[0]: the reference rate.  phases[1]: the capacity closed loop,
    // or in a traced run the traced windows of the reference rate.
    // phases[2], traced runs only: the warm-up window.
    std::vector<phase_outcome> phases(2);
    if (!config.trace) {
        phases[0] = load.run(server->port(), ref_rate, ref_seconds, 0, false, ++phase_seed, true);
        phases[1] = load.run(server->port(), capacity_ceiling, capacity_seconds, window, false,
                             ++phase_seed, false);
    } else {
        // A warm-up window fills the dedupe cache with the pool; its
        // replies are checked but not timed.  Then untraced and traced
        // windows of the reference rate run in the order U T T U, so drift
        // over the run falls on both sides.  Traced requests also ask for
        // streamed stage events (service.wait_ms_p99 subtracts them), so
        // their cost is part of the traced side.
        phases.push_back(
            load.run(server->port(), ref_rate, ref_seconds / 5, 0, false, ++phase_seed, false));
        for (const bool traced : {false, true, true, false}) {
            // Only the first window keeps full replies for the oracles.
            const bool keep_replies = phases[0].records.empty();
            obs::set_stats_enabled(traced);
            obs::set_tracing_enabled(traced);
            phase_outcome part = load.run(server->port(), ref_rate, ref_seconds / 5, 0, traced,
                                          ++phase_seed, keep_replies);
            obs::set_tracing_enabled(false);
            obs::set_stats_enabled(false);
            auto& records = phases[traced ? 1 : 0].records;
            std::move(part.records.begin(), part.records.end(), std::back_inserter(records));
        }
    }
    const pipeline::service::stats_snapshot stats = server->service().stats();
    server.reset();
    for (const phase_outcome& phase : phases) {
        for (const request_record& r : phase.records) {
            ++result.attempted;
            result.failed += replied(r) ? 0 : 1;
        }
    }

    // -- oracles -----------------------------------------------------------------------
    check_paper_nets(result, config.corrupt);
    if (config.corrupt == "reply") {
        for (request_record& r : phases[0].records) {
            if (r.pool_index >= 0 && replied(r)) {
                r.digest ^= 1;
                break;
            }
        }
    }
    // Repeated requests for one net get identical replies.
    result.check("serve_replies_identical");
    std::map<int, std::uint64_t> digest_of_pool;
    std::map<int, const request_record*> sample_of_pool;
    for (const phase_outcome& phase : phases) {
        for (const request_record& r : phase.records) {
            if (r.pool_index < 0 || !replied(r)) {
                continue;
            }
            const auto [it, inserted] = digest_of_pool.try_emplace(r.pool_index, r.digest);
            if (!inserted && it->second != r.digest) {
                result.mismatch("serve: pool net " + std::to_string(r.pool_index) +
                                " got different replies");
            }
            if (!r.reply.empty()) {
                sample_of_pool.try_emplace(r.pool_index, &r);
            }
        }
    }
    // Replies match the batch pipeline's verdict and code for the same net.
    result.check("serve_matches_batch");
    pipeline::pipeline_options batch_options;
    batch_options.keep_code = true;
    const pipeline::synthesis_pipeline pipe(batch_options);
    const auto compare = [&](const request_record& r, const std::string& text,
                             const std::string& label) {
        const pipeline::pipeline_result expected =
            pipe.run_one(pipeline::net_source::from_text("", text));
        const auto field = [&](const char* key) {
            const auto it = r.reply.find(key);
            return it == r.reply.end() ? std::string() : it->second;
        };
        if (field("status") != pipeline::to_string(expected.status) ||
            field("cycles") != std::to_string(expected.cycles) ||
            field("code_bytes") != std::to_string(expected.code_bytes) ||
            field("c") != expected.code) {
            result.mismatch("serve: " + label + " reply differs from the batch result");
        }
        if (expected.status != pipeline::pipeline_status::ok) {
            result.mismatch("serve: " + label + " is not synthesizable: " + expected.diagnosis);
        }
    };
    for (const auto& [index, record] : sample_of_pool) {
        compare(*record, pool[static_cast<std::size_t>(index)].text,
                "pool net " + std::to_string(index));
    }
    if (sample_of_pool.empty()) {
        result.mismatch("serve: no pool reply to check");
    }
    for (const request_record& r : phases[0].records) {
        if (r.pool_index < 0 && !r.reply.empty()) {
            compare(r, fresh[r.fresh_index].text, "fresh net " + std::to_string(r.fresh_index));
        }
    }
    // Cycles and generated programs of every pool net; these also give the
    // generated-code metrics.
    result.check("serve_cycles_and_programs");
    std::uint64_t instructions = 0, actions = 0, pool_c_bytes = 0;
    const auto activations = static_cast<int>(config.integer("program_activations"));
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const std::string label = "pool net " + std::to_string(i);
        const staged_outcome outcome = synthesize_staged(pool[i].text, true, batch_options);
        if (outcome.status != pipeline::pipeline_status::ok) {
            result.mismatch("serve: " + label + " staged synthesis failed");
            continue;
        }
        pool_c_bytes += outcome.code_bytes;
        check_cycles(*outcome.net, outcome.cycles, result, label);
        try {
            check_program(*outcome.net, *outcome.program, config.seed + i, activations, result,
                          label, instructions, actions);
        } catch (const std::exception& e) {
            result.mismatch(label + ": program run threw: " + e.what());
        }
    }

    // -- metrics -------------------------------------------------------------------------
    auto& m = result.metrics;
    const std::vector<double> ref_latency = latencies_ms(phases[0]);
    std::vector<double> hit_latency, fresh_latency;
    for (const request_record& r : phases[0].records) {
        (r.pool_index >= 0 ? hit_latency : fresh_latency).push_back(latency_ms(r));
    }
    const auto spread = [](const std::vector<double>& values) {
        return std::vector<double>{quantile(values, 0.5), quantile(values, 0.9),
                                   quantile(values, 0.95), quantile(values, 0.99)};
    };
    result.samples["latency_ms_p50_p90_p95_p99"] = spread(ref_latency);
    result.samples["pool_latency_ms_p50_p90_p95_p99"] = spread(hit_latency);
    result.samples["fresh_latency_ms_p50_p90_p95_p99"] = spread(fresh_latency);
    if (!config.trace) {
        // Capacity is the median of the reply rates of about one-second
        // slices of the closed loop, so neither its drain nor a short slow
        // spell of the host sets it alone.
        result.samples["capacity_rps"] = phases[1].slice_rates;
        m["ops_per_s"] = median(phases[1].slice_rates);
        // p50 and p99 are medians over equal, consecutive windows of the
        // reference phase, so a slow spell of the host shorter than half of
        // the phase cannot set them alone.
        const auto windows = static_cast<std::size_t>(config.integer("latency_windows"));
        const std::vector<double> window_p50 = window_quantiles(ref_latency, windows, 0.5);
        const std::vector<double> window_p99 = window_quantiles(ref_latency, windows, 0.99);
        result.samples["window_p50_ms"] = window_p50;
        result.samples["window_p99_ms"] = window_p99;
        m["op_p50_ms"] = median(window_p50);
        m["op_tail_ms"] = median(window_p99);
        set_up(); // the later set-ups; they rebuild the same inputs
        return result;
    }
    // Layer split of the same traffic: every pool net and the fresh nets the
    // run sent, one layer call at a time.
    staged_totals staged{.passes = 1};
    layer_table::global().set_enabled(true);
    obs::set_tracing_enabled(true);
    for (const pool_net& net : pool) {
        staged.add(synthesize_staged(net.text, false, batch_options));
    }
    for (std::size_t i = 0; i < load.fresh_used(); ++i) {
        staged.add(synthesize_staged(fresh[i].text, false, batch_options));
    }
    obs::set_tracing_enabled(false);
    layer_table::global().set_enabled(false);
    std::vector<double> admit, wait, lag;
    for (const request_record& r : phases[1].records) {
        if (!replied(r)) {
            continue;
        }
        admit.push_back((r.accepted - r.sent) * 1000.0);
        wait.push_back((r.done - r.accepted) * 1000.0 - r.stage_micros / 1000.0);
        lag.push_back((r.sent - r.due) * 1000.0);
    }
    const std::vector<double> traced_latency = latencies_ms(phases[1]);
    m["gen.code_bytes"] = static_cast<double>(pool_c_bytes);
    m["gen.instr_per_firing"] =
        actions > 0 ? static_cast<double>(instructions) / static_cast<double>(actions) : 0;
    add_stage_metrics(staged, m);
    m["svc.admit_ms_p99"] = quantile(admit, 0.99);
    m["service.wait_ms_p99"] = quantile(wait, 0.99);
    m["service.dedupe_hit_frac"] =
        stats.submitted > 0
            ? static_cast<double>(stats.inflight_hits + stats.cache_hits) /
                  static_cast<double>(stats.submitted)
            : 0;
    m["service.rejected"] = static_cast<double>(stats.overloaded);
    m["serve.gen_lag_ms"] = quantile(lag, 0.99);
    m["trace.overhead_frac"] = quantile(traced_latency, 0.5) / quantile(ref_latency, 0.5) - 1.0;
    return result;
}

} // namespace perfbench
