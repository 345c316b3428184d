#include "svc/server.hpp"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace fcqss::svc {

namespace {

/// Writes one "line\n" atomically with respect to other writers on the
/// same sink (the per-sink mutex serializes whole lines, and the payload
/// is assembled first so one write() call usually suffices).
class line_writer {
public:
    explicit line_writer(int fd) : fd_(fd) {}

    bool write_line(const std::string& line)
    {
        std::string payload = line;
        payload += '\n';
        std::lock_guard lock(mutex_);
        std::size_t sent = 0;
        while (sent < payload.size()) {
            const ssize_t n =
                ::write(fd_, payload.data() + sent, payload.size() - sent);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                failed_.store(true, std::memory_order_relaxed);
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    [[nodiscard]] bool failed() const
    {
        return failed_.load(std::memory_order_relaxed);
    }

private:
    int fd_;
    std::mutex mutex_;
    std::atomic<bool> failed_{false};
};

/// A request line can carry a whole `.pn` net, so lines are buffered up to
/// options.max_line_bytes; past that the rest of the line is skimmed and
/// the client gets one error event instead of an OOM.
class line_reader {
public:
    line_reader(int fd, std::size_t max_line_bytes)
        : fd_(fd), max_line_bytes_(max_line_bytes)
    {
    }

    enum class status { line, oversized, eof, error };

    status next(std::string& line)
    {
        line.clear();
        bool oversized = false;
        while (true) {
            while (scan_ < buffer_.size()) {
                const char c = buffer_[scan_++];
                if (c == '\n') {
                    // Shift out the consumed prefix in one move per line.
                    buffer_.erase(0, scan_);
                    scan_ = 0;
                    return oversized ? status::oversized : status::line;
                }
                if (!oversized) {
                    line += c;
                    if (line.size() > max_line_bytes_) {
                        line.clear();
                        oversized = true;
                    }
                }
            }
            buffer_.clear();
            scan_ = 0;
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n == 0) {
                return status::eof; // a final unterminated line is dropped
            }
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return status::error;
            }
            buffer_.assign(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_;
    std::size_t max_line_bytes_;
    std::string buffer_;
    std::size_t scan_ = 0;
};

/// SIGPIPE would kill the daemon when a client disconnects mid-reply;
/// writes report EPIPE instead.
void ignore_sigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

/// Drives one session over a reader/writer pair until EOF, I/O failure,
/// or a shutdown request.  Returns the verdict of the last handled line.
session_verdict pump(session& sess, line_reader& reader, const line_writer& writer)
{
    std::string line;
    while (true) {
        switch (reader.next(line)) {
        case line_reader::status::line:
            if (sess.handle_line(line) == session_verdict::shutdown) {
                return session_verdict::shutdown;
            }
            break;
        case line_reader::status::oversized:
            sess.send_error("request line too long");
            break;
        case line_reader::status::eof:
        case line_reader::status::error:
            return session_verdict::keep_open;
        }
        if (writer.failed()) {
            return session_verdict::keep_open; // peer gone; stop reading
        }
    }
}

} // namespace

int serve_stdio(pipeline::service& service, int in_fd, int out_fd,
                const server_options& options)
{
    ignore_sigpipe();
    line_writer writer(out_fd);
    session sess(service, [&writer](const std::string& line) {
        writer.write_line(line);
    }, options.session);

    line_reader reader(in_fd, options.max_line_bytes);
    const session_verdict verdict = pump(sess, reader, writer);

    // EOF and shutdown end the same way: no further intake from this
    // transport, every accepted request replies, then the stream closes.
    service.drain();
    if (verdict == session_verdict::shutdown) {
        sess.send_bye();
    }
    return writer.failed() ? 1 : 0;
}

int serve_tcp(pipeline::service& service, unsigned short port,
              const server_options& options, unsigned short* bound_port)
{
    ignore_sigpipe();

    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        return 1;
    }
    const int reuse = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0 ||
        ::listen(listener, 16) != 0) {
        ::close(listener);
        return 1;
    }
    if (bound_port != nullptr) {
        sockaddr_in bound{};
        socklen_t length = sizeof bound;
        if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                          &length) == 0) {
            *bound_port = ntohs(bound.sin_port);
        }
    }

    // Remote peers must not read the server's filesystem.
    server_options tcp_options = options;
    tcp_options.session.allow_paths = false;

    std::atomic<bool> stopping{false};
    std::vector<std::jthread> connections; // touched by the accept loop only

    while (true) {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR && !stopping.load(std::memory_order_acquire)) {
                continue;
            }
            break; // listener was shut down by the shutdown connection
        }
        if (stopping.load(std::memory_order_acquire)) {
            ::close(conn);
            continue;
        }
        // Every reply is one small line; under Nagle a `done` line would wait
        // for the ACK that rides on the client's next request.
        const int no_delay = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof no_delay);
        connections.emplace_back([&service, &stopping, listener, conn,
                                  tcp_options] {
            line_writer writer(conn);
            session sess(service, [&writer](const std::string& line) {
                writer.write_line(line);
            }, tcp_options.session);
            line_reader reader(conn, tcp_options.max_line_bytes);
            const session_verdict verdict = pump(sess, reader, writer);
            if (verdict == session_verdict::shutdown) {
                stopping.store(true, std::memory_order_release);
                ::shutdown(listener, SHUT_RDWR); // wake the accept loop
                service.drain();
                sess.send_bye();
            }
            // In-flight replies still target this fd; closing before they
            // land would hand their bytes to whoever reuses the number.
            sess.wait_idle();
            ::close(conn);
        });
    }

    connections.clear(); // join every connection (each waited idle already)
    service.drain();     // no-op when a shutdown connection already drained
    ::close(listener);
    return 0;
}

} // namespace fcqss::svc
