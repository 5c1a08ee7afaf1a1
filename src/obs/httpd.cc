#include "httpd.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace wo {

namespace {

/** The reason phrase of the status codes this server emits. */
const char *
reasonPhrase(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 431: return "Request Header Fields Too Large";
      default:  return "Unknown";
    }
}

constexpr std::size_t max_request_bytes = 8 * 1024;

} // namespace

void
HttpServer::handle(const std::string &path, Handler fn)
{
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (auto &r : routes_)
        if (r.first == path) {
            r.second = std::move(fn);
            return;
        }
    routes_.emplace_back(path, std::move(fn));
}

void
HttpServer::stream(const std::string &path, StreamGen gen)
{
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (auto &s : streams_)
        if (s.first == path) {
            s.second = std::move(gen);
            return;
        }
    streams_.emplace_back(path, std::move(gen));
}

bool
HttpServer::start()
{
    if (started_) {
        error_ = "already started";
        return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        error_ = strprintf("socket: %s", std::strerror(errno));
        return false;
    }
    // REUSEADDR skips the TIME_WAIT bind dance across quick restarts;
    // a *live* listener on the same port still fails with EADDRINUSE,
    // which is exactly the collision callers must surface.
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.addr.c_str(), &sa.sin_addr) != 1) {
        error_ = strprintf("bad address '%s'", cfg_.addr.c_str());
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&sa),
               sizeof sa) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        error_ = strprintf("%s:%u: %s", cfg_.addr.c_str(),
                           static_cast<unsigned>(cfg_.port),
                           std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    socklen_t len = sizeof sa;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&sa), &len);
    bound_port_ = ntohs(sa.sin_port);

    started_ = true;
    stopping_ = false;
    const int n = cfg_.handler_threads > 0 ? cfg_.handler_threads : 1;
    handlers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        handlers_.emplace_back([this] { handlerLoop(); });
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!started_)
        return;
    if (stopping_.exchange(true))
        return;
    // Unblock accept(): shutdown() forces an in-progress accept to
    // return on Linux; close() frees the port.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    {
        // Notify under the monitors: a waiter that just checked its
        // predicate must not sleep through the only wake-up.
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_cv_.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_cv_.notify_all();
    }
    if (acceptor_.joinable())
        acceptor_.join();
    for (auto &t : handlers_)
        if (t.joinable())
            t.join();
    handlers_.clear();
    // Anything accepted but never picked up: refuse politely by close.
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
}

std::uint64_t
HttpServer::requestsServed() const
{
    return served_.load(std::memory_order_relaxed);
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        {
            std::lock_guard<std::mutex> lock(queue_mu_);
            if (stopping_) {
                if (fd >= 0)
                    ::close(fd);
                return;
            }
            if (fd < 0)
                continue; // transient (EINTR, aborted connection)
            pending_.push_back(fd);
        }
        queue_cv_.notify_one();
    }
}

void
HttpServer::handlerLoop()
{
    // One preallocated request buffer per handler thread: the hot loop
    // reuses it for every connection.
    std::string buf;
    buf.reserve(max_request_bytes);
    for (;;) {
        int fd;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || !pending_.empty(); });
            if (stopping_)
                return;
            fd = pending_.front();
            pending_.pop_front();
        }
        serveConnection(fd, buf);
        ::close(fd);
    }
}

bool
HttpServer::writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        // MSG_NOSIGNAL: a vanished client must not SIGPIPE the engine.
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
HttpServer::serveConnection(int fd, std::string &buf)
{
    served_.fetch_add(1, std::memory_order_relaxed);
    buf.clear();
    // Read until the blank line that ends the header block (bodies are
    // not served; GETs do not carry one).
    char chunk[1024];
    while (buf.find("\r\n\r\n") == std::string::npos &&
           buf.find("\n\n") == std::string::npos) {
        if (buf.size() >= max_request_bytes) {
            const char *msg = "HTTP/1.1 431 Request Header Fields Too "
                              "Large\r\nConnection: close\r\n\r\n";
            writeAll(fd, msg, std::strlen(msg));
            return;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return; // client went away mid-request
        buf.append(chunk, static_cast<std::size_t>(n));
    }

    // Request line: METHOD SP target SP version.
    HttpRequest req;
    const std::size_t eol = buf.find_first_of("\r\n");
    const std::string line = buf.substr(0, eol);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    int status = 200;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        status = 400;
    } else {
        req.method = line.substr(0, sp1);
        std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::size_t q = target.find('?');
        req.path = target.substr(0, q);
        if (q != std::string::npos)
            req.query = target.substr(q + 1);
    }

    HttpResponse resp;
    if (status == 400) {
        resp.status = 400;
        resp.body = "malformed request\n";
    } else if (req.method != "GET") {
        resp.status = 405;
        resp.body = "only GET is served\n";
    } else {
        Handler handler;
        StreamGen gen;
        {
            std::lock_guard<std::mutex> lock(routes_mu_);
            for (const auto &s : streams_)
                if (s.first == req.path)
                    gen = s.second;
            if (!gen)
                for (const auto &r : routes_)
                    if (r.first == req.path)
                        handler = r.second;
        }
        if (gen) {
            serveStream(fd, gen);
            return;
        }
        if (handler) {
            resp = handler(req);
        } else {
            resp.status = 404;
            resp.body = "no route for " + req.path + "\n";
        }
    }

    std::string head = strprintf(
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        resp.status, reasonPhrase(resp.status),
        resp.content_type.c_str(), resp.body.size());
    if (writeAll(fd, head.data(), head.size()))
        writeAll(fd, resp.body.data(), resp.body.size());
}

void
HttpServer::serveStream(int fd, const StreamGen &gen)
{
    const char *head = "HTTP/1.1 200 OK\r\n"
                       "Content-Type: text/event-stream\r\n"
                       "Cache-Control: no-store\r\n"
                       "Connection: close\r\n\r\n";
    if (!writeAll(fd, head, std::strlen(head)))
        return;
    const auto interval = std::chrono::milliseconds(
        cfg_.stream_interval_ms > 0 ? cfg_.stream_interval_ms : 100);
    std::string chunk;
    for (;;) {
        // A stream woken by stop() polls once more, so it ends on the
        // state its owner had when it stopped the server (a finished
        // campaign's final `done`), not on a stale earlier poll.
        const bool last = stopping_.load();
        chunk.clear();
        const bool more = gen(chunk);
        if (!chunk.empty() && !writeAll(fd, chunk.data(), chunk.size()))
            return; // client disconnected
        if (!more || last)
            return;
        // Sleep stop()-aware so shutdown stays prompt; dedicated
        // monitor, so a doze never swallows a new-connection wake.
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(lock, interval,
                          [this] { return stopping_.load(); });
    }
}

} // namespace wo
