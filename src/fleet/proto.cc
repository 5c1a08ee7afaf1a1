#include "proto.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace wo {

bool
parseHostPort(const std::string &text, HostPort &out)
{
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size())
        return false;
    const std::string host = text.substr(0, colon);
    unsigned long port = 0;
    for (std::size_t i = colon + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (c < '0' || c > '9')
            return false;
        port = port * 10 + static_cast<unsigned long>(c - '0');
        if (port > 65535)
            return false;
    }
    if (port == 0)
        return false;
    out.host = host;
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

Json
fleetMsg(const char *type)
{
    Json j = Json::object();
    j.set("type", Json(type));
    return j;
}

std::string
fleetMsgType(const Json &j)
{
    return j.stringAt("type");
}

// --- transport -------------------------------------------------------

int
fleetListen(const std::string &addr, std::uint16_t port,
            std::uint16_t *bound_port, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = strprintf("socket: %s", std::strerror(errno));
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
        if (error)
            *error = strprintf("bad address '%s'", addr.c_str());
        ::close(fd);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) != 0 ||
        ::listen(fd, 32) != 0) {
        if (error)
            *error = strprintf("%s:%u: %s", addr.c_str(),
                               static_cast<unsigned>(port),
                               std::strerror(errno));
        ::close(fd);
        return -1;
    }
    socklen_t len = sizeof sa;
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&sa), &len);
    if (bound_port)
        *bound_port = ntohs(sa.sin_port);
    return fd;
}

int
fleetConnect(const HostPort &hp, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = strprintf("socket: %s", std::strerror(errno));
        return -1;
    }
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(hp.port);
    if (::inet_pton(AF_INET, hp.host.c_str(), &sa.sin_addr) != 1) {
        if (error)
            *error = strprintf("bad address '%s' (dotted IPv4 only)",
                               hp.host.c_str());
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) !=
        0) {
        if (error)
            *error = strprintf("%s:%u: %s", hp.host.c_str(),
                               static_cast<unsigned>(hp.port),
                               std::strerror(errno));
        ::close(fd);
        return -1;
    }
    // Leases and heartbeats are small lines; latency beats batching.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

LineConn::Read
LineConn::readLine(std::string &out, int timeout_ms)
{
    for (;;) {
        const std::size_t eol = buf_.find('\n', scanned_);
        if (eol != std::string::npos) {
            out.assign(buf_, 0, eol);
            buf_.erase(0, eol + 1);
            scanned_ = 0;
            return Read::line;
        }
        scanned_ = buf_.size();
        if (fd_ < 0 || scanned_ > fleet_max_line_bytes)
            return Read::closed;
        pollfd pfd = {fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr == 0)
            return Read::timeout;
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return Read::closed;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return Read::closed; // EOF or error: the peer is gone
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineConn::writeLine(const Json &msg)
{
    std::string text = msg.dump();
    text += '\n';
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ < 0)
        return false;
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd_, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineConn::shutdownNow()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineConn::closeNow()
{
    // The write mutex keeps a concurrent writeLine from racing the fd
    // teardown; readLine is owner-thread-only by contract (the owner
    // does not close while its own read is in flight).
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace wo
