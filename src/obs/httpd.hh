/**
 * @file
 * A tiny dependency-free blocking HTTP/1.1 server: the campaign
 * control plane's transport.
 *
 * One acceptor thread listens and hands accepted connections to a
 * small pool of handler threads over a bounded queue; each handler
 * owns a preallocated request buffer, so the steady state allocates
 * nothing per request beyond the response body.  Two route kinds:
 *
 *  - handle(path, fn): one request -> one response (the /healthz,
 *    /metrics, /progress surfaces).  Only GET is served; anything
 *    else is 405, an unrouted path is 404.
 *  - stream(path, gen): a server-sent-events (SSE) response.  The
 *    generator is polled every interval; each returned chunk is
 *    written verbatim (callers format the `event:`/`data:` framing),
 *    and a false return ends the stream.  A disconnected client or a
 *    server stop() ends it too.
 *
 * stop() is prompt and idempotent: it closes the listener, wakes the
 * pool, and joins every thread; in-flight simple responses finish,
 * and every stream is polled one last time, then ends.  The destructor calls it, so a
 * server never outlives the state its handlers capture as long as it
 * is declared after that state (or stopped explicitly first).
 *
 * This is deliberately not a general web server: no keep-alive, no
 * TLS, no request bodies, 8 KiB header cap.  It exists so `wotool
 * campaign --serve-port` can expose /metrics without pulling in a
 * dependency (see docs/OBSERVABILITY.md, "control plane").
 */

#ifndef WO_OBS_HTTPD_HH
#define WO_OBS_HTTPD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wo {

/** One parsed request (the served subset: method + path). */
struct HttpRequest
{
    std::string method; //!< "GET", uppercased verbatim
    std::string path;   //!< target with any ?query stripped
    std::string query;  //!< the ?query remainder (no '?'), may be empty
};

/** One response; the server adds status line and framing headers. */
struct HttpResponse
{
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
};

/** Server configuration (the `--serve-port`/`--serve-addr` surface). */
struct HttpServerCfg
{
    std::string addr = "127.0.0.1"; //!< bind address (dotted IPv4)
    std::uint16_t port = 0;         //!< 0 = ephemeral (see port())
    int handler_threads = 2;        //!< connection handler pool size
    int stream_interval_ms = 500;   //!< SSE generator poll period
};

/** The blocking HTTP/1.1 control-plane server. */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;
    /**
     * SSE generator: fill @p chunk with the next event text (already
     * `event:`/`data:`-framed, blank-line terminated); return false to
     * end the stream.  An empty chunk with a true return just waits
     * another interval.  Called from a handler thread; must be
     * thread-safe against other connections polling the same stream.
     */
    using StreamGen = std::function<bool(std::string &chunk)>;

    explicit HttpServer(HttpServerCfg cfg = {}) : cfg_(cfg) {}
    ~HttpServer() { stop(); }

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Register a request handler for exact @p path.  Replaces any
     *  existing route; safe to call while serving. */
    void handle(const std::string &path, Handler fn);

    /** Register an SSE stream for exact @p path. */
    void stream(const std::string &path, StreamGen gen);

    /**
     * Bind, listen and start the acceptor + handler pool.  False when
     * the socket cannot be bound (port in use, bad address, ...);
     * lastError() then says why.  Not restartable after stop().
     */
    bool start();

    /** Close the listener, end streams, join every thread.  Idempotent. */
    void stop();

    /** The bound port (resolves an ephemeral port 0 after start()). */
    std::uint16_t port() const { return bound_port_; }

    /** Human-readable reason start() returned false. */
    const std::string &lastError() const { return error_; }

    /** Requests served (diagnostic; includes 404s). */
    std::uint64_t requestsServed() const;

  private:
    void acceptLoop();
    void handlerLoop();
    void serveConnection(int fd, std::string &buf);
    void serveStream(int fd, const StreamGen &gen);
    bool writeAll(int fd, const char *data, std::size_t len);

    HttpServerCfg cfg_;
    int listen_fd_ = -1;
    std::uint16_t bound_port_ = 0;
    std::string error_;
    bool started_ = false;

    std::mutex routes_mu_;
    std::vector<std::pair<std::string, Handler>> routes_;
    std::vector<std::pair<std::string, StreamGen>> streams_;

    std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<int> pending_; //!< accepted fds awaiting a handler
    std::atomic<bool> stopping_{false};

    // Streams sleep on their own monitor: waking the pool for a new
    // connection must never be swallowed by a dozing stream.
    std::mutex stop_mu_;
    std::condition_variable stop_cv_;

    std::thread acceptor_;
    std::vector<std::thread> handlers_;
    std::atomic<std::uint64_t> served_{0};
};

} // namespace wo

#endif // WO_OBS_HTTPD_HH
