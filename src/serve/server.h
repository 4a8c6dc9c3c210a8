#ifndef SATO_SERVE_SERVER_H_
#define SATO_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/clock.h"
#include "serve/fault_injector.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/wire.h"

namespace sato::serve {

struct ServerOptions {
  /// Bind address. Loopback by default: exposing the daemon beyond the
  /// host is a deployment decision, not a code default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Per-connection admission control: at most this many connections are
  /// served concurrently. A connection beyond the bound is answered with
  /// one kBusy error frame and closed immediately -- refused loudly, never
  /// queued silently. Clamped to >= 1.
  size_t max_connections = 64;

  /// Per-tenant request quota: each tenant id may have at most this many
  /// predict requests ADMITTED over the server's lifetime; further
  /// predicts answer kRejected (typed, immediate -- never a hang).
  /// 0 = unlimited. Ping/correction frames are not metered.
  uint64_t tenant_request_quota = 0;

  /// Bound on how many distinct tenant ids are tracked individually. The
  /// tenant id is client-chosen and UNAUTHENTICATED -- advisory until an
  /// auth layer exists -- so without a cap a hostile client rotating ids
  /// would grow the per-tenant map without bound (and mint a fresh quota
  /// per id). Once the map is full, requests from unseen ids aggregate
  /// into one shared overflow bucket that also shares a single
  /// tenant_request_quota. Clamped to >= 1.
  size_t max_tracked_tenants = 1024;

  /// Time source for injected receive stalls. Borrowed; must outlive the
  /// server. nullptr -> the server owns a SteadyClock.
  Clock* clock = nullptr;

  /// Deterministic fault injection on the socket paths (kServerRecvShort,
  /// kServerRecvError, kServerRecvStall, kServerSend). Borrowed; must
  /// outlive the server. nullptr (default) disables.
  FaultInjector* fault_injector = nullptr;
};

/// Monotonic counters of what happens before a request reaches the
/// PredictionService; Stats() returns a mutex-consistent snapshot.
/// Prediction outcomes are counted by the service (ServiceStats), cache
/// hits by the ResultCache and acked corrections by the ModelRegistry
/// (RegistryStats), never here.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< kBusy over max_connections
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;      ///< well-formed frames
  uint64_t responses_sent = 0;
  uint64_t malformed_frames = 0;     ///< bad magic/version/length/truncation
  uint64_t malformed_payloads = 0;   ///< bad payload inside a valid frame
  uint64_t quota_rejected = 0;       ///< per-tenant quota exhausted
  uint64_t pings = 0;
  /// Exceptions caught by the connection barrier: a request handler that
  /// throws fails its connection (typed kFailed frame, then close), never
  /// the process.
  uint64_t handler_exceptions = 0;
  /// Admitted predict requests per tenant id; bounded by
  /// ServerOptions::max_tracked_tenants.
  std::map<uint32_t, uint64_t> tenant_requests;
  /// Admitted predict requests from tenants beyond max_tracked_tenants,
  /// aggregated into one shared bucket (which also shares one quota).
  uint64_t tenant_overflow_requests = 0;
};

/// The network front door: a TCP listener speaking the length-prefixed
/// wire protocol (serve/wire.h) over one PredictionService.
///
/// Threading: one accept thread plus one thread per live connection
/// (bounded by max_connections). Requests on a connection are served in
/// order -- responses carry the echoed request id, and clients may
/// pipeline as many frames as they like; cross-request concurrency comes
/// from concurrent connections submitting to the one shared service.
///
/// Error discipline: header-level corruption (bad magic, wrong version,
/// oversized or truncated frame) is answered with one typed error frame
/// and a close -- a byte stream cannot resync after framing breaks.
/// Payload-level corruption inside a well-formed frame answers a typed
/// kMalformed response and KEEPS the connection. A request handler that
/// throws (decode allocation, table copy, registry error) is caught by a
/// per-connection exception barrier: one typed kFailed frame, then only
/// that connection closes -- nothing ever unwinds into the thread body
/// and terminates the daemon. Nothing malformed ever hangs, crashes, or
/// is silently dropped.
///
/// Graceful drain (the SIGTERM path): RequestDrain() stops the listener
/// and signals every connection; each connection finishes the requests it
/// has already received (its userspace buffer plus whatever the kernel
/// already delivered), writes their responses, and closes. New
/// connections and later frames see a closed socket. Shutdown() drains
/// and joins everything; the destructor calls it, so destroying a server
/// with clients connected is clean.
class Server {
 public:
  /// Binds, listens and starts accepting immediately. `service` is
  /// borrowed and must outlive the server. Throws std::runtime_error when
  /// the socket cannot be bound.
  Server(PredictionService* service, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves option port 0 to the ephemeral choice).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Begins graceful drain; idempotent, returns immediately.
  void RequestDrain();

  /// Drain + join accept and connection threads; idempotent.
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerStats Stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Handles one well-formed frame. Payload errors answer a typed
  /// kMalformed response and keep the connection; a throw is caught by
  /// the caller's exception barrier and fails only that connection.
  void HandleFrame(int fd, const wire::FrameHeader& header,
                   std::string_view payload);
  /// Exception-barrier path: counts the failure and answers one typed
  /// kFailed frame before the connection closes.
  void FailConnection(int fd, uint64_t request_id, const char* message);
  void SendResponse(int fd, uint16_t opcode, uint64_t request_id,
                    const wire::ResponseBody& body);
  void SendErrorFrame(int fd, uint64_t request_id, wire::WireStatus status,
                      const std::string& message);
  void ReapFinishedConnections();  // joins done threads; conn_mutex_ held

  ServerOptions options_;  // sanitized copy
  std::unique_ptr<SteadyClock> own_clock_;
  Clock* clock_;
  PredictionService* service_;  // borrowed
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  // Drain broadcast: connections poll the read end; RequestDrain closes
  // the write end, which wakes every poller at once (POLLHUP) with no
  // per-connection bookkeeping and no lost-wakeup window.
  int drain_pipe_rd_ = -1;
  int drain_pipe_wr_ = -1;
  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;
  std::once_flag shutdown_once_;

  mutable std::mutex conn_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  size_t active_connections_ = 0;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread accept_thread_;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_SERVER_H_
