#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sato::serve {

namespace {

[[noreturn]] void ThrowErrno(const char* what, int listen_fd, int pipe_rd,
                             int pipe_wr) {
  std::string message = std::string("Server: ") + what + ": " +
                        std::strerror(errno);
  if (listen_fd >= 0) ::close(listen_fd);
  if (pipe_rd >= 0) ::close(pipe_rd);
  if (pipe_wr >= 0) ::close(pipe_wr);
  throw std::runtime_error(message);
}

ServerOptions Sanitize(ServerOptions options) {
  options.max_connections = std::max<size_t>(1, options.max_connections);
  options.max_tracked_tenants =
      std::max<size_t>(1, options.max_tracked_tenants);
  return options;
}

}  // namespace

Server::Server(PredictionService* service, const ServerOptions& options)
    : options_(Sanitize(options)),
      own_clock_(options.clock != nullptr ? nullptr : new SteadyClock),
      clock_(options.clock != nullptr ? options.clock : own_clock_.get()),
      service_(service) {
  if (service_ == nullptr) {
    throw std::invalid_argument("Server: null PredictionService");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket", -1, -1, -1);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::invalid_argument("Server: invalid bind address " +
                                options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ThrowErrno("bind", listen_fd_, -1, -1);
  }
  if (::listen(listen_fd_, 128) != 0) {
    ThrowErrno("listen", listen_fd_, -1, -1);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ThrowErrno("getsockname", listen_fd_, -1, -1);
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) ThrowErrno("pipe", listen_fd_, -1, -1);
  drain_pipe_rd_ = pipe_fds[0];
  drain_pipe_wr_ = pipe_fds[1];

  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Server::~Server() { Shutdown(); }

void Server::RequestDrain() {
  std::call_once(drain_once_, [this] {
    draining_.store(true, std::memory_order_release);
    // Stop the listener first so no connection can slip in between the
    // flag and the broadcast, then close the pipe's write end: every
    // poll() on the read end wakes with POLLHUP at once.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(drain_pipe_wr_);
    drain_pipe_wr_ = -1;
  });
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    RequestDrain();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::list<std::unique_ptr<Connection>> connections;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      connections.swap(connections_);
    }
    for (auto& connection : connections) {
      if (connection->thread.joinable()) connection->thread.join();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (drain_pipe_rd_ >= 0) {
      ::close(drain_pipe_rd_);
      drain_pipe_rd_ = -1;
    }
  });
}

ServerStats Server::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Server::ReapFinishedConnections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {drain_pipe_rd_, POLLIN, 0}};
    int pr = ::poll(fds, 2, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain broadcast
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      ReapFinishedConnections();
      if (active_connections_ < options_.max_connections) {
        ++active_connections_;
        admitted = true;
      }
    }
    if (!admitted) {
      // Refused loudly: one typed kBusy frame, then close. The client
      // learns the server is at capacity instead of waiting in a silent
      // backlog.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_refused;
      }
      SendErrorFrame(fd, 0, wire::WireStatus::kBusy,
                     "server at max_connections");
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void Server::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  std::string buffer;
  char chunk[1 << 16];
  bool fatal = false;

  // Parses and serves every complete frame at the front of `buffer`.
  // Header-level corruption sends one typed error frame and turns the
  // connection fatal (framing cannot resync).
  auto process_buffered = [&] {
    // Frames are consumed through an offset and the buffer compacted once
    // per sweep: erasing the front per frame would make heavily pipelined
    // input quadratic in buffered bytes.
    size_t consumed = 0;
    while (!fatal) {
      std::string_view view = std::string_view(buffer).substr(consumed);
      wire::FrameHeader header;
      size_t frame_bytes = 0;
      wire::DecodeStatus status = wire::DecodeHeader(
          view, wire::kMaxPayloadBytes, &header, &frame_bytes);
      if (status == wire::DecodeStatus::kNeedMore) break;
      if (status == wire::DecodeStatus::kFrame) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.frames_received;
        }
        try {
          HandleFrame(fd, header,
                      view.substr(wire::kHeaderBytes, header.payload_len));
        } catch (const std::exception& e) {
          FailConnection(fd, header.request_id, e.what());
          fatal = true;
        } catch (...) {
          FailConnection(fd, header.request_id, "request handler failed");
          fatal = true;
        }
        consumed += frame_bytes;
        continue;
      }
      const char* message =
          status == wire::DecodeStatus::kBadMagic
              ? "bad magic"
              : status == wire::DecodeStatus::kBadVersion
                    ? "unsupported protocol version"
                    : "payload length exceeds bound";
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.malformed_frames;
      }
      SendErrorFrame(fd, 0,
                     status == wire::DecodeStatus::kBadVersion
                         ? wire::WireStatus::kUnsupported
                         : wire::WireStatus::kMalformed,
                     message);
      fatal = true;
    }
    if (consumed > 0) buffer.erase(0, consumed);
  };

  bool drain_now = false;
  // Last-ditch exception barrier: a throw escaping the std::thread body
  // would std::terminate the whole daemon, so anything the per-frame
  // barrier missed (e.g. a failed error-frame send) closes only this
  // connection.
  try {
    while (!fatal) {
      process_buffered();
      if (fatal) break;
      if (drain_now) {
        // Graceful drain: requests the kernel has already delivered count
        // as in-flight. Sweep them out non-blockingly, serve every
        // complete frame, then close -- later bytes meet a closed socket.
        int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        for (;;) {
          ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            buffer.append(chunk, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          break;  // EAGAIN, EOF or error: the sweep is done
        }
        process_buffered();
        break;
      }

      pollfd fds[2] = {{fd, POLLIN, 0}, {drain_pipe_rd_, POLLIN, 0}};
      int pr = ::poll(fds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents != 0) {
        drain_now = true;
        continue;
      }
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Socket-read fault points, decided per readable sweep. Each one
      // degrades into a failure mode the code below already has to
      // survive: kServerRecvError is a peer reset (drop the connection),
      // kServerRecvStall a scheduling hiccup (the client's deadline is
      // what bounds it), kServerRecvShort a 1-byte trickle (the framing
      // loop must reassemble split headers regardless of arrival shape).
      FaultInjector* injector = options_.fault_injector;
      if (MaybeInject(injector, FaultPoint::kServerRecvError)) break;
      if (MaybeInject(injector, FaultPoint::kServerRecvStall)) {
        clock_->SleepUntil(clock_->NowNanos() + injector->stall_nanos());
      }
      const size_t recv_cap =
          MaybeInject(injector, FaultPoint::kServerRecvShort)
              ? 1
              : sizeof(chunk);
      ssize_t n = ::recv(fd, chunk, recv_cap, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) {
        if (!buffer.empty()) {
          // Half-close mid-frame: the peer can never complete this frame.
          // Fail loudly (typed error, still deliverable -- only the write
          // side died) instead of waiting forever.
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.malformed_frames;
          }
          SendErrorFrame(fd, 0, wire::WireStatus::kMalformed,
                         "connection closed mid-frame");
        }
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.handler_exceptions;
  }

  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    --active_connections_;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_closed;
  }
  connection->done.store(true, std::memory_order_release);
}

void Server::FailConnection(int fd, uint64_t request_id,
                            const char* message) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.handler_exceptions;
  }
  SendErrorFrame(fd, request_id, wire::WireStatus::kFailed, message);
}

void Server::HandleFrame(int fd, const wire::FrameHeader& header,
                         std::string_view payload) {
  wire::ResponseBody body;
  switch (static_cast<wire::Opcode>(header.opcode)) {
    case wire::Opcode::kPing: {
      body.status = wire::WireStatus::kOk;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.pings;
      break;
    }
    case wire::Opcode::kCorrection: {
      std::string column_name;
      TypeId type = 0;
      uint64_t model_version = 0;
      std::string error;
      if (!wire::DecodeCorrectionPayload(payload, &column_name, &type,
                                         &model_version, &error)) {
        body.status = wire::WireStatus::kMalformed;
        body.message = error;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.malformed_payloads;
        break;
      }
      // The ack is gated on durability: SubmitCorrection returns false
      // when an attached WAL could not record the correction, and a
      // client must never see kOk for a correction that would evaporate
      // on restart (it retries on the typed failure instead).
      if (!service_->registry()->SubmitCorrection(
              Correction{std::move(column_name), type, model_version})) {
        body.status = wire::WireStatus::kFailed;
        body.message = "correction not durably recorded";
        break;
      }
      body.status = wire::WireStatus::kOk;
      break;
    }
    case wire::Opcode::kPredict: {
      // Per-tenant quota: admission is metered before any decode work, so
      // an over-quota tenant cannot cost more than a header parse. The
      // tenant id is client-chosen and unauthenticated, so tracking is
      // bounded: once max_tracked_tenants distinct ids exist, unseen ids
      // share one overflow bucket -- and one quota -- so rotating ids can
      // grow neither server memory nor the admitted-request budget.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        uint64_t* used;
        auto it = stats_.tenant_requests.find(header.tenant_id);
        if (it != stats_.tenant_requests.end()) {
          used = &it->second;
        } else if (stats_.tenant_requests.size() <
                   options_.max_tracked_tenants) {
          used = &stats_.tenant_requests[header.tenant_id];
        } else {
          used = &stats_.tenant_overflow_requests;
        }
        if (options_.tenant_request_quota > 0 &&
            *used >= options_.tenant_request_quota) {
          ++stats_.quota_rejected;
          body.status = wire::WireStatus::kRejected;
          body.message = "tenant quota exhausted";
        } else {
          ++*used;
        }
      }
      if (body.status == wire::WireStatus::kRejected) break;

      Table table;
      uint64_t seed = 0;
      std::string error;
      if (!wire::DecodePredictPayload(payload, &table, &seed, &error)) {
        body.status = wire::WireStatus::kMalformed;
        body.message = error;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.malformed_payloads;
        break;
      }
      // The handle owns the result's storage -- it must outlive `result`.
      // The header's deadline budget is relative (client and server clocks
      // share no epoch); the service converts it to absolute on ITS clock.
      PredictionHandle handle = service_->Submit(
          std::move(table), seed, uint64_t{header.deadline_micros} * 1000);
      const PredictionResult& result = handle.Get();
      body.model_version = result.model_version;
      body.cache_hit = result.cache_hit;
      // The service counts the outcome; the server only maps it.
      switch (result.status) {
        case RequestStatus::kOk:
          body.status = wire::WireStatus::kOk;
          body.type_ids = result.type_ids;
          break;
        case RequestStatus::kRejected:
          body.status = wire::WireStatus::kRejected;
          body.message = "admission queue full";
          break;
        case RequestStatus::kShutdown:
          body.status = wire::WireStatus::kShutdown;
          body.message = "service shutting down";
          break;
        case RequestStatus::kDeadlineExceeded:
          body.status = wire::WireStatus::kDeadlineExceeded;
          body.message = "deadline expired before dispatch";
          break;
        case RequestStatus::kFailed:
          body.status = wire::WireStatus::kFailed;
          try {
            if (result.error) std::rethrow_exception(result.error);
          } catch (const std::exception& e) {
            body.message = e.what();
          } catch (...) {
            body.message = "prediction failed";
          }
          break;
      }
      break;
    }
    default: {
      body.status = wire::WireStatus::kUnsupported;
      body.message = "unknown opcode " + std::to_string(header.opcode);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_payloads;
      break;
    }
  }
  SendResponse(fd, header.opcode, header.request_id, body);
}

void Server::SendResponse(int fd, uint16_t opcode, uint64_t request_id,
                          const wire::ResponseBody& body) {
  if (MaybeInject(options_.fault_injector, FaultPoint::kServerSend)) {
    // Simulated connection death before the response leaves: the peer
    // sees an EOF with ZERO response bytes, the one shape its retry rule
    // treats as safe to retry (determinism makes the recompute
    // byte-identical). Shutdown, not close: the fd stays valid for the
    // connection loop, which exits on the next recv's EOF.
    ::shutdown(fd, SHUT_RDWR);
    return;
  }
  std::string payload;
  wire::EncodeResponsePayload(body, &payload);
  wire::FrameHeader header;
  header.opcode = static_cast<uint16_t>(opcode | wire::kResponseBit);
  header.request_id = request_id;
  std::string frame = wire::EncodeFrame(header, payload);
  if (wire::SendAll(fd, frame, nullptr)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.responses_sent;
  }
}

void Server::SendErrorFrame(int fd, uint64_t request_id,
                            wire::WireStatus status,
                            const std::string& message) {
  wire::ResponseBody body;
  body.status = status;
  body.message = message;
  SendResponse(fd, static_cast<uint16_t>(wire::kErrorOpcode), request_id,
               body);
}

}  // namespace sato::serve
