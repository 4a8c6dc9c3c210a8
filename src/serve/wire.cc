#include "serve/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/rng.h"

namespace sato::serve::wire {

namespace {

uint16_t LoadU16(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t LoadU32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         (static_cast<uint64_t>(LoadU32(p + 4)) << 32);
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kRejected: return "rejected";
    case WireStatus::kShutdown: return "shutdown";
    case WireStatus::kFailed: return "failed";
    case WireStatus::kMalformed: return "malformed";
    case WireStatus::kBusy: return "busy";
    case WireStatus::kUnsupported: return "unsupported";
    case WireStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

uint64_t RetryBackoffNanos(const RetryPolicy& policy, int retry_index) {
  if (retry_index < 1) retry_index = 1;
  double base = static_cast<double>(policy.initial_backoff_nanos);
  const double cap = static_cast<double>(policy.max_backoff_nanos);
  for (int i = 1; i < retry_index && base < cap; ++i) {
    base *= policy.backoff_multiplier;
  }
  base = std::min(base, cap);
  uint64_t nanos = static_cast<uint64_t>(base);
  if (policy.jitter_fraction > 0.0) {
    const uint64_t draw =
        util::Mix64(policy.jitter_seed +
                    util::kSplitMix64Gamma *
                        static_cast<uint64_t>(retry_index));
    // Top 53 bits -> a uniform double in [0, 1): the full jitter range is
    // reachable and the draw is identical on every platform.
    const double unit =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    nanos += static_cast<uint64_t>(unit * policy.jitter_fraction * base);
  }
  return nanos;
}

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// --------------------------------------------------------------- Reader ----

bool Reader::Take(size_t n, const char** p) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::ReadU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Reader::ReadU16(uint16_t* v) {
  const char* p;
  if (!Take(2, &p)) return false;
  *v = LoadU16(p);
  return true;
}

bool Reader::ReadU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  *v = LoadU32(p);
  return true;
}

bool Reader::ReadU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  *v = LoadU64(p);
  return true;
}

bool Reader::ReadString(std::string* v) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  // The length is untrusted: bound it by what was actually received
  // before assigning, so a hostile length cannot drive the allocation.
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  const char* p;
  if (!Take(len, &p)) return false;
  v->assign(p, len);
  return true;
}

// -------------------------------------------------------------- framing ----

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  AppendU32(&out, header.magic);
  AppendU16(&out, header.version);
  AppendU16(&out, header.opcode);
  AppendU64(&out, header.request_id);
  AppendU32(&out, header.tenant_id);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  AppendU32(&out, header.deadline_micros);
  out.append(payload);
  return out;
}

std::string EncodeFrame(Opcode opcode, uint64_t request_id,
                        uint32_t tenant_id, std::string_view payload) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(opcode);
  header.request_id = request_id;
  header.tenant_id = tenant_id;
  return EncodeFrame(header, payload);
}

DecodeStatus DecodeHeader(std::string_view buffer, uint32_t max_payload,
                          FrameHeader* header, size_t* frame_bytes) {
  // Validate eagerly: reject wrong magic/version/length from whatever
  // prefix is already here instead of waiting for bytes that cannot
  // repair the frame.
  if (buffer.size() >= 4 && LoadU32(buffer.data()) != kMagic) {
    return DecodeStatus::kBadMagic;
  }
  if (buffer.size() >= 6 && LoadU16(buffer.data() + 4) != kProtocolVersion) {
    return DecodeStatus::kBadVersion;
  }
  // payload_len sits at offset 20, before the v2 deadline field, so the
  // oversized check fires as soon as 24 bytes arrive -- no need to wait
  // for the full 28-byte header a hostile length will never justify.
  if (buffer.size() >= 24 && LoadU32(buffer.data() + 20) > max_payload) {
    return DecodeStatus::kOversized;
  }
  if (buffer.size() < kHeaderBytes) return DecodeStatus::kNeedMore;

  header->magic = LoadU32(buffer.data());
  header->version = LoadU16(buffer.data() + 4);
  header->opcode = LoadU16(buffer.data() + 6);
  header->request_id = LoadU64(buffer.data() + 8);
  header->tenant_id = LoadU32(buffer.data() + 16);
  header->payload_len = LoadU32(buffer.data() + 20);
  header->deadline_micros = LoadU32(buffer.data() + 24);
  if (buffer.size() < kHeaderBytes + header->payload_len) {
    return DecodeStatus::kNeedMore;
  }
  *frame_bytes = kHeaderBytes + header->payload_len;
  return DecodeStatus::kFrame;
}

// ------------------------------------------------------- payload codecs ----

void EncodePredictPayload(const Table& table, uint64_t seed,
                          std::string* out) {
  AppendU64(out, seed);
  AppendU32(out, static_cast<uint32_t>(table.num_columns()));
  for (const Column& column : table.columns()) {
    AppendU32(out, static_cast<uint32_t>(column.header.size()));
    out->append(column.header);
    AppendU32(out, static_cast<uint32_t>(column.values.size()));
    for (const std::string& value : column.values) {
      AppendU32(out, static_cast<uint32_t>(value.size()));
      out->append(value);
    }
  }
}

bool DecodePredictPayload(std::string_view payload, Table* table,
                          uint64_t* seed, std::string* error) {
  Reader reader(payload);
  uint32_t num_columns = 0;
  if (!reader.ReadU64(seed) || !reader.ReadU32(&num_columns)) {
    *error = "predict payload truncated before column list";
    return false;
  }
  *table = Table();
  for (uint32_t c = 0; c < num_columns; ++c) {
    Column column;
    uint32_t num_values = 0;
    if (!reader.ReadString(&column.header) || !reader.ReadU32(&num_values)) {
      *error = "predict payload truncated inside column " + std::to_string(c);
      return false;
    }
    // num_values is untrusted: every value costs at least its 4-byte
    // length prefix, so the bytes still unread bound how many can truly
    // follow -- a hostile count cannot drive the reservation.
    column.values.reserve(std::min<size_t>(num_values,
                                           reader.Remaining() / 4));
    for (uint32_t v = 0; v < num_values; ++v) {
      std::string value;
      if (!reader.ReadString(&value)) {
        *error = "predict payload truncated inside column " +
                 std::to_string(c) + " value " + std::to_string(v);
        return false;
      }
      column.values.push_back(std::move(value));
    }
    table->AddColumn(std::move(column));
  }
  if (!reader.AtEnd()) {
    *error = "predict payload has trailing bytes";
    return false;
  }
  return true;
}

void EncodeCorrectionPayload(std::string_view column_name, TypeId type,
                             uint64_t model_version, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(column_name.size()));
  out->append(column_name);
  AppendU32(out, static_cast<uint32_t>(static_cast<int32_t>(type)));
  AppendU64(out, model_version);
}

bool DecodeCorrectionPayload(std::string_view payload,
                             std::string* column_name, TypeId* type,
                             uint64_t* model_version, std::string* error) {
  Reader reader(payload);
  uint32_t raw_type = 0;
  if (!reader.ReadString(column_name) || !reader.ReadU32(&raw_type) ||
      !reader.ReadU64(model_version) || !reader.AtEnd()) {
    *error = "correction payload malformed";
    return false;
  }
  *type = static_cast<TypeId>(static_cast<int32_t>(raw_type));
  return true;
}

void EncodeResponsePayload(const ResponseBody& body, std::string* out) {
  out->push_back(static_cast<char>(body.status));
  AppendU64(out, body.model_version);
  out->push_back(body.cache_hit ? 1 : 0);
  AppendU32(out, static_cast<uint32_t>(body.type_ids.size()));
  for (TypeId id : body.type_ids) {
    AppendU32(out, static_cast<uint32_t>(static_cast<int32_t>(id)));
  }
  AppendU32(out, static_cast<uint32_t>(body.message.size()));
  out->append(body.message);
}

bool DecodeResponsePayload(std::string_view payload, ResponseBody* body,
                           std::string* error) {
  Reader reader(payload);
  uint8_t status = 0;
  uint8_t cache_hit = 0;
  uint32_t num_types = 0;
  if (!reader.ReadU8(&status) || !reader.ReadU64(&body->model_version) ||
      !reader.ReadU8(&cache_hit) || !reader.ReadU32(&num_types)) {
    *error = "response payload truncated";
    return false;
  }
  if (status > static_cast<uint8_t>(WireStatus::kDeadlineExceeded)) {
    *error = "response carries unknown status byte";
    return false;
  }
  body->status = static_cast<WireStatus>(status);
  body->cache_hit = cache_hit != 0;
  body->type_ids.clear();
  body->type_ids.reserve(std::min<size_t>(num_types, payload.size() / 4));
  for (uint32_t i = 0; i < num_types; ++i) {
    uint32_t raw = 0;
    if (!reader.ReadU32(&raw)) {
      *error = "response payload truncated inside type ids";
      return false;
    }
    body->type_ids.push_back(static_cast<TypeId>(static_cast<int32_t>(raw)));
  }
  if (!reader.ReadString(&body->message) || !reader.AtEnd()) {
    *error = "response payload malformed after type ids";
    return false;
  }
  return true;
}

// ------------------------------------------------------- socket helpers ----

bool SendAll(int fd, std::string_view bytes, std::string* error) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = ErrnoString("send");
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

int RecvExactly(int fd, char* out, size_t n, std::string* error,
                size_t* received) {
  size_t got = 0;
  if (received != nullptr) *received = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = ErrnoString("recv");
      return -1;
    }
    if (r == 0) {
      if (got == 0) return 0;  // clean EOF at a frame boundary
      if (error != nullptr) *error = "connection closed mid-frame";
      return -1;
    }
    got += static_cast<size_t>(r);
    if (received != nullptr) *received = got;
  }
  return 1;
}

// --------------------------------------------------------------- Client ----

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      tenant_id_(other.tenant_id_),
      next_request_id_(other.next_request_id_),
      error_(std::move(other.error_)),
      retry_policy_(other.retry_policy_),
      clock_(other.clock_),
      own_clock_(std::move(other.own_clock_)),
      fault_injector_(other.fault_injector_),
      total_retries_(other.total_retries_.load()),
      host_(std::move(other.host_)),
      port_(other.port_),
      recv_timeout_ms_(other.recv_timeout_ms_),
      connect_timeout_ms_(other.connect_timeout_ms_),
      have_endpoint_(other.have_endpoint_) {
  other.fd_ = -1;
  other.have_endpoint_ = false;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    tenant_id_ = other.tenant_id_;
    next_request_id_ = other.next_request_id_;
    error_ = std::move(other.error_);
    retry_policy_ = other.retry_policy_;
    clock_ = other.clock_;
    own_clock_ = std::move(other.own_clock_);
    fault_injector_ = other.fault_injector_;
    total_retries_ = other.total_retries_.load();
    host_ = std::move(other.host_);
    port_ = other.port_;
    recv_timeout_ms_ = other.recv_timeout_ms_;
    connect_timeout_ms_ = other.connect_timeout_ms_;
    have_endpoint_ = other.have_endpoint_;
    other.have_endpoint_ = false;
  }
  return *this;
}

Clock* Client::EffectiveClock() {
  if (clock_ != nullptr) return clock_;
  if (own_clock_ == nullptr) own_clock_ = std::make_unique<SteadyClock>();
  return own_clock_.get();
}

bool Client::Connect(const std::string& host, uint16_t port,
                     int recv_timeout_ms, int connect_timeout_ms) {
  Close();
  error_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = ErrnoString("socket");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error_ = "invalid host address: " + host;
    Close();
    return false;
  }

  // Bounded connect: flip non-blocking, start the handshake, poll for
  // writability with the remaining budget (EINTR re-polls, exactly like
  // the recv path), then read the terminal result from SO_ERROR. A
  // blackholed SYN therefore fails with a typed "connect timed out"
  // instead of blocking for the kernel's multi-minute default.
  const int saved_flags = ::fcntl(fd_, F_GETFL, 0);
  const bool bounded = connect_timeout_ms > 0 && saved_flags >= 0;
  if (bounded) ::fcntl(fd_, F_SETFL, saved_flags | O_NONBLOCK);
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && bounded && (errno == EINPROGRESS || errno == EINTR)) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(connect_timeout_ms);
    for (;;) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        error_ = "connect timed out after " +
                 std::to_string(connect_timeout_ms) + " ms";
        Close();
        return false;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (pr < 0) {
        if (errno == EINTR) continue;  // re-poll with the remaining budget
        error_ = ErrnoString("poll(connect)");
        Close();
        return false;
      }
      if (pr == 0) continue;  // loop re-checks the deadline, then fails
      break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      error_ = ErrnoString("getsockopt(SO_ERROR)");
      Close();
      return false;
    }
    if (so_error != 0) {
      error_ = std::string("connect: ") + std::strerror(so_error);
      Close();
      return false;
    }
    rc = 0;
  } else if (rc != 0 && errno == EINTR && !bounded) {
    // Unbounded blocking connect interrupted: the handshake continues in
    // the kernel; wait for it like the bounded path, just without a cap.
    pollfd pfd{fd_, POLLOUT, 0};
    while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      error_ = std::string("connect: ") + std::strerror(so_error);
      Close();
      return false;
    }
    rc = 0;
  }
  if (rc != 0) {
    error_ = ErrnoString("connect");
    Close();
    return false;
  }
  if (bounded) ::fcntl(fd_, F_SETFL, saved_flags);  // restore blocking mode

  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  host_ = host;
  port_ = port;
  recv_timeout_ms_ = recv_timeout_ms;
  connect_timeout_ms_ = connect_timeout_ms;
  have_endpoint_ = true;
  return true;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  return SendAll(fd_, bytes, &error_);
}

bool Client::HalfClose() {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  if (::shutdown(fd_, SHUT_WR) != 0) {
    error_ = ErrnoString("shutdown");
    return false;
  }
  return true;
}

uint64_t Client::SendFrame(Opcode opcode, std::string_view payload) {
  // The pipelined form has no attempt tracking, so the header carries the
  // full policy budget (its best-known remaining time).
  const uint64_t budget = retry_policy_.request_deadline_nanos;
  uint32_t micros = 0;
  if (budget > 0) {
    micros = static_cast<uint32_t>(
        std::min<uint64_t>((budget + 999) / 1000, UINT32_MAX));
    if (micros == 0) micros = 1;
  }
  return SendFrameWithDeadline(opcode, payload, micros);
}

uint64_t Client::SendFrameWithDeadline(Opcode opcode, std::string_view payload,
                                       uint32_t deadline_micros) {
  if (fd_ < 0) {
    error_ = "not connected";
    return 0;
  }
  if (MaybeInject(fault_injector_, FaultPoint::kClientSend)) {
    // The injected failure drops the connection BEFORE any byte leaves,
    // so a retry cannot duplicate a request the server already saw.
    error_ = "injected client send fault";
    Close();
    return 0;
  }
  uint64_t id = next_request_id_++;
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(opcode);
  header.request_id = id;
  header.tenant_id = tenant_id_;
  header.deadline_micros = deadline_micros;
  std::string frame = EncodeFrame(header, payload);
  if (!SendAll(fd_, frame, &error_)) return 0;
  return id;
}

uint64_t Client::SendPing() { return SendFrame(Opcode::kPing, {}); }

uint64_t Client::SendPredict(const Table& table, uint64_t seed) {
  std::string payload;
  EncodePredictPayload(table, seed, &payload);
  return SendFrame(Opcode::kPredict, payload);
}

ClientResponse Client::ReadResponse() {
  ClientResponse response;
  if (fd_ < 0) {
    response.transport_error = "not connected";
    return response;
  }
  if (MaybeInject(fault_injector_, FaultPoint::kClientRecv)) {
    // Fires before the read: no response byte was consumed, so the
    // failure is in the retryable class.
    response.transport_error = "injected client recv fault";
    Close();
    return response;
  }
  char header_bytes[kHeaderBytes];
  size_t header_got = 0;
  int r = RecvExactly(fd_, header_bytes, kHeaderBytes,
                      &response.transport_error, &header_got);
  response.response_bytes_received = header_got > 0;
  if (r == 0) {
    response.transport_error = "connection closed by server";
    return response;
  }
  if (r < 0) return response;
  FrameHeader header;
  size_t frame_bytes = 0;
  // A header-only view decodes to kNeedMore when valid (payload not yet
  // read); anything else is a protocol violation by the server.
  std::string_view view(header_bytes, kHeaderBytes);
  DecodeStatus status = DecodeHeader(view, kMaxPayloadBytes, &header,
                                     &frame_bytes);
  if (status != DecodeStatus::kNeedMore && status != DecodeStatus::kFrame) {
    response.transport_error = "server sent an invalid frame header";
    return response;
  }
  uint32_t payload_len = LoadU32(header_bytes + 20);
  if (payload_len > kMaxPayloadBytes) {
    response.transport_error = "server sent an oversized frame";
    return response;
  }
  std::string payload(payload_len, '\0');
  if (payload_len > 0 &&
      RecvExactly(fd_, payload.data(), payload_len,
                  &response.transport_error) != 1) {
    return response;
  }
  response.opcode = LoadU16(header_bytes + 6);
  response.request_id = LoadU64(header_bytes + 8);
  std::string decode_error;
  if (!DecodeResponsePayload(payload, &response.body, &decode_error)) {
    response.transport_error = "undecodable response: " + decode_error;
    return response;
  }
  response.transport_ok = true;
  return response;
}

bool Client::Retryable(const ClientResponse& response) {
  if (response.deadline_exceeded) return false;  // the budget is spent
  if (response.transport_ok) {
    // Typed congestion: the server explicitly did not admit the request,
    // so re-sending cannot duplicate work it already performed.
    return response.body.status == WireStatus::kBusy ||
           response.body.status == WireStatus::kRejected;
  }
  // Transport failure: only when no response byte arrived. Once the first
  // payload byte is in, the server definitively processed the request and
  // a retry could duplicate its side effects.
  return !response.response_bytes_received;
}

ClientResponse Client::Attempt(Opcode opcode, std::string_view payload,
                               uint64_t deadline_nanos, Clock* clock) {
  ClientResponse response;
  uint32_t deadline_micros = 0;
  if (deadline_nanos != 0) {
    const uint64_t now = clock->NowNanos();
    if (now >= deadline_nanos) {
      response.transport_error = "request deadline exceeded";
      response.deadline_exceeded = true;
      return response;
    }
    deadline_micros = static_cast<uint32_t>(
        std::min<uint64_t>((deadline_nanos - now + 999) / 1000, UINT32_MAX));
    if (deadline_micros == 0) deadline_micros = 1;
  }
  if (!connected()) {
    if (!have_endpoint_ ||
        !Connect(host_, port_, recv_timeout_ms_, connect_timeout_ms_)) {
      response.transport_error =
          error_.empty() ? "not connected" : error_;
      return response;  // retryable: nothing was sent
    }
  }
  if (SendFrameWithDeadline(opcode, payload, deadline_micros) == 0) {
    response.transport_error = error_;
    // A partial send leaves the stream unframed; drop the connection so
    // the next attempt starts clean.
    Close();
    return response;
  }
  response = ReadResponse();
  if (!response.transport_ok) {
    Close();  // dead or corrupt transport: reconnect on the next attempt
  } else if (response.body.status == WireStatus::kBusy) {
    // kBusy is sent just before the server closes the connection; drop it
    // now so the retry reconnects instead of writing into a dead socket.
    Close();
  }
  return response;
}

ClientResponse Client::RoundTrip(Opcode opcode, std::string_view payload) {
  const RetryPolicy policy = retry_policy_;
  Clock* clock = EffectiveClock();
  const uint64_t deadline =
      policy.request_deadline_nanos != 0
          ? clock->NowNanos() + policy.request_deadline_nanos
          : 0;
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1;; ++attempt) {
    ClientResponse response = Attempt(opcode, payload, deadline, clock);
    response.attempts = attempt;
    if (!Retryable(response) || attempt >= max_attempts) return response;
    const uint64_t wake =
        clock->NowNanos() + RetryBackoffNanos(policy, attempt);
    if (deadline != 0 && wake >= deadline) {
      // The backoff would outlive the budget: surface the last typed
      // error now instead of sleeping into certain failure.
      return response;
    }
    ++total_retries_;
    clock->SleepUntil(wake);
  }
}

ClientResponse Client::Ping() { return RoundTrip(Opcode::kPing, {}); }

ClientResponse Client::Predict(const Table& table, uint64_t seed) {
  std::string payload;
  EncodePredictPayload(table, seed, &payload);
  return RoundTrip(Opcode::kPredict, payload);
}

ClientResponse Client::Correct(std::string_view column_name, TypeId type,
                               uint64_t model_version) {
  std::string payload;
  EncodeCorrectionPayload(column_name, type, model_version, &payload);
  return RoundTrip(Opcode::kCorrection, payload);
}

}  // namespace sato::serve::wire
