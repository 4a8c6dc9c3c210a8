#ifndef SATO_SERVE_WIRE_H_
#define SATO_SERVE_WIRE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/clock.h"
#include "serve/fault_injector.h"
#include "table/semantic_type.h"
#include "table/table.h"

/// Length-prefixed binary wire protocol spoken by sato_serverd.
///
/// Every frame is a fixed 28-byte little-endian header followed by
/// `payload_len` payload bytes:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------------
///        0     4  magic       0x4F544153 ("SATO" on the wire)
///        4     2  version     protocol version (kProtocolVersion)
///        6     2  opcode      request opcode; responses set kResponseBit
///        8     8  request_id  echoed verbatim in the response
///       16     4  tenant_id   quota/accounting principal
///       20     4  payload_len payload bytes following the header
///       24     4  deadline_micros  remaining request budget in
///                 microseconds at send time; 0 = no deadline. The server
///                 converts it to an absolute deadline on ITS clock the
///                 moment the frame parses (relative-on-the-wire, so the
///                 two hosts never need comparable epochs) and the
///                 service sheds the request -- typed kDeadlineExceeded,
///                 never silence -- when that deadline passes before
///                 dispatch. Protocol version 2 added this field.
///
/// The length field is UNTRUSTED input: decoders bound it (the server
/// passes kMaxPayloadBytes to DecodeHeader) BEFORE allocating anything, so
/// an adversarial or corrupted frame fails loudly with a typed error
/// instead of a gigabyte allocation (the same bounded-length discipline as
/// LoadSatoBundle). Bad magic / bad version / oversized length are
/// connection-fatal -- after header corruption there is no way to resync a
/// byte stream. A malformed *payload* inside a well-formed frame is not:
/// the server answers with a typed error response and keeps the
/// connection, because framing is still intact.
///
/// Response payloads share one shape for every opcode:
///
///   u8  status        WireStatus
///   u64 model_version version that produced the prediction (0 otherwise)
///   u8  cache_hit     1 when served from the result cache
///   u32 num_types     predicted type ids (0 unless predict + kOk)
///   i32 x num_types   type ids
///   u32 message_len + bytes   human-readable detail (errors, mostly)
namespace sato::serve::wire {

constexpr uint32_t kMagic = 0x4F544153;  // little-endian "SATO"
constexpr uint16_t kProtocolVersion = 2;  // v2: header grew deadline_micros

/// Default bound on the untrusted payload-length field. Generous for
/// tables (a 16 MiB table is ~4M cells) yet small enough that a garbage
/// length can never look like a plausible allocation.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// Request opcodes. A response echoes the request opcode with
/// kResponseBit set; frame-level protocol errors (bad magic, oversized
/// length, truncation) answer with kErrorOpcode | kResponseBit because the
/// offending request opcode is unknowable.
enum class Opcode : uint16_t {
  kPing = 1,        ///< liveness probe; empty payload
  kPredict = 2,     ///< u64 seed + encoded table -> type ids
  kCorrection = 3,  ///< user correction -> ModelRegistry::SubmitCorrection
};
constexpr uint16_t kResponseBit = 0x8000;
constexpr uint16_t kErrorOpcode = 0x7FFF;

/// Terminal status of one request, carried in every response payload.
enum class WireStatus : uint8_t {
  kOk = 0,
  kRejected = 1,     ///< admission queue full or tenant quota exhausted
  kShutdown = 2,     ///< serving side is draining / shut down
  kFailed = 3,       ///< prediction threw server-side
  kMalformed = 4,    ///< frame or payload failed validation
  kBusy = 5,         ///< connection refused: per-connection admission full
  kUnsupported = 6,  ///< unknown opcode or protocol version
  kDeadlineExceeded = 7,  ///< request budget expired before dispatch
};

/// Stable human-readable name ("ok", "rejected", ...).
const char* WireStatusName(WireStatus status);

struct FrameHeader {
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  uint16_t opcode = 0;
  uint64_t request_id = 0;
  uint32_t tenant_id = 0;
  uint32_t payload_len = 0;
  uint32_t deadline_micros = 0;  ///< remaining budget; 0 = no deadline
};

constexpr size_t kHeaderBytes = 28;

// ---- little-endian primitives (shared by codecs and tests) ----------------

void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);

/// Bounds-checked cursor reader over one payload. Every Read* returns
/// false (and poisons the reader) instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  /// Reads a u32 length + that many bytes. The length is bounded by the
  /// bytes actually remaining, so it cannot drive an allocation larger
  /// than the received payload.
  bool ReadString(std::string* v);

  bool ok() const { return ok_; }
  /// True when every byte was consumed -- decoders require this so
  /// trailing garbage is an error, not silently ignored.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  /// Bytes not yet consumed. Decoders use this to bound reservations
  /// taken from untrusted element counts by what was actually received.
  size_t Remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Take(size_t n, const char** p);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- framing --------------------------------------------------------------

/// Serialises header + payload into one contiguous frame.
std::string EncodeFrame(const FrameHeader& header, std::string_view payload);
std::string EncodeFrame(Opcode opcode, uint64_t request_id,
                        uint32_t tenant_id, std::string_view payload);

enum class DecodeStatus : uint8_t {
  kFrame = 0,     ///< a complete frame was parsed
  kNeedMore = 1,  ///< buffer holds a valid prefix; read more bytes
  kBadMagic = 2,
  kBadVersion = 3,
  kOversized = 4,  ///< payload_len exceeds the supplied bound
};

/// Parses the frame at the front of `buffer`. On kFrame, `*header` is
/// filled and `*frame_bytes` is the total size (header + payload) to
/// consume from the buffer. On kNeedMore nothing is consumed. The
/// rejection statuses validate as much as is available -- a 4-byte buffer
/// with wrong magic is already kBadMagic, no need to wait for a full
/// header that will never be valid.
DecodeStatus DecodeHeader(std::string_view buffer, uint32_t max_payload,
                          FrameHeader* header, size_t* frame_bytes);

// ---- payload codecs -------------------------------------------------------

/// Predict request payload: u64 seed, u32 num_columns, then per column a
/// length-prefixed header string, u32 num_values and length-prefixed cell
/// values. Headers ride along for correction round-trips; prediction
/// itself never reads them.
void EncodePredictPayload(const Table& table, uint64_t seed,
                          std::string* out);
bool DecodePredictPayload(std::string_view payload, Table* table,
                          uint64_t* seed, std::string* error);

/// Correction request payload: length-prefixed column name, i32 corrected
/// type id, u64 model version whose prediction is being corrected.
void EncodeCorrectionPayload(std::string_view column_name, TypeId type,
                             uint64_t model_version, std::string* out);
bool DecodeCorrectionPayload(std::string_view payload,
                             std::string* column_name, TypeId* type,
                             uint64_t* model_version, std::string* error);

/// The uniform response payload (see file comment).
struct ResponseBody {
  WireStatus status = WireStatus::kFailed;
  uint64_t model_version = 0;
  bool cache_hit = false;
  std::vector<TypeId> type_ids;
  std::string message;
};

void EncodeResponsePayload(const ResponseBody& body, std::string* out);
bool DecodeResponsePayload(std::string_view payload, ResponseBody* body,
                           std::string* error);

// ---- blocking client ------------------------------------------------------

/// Retry discipline for the convenience round trips (Ping / Predict /
/// Correct). An attempt is retried ONLY when it is provably side-effect
/// safe to do so:
///   - transport errors where no response byte arrived (the request may
///     never have reached the server; re-sending a predict is idempotent
///     and a duplicated correction is tolerated by the WAL's at-least-once
///     contract);
///   - typed kBusy / kRejected responses (the server explicitly did NOT
///     admit the request).
/// Never after the first response payload byte arrives, and never on any
/// other typed status -- kFailed / kDeadlineExceeded / kShutdown are
/// terminal answers, not transient congestion.
struct RetryPolicy {
  /// Total tries including the first. 1 (default) disables retries.
  int max_attempts = 1;
  /// Backoff before retry r (1-based) is
  ///   min(initial * multiplier^(r-1), max) + jitter
  /// where jitter is a deterministic draw in [0, jitter_fraction * base).
  uint64_t initial_backoff_nanos = 1'000'000;  // 1 ms
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_nanos = 100'000'000;  // 100 ms
  double jitter_fraction = 0.0;
  /// Seed of the deterministic jitter stream (splitmix64 over the retry
  /// index), so two clients with different seeds desynchronise while a
  /// replayed run keeps its exact timing.
  uint64_t jitter_seed = 0x5A70;
  /// End-to-end budget for one logical request across all attempts and
  /// backoffs, measured on the client's clock. 0 = unbounded. The
  /// remaining budget rides in the frame header (deadline_micros) so the
  /// server can shed the request once it cannot possibly answer in time.
  uint64_t request_deadline_nanos = 0;
};

/// The backoff before retry `retry_index` (1-based), pure and stateless:
/// the FakeClock tests assert the exact sequence against this.
uint64_t RetryBackoffNanos(const RetryPolicy& policy, int retry_index);

/// Everything one response carries, plus transport state. `transport_ok`
/// false means the connection failed before a response arrived (refused,
/// timeout, EOF); `transport_error` says why.
struct ClientResponse {
  bool transport_ok = false;
  std::string transport_error;
  uint16_t opcode = 0;       ///< response opcode as received
  uint64_t request_id = 0;   ///< echoed id
  ResponseBody body;
  /// Attempts this logical request consumed (1 = no retry).
  int attempts = 1;
  /// True once any response byte arrived on the final attempt -- the
  /// no-duplicate-side-effects guard: a transport failure after this is
  /// NEVER retried.
  bool response_bytes_received = false;
  /// True when the client-side request deadline expired before (or
  /// instead of) completing an attempt.
  bool deadline_exceeded = false;
};

/// Minimal blocking TCP client for sato_serverd: the test batteries, the
/// daemon self-test and the benchmark replay all speak through it. One
/// in-flight request per call for the convenience methods; SendFrame /
/// ReadResponse expose the pipelined form. Not thread-safe.
///
/// The convenience round trips honour the configured RetryPolicy: bounded
/// retries with exponential backoff + deterministic jitter, slept through
/// the injectable clock (a FakeClock test advances backoffs by hand, no
/// wall time). A broken connection is re-established automatically
/// between attempts using the endpoint from the last successful Connect.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects with the given receive timeout (so a protocol bug in a test
  /// fails loudly instead of hanging forever) and connect timeout (so a
  /// blackholed SYN fails typed instead of blocking unboundedly; <= 0
  /// falls back to the OS default blocking connect). Returns false +
  /// error(). EINTR during the bounded connect is re-polled against the
  /// remaining budget, matching the recv path's EINTR discipline.
  bool Connect(const std::string& host, uint16_t port,
               int recv_timeout_ms = 10'000, int connect_timeout_ms = 10'000);
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void set_tenant(uint32_t tenant_id) { tenant_id_ = tenant_id; }

  /// Retry/deadline discipline for the convenience round trips.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Time source for backoff sleeps and the request deadline. Borrowed;
  /// must outlive the client. nullptr (default) -> an owned SteadyClock.
  void set_clock(Clock* clock) { clock_ = clock; }

  /// Fault injection on the client's own send/recv paths (kClientSend /
  /// kClientRecv). Borrowed; nullptr (default) disables.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Retries performed across all round trips so far. Atomic so a test
  /// thread can watch a FakeClock-driven retry loop progress from outside.
  uint64_t total_retries() const {
    return total_retries_.load(std::memory_order_acquire);
  }

  /// Sends raw bytes verbatim -- the adversarial tests build hostile
  /// frames with this.
  bool SendRaw(std::string_view bytes);
  /// Half-closes the write side (shutdown(SHUT_WR)): "client died
  /// mid-frame" for the truncation tests.
  bool HalfClose();

  /// Sends one frame, returns the request id used (0 on send failure).
  /// The pipelined form performs no retries; the header carries the full
  /// policy deadline as its budget.
  uint64_t SendPing();
  uint64_t SendPredict(const Table& table, uint64_t seed);

  /// Reads exactly one response frame.
  ClientResponse ReadResponse();

  /// Convenience round trips (retrying, deadline-bounded).
  ClientResponse Ping();
  ClientResponse Predict(const Table& table, uint64_t seed);
  ClientResponse Correct(std::string_view column_name, TypeId type,
                         uint64_t model_version);

  const std::string& error() const { return error_; }

 private:
  Clock* EffectiveClock();
  uint64_t SendFrame(Opcode opcode, std::string_view payload);
  uint64_t SendFrameWithDeadline(Opcode opcode, std::string_view payload,
                                 uint32_t deadline_micros);
  /// One logical request: retry loop around Attempt().
  ClientResponse RoundTrip(Opcode opcode, std::string_view payload);
  /// One attempt: (re)connect if needed, send, read.
  ClientResponse Attempt(Opcode opcode, std::string_view payload,
                         uint64_t deadline_nanos, Clock* clock);
  static bool Retryable(const ClientResponse& response);

  int fd_ = -1;
  uint32_t tenant_id_ = 0;
  uint64_t next_request_id_ = 1;
  std::string error_;
  RetryPolicy retry_policy_;
  Clock* clock_ = nullptr;                  // borrowed when set
  std::unique_ptr<SteadyClock> own_clock_;  // lazily created fallback
  FaultInjector* fault_injector_ = nullptr;
  std::atomic<uint64_t> total_retries_{0};
  // Endpoint remembered for between-attempt reconnects.
  std::string host_;
  uint16_t port_ = 0;
  int recv_timeout_ms_ = 0;
  int connect_timeout_ms_ = 0;
  bool have_endpoint_ = false;
};

// ---- socket helpers (shared with the server) ------------------------------

/// Loops send() past short writes; returns false on error (EPIPE included;
/// SIGPIPE is suppressed). Fills `*error` when non-null.
bool SendAll(int fd, std::string_view bytes, std::string* error);

/// Reads exactly n bytes. Returns 1 on success, 0 on clean EOF at a frame
/// boundary (nothing read yet), -1 on error or EOF mid-read. When
/// `received` is non-null it is set to the bytes actually read -- the
/// client's no-retry-after-first-payload-byte guard keys off it.
int RecvExactly(int fd, char* out, size_t n, std::string* error,
                size_t* received = nullptr);

}  // namespace sato::serve::wire

#endif  // SATO_SERVE_WIRE_H_
