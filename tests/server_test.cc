// Protocol conformance + adversarial battery for the serving daemon
// (serve/server.h, serve/wire.h), all over loopback sockets: framing
// round trips, truncated/oversized/garbage frames, pipelining, per-tenant
// quotas, connection admission, graceful drain, and destructor-while-
// connected. The standing rule under test: every malformed input fails
// loudly with a typed error -- nothing ever hangs, crashes, or is
// silently dropped. Client reads are bounded by SO_RCVTIMEO, so a protocol
// bug shows up as a loud failed read, never a hung test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {
namespace {

using serve::ModelRegistry;
using serve::PredictionService;
using serve::PredictionServiceOptions;
using serve::ResultCache;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;
namespace wire = serve::wire;
using wire::Opcode;
using wire::WireStatus;

// --------------------------------------------------- codec unit tests ------

// EncodeFrame derives payload_len from the actual payload (it cannot emit
// an inconsistent frame), so hostile length fields are built by hand.
std::string RawHeader(uint16_t opcode, uint64_t request_id,
                      uint32_t payload_len,
                      uint16_t version = wire::kProtocolVersion) {
  std::string out;
  wire::AppendU32(&out, wire::kMagic);
  wire::AppendU16(&out, version);
  wire::AppendU16(&out, opcode);
  wire::AppendU64(&out, request_id);
  wire::AppendU32(&out, /*tenant_id=*/0);
  wire::AppendU32(&out, payload_len);
  wire::AppendU32(&out, /*deadline_micros=*/0);
  return out;
}

Table SmallTable() {
  Table table;
  Column a;
  a.header = "name";
  a.values = {"alice", "", std::string("nul\0byte", 8)};
  table.AddColumn(std::move(a));
  Column b;
  b.header = "age";
  b.values = {"1", "22"};
  table.AddColumn(std::move(b));
  return table;
}

TEST(WireCodecTest, FrameHeaderRoundTrip) {
  std::string frame =
      wire::EncodeFrame(Opcode::kPredict, /*request_id=*/77, /*tenant_id=*/5,
                        "payload!");
  ASSERT_EQ(frame.size(), wire::kHeaderBytes + 8);

  wire::FrameHeader header;
  size_t frame_bytes = 0;
  ASSERT_EQ(wire::DecodeHeader(frame, wire::kMaxPayloadBytes, &header,
                               &frame_bytes),
            wire::DecodeStatus::kFrame);
  EXPECT_EQ(frame_bytes, frame.size());
  EXPECT_EQ(header.magic, wire::kMagic);
  EXPECT_EQ(header.version, wire::kProtocolVersion);
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPredict));
  EXPECT_EQ(header.request_id, 77u);
  EXPECT_EQ(header.tenant_id, 5u);
  EXPECT_EQ(header.payload_len, 8u);
}

TEST(WireCodecTest, PartialPrefixesNeedMoreBytes) {
  std::string frame = wire::EncodeFrame(Opcode::kPing, 1, 0, "abc");
  wire::FrameHeader header;
  size_t frame_bytes = 0;
  // Every proper prefix of a valid frame parses as "keep reading", never
  // as an error and never as a complete frame.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(wire::DecodeHeader(std::string_view(frame).substr(0, n),
                                 wire::kMaxPayloadBytes, &header,
                                 &frame_bytes),
              wire::DecodeStatus::kNeedMore)
        << "prefix " << n;
  }
}

TEST(WireCodecTest, BadMagicDetectedFromFourBytes) {
  // Corruption is reported as soon as it is provable -- four bytes in, no
  // need to wait for a full header that can never become valid.
  std::string garbage = "XYZW";
  wire::FrameHeader header;
  size_t frame_bytes = 0;
  EXPECT_EQ(wire::DecodeHeader(garbage, wire::kMaxPayloadBytes, &header,
                               &frame_bytes),
            wire::DecodeStatus::kBadMagic);
}

TEST(WireCodecTest, BadVersionDetected) {
  std::string frame = wire::EncodeFrame(Opcode::kPing, 1, 0, "");
  frame[4] = 99;  // version field
  wire::FrameHeader header;
  size_t frame_bytes = 0;
  EXPECT_EQ(wire::DecodeHeader(frame, wire::kMaxPayloadBytes, &header,
                               &frame_bytes),
            wire::DecodeStatus::kBadVersion);
}

TEST(WireCodecTest, OversizedAndImplausibleLengthsRejected) {
  // A "1 GiB" claim backed by no bytes.
  std::string header_only = RawHeader(
      static_cast<uint16_t>(Opcode::kPredict), 1, 1u << 30);

  wire::FrameHeader parsed;
  size_t frame_bytes = 0;
  EXPECT_EQ(wire::DecodeHeader(header_only, wire::kMaxPayloadBytes, &parsed,
                               &frame_bytes),
            wire::DecodeStatus::kOversized);
  // A tightened per-server bound rejects smaller claims too.
  std::string modest_frame =
      wire::EncodeFrame(Opcode::kPing, 1, 0, std::string(1024, 'x'));
  EXPECT_EQ(wire::DecodeHeader(modest_frame, /*max_payload=*/512, &parsed,
                               &frame_bytes),
            wire::DecodeStatus::kOversized);
}

TEST(WireCodecTest, PredictPayloadRoundTrip) {
  Table table = SmallTable();
  std::string payload;
  wire::EncodePredictPayload(table, /*seed=*/1234567, &payload);

  Table decoded;
  uint64_t seed = 0;
  std::string error;
  ASSERT_TRUE(wire::DecodePredictPayload(payload, &decoded, &seed, &error))
      << error;
  EXPECT_EQ(seed, 1234567u);
  ASSERT_EQ(decoded.num_columns(), table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(decoded.columns()[c].header, table.columns()[c].header);
    EXPECT_EQ(decoded.columns()[c].values, table.columns()[c].values);
  }
}

TEST(WireCodecTest, TruncatedPredictPayloadNeverParsesOrCrashes) {
  std::string payload;
  wire::EncodePredictPayload(SmallTable(), 42, &payload);
  Table decoded;
  uint64_t seed = 0;
  std::string error;
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(wire::DecodePredictPayload(
        std::string_view(payload).substr(0, n), &decoded, &seed, &error))
        << "prefix " << n << " parsed";
  }
  // Trailing garbage is an error too, not silently ignored.
  EXPECT_FALSE(
      wire::DecodePredictPayload(payload + "x", &decoded, &seed, &error));
}

TEST(WireCodecTest, CorrectionPayloadRoundTrip) {
  std::string payload;
  wire::EncodeCorrectionPayload("zip_code", /*type=*/17, /*model_version=*/3,
                                &payload);
  std::string name;
  TypeId type = 0;
  uint64_t version = 0;
  std::string error;
  ASSERT_TRUE(
      wire::DecodeCorrectionPayload(payload, &name, &type, &version, &error))
      << error;
  EXPECT_EQ(name, "zip_code");
  EXPECT_EQ(type, 17);
  EXPECT_EQ(version, 3u);
  EXPECT_FALSE(wire::DecodeCorrectionPayload(payload.substr(1), &name, &type,
                                             &version, &error));
}

TEST(WireCodecTest, ResponsePayloadRoundTrip) {
  wire::ResponseBody body;
  body.status = WireStatus::kOk;
  body.model_version = 9;
  body.cache_hit = true;
  body.type_ids = {3, 1, 4, 1, 5};
  body.message = "fine";
  std::string payload;
  wire::EncodeResponsePayload(body, &payload);

  wire::ResponseBody decoded;
  std::string error;
  ASSERT_TRUE(wire::DecodeResponsePayload(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded.status, WireStatus::kOk);
  EXPECT_EQ(decoded.model_version, 9u);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.type_ids, body.type_ids);
  EXPECT_EQ(decoded.message, "fine");
  EXPECT_STREQ(wire::WireStatusName(WireStatus::kRejected), "rejected");
}

// ------------------------------------------------------ server battery -----

// Shares one small corpus + feature context across the socket tests
// (untrained models: the full serving path, none of the training cost).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 40;
    copts.singleton_prob = 0.2;
    copts.seed = 271;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(100, 6262);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(29);
    context_ = std::make_shared<const FeatureContext>(
        FeatureContext::Build(reference, *config_, &rng));

    DatasetBuilder builder(context_.get());
    Dataset train = builder.Build(*tables_, &rng);
    scaler_ = new features::FeatureScaler(StandardizeSplits(&train, nullptr));
    model_ = std::make_shared<const SatoModel>(MakeModel(7));
  }

  static void TearDownTestSuite() {
    model_.reset();
    delete scaler_;
    context_.reset();
    delete config_;
    delete tables_;
  }

  static SatoModel MakeModel(uint64_t seed) {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    util::Rng rng(seed);
    return SatoModel(SatoVariant::kFull, dims, context_->topic_dim(), *config_,
                     &rng);
  }

  static std::vector<TypeId> Sequential(const Table& table, uint64_t seed) {
    SatoPredictor predictor(model_.get(), context_.get(), *scaler_);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  static uint64_t SeedFor(size_t i) {
    return util::TableSeed(1, i);
  }

  /// Registry + service + listening server over the shared model. Every
  /// piece lives on the heap so tests can drop the harness mid-connection.
  struct Harness {
    ModelRegistry registry;
    std::unique_ptr<ResultCache> cache;
    std::unique_ptr<PredictionService> service;
    std::unique_ptr<Server> server;

    wire::Client Connect() {
      wire::Client client;
      EXPECT_TRUE(client.Connect(server->host(), server->port()))
          << client.error();
      return client;
    }
  };

  static std::unique_ptr<Harness> MakeHarness(ServerOptions server_options = {},
                                              bool with_cache = false) {
    auto harness = std::make_unique<Harness>();
    harness->registry.Publish(model_, context_, *scaler_, "wire");
    if (with_cache) harness->cache = std::make_unique<ResultCache>();
    PredictionServiceOptions options;
    options.num_threads = 2;
    options.result_cache = harness->cache.get();
    harness->service =
        std::make_unique<PredictionService>(&harness->registry, options);
    server_options.port = 0;  // always ephemeral in tests
    harness->server =
        std::make_unique<Server>(harness->service.get(), server_options);
    return harness;
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
  static std::shared_ptr<const SatoModel> model_;
};

std::vector<Table>* ServerTest::tables_ = nullptr;
SatoConfig* ServerTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> ServerTest::context_;
features::FeatureScaler* ServerTest::scaler_ = nullptr;
std::shared_ptr<const SatoModel> ServerTest::model_;

TEST_F(ServerTest, PingEchoesRequestIdWithResponseBit) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  uint64_t id = client.SendPing();
  ASSERT_NE(id, 0u);
  wire::ClientResponse response = client.ReadResponse();
  ASSERT_TRUE(response.transport_ok) << response.transport_error;
  EXPECT_EQ(response.request_id, id);
  EXPECT_EQ(response.opcode,
            static_cast<uint16_t>(Opcode::kPing) | wire::kResponseBit);
  EXPECT_EQ(response.body.status, WireStatus::kOk);
  EXPECT_EQ(harness->server->Stats().pings, 1u);
}

TEST_F(ServerTest, PredictMatchesTheSequentialOracle) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  for (size_t i = 0; i < std::min<size_t>(tables_->size(), 8); ++i) {
    wire::ClientResponse response =
        client.Predict((*tables_)[i], SeedFor(i));
    ASSERT_TRUE(response.transport_ok) << response.transport_error;
    ASSERT_EQ(response.body.status, WireStatus::kOk);
    EXPECT_EQ(response.body.model_version, 1u);
    EXPECT_EQ(response.body.type_ids, Sequential((*tables_)[i], SeedFor(i)))
        << "table " << i;
  }
}

TEST_F(ServerTest, CacheHitTravelsTheWireByteIdentical) {
  auto harness = MakeHarness({}, /*with_cache=*/true);
  wire::Client client = harness->Connect();
  const Table& table = (*tables_)[0];
  wire::ClientResponse cold = client.Predict(table, SeedFor(0));
  ASSERT_TRUE(cold.transport_ok);
  ASSERT_EQ(cold.body.status, WireStatus::kOk);
  EXPECT_FALSE(cold.body.cache_hit);

  wire::ClientResponse warm = client.Predict(table, SeedFor(0));
  ASSERT_TRUE(warm.transport_ok);
  ASSERT_EQ(warm.body.status, WireStatus::kOk);
  EXPECT_TRUE(warm.body.cache_hit);
  EXPECT_EQ(warm.body.type_ids, cold.body.type_ids);
  EXPECT_EQ(warm.body.model_version, cold.body.model_version);
  EXPECT_EQ(harness->cache->Stats().hits, 1u);
}

TEST_F(ServerTest, GarbageMagicAnswersTypedErrorAndCloses) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  ASSERT_TRUE(client.SendRaw("totally not a SATO frame"));
  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok) << error.transport_error;
  EXPECT_EQ(error.body.status, WireStatus::kMalformed);
  EXPECT_EQ(error.request_id, 0u);  // the offending id is unknowable
  EXPECT_EQ(error.opcode, wire::kErrorOpcode | wire::kResponseBit);
  // Framing broke: the server must close, not resync.
  EXPECT_FALSE(client.ReadResponse().transport_ok);
  EXPECT_EQ(harness->server->Stats().malformed_frames, 1u);
}

TEST_F(ServerTest, ImplausibleLengthFieldFailsLoudlyWithoutAllocation) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  ASSERT_TRUE(client.SendRaw(RawHeader(
      static_cast<uint16_t>(Opcode::kPredict), 13, 1u << 30)));

  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok) << error.transport_error;
  EXPECT_EQ(error.body.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.ReadResponse().transport_ok);
}

TEST_F(ServerTest, HostileValueCountInsideTinyPayloadIsMalformedNotOOM) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  // A well-framed ~25-byte predict payload whose column claims 2^32-1
  // values. The decoder must bound its reservation by the bytes actually
  // received (a raw reserve would attempt ~137 GB and abort the daemon)
  // and then fail on truncation -- typed, connection kept.
  std::string payload;
  wire::AppendU64(&payload, /*seed=*/0);
  wire::AppendU32(&payload, /*num_columns=*/1);
  wire::AppendU32(&payload, 4);
  payload += "name";
  wire::AppendU32(&payload, /*num_values=*/0xFFFFFFFFu);
  ASSERT_TRUE(
      client.SendRaw(wire::EncodeFrame(Opcode::kPredict, 31, 0, payload)));

  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok) << error.transport_error;
  EXPECT_EQ(error.body.status, WireStatus::kMalformed);
  EXPECT_EQ(error.request_id, 31u);
  // Payload-level error: the connection survives and serves on.
  EXPECT_TRUE(client.Ping().transport_ok);
  EXPECT_EQ(harness->server->Stats().malformed_payloads, 1u);
}

TEST_F(ServerTest, ProtocolVersionMismatchIsRejected) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  std::string frame = wire::EncodeFrame(Opcode::kPing, 1, 0, "");
  frame[4] = 7;  // bump the version field
  ASSERT_TRUE(client.SendRaw(frame));
  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok);
  EXPECT_EQ(error.body.status, WireStatus::kUnsupported);
  EXPECT_FALSE(client.ReadResponse().transport_ok);
}

TEST_F(ServerTest, HalfCloseMidFrameAnswersTypedErrorThenEof) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  std::string payload;
  wire::EncodePredictPayload((*tables_)[0], 1, &payload);
  std::string frame = wire::EncodeFrame(Opcode::kPredict, 1, 0, payload);
  // Send the header plus half the payload, then die (write side only --
  // the error frame must still reach us on the intact read side).
  ASSERT_TRUE(client.SendRaw(
      std::string_view(frame).substr(0, wire::kHeaderBytes + payload.size() / 2)));
  ASSERT_TRUE(client.HalfClose());

  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok) << error.transport_error;
  EXPECT_EQ(error.body.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.ReadResponse().transport_ok);
  EXPECT_EQ(harness->server->Stats().malformed_frames, 1u);
}

TEST_F(ServerTest, MalformedPayloadInsideValidFrameKeepsTheConnection) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  std::string frame =
      wire::EncodeFrame(Opcode::kPredict, 21, 0, "definitely not a table");
  ASSERT_TRUE(client.SendRaw(frame));
  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok);
  EXPECT_EQ(error.body.status, WireStatus::kMalformed);
  EXPECT_EQ(error.request_id, 21u);  // framing intact -> id echoed

  // The connection survives: a healthy request right after works.
  wire::ClientResponse pong = client.Ping();
  ASSERT_TRUE(pong.transport_ok);
  EXPECT_EQ(pong.body.status, WireStatus::kOk);
  ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.malformed_payloads, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST_F(ServerTest, UnknownOpcodeIsTypedAndKeepsTheConnection) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  ASSERT_TRUE(client.SendRaw(RawHeader(/*opcode=*/777, /*request_id=*/5,
                                       /*payload_len=*/0)));
  wire::ClientResponse error = client.ReadResponse();
  ASSERT_TRUE(error.transport_ok);
  EXPECT_EQ(error.body.status, WireStatus::kUnsupported);
  EXPECT_EQ(error.request_id, 5u);
  EXPECT_TRUE(client.Ping().transport_ok);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrderWithEchoedIds) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  constexpr size_t kPipelined = 8;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kPipelined; ++i) {
    uint64_t id = client.SendPredict((*tables_)[i], SeedFor(i));
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (size_t i = 0; i < kPipelined; ++i) {
    wire::ClientResponse response = client.ReadResponse();
    ASSERT_TRUE(response.transport_ok) << response.transport_error;
    EXPECT_EQ(response.request_id, ids[i]) << "out of order at " << i;
    ASSERT_EQ(response.body.status, WireStatus::kOk);
    EXPECT_EQ(response.body.type_ids, Sequential((*tables_)[i], SeedFor(i)));
  }
}

TEST_F(ServerTest, TenantQuotaExhaustionRejectsTyped) {
  ServerOptions options;
  options.tenant_request_quota = 3;
  auto harness = MakeHarness(options);
  wire::Client client = harness->Connect();
  client.set_tenant(7);
  for (int i = 0; i < 3; ++i) {
    wire::ClientResponse ok = client.Predict((*tables_)[0], SeedFor(0));
    ASSERT_TRUE(ok.transport_ok);
    ASSERT_EQ(ok.body.status, WireStatus::kOk) << "request " << i;
  }
  // The fourth admitted predict answers kRejected immediately -- typed,
  // never a hang -- and the connection stays healthy.
  wire::ClientResponse rejected = client.Predict((*tables_)[0], SeedFor(0));
  ASSERT_TRUE(rejected.transport_ok);
  EXPECT_EQ(rejected.body.status, WireStatus::kRejected);
  EXPECT_EQ(rejected.body.message, "tenant quota exhausted");
  EXPECT_TRUE(client.Ping().transport_ok);  // pings are not metered

  // Another tenant is unaffected.
  wire::Client other = harness->Connect();
  other.set_tenant(8);
  wire::ClientResponse fine = other.Predict((*tables_)[1], SeedFor(1));
  ASSERT_TRUE(fine.transport_ok);
  EXPECT_EQ(fine.body.status, WireStatus::kOk);

  ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.quota_rejected, 1u);
  EXPECT_EQ(stats.tenant_requests.at(7), 3u);
  EXPECT_EQ(stats.tenant_requests.at(8), 1u);
}

TEST_F(ServerTest, TenantTrackingStaysBoundedUnderIdSpray) {
  ServerOptions options;
  options.max_tracked_tenants = 4;
  options.tenant_request_quota = 2;
  auto harness = MakeHarness(options);
  wire::Client client = harness->Connect();
  // Spray eight distinct tenant ids: the first four are tracked
  // individually; the rest land in one shared overflow bucket with one
  // shared quota, so rotating ids grows neither the map nor the budget.
  std::vector<WireStatus> statuses;
  for (uint32_t tenant = 100; tenant < 108; ++tenant) {
    client.set_tenant(tenant);
    wire::ClientResponse response = client.Predict((*tables_)[0], SeedFor(0));
    ASSERT_TRUE(response.transport_ok) << response.transport_error;
    statuses.push_back(response.body.status);
  }
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(statuses[i], WireStatus::kOk) << "request " << i;
  }
  // Overflow requests 3 and 4 exceed the bucket's shared quota of 2.
  EXPECT_EQ(statuses[6], WireStatus::kRejected);
  EXPECT_EQ(statuses[7], WireStatus::kRejected);

  ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.tenant_requests.size(), 4u);
  EXPECT_EQ(stats.tenant_overflow_requests, 2u);
  EXPECT_EQ(stats.quota_rejected, 2u);
  // A tracked tenant still has its own budget left.
  client.set_tenant(100);
  wire::ClientResponse tracked = client.Predict((*tables_)[0], SeedFor(0));
  ASSERT_TRUE(tracked.transport_ok);
  EXPECT_EQ(tracked.body.status, WireStatus::kOk);
}

TEST_F(ServerTest, ConnectionsBeyondTheBoundGetBusyThenRecover) {
  ServerOptions options;
  options.max_connections = 1;
  auto harness = MakeHarness(options);

  wire::Client first = harness->Connect();
  ASSERT_EQ(first.Ping().body.status, WireStatus::kOk);  // first is admitted

  wire::Client second = harness->Connect();
  wire::ClientResponse busy = second.ReadResponse();
  ASSERT_TRUE(busy.transport_ok) << busy.transport_error;
  EXPECT_EQ(busy.body.status, WireStatus::kBusy);
  EXPECT_FALSE(second.ReadResponse().transport_ok);  // refused and closed
  // The admitted connection is untouched by the refusal.
  ASSERT_EQ(first.Ping().body.status, WireStatus::kOk);
  EXPECT_EQ(harness->server->Stats().connections_refused, 1u);

  // Releasing the slot readmits: bounded retry while the server notices
  // the close (the deadline makes slow reaping loud, not flaky).
  first.Close();
  bool recovered = false;
  for (int attempt = 0; attempt < 2000 && !recovered; ++attempt) {
    wire::Client retry;
    if (retry.Connect(harness->server->host(), harness->server->port())) {
      wire::ClientResponse pong = retry.Ping();
      if (pong.transport_ok && pong.body.status == WireStatus::kOk) {
        recovered = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(recovered) << "slot never came back after close";
}

TEST_F(ServerTest, DrainServesBufferedRequestsAndRefusesNewOnes) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();

  // Three pipelined predicts in ONE write: after the first response
  // arrives, the rest are already buffered server-side, so drain must
  // finish them.
  std::string burst;
  std::vector<std::string> payloads(3);
  for (size_t i = 0; i < 3; ++i) {
    wire::EncodePredictPayload((*tables_)[i], SeedFor(i), &payloads[i]);
    burst += wire::EncodeFrame(Opcode::kPredict, 100 + i, 0, payloads[i]);
  }
  ASSERT_TRUE(client.SendRaw(burst));

  wire::ClientResponse one = client.ReadResponse();
  ASSERT_TRUE(one.transport_ok);
  ASSERT_EQ(one.body.status, WireStatus::kOk);

  harness->server->RequestDrain();
  EXPECT_TRUE(harness->server->draining());
  for (size_t i = 1; i < 3; ++i) {
    wire::ClientResponse rest = client.ReadResponse();
    ASSERT_TRUE(rest.transport_ok) << "in-flight request " << i
                                   << " dropped by drain: "
                                   << rest.transport_error;
    ASSERT_EQ(rest.body.status, WireStatus::kOk);
    EXPECT_EQ(rest.request_id, 100 + i);
    EXPECT_EQ(rest.body.type_ids, Sequential((*tables_)[i], SeedFor(i)));
  }
  // After the buffered work: EOF, never a hang.
  EXPECT_FALSE(client.ReadResponse().transport_ok);

  // New connections are refused outright.
  wire::Client late;
  if (late.Connect(harness->server->host(), harness->server->port(),
                   /*recv_timeout_ms=*/2000)) {
    EXPECT_FALSE(late.Ping().transport_ok);
  }
  harness->server->Shutdown();
  EXPECT_TRUE(harness->server->draining());
}

TEST_F(ServerTest, DrainUnderLoadNeverTearsAResponse) {
  auto harness = MakeHarness({}, /*with_cache=*/true);
  constexpr int kClients = 4;
  std::atomic<int> completed{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      wire::Client client;
      if (!client.Connect(harness->server->host(), harness->server->port())) {
        return;
      }
      for (int r = 0; r < 500; ++r) {
        size_t i = static_cast<size_t>((c * 131 + r) % 8);
        wire::ClientResponse response =
            client.Predict((*tables_)[i], SeedFor(i));
        if (!response.transport_ok) return;  // drain closed us: expected
        // Every delivered response must be complete and well-typed --
        // a torn frame would decode as garbage or fail the read.
        if (response.body.status == WireStatus::kOk) {
          if (response.body.type_ids !=
              Sequential((*tables_)[i], SeedFor(i))) {
            torn.fetch_add(1);
          }
        } else if (response.body.status != WireStatus::kShutdown &&
                   response.body.status != WireStatus::kRejected) {
          torn.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }
  // Let real traffic land before draining (spin, no sleep).
  while (completed.load() < 2 * kClients) std::this_thread::yield();
  harness->server->RequestDrain();
  for (auto& client : clients) client.join();
  harness->server->Shutdown();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(completed.load(), 2 * kClients);
}

TEST_F(ServerTest, CorrectionOpcodeLandsInTheRegistryLog) {
  auto harness = MakeHarness();
  wire::Client client = harness->Connect();
  wire::ClientResponse response = client.Correct("postal_code", 12, 1);
  ASSERT_TRUE(response.transport_ok);
  EXPECT_EQ(response.body.status, WireStatus::kOk);

  auto corrections = harness->registry.Corrections();
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].column_name, "postal_code");
  EXPECT_EQ(corrections[0].corrected_type, 12);
  EXPECT_EQ(corrections[0].model_version, 1u);
  const serve::RegistryStats registry_stats = harness->registry.Stats();
  EXPECT_EQ(registry_stats.corrections_submitted -
                registry_stats.corrections_wal_failed,
            1u);
}

TEST_F(ServerTest, DestructorWhileClientsAreConnectedIsClean) {
  wire::Client client;
  {
    auto harness = MakeHarness();
    client = harness->Connect();
    ASSERT_EQ(client.Ping().body.status, WireStatus::kOk);
    // Harness (and server) destroyed here with the client still attached.
  }
  EXPECT_FALSE(client.ReadResponse().transport_ok);
}

}  // namespace
}  // namespace sato
