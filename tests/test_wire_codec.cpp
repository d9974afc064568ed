// Wire codec differential suite (DESIGN.md §4.9).
//
// The broadcast plane's contract has three legs, each pinned here:
//  1. Canonical roundtrip: for every registered frame type,
//     decode(encode(m)) re-encodes to byte-identical bytes.
//  2. Byzantine rejection: truncated prefixes, trailing bytes, forged
//     counts, non-canonical element order and over-deep qsets decode to
//     nullptr — never to UB (the fuzz loop runs the decoder over mutated
//     frames under the sanitizer jobs).
//  3. Cache and ownership invariants: the size cache encodes exactly once
//     per message object and keeps no frame bytes, a copy keeps the type id
//     but sizes its own frame, and messages are plain make_shared objects
//     whose lifetime and addresses are invisible to the determinism
//     contract.
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bftcup/bftcup_node.hpp"
#include "bftcup/pbft.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/wire_codecs.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
#include "scp/ledger.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

using sim::MessagePtr;
using sim::WireReader;
using sim::WireWriter;

class WireCodecTest : public ::testing::Test {
 protected:
  void SetUp() override { core::register_wire_codecs(); }
};

/// The frame of a message via its public encoder.
std::vector<std::uint8_t> frame_of(const sim::Message& m) {
  std::vector<std::uint8_t> frame = m.encode_frame();
  EXPECT_FALSE(frame.empty());
  return frame;
}

fbqs::QSet sample_qset() {
  return fbqs::QSet(2, {1, 5, 9},
                    {fbqs::QSet::threshold_of(1, std::vector<ProcessId>{2, 3}),
                     fbqs::QSet::threshold_of(2, std::vector<ProcessId>{4, 6, 7})});
}

/// One representative instance of every registered wire type (several for
/// Envelope: one per statement kind).
std::vector<MessagePtr> sample_messages() {
  std::vector<MessagePtr> out;
  const NodeSet pd(12, {0, 3, 4, 7, 11});

  out.push_back(sim::make_message<cup::DiscoverMsg>(
      cup::PdCertificate{2, pd}));
  out.push_back(sim::make_message<cup::CertGossipMsg>(
      std::map<ProcessId, NodeSet>{{0, pd}, {3, NodeSet(12)}, {7, pd}}));
  out.push_back(sim::make_message<cup::KnownMsg>(pd));
  out.push_back(sim::make_message<cup::GetSinkMsg>(ProcessId{9}));
  out.push_back(sim::make_message<cup::SinkValueMsg>(NodeSet(12, {1, 2})));

  const fbqs::QSet qset = sample_qset();
  scp::NominateStmt nom;
  nom.voted = {1001, 1005};
  nom.accepted = {1001};
  out.push_back(sim::make_message<scp::Envelope>(1, 4, qset,
                                                 scp::Statement{nom}));
  scp::PrepareStmt prep;
  prep.b = {3, 1001};
  prep.p = {2, 1001};
  prep.p_prime = {1, 1003};
  prep.c_n = 1;
  prep.h_n = 3;
  out.push_back(sim::make_message<scp::Envelope>(5, 7, qset,
                                                 scp::Statement{prep}));
  scp::ConfirmStmt conf;
  conf.b = {4, 1001};
  conf.p_n = 4;
  conf.c_n = 2;
  conf.h_n = 4;
  out.push_back(sim::make_message<scp::Envelope>(9, 11, qset,
                                                 scp::Statement{conf}));
  scp::ExternalizeStmt ext;
  ext.commit = {4, 1001};
  ext.h_n = 6;
  out.push_back(sim::make_message<scp::Envelope>(2, 13, qset,
                                                 scp::Statement{ext}));
  out.push_back(sim::make_message<scp::SlotEnvelope>(
      3, scp::Envelope(1, 4, qset, scp::Statement{nom})));

  out.push_back(sim::make_message<bftcup::PrePrepareMsg>(2, Value{1004}));
  out.push_back(sim::make_message<bftcup::PrepareMsg>(2, Value{1004},
                                                      std::uint64_t{77}));
  out.push_back(sim::make_message<bftcup::CommitMsg>(2, Value{1004},
                                                     std::uint64_t{78}));
  bftcup::ViewChangeRecord rec;
  rec.sender = 4;
  rec.new_view = 3;
  rec.prepared_view = 2;
  rec.prepared_value = 1004;
  rec.prepare_cert = {{1, 11}, {2, 22}, {4, 44}};
  rec.token = 99;
  out.push_back(sim::make_message<bftcup::ViewChangeMsg>(rec));
  bftcup::ViewChangeRecord empty_rec;
  empty_rec.sender = 6;
  empty_rec.new_view = 3;
  empty_rec.token = 5;
  out.push_back(sim::make_message<bftcup::NewViewMsg>(
      3, Value{1004}, std::vector<bftcup::ViewChangeRecord>{rec, empty_rec}));
  out.push_back(sim::make_message<bftcup::DecisionRequestMsg>(ProcessId{8}));
  out.push_back(sim::make_message<bftcup::DecisionMsg>(Value{1004}));
  return out;
}

TEST_F(WireCodecTest, RegistryCoversEveryFamily) {
  const auto types = sim::WireCodecRegistry::registered_types();
  EXPECT_EQ(types.size(), 14u);
  for (const std::uint16_t t : types) {
    EXPECT_NE(sim::WireCodecRegistry::find(t), nullptr);
    EXPECT_NE(sim::WireCodecRegistry::name_of(t), nullptr);
  }
  EXPECT_EQ(sim::WireCodecRegistry::find(0xfffe), nullptr);
}

TEST_F(WireCodecTest, RoundtripReencodesByteIdentically) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    const std::vector<std::uint8_t> frame = frame_of(*msg);
    ASSERT_GE(frame.size(), 2u);
    const MessagePtr decoded = sim::decode_frame(frame);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->wire_type(), msg->wire_type());
    EXPECT_EQ(decoded->type_name(), msg->type_name());
    // Canonical encoding: the decoded copy re-encodes to the same bytes.
    EXPECT_EQ(frame_of(*decoded), frame);
    // The exact frame size is what traffic accounting now charges.
    EXPECT_EQ(msg->send_size().bytes, frame.size());
  }
}

TEST_F(WireCodecTest, TruncatedPrefixesAreRejected) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    const std::vector<std::uint8_t> frame = frame_of(*msg);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_EQ(sim::decode_frame(frame.data(), len), nullptr)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST_F(WireCodecTest, TrailingBytesAreRejected) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    std::vector<std::uint8_t> frame = frame_of(*msg);
    frame.push_back(0);
    EXPECT_EQ(sim::decode_frame(frame), nullptr);
  }
}

TEST_F(WireCodecTest, UnknownTypeIsRejected) {
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(0xfffe);
  w.u32(1);
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, NonCanonicalNodeSetOrderIsRejected) {
  // KnownMsg frame with descending ids: u16 type ++ u32 universe ++
  // u32 count ++ ids.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(cup::kWireTypeKnown);
  w.u32(8);  // universe
  w.u32(2);  // count
  w.u32(5);
  w.u32(3);  // descending: must be rejected
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, ForgedCountCannotForceAllocation) {
  // A CertGossip frame claiming 2^31 entries in a 10-byte buffer: fits()
  // must reject it before any container reservation.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(cup::kWireTypeCertGossip);
  w.u32(0x8000'0000u);
  w.u32(0);
  EXPECT_EQ(sim::decode_frame(frame), nullptr);

  // Same for a NodeSet count exceeding the byte budget.
  std::vector<std::uint8_t> frame2;
  WireWriter w2(frame2);
  w2.u16(cup::kWireTypeKnown);
  w2.u32(0xffff'ffffu);  // universe
  w2.u32(0x4000'0000u);  // count: way past the remaining bytes
  EXPECT_EQ(sim::decode_frame(frame2), nullptr);
}

TEST_F(WireCodecTest, OverDeepQsetIsRejected) {
  // Hand-encode an Envelope whose qset nests past kWireMaxQsetDepth:
  // each level is threshold=1, no validators, one inner set.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(scp::kWireTypeEnvelope);
  w.u32(1);   // sender
  w.u64(1);   // seq
  for (std::size_t d = 0; d <= scp::kWireMaxQsetDepth + 1; ++d) {
    w.u32(1);  // threshold
    w.u32(0);  // no validators
    w.u32(1);  // one inner set
  }
  w.u32(0);  // innermost: threshold 0, then truncation does the rest
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, MutationFuzzNeverCrashesAndStaysCanonical) {
  // Byte-level mutations of valid frames: every outcome must be either a
  // clean nullptr or a message that re-encodes canonically. Deterministic
  // stream so failures replay.
  StreamRng rng(0x5c0dec16u);
  const auto samples = sample_messages();
  for (const MessagePtr& msg : samples) {
    const std::vector<std::uint8_t> base = frame_of(*msg);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::uint8_t> frame = base;
      const int mutations = 1 + static_cast<int>(rng.next_u64() % 4);
      for (int m = 0; m < mutations; ++m) {
        const std::size_t pos = rng.next_u64() % frame.size();
        frame[pos] = static_cast<std::uint8_t>(rng.next_u64());
      }
      const MessagePtr decoded = sim::decode_frame(frame);
      if (decoded != nullptr) {
        // Accepted mutants must still be canonical fixed points.
        EXPECT_EQ(frame_of(*decoded), frame) << msg->type_name();
      }
    }
  }
}

TEST_F(WireCodecTest, FrameCacheEncodesOncePerMessage) {
  const MessagePtr msg = sim::make_message<cup::GetSinkMsg>(ProcessId{3});
  const auto first = msg->send_size();
  EXPECT_TRUE(first.from_codec);
  EXPECT_TRUE(first.encoded_now);
  const auto second = msg->send_size();
  EXPECT_TRUE(second.from_codec);
  EXPECT_FALSE(second.encoded_now);  // served from the cache
  EXPECT_EQ(second.bytes, first.bytes);
  // The cache holds the frame's size, not the frame: encoding again yields
  // the same bytes, of the cached size, and the message stays small.
  const std::vector<std::uint8_t> frame = msg->encode_frame();
  EXPECT_EQ(msg->encode_frame(), frame);
  EXPECT_EQ(frame.size(), second.bytes);
  EXPECT_LE(sizeof(cup::GetSinkMsg), 48u);
}

TEST_F(WireCodecTest, CopiesKeepTheTypeIdAndEncodeTheirOwnFrame) {
  // A copy of a sent message keeps the source's interned type id but not
  // its size cache: it encodes on its own first send (a short GetSink frame
  // and an envelope frame over 104 bytes).
  const auto sent = [](const sim::Message& m) {
    (void)m.metrics_type_id();
    (void)m.send_size();
  };
  const auto expect_fresh_copy = [](const sim::Message& copy,
                                    const sim::Message& source) {
    EXPECT_EQ(copy.metrics_type_id(), source.metrics_type_id());
    const auto sized = copy.send_size();
    EXPECT_TRUE(sized.encoded_now);
    EXPECT_TRUE(sized.from_codec);
    EXPECT_EQ(sized.bytes, source.send_size().bytes);
    EXPECT_EQ(frame_of(copy), frame_of(source));
  };

  const cup::GetSinkMsg sink_source(ProcessId{3});
  sent(sink_source);
  const cup::GetSinkMsg sink_copy(sink_source);
  expect_fresh_copy(sink_copy, sink_source);
  cup::GetSinkMsg sink_assigned(ProcessId{8});
  sent(sink_assigned);
  sink_assigned = sink_source;
  expect_fresh_copy(sink_assigned, sink_source);

  scp::NominateStmt nom;
  for (Value v = 1000; v < 1020; ++v) nom.voted.push_back(v);
  const scp::Envelope env_source(1, 4, sample_qset(), scp::Statement{nom});
  sent(env_source);
  ASSERT_GT(env_source.send_size().bytes, 104u);
  const scp::Envelope env_copy(env_source);
  expect_fresh_copy(env_copy, env_source);
  // The assigned-to envelope was sent as a PREPARE: assignment must replace
  // its cached type id and size, not keep them.
  scp::PrepareStmt prep;
  prep.b = {3, 1001};
  scp::Envelope env_assigned(5, 7, sample_qset(), scp::Statement{prep});
  sent(env_assigned);
  env_assigned = env_source;
  expect_fresh_copy(env_assigned, env_source);
}

TEST_F(WireCodecTest, CodeclessMessagesKeepByteSizeEstimates) {
  struct LegacyMsg final : sim::Message {
    std::string type_name() const override { return "test.legacy"; }
    std::size_t byte_size() const override { return 57; }
  };
  const auto msg = std::make_shared<const LegacyMsg>();
  const auto sized = msg->send_size();
  EXPECT_FALSE(sized.from_codec);
  EXPECT_EQ(sized.bytes, 57u);
  EXPECT_TRUE(msg->encode_frame().empty());
}

// ---- Message ownership ----
//
// Messages are plain make_shared objects. The MessagePoolTest names are
// kept from the slab pool these tests used to cover; each now checks the
// ownership property the pool had to preserve.

/// Sends one KnownMsg to process 1, which keeps it in `kept`.
class KeepFirstMessage : public sim::Process {
 public:
  explicit KeepFirstMessage(MessagePtr& kept) : kept_(kept) {}
  void start() override {
    if (id() != 0) return;
    send(1, sim::make_message<cup::KnownMsg>(NodeSet(8, {1, 2, 3})));
  }
  void on_message(ProcessId, const MessagePtr& msg) override {
    if (kept_ == nullptr) kept_ = msg;
  }

 private:
  MessagePtr& kept_;
};

TEST(MessagePoolTest, SteadyStateReusesSlabsWholesale) {
  // Churn far more messages than the live window holds: every message the
  // window drops dies at once, and nothing outlives the window.
  std::vector<MessagePtr> live;
  std::vector<std::weak_ptr<const sim::Message>> watched;
  for (int round = 0; round < 5000; ++round) {
    live.push_back(sim::make_message<cup::GetSinkMsg>(
        static_cast<ProcessId>(round)));
    watched.push_back(live.back());
    if (live.size() > 64) {
      live.erase(live.begin());
      EXPECT_TRUE(watched[watched.size() - 65].expired()) << round;
      EXPECT_FALSE(watched[watched.size() - 64].expired()) << round;
    }
  }
  live.clear();
  for (const auto& w : watched) EXPECT_TRUE(w.expired());
}

TEST(MessagePoolTest, BlocksOutliveThePoolHandle) {
  // A message received inside run_until stays readable after its
  // Simulation is destroyed (ASan would flag storage freed with the run).
  MessagePtr survivor;
  {
    sim::Simulation sim(2, sim::NetworkConfig{});
    sim.emplace_process<KeepFirstMessage>(0, survivor);
    sim.emplace_process<KeepFirstMessage>(1, survivor);
    sim.start();
    ASSERT_TRUE(sim.run_until([&] { return survivor != nullptr; }, 1'000));
  }
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->type_name(), "cup.known");
  const auto& known = dynamic_cast<const cup::KnownMsg&>(*survivor);
  EXPECT_EQ(known.known, NodeSet(8, {1, 2, 3}));
  EXPECT_EQ(survivor->send_size().bytes, frame_of(*survivor).size());
  survivor.reset();
}

TEST(MessagePoolTest, OversizedRequestsFallBackToHeap) {
  // An 8 KiB codec-less message is charged its byte_size(); a gossip frame
  // over 104 bytes is charged its exact frame size.
  struct JumboMsg final : sim::Message {
    std::array<std::uint8_t, 8192> payload{};
    std::string type_name() const override { return "test.jumbo"; }
    std::size_t byte_size() const override { return payload.size(); }
  };
  const MessagePtr jumbo = sim::make_message<JumboMsg>();
  EXPECT_EQ(jumbo->send_size().bytes, 8192u);
  EXPECT_FALSE(jumbo->send_size().from_codec);

  std::map<ProcessId, NodeSet> certs;
  for (ProcessId owner = 0; owner < 12; ++owner) {
    certs.emplace(owner, NodeSet(12, {0, 3, 4, 7, 11}));
  }
  const MessagePtr gossip =
      sim::make_message<cup::CertGossipMsg>(std::move(certs));
  const std::size_t size = gossip->encode_frame().size();
  EXPECT_GT(size, 104u);
  EXPECT_EQ(gossip->send_size().bytes, size);
}

TEST(MessagePoolTest, UnboundThreadsUsePlainMakeShared) {
  // No Simulation runs on this thread.
  const MessagePtr msg = sim::make_message<cup::GetSinkMsg>(ProcessId{1});
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg.use_count(), 1);
  EXPECT_EQ(dynamic_cast<const cup::GetSinkMsg&>(*msg).origin, 1u);
}

TEST(MessagePoolTest, PoolingIsInvisibleToTheDeterminismContract) {
  // Message addresses never reach a result: heap churn between two runs of
  // the same churn/partition config moves every later allocation, and
  // fingerprint, full SimMetrics, decisions and end tick stay identical.
  core::ChurnPartitionParams params;
  params.n = 16;
  params.f = 1;
  params.seed = 11;
  const core::ScenarioConfig config = core::churn_partition_scenario(params);
  const core::ScenarioReport first = core::run_scenario(config);
  std::vector<std::unique_ptr<std::uint8_t[]>> kept;
  for (std::size_t i = 0; i < 3000; ++i) {
    auto block = std::make_unique<std::uint8_t[]>(8 + (i * 37) % 1531);
    if (i % 7 == 0) kept.push_back(std::move(block));
  }
  const core::ScenarioReport second = core::run_scenario(config);
  EXPECT_TRUE(first.all_decided);
  EXPECT_TRUE(second.all_decided);
  EXPECT_EQ(second.notary_fingerprint, first.notary_fingerprint);
  EXPECT_EQ(second.metrics, first.metrics);
  EXPECT_EQ(second.decision_times, first.decision_times);
  EXPECT_EQ(second.end_time, first.end_time);
}

}  // namespace
}  // namespace scup
