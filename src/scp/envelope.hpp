// SCP statements and envelopes.
//
// Every envelope carries the sender's quorum set (the paper: "each process i
// attaches S_i to all of the messages it sends"), so receivers can evaluate
// Algorithm-1 quorum checks over any set of received statements.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "fbqs/qset.hpp"
#include "scp/ballot.hpp"
#include "sim/message.hpp"
#include "sim/wire.hpp"

namespace scup::scp {

/// Frame ids 16/17: one frame type per message class; the statement kind is
/// a payload tag (u8 variant index), mirroring the in-memory variant.
inline constexpr std::uint16_t kWireTypeEnvelope = 16;
inline constexpr std::uint16_t kWireTypeSlotEnvelope = 17;

/// Nesting bound on decoded quorum sets: canonical encodes never exceed it
/// (in-tree qsets are at most two levels), and it stops an adversarial
/// frame from driving the recursive decoder, and the recursive QSet
/// evaluation of what it decodes, arbitrarily deep.
inline constexpr std::size_t kWireMaxQsetDepth = 8;

/// Nomination: x ∈ voted means "I vote to nominate x"; x ∈ accepted means
/// "I accept that x is nominated". Both lists are strictly ascending (the
/// wire codec rejects any other order, and ScpNode::handle drops in-memory
/// NOMINATEs that break it), so membership is a binary search and two
/// statements diff in one merge walk.
struct NominateStmt {
  std::vector<Value> voted;
  std::vector<Value> accepted;
};

/// PREPARE(b, p, p', c.n, h.n): votes prepare(b); has accepted prepare(p)
/// and prepare(p'); votes commit(n, b.x) for c_n <= n <= h_n (when c_n > 0).
struct PrepareStmt {
  Ballot b;
  Ballot p;
  Ballot p_prime;
  std::uint32_t c_n = 0;
  std::uint32_t h_n = 0;
};

/// CONFIRM(b, p.n, c.n, h.n): has accepted commit(n, b.x) for
/// c_n <= n <= h_n; has accepted prepare((p_n, b.x)); votes commit(n, b.x)
/// for all n >= c_n; votes prepare((∞, b.x)).
struct ConfirmStmt {
  Ballot b;
  std::uint32_t p_n = 0;
  std::uint32_t c_n = 0;
  std::uint32_t h_n = 0;
};

/// EXTERNALIZE(commit, h.n): has confirmed commit(n, commit.x) for
/// commit.n <= n <= h_n; accepts everything implied.
struct ExternalizeStmt {
  Ballot commit;
  std::uint32_t h_n = 0;
};

using Statement =
    std::variant<NominateStmt, PrepareStmt, ConfirmStmt, ExternalizeStmt>;

struct Envelope final : sim::Message {
  Envelope(ProcessId sender_, std::uint64_t seq_, fbqs::QSet qset_,
           Statement statement_)
      : sender(sender_),
        seq(seq_),
        qset(std::move(qset_)),
        statement(std::move(statement_)) {}

  ProcessId sender;
  /// Monotonic per-sender sequence number; receivers keep the highest.
  std::uint64_t seq;
  fbqs::QSet qset;
  Statement statement;

  std::string_view type_name() const override {
    static constexpr std::string_view kNames[] = {
        "scp.nominate", "scp.prepare", "scp.confirm", "scp.externalize"};
    return kNames[statement.index()];
  }
  static constexpr std::uint16_t kWireType = kWireTypeEnvelope;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override;
  static sim::MessagePtr wire_decode(sim::WireReader& r);
};

// ---- Envelope payload codec, shared with SlotEnvelope (ledger.hpp) ----

/// Appends the envelope payload (sender, seq, qset, statement).
void wire_put_envelope(sim::WireWriter& w, const Envelope& env);

/// Reads an envelope payload; latches r.fail() and returns nullopt on any
/// malformed field (bad counts, unknown statement tag, over-deep qset).
std::optional<Envelope> wire_get_envelope(sim::WireReader& r);

// ---- Statement semantics (what a statement implies its sender votes for /
// has accepted), following the SCP whitepaper's message meanings. ----

/// Sender votes prepare(β) (or something stronger).
bool votes_prepare(const Statement& s, const Ballot& beta);

/// Sender has accepted prepare(β).
bool accepts_prepared(const Statement& s, const Ballot& beta);

/// Sender votes commit(n, x) (or something stronger).
bool votes_commit(const Statement& s, std::uint32_t n, Value x);

/// Sender has accepted commit(n, x).
bool accepts_commit(const Statement& s, std::uint32_t n, Value x);

/// Nomination: sender votes-or-accepts nominate(v) / has accepted it.
bool votes_nominate(const Statement& s, Value v);
bool accepts_nominate(const Statement& s, Value v);

/// True if the statement belongs to the ballot protocol (not nomination).
bool is_ballot_statement(const Statement& s);

/// The working ballot of a ballot-protocol statement (b for PREPARE/CONFIRM,
/// commit for EXTERNALIZE); invalid ballot for nomination.
Ballot working_ballot(const Statement& s);

}  // namespace scup::scp
