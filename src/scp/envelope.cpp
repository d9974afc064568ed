#include "scp/envelope.hpp"

#include <algorithm>
#include <utility>

namespace scup::scp {

namespace {
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;
}  // namespace

bool votes_prepare(const Statement& s, const Ballot& beta) {
  if (!beta.valid()) return false;
  return std::visit(
      Overloaded{
          [](const NominateStmt&) { return false; },
          [&](const PrepareStmt& p) {
            // Votes prepare(b); that covers lower compatible ballots.
            return le_compatible(beta, p.b);
          },
          [&](const ConfirmStmt& c) {
            // Past preparing: votes prepare((∞, b.x)).
            return compatible(beta, c.b);
          },
          [&](const ExternalizeStmt& e) { return compatible(beta, e.commit); },
      },
      s);
}

bool accepts_prepared(const Statement& s, const Ballot& beta) {
  if (!beta.valid()) return false;
  return std::visit(
      Overloaded{
          [](const NominateStmt&) { return false; },
          [&](const PrepareStmt& p) {
            return le_compatible(beta, p.p) || le_compatible(beta, p.p_prime);
          },
          [&](const ConfirmStmt& c) {
            // Accepted prepared up to (max(p_n, h_n), b.x).
            const std::uint32_t top = c.p_n > c.h_n ? c.p_n : c.h_n;
            return compatible(beta, c.b) && beta.n <= top;
          },
          [&](const ExternalizeStmt& e) {
            // Confirmed commit implies prepared((∞, x)).
            return compatible(beta, e.commit);
          },
      },
      s);
}

bool votes_commit(const Statement& s, std::uint32_t n, Value x) {
  if (n == 0) return false;
  return std::visit(
      Overloaded{
          [](const NominateStmt&) { return false; },
          [&](const PrepareStmt& p) {
            return p.b.x == x && p.c_n != 0 && p.c_n <= n && n <= p.h_n;
          },
          [&](const ConfirmStmt& c) {
            // Votes commit(n, x) for every n >= c_n.
            return c.b.x == x && c.c_n != 0 && c.c_n <= n;
          },
          [&](const ExternalizeStmt& e) {
            return e.commit.x == x && e.commit.n <= n;
          },
      },
      s);
}

bool accepts_commit(const Statement& s, std::uint32_t n, Value x) {
  if (n == 0) return false;
  return std::visit(
      Overloaded{
          [](const NominateStmt&) { return false; },
          [](const PrepareStmt&) { return false; },
          [&](const ConfirmStmt& c) {
            return c.b.x == x && c.c_n != 0 && c.c_n <= n && n <= c.h_n;
          },
          [&](const ExternalizeStmt& e) {
            return e.commit.x == x && e.commit.n <= n;
          },
      },
      s);
}

bool votes_nominate(const Statement& s, Value v) {
  if (const auto* nom = std::get_if<NominateStmt>(&s)) {
    return std::binary_search(nom->voted.begin(), nom->voted.end(), v) ||
           std::binary_search(nom->accepted.begin(), nom->accepted.end(), v);
  }
  return false;
}

bool accepts_nominate(const Statement& s, Value v) {
  if (const auto* nom = std::get_if<NominateStmt>(&s)) {
    return std::binary_search(nom->accepted.begin(), nom->accepted.end(), v);
  }
  return false;
}

bool is_ballot_statement(const Statement& s) {
  return !std::holds_alternative<NominateStmt>(s);
}

Ballot working_ballot(const Statement& s) {
  return std::visit(
      Overloaded{
          [](const NominateStmt&) { return Ballot{}; },
          [](const PrepareStmt& p) { return p.b; },
          [](const ConfirmStmt& c) { return c.b; },
          [](const ExternalizeStmt& e) { return e.commit; },
      },
      s);
}

// ---- wire codec ----

namespace {

void put_qset(sim::WireWriter& w, const fbqs::QSet& qset) {
  w.u32(static_cast<std::uint32_t>(qset.threshold()));
  w.u32(static_cast<std::uint32_t>(qset.validators().size()));
  for (ProcessId id : qset.validators()) w.u32(id);
  w.u32(static_cast<std::uint32_t>(qset.inner_sets().size()));
  for (const fbqs::QSet& inner : qset.inner_sets()) put_qset(w, inner);
}

fbqs::QSet get_qset(sim::WireReader& r, std::size_t depth) {
  if (depth > kWireMaxQsetDepth) {
    r.fail();
    return {};
  }
  const std::uint32_t threshold = r.u32();
  const std::uint32_t nvalidators = r.u32();
  if (!r.fits(nvalidators, 4)) {
    r.fail();
    return {};
  }
  std::vector<ProcessId> validators;
  validators.reserve(nvalidators);
  for (std::uint32_t i = 0; i < nvalidators; ++i) validators.push_back(r.u32());
  const std::uint32_t ninner = r.u32();
  // Each inner set costs at least 12 bytes (three count fields).
  if (!r.fits(ninner, 12)) {
    r.fail();
    return {};
  }
  std::vector<fbqs::QSet> inner;
  inner.reserve(ninner);
  for (std::uint32_t i = 0; i < ninner && r.ok(); ++i) {
    inner.push_back(get_qset(r, depth + 1));
  }
  if (!r.ok()) return {};
  // The QSet constructor throws on threshold > elements; an adversarial
  // frame must reject cleanly instead.
  if (threshold > validators.size() + inner.size()) {
    r.fail();
    return {};
  }
  return fbqs::QSet(threshold, std::move(validators), std::move(inner));
}

void put_ballot(sim::WireWriter& w, const Ballot& b) {
  w.u32(b.n);
  w.u64(b.x);
}

Ballot get_ballot(sim::WireReader& r) {
  Ballot b;
  b.n = r.u32();
  b.x = r.u64();
  return b;
}

void put_value_list(sim::WireWriter& w, const std::vector<Value>& values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (Value v : values) w.u64(v);
}

std::vector<Value> get_value_list(sim::WireReader& r) {
  const std::uint32_t count = r.u32();
  if (!r.fits(count, 8)) {
    r.fail();
    return {};
  }
  std::vector<Value> values;
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Value v = r.u64();
    // Canonical frames list values strictly ascending (the NominateStmt
    // invariant); enforcing it makes decode(encode(m)) re-encode
    // byte-identically.
    if (!r.ok() || (i > 0 && v <= values.back())) {
      r.fail();
      return {};
    }
    values.push_back(v);
  }
  return values;
}

}  // namespace

void wire_put_envelope(sim::WireWriter& w, const Envelope& env) {
  w.u32(env.sender);
  w.u64(env.seq);
  put_qset(w, env.qset);
  w.u8(static_cast<std::uint8_t>(env.statement.index()));
  std::visit(Overloaded{
                 [&](const NominateStmt& nom) {
                   put_value_list(w, nom.voted);
                   put_value_list(w, nom.accepted);
                 },
                 [&](const PrepareStmt& p) {
                   put_ballot(w, p.b);
                   put_ballot(w, p.p);
                   put_ballot(w, p.p_prime);
                   w.u32(p.c_n);
                   w.u32(p.h_n);
                 },
                 [&](const ConfirmStmt& c) {
                   put_ballot(w, c.b);
                   w.u32(c.p_n);
                   w.u32(c.c_n);
                   w.u32(c.h_n);
                 },
                 [&](const ExternalizeStmt& e) {
                   put_ballot(w, e.commit);
                   w.u32(e.h_n);
                 },
             },
             env.statement);
}

std::optional<Envelope> wire_get_envelope(sim::WireReader& r) {
  const ProcessId sender = r.u32();
  const std::uint64_t seq = r.u64();
  fbqs::QSet qset = get_qset(r, 0);
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return std::nullopt;
  Statement statement;
  switch (tag) {
    case 0: {
      NominateStmt nom;
      nom.voted = get_value_list(r);
      nom.accepted = get_value_list(r);
      statement = std::move(nom);
      break;
    }
    case 1: {
      PrepareStmt p;
      p.b = get_ballot(r);
      p.p = get_ballot(r);
      p.p_prime = get_ballot(r);
      p.c_n = r.u32();
      p.h_n = r.u32();
      statement = p;
      break;
    }
    case 2: {
      ConfirmStmt c;
      c.b = get_ballot(r);
      c.p_n = r.u32();
      c.c_n = r.u32();
      c.h_n = r.u32();
      statement = c;
      break;
    }
    case 3: {
      ExternalizeStmt e;
      e.commit = get_ballot(r);
      e.h_n = r.u32();
      statement = e;
      break;
    }
    default:
      r.fail();
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return Envelope(sender, seq, std::move(qset), std::move(statement));
}

void Envelope::wire_encode(sim::WireWriter& w) const {
  wire_put_envelope(w, *this);
}

sim::MessagePtr Envelope::wire_decode(sim::WireReader& r) {
  std::optional<Envelope> env = wire_get_envelope(r);
  if (!env.has_value()) return nullptr;
  return sim::make_message<Envelope>(std::move(*env));
}

}  // namespace scup::scp
