// Unit tests for the SCP statement semantics (envelope.hpp): what each
// statement kind implies its sender votes for / has accepted. These
// predicates are the foundation of federated voting; every ballot-safety
// argument rests on them.
#include "scp/envelope.hpp"

#include <gtest/gtest.h>

namespace scup::scp {
namespace {

constexpr Value kA = 10;
constexpr Value kB = 20;

TEST(BallotTest, OrderingAndCompatibility) {
  const Ballot b1{1, kA};
  const Ballot b2{2, kA};
  const Ballot b1b{1, kB};
  EXPECT_TRUE(b1 < b2);
  EXPECT_TRUE(b1 < b1b);  // lexicographic: same n, larger value
  EXPECT_TRUE(compatible(b1, b2));
  EXPECT_FALSE(compatible(b1, b1b));
  EXPECT_TRUE(le_compatible(b1, b2));
  EXPECT_FALSE(le_compatible(b2, b1));
  EXPECT_FALSE(le_compatible(b1, b1b));
  EXPECT_FALSE(Ballot{}.valid());
  EXPECT_TRUE(b1.valid());
  EXPECT_EQ(b1.to_string(), "<1,10>");
  EXPECT_EQ(Ballot{}.to_string(), "<0>");
}

TEST(StatementSemanticsTest, NominateImpliesNothingForBallots) {
  const Statement s{NominateStmt{{kA}, {kB}}};
  EXPECT_FALSE(votes_prepare(s, Ballot{1, kA}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{1, kA}));
  EXPECT_FALSE(votes_commit(s, 1, kA));
  EXPECT_FALSE(accepts_commit(s, 1, kA));
  EXPECT_TRUE(votes_nominate(s, kA));
  EXPECT_TRUE(votes_nominate(s, kB));  // accepted implies voted-or-accepted
  EXPECT_FALSE(votes_nominate(s, 99));
  EXPECT_TRUE(accepts_nominate(s, kB));
  EXPECT_FALSE(accepts_nominate(s, kA));
  EXPECT_FALSE(is_ballot_statement(s));
  EXPECT_FALSE(working_ballot(s).valid());
}

TEST(StatementSemanticsTest, PrepareVotesAndAccepts) {
  PrepareStmt p;
  p.b = Ballot{3, kA};
  p.p = Ballot{2, kA};
  p.p_prime = Ballot{1, kB};
  p.c_n = 0;
  p.h_n = 2;
  const Statement s{p};

  // Votes prepare(β) for β <= b, compatible.
  EXPECT_TRUE(votes_prepare(s, Ballot{3, kA}));
  EXPECT_TRUE(votes_prepare(s, Ballot{1, kA}));
  EXPECT_FALSE(votes_prepare(s, Ballot{4, kA}));
  EXPECT_FALSE(votes_prepare(s, Ballot{1, kB}));

  // Accepts prepared(β) for β <= p or β <= p' (compatible).
  EXPECT_TRUE(accepts_prepared(s, Ballot{2, kA}));
  EXPECT_TRUE(accepts_prepared(s, Ballot{1, kA}));
  EXPECT_TRUE(accepts_prepared(s, Ballot{1, kB}));  // via p'
  EXPECT_FALSE(accepts_prepared(s, Ballot{3, kA}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{2, kB}));

  // c_n = 0: no commit votes at all.
  EXPECT_FALSE(votes_commit(s, 1, kA));
  EXPECT_FALSE(accepts_commit(s, 1, kA));
  EXPECT_TRUE(is_ballot_statement(s));
  EXPECT_EQ(working_ballot(s), (Ballot{3, kA}));
}

TEST(StatementSemanticsTest, PrepareCommitRange) {
  PrepareStmt p;
  p.b = Ballot{5, kA};
  p.c_n = 2;
  p.h_n = 4;
  const Statement s{p};
  EXPECT_FALSE(votes_commit(s, 1, kA));
  EXPECT_TRUE(votes_commit(s, 2, kA));
  EXPECT_TRUE(votes_commit(s, 3, kA));
  EXPECT_TRUE(votes_commit(s, 4, kA));
  EXPECT_FALSE(votes_commit(s, 5, kA));
  EXPECT_FALSE(votes_commit(s, 3, kB));  // wrong value
  // PREPARE never *accepts* commits.
  EXPECT_FALSE(accepts_commit(s, 3, kA));
}

TEST(StatementSemanticsTest, ConfirmSemantics) {
  ConfirmStmt c;
  c.b = Ballot{6, kA};
  c.p_n = 6;
  c.c_n = 2;
  c.h_n = 5;
  const Statement s{c};

  // Votes prepare((∞, b.x)): any counter, same value.
  EXPECT_TRUE(votes_prepare(s, Ballot{100, kA}));
  EXPECT_FALSE(votes_prepare(s, Ballot{1, kB}));

  // Accepts prepared up to max(p_n, h_n) with the same value.
  EXPECT_TRUE(accepts_prepared(s, Ballot{6, kA}));
  EXPECT_TRUE(accepts_prepared(s, Ballot{5, kA}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{7, kA}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{3, kB}));

  // Accepts commit exactly on [c_n, h_n]; votes commit for all n >= c_n.
  EXPECT_FALSE(accepts_commit(s, 1, kA));
  EXPECT_TRUE(accepts_commit(s, 2, kA));
  EXPECT_TRUE(accepts_commit(s, 5, kA));
  EXPECT_FALSE(accepts_commit(s, 6, kA));
  EXPECT_TRUE(votes_commit(s, 6, kA));  // c_n..∞
  EXPECT_TRUE(votes_commit(s, 2, kA));
  EXPECT_FALSE(votes_commit(s, 1, kA));
  EXPECT_EQ(working_ballot(s), (Ballot{6, kA}));
}

TEST(StatementSemanticsTest, ExternalizeSemantics) {
  ExternalizeStmt e;
  e.commit = Ballot{3, kA};
  e.h_n = 5;
  const Statement s{e};

  // Prepared/votes-prepare for anything compatible.
  EXPECT_TRUE(votes_prepare(s, Ballot{999, kA}));
  EXPECT_TRUE(accepts_prepared(s, Ballot{999, kA}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{1, kB}));

  // Commit accepted (and voted) for every n >= commit.n.
  EXPECT_FALSE(accepts_commit(s, 2, kA));
  EXPECT_TRUE(accepts_commit(s, 3, kA));
  EXPECT_TRUE(accepts_commit(s, 1000, kA));
  EXPECT_TRUE(votes_commit(s, 3, kA));
  EXPECT_FALSE(votes_commit(s, 3, kB));
  EXPECT_EQ(working_ballot(s), (Ballot{3, kA}));
}

TEST(StatementSemanticsTest, InvalidBallotNeverImplied) {
  PrepareStmt p;
  p.b = Ballot{3, kA};
  const Statement s{p};
  EXPECT_FALSE(votes_prepare(s, Ballot{}));
  EXPECT_FALSE(accepts_prepared(s, Ballot{}));
  EXPECT_FALSE(votes_commit(s, 0, kA));
  EXPECT_FALSE(accepts_commit(s, 0, kA));
}

TEST(EnvelopeTest, TypeNamesAndSizes) {
  const fbqs::QSet q = fbqs::QSet::threshold_of(1, std::vector<ProcessId>{0});
  EXPECT_EQ(Envelope(0, 1, q, Statement{NominateStmt{}}).type_name(),
            "scp.nominate");
  EXPECT_EQ(Envelope(0, 1, q, Statement{PrepareStmt{}}).type_name(),
            "scp.prepare");
  EXPECT_EQ(Envelope(0, 1, q, Statement{ConfirmStmt{}}).type_name(),
            "scp.confirm");
  EXPECT_EQ(Envelope(0, 1, q, Statement{ExternalizeStmt{}}).type_name(),
            "scp.externalize");
  // Nomination size grows with the value sets.
  const Envelope small(0, 1, q, Statement{NominateStmt{{1}, {}}});
  const Envelope large(0, 1, q, Statement{NominateStmt{{1, 2, 3, 4}, {5}}});
  EXPECT_LT(small.send_size().bytes, large.send_size().bytes);
}

// The safety-critical cross-implication: a statement that accepts
// commit(n, x) must also vote commit(n, x) (acceptance strengthens votes),
// and acceptance of prepared must imply voting prepare. Checked across a
// grid of statements and ballots.
class SemanticsConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(SemanticsConsistencyTest, AcceptImpliesVote) {
  const int i = GetParam();
  std::vector<Statement> statements;
  {
    PrepareStmt p;
    p.b = Ballot{static_cast<std::uint32_t>(3 + i % 3), kA};
    p.p = Ballot{static_cast<std::uint32_t>(1 + i % 2), kA};
    p.c_n = (i % 2 == 0) ? 1 : 0;
    p.h_n = p.c_n != 0 ? p.b.n : 0;
    statements.emplace_back(p);
    ConfirmStmt c;
    c.b = Ballot{static_cast<std::uint32_t>(4 + i % 4), kA};
    c.p_n = c.b.n;
    c.c_n = 1 + i % 3;
    c.h_n = c.c_n + 2;
    statements.emplace_back(c);
    ExternalizeStmt e;
    e.commit = Ballot{static_cast<std::uint32_t>(1 + i % 5), kA};
    e.h_n = e.commit.n + 1;
    statements.emplace_back(e);
  }
  for (const Statement& s : statements) {
    for (std::uint32_t n = 1; n <= 10; ++n) {
      for (Value x : {kA, kB}) {
        if (accepts_commit(s, n, x)) {
          EXPECT_TRUE(votes_commit(s, n, x)) << "n=" << n << " x=" << x;
        }
        const Ballot beta{n, x};
        if (accepts_prepared(s, beta) &&
            !std::holds_alternative<PrepareStmt>(s)) {
          // For CONFIRM/EXTERNALIZE, accepted-prepared implies voting
          // prepare (they vote prepare(∞)). PREPARE may accept prepared
          // ballots above its current vote (p > b never happens in correct
          // nodes but the predicate is per-statement).
          EXPECT_TRUE(votes_prepare(s, beta)) << beta.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SemanticsConsistencyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace scup::scp
