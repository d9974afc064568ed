// Fixture suite for scup-lint: every rule must fire on its known-bad
// snippet, stay quiet on the annotated variant, honour suppressions, flag
// stale suppressions/annotations, and the CLI must keep its exit-code
// contract (0 clean / 1 findings / 2 usage).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using namespace scup::lint;

namespace {

std::string read_fixture(const std::string& name) {
  const fs::path path = fs::path(SCUP_LINT_FIXTURES) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lints a fixture as if it lived at `rel_path`, with the unordered-ident
/// list collected from the fixture itself (mirroring the CLI's pass 1).
std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& rel_path) {
  const std::string content = read_fixture(name);
  LintOptions opts;
  opts.unordered_idents = collect_unordered_idents(content);
  return lint_file(rel_path, content, opts);
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

bool has_finding(const std::vector<Finding>& findings, std::string_view rule,
                 std::size_t line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------- scanner

TEST(Scanner, StripsCommentsAndBlanksStrings) {
  const auto lines = scan_source(
      "int a = 1;  // std::thread in a comment\n"
      "const char* s = \"std::rand inside a string\";\n"
      "/* block\n"
      "   std::random_device\n"
      "*/ int b = 2;\n");
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].code.find("thread"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("std::thread"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[1].code.find("\"\""), std::string::npos);
  EXPECT_EQ(lines[3].code.find("random_device"), std::string::npos);
  EXPECT_NE(lines[4].code.find("int b = 2;"), std::string::npos);
}

TEST(Scanner, CollectsUnorderedIdentifiers) {
  const auto idents = collect_unordered_idents(
      "std::unordered_map<std::size_t, std::vector<int>> by_hash_;\n"
      "mutable std::unordered_map<Key, NodeSet, KeyHash> support_;\n"
      "std::unordered_set<NodeSet> seen;\n"
      "std::map<int, int> ordered_;\n"
      "std::unordered_map<int, int> make_map();\n");
  EXPECT_EQ(idents.size(), 3u);
  EXPECT_NE(std::find(idents.begin(), idents.end(), "by_hash_"),
            idents.end());
  EXPECT_NE(std::find(idents.begin(), idents.end(), "support_"),
            idents.end());
  EXPECT_NE(std::find(idents.begin(), idents.end(), "seen"), idents.end());
  // Function declarations returning unordered maps are not identifiers.
  EXPECT_EQ(std::find(idents.begin(), idents.end(), "make_map"),
            idents.end());
}

// ---------------------------------------------------------------- rules

TEST(RuleUnorderedIter, FiresOnBareLoop) {
  const auto findings =
      lint_fixture("det_unordered_iter_bad.cpp", "src/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleUnorderedIter), 1u);
  EXPECT_TRUE(has_finding(findings, kRuleUnorderedIter, 9));
}

TEST(RuleUnorderedIter, QuietWhenAnnotated) {
  const auto findings =
      lint_fixture("det_unordered_iter_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(RuleUnorderedIter, ScopedToSrc) {
  const auto findings =
      lint_fixture("det_unordered_iter_bad.cpp", "tests/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleUnorderedIter), 0u);
}

TEST(RuleRawRandom, FiresOnEverySource) {
  const auto findings = lint_fixture("det_raw_random_bad.cpp", "src/fix.cpp");
  // random_device, mt19937 seed, srand/time, std::rand.
  EXPECT_GE(count_rule(findings, kRuleRawRandom), 4u);
}

TEST(RuleRawRandom, ExemptInsideCommonRng) {
  const auto findings =
      lint_fixture("det_raw_random_bad.cpp", "src/common/rng.cpp");
  EXPECT_EQ(count_rule(findings, kRuleRawRandom), 0u);
}

TEST(RuleRawThread, FiresOnSpawnDetachAsync) {
  const auto findings = lint_fixture("conc_raw_thread_bad.cpp", "src/fix.cpp");
  EXPECT_GE(count_rule(findings, kRuleRawThread), 3u);
}

TEST(RuleRawThread, CoversTheSimulator) {
  // src/sim/ runs one serial event loop and owns no threads.
  const auto findings =
      lint_fixture("conc_raw_thread_bad.cpp", "src/sim/simulation.cpp");
  EXPECT_GE(count_rule(findings, kRuleRawThread), 3u);
}

TEST(RuleRawThread, ExemptInsideScenarioMatrix) {
  const auto findings = lint_fixture("conc_raw_thread_bad.cpp",
                                     "src/core/scenario_matrix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleRawThread), 0u);
}

// RuleShardEscape: nothing may escape the simulator's serial event loop
// onto another thread. conc-raw-thread carries that ban in src/sim/ (the
// suite keeps the name of the sharding rule that used to), and the loop's
// writes to its own state need no region markers or annotations.

TEST(RuleShardEscape, FiresOnThreadsAndGlobalsInShardFiles) {
  const auto findings = lint_fixture("sim_thread_escape_bad.cpp",
                                     "src/sim/event_queue.cpp");
  // std::thread spawn and .detach; the sequence-counter and metrics
  // writes on lines 12 and 13 are not findings.
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(count_rule(findings, kRuleRawThread), 2u);
  EXPECT_TRUE(has_finding(findings, kRuleRawThread, 7));
  EXPECT_TRUE(has_finding(findings, kRuleRawThread, 8));
}

TEST(RuleShardEscape, LoopStateIsUncheckedInEverySimFile) {
  // Every src/sim/ file gets the thread ban and no check on the loop's
  // own state.
  for (const char* path :
       {"src/sim/simulation.cpp", "src/sim/simulation.hpp",
        "src/sim/message.cpp", "src/sim/network_model.cpp"}) {
    const auto findings = lint_fixture("sim_thread_escape_bad.cpp", path);
    EXPECT_EQ(findings.size(), 2u) << path;
    EXPECT_TRUE(has_finding(findings, kRuleRawThread, 7)) << path;
    EXPECT_TRUE(has_finding(findings, kRuleRawThread, 8)) << path;
  }
}

TEST(RuleShardEscape, ThreadsExemptOnlyInsideTheMatrixPool) {
  // The one pool allowed to own threads is the one that shards
  // experiments by cell, core/scenario_matrix; a pool file under src/sim/
  // gets no exemption.
  EXPECT_EQ(count_rule(lint_fixture("sim_thread_escape_bad.cpp",
                                    "src/core/scenario_matrix.cpp"),
                       kRuleRawThread),
            0u);
  EXPECT_EQ(count_rule(lint_fixture("sim_thread_escape_bad.cpp",
                                    "src/sim/shard_pool.cpp"),
                       kRuleRawThread),
            2u);
}

TEST(RuleShardEscape, ScopedToSim) {
  // The ban is the same rule in the rest of src/ and stops at src/:
  // tests/ and tools/ may spawn threads.
  EXPECT_EQ(count_rule(lint_fixture("sim_thread_escape_bad.cpp",
                                    "src/core/fix.cpp"),
                       kRuleRawThread),
            2u);
  EXPECT_TRUE(
      lint_fixture("sim_thread_escape_bad.cpp", "tests/fix.cpp").empty());
  EXPECT_TRUE(
      lint_fixture("sim_thread_escape_bad.cpp", "tools/fix.cpp").empty());
}

TEST(RuleShardEscape, QuietInsideBarrierRegion) {
  const auto findings =
      lint_fixture("sim_loop_state_ok.cpp", "src/sim/simulation.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

// RuleDrawplanEscape: each send's verdict is drawn from the sender's own
// StreamRng substream, and those streams are the simulator's only
// randomness. det-raw-random keeps every side source of randomness or
// wall-clock time out of src/sim/ (the suite keeps the name of the rule
// that used to guard the streams' draw sites).

TEST(RuleDrawplanEscape, FiresOutsideDrawplanRegions) {
  const auto findings =
      lint_fixture("det_raw_random_bad.cpp", "src/sim/simulation.cpp");
  // random_device, mt19937 seed, srand/time, std::rand.
  EXPECT_GE(count_rule(findings, kRuleRawRandom), 4u);
  EXPECT_TRUE(has_finding(findings, kRuleRawRandom, 8));
  EXPECT_TRUE(has_finding(findings, kRuleRawRandom, 11));
}

TEST(RuleDrawplanEscape, QuietInsideDrawplanRegion) {
  // common/rng, where StreamRng lives, is the one sanctioned home.
  for (const char* path : {"src/common/rng.hpp", "src/common/rng.cpp"}) {
    const auto findings = lint_fixture("det_raw_random_bad.cpp", path);
    EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
  }
}

TEST(RuleDrawplanEscape, ScopedToSim) {
  // Every file of the simulator is covered, headers included: no src/sim/
  // path is exempt.
  for (const char* path :
       {"src/sim/network_model.cpp", "src/sim/network_model.hpp",
        "src/sim/event_queue.hpp", "src/sim/notary.cpp"}) {
    EXPECT_GE(count_rule(lint_fixture("det_raw_random_bad.cpp", path),
                         kRuleRawRandom),
              4u)
        << path;
  }
}

TEST(RuleUnguardedStatic, FiresOnMutableStaticOnly) {
  const auto findings =
      lint_fixture("conc_unguarded_static_bad.cpp", "src/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleUnguardedStatic), 1u);
  EXPECT_TRUE(has_finding(findings, kRuleUnguardedStatic, 6));
}

TEST(RuleUnguardedStatic, QuietWhenAnnotated) {
  const auto findings =
      lint_fixture("conc_unguarded_static_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(RuleNarrowingCast, FiresOnIdLikeArguments) {
  const auto findings =
      lint_fixture("byz_narrowing_cast_bad.cpp", "src/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleNarrowingCast), 3u);
  EXPECT_TRUE(has_finding(findings, kRuleNarrowingCast, 6));
  EXPECT_TRUE(has_finding(findings, kRuleNarrowingCast, 10));
}

TEST(RuleNarrowingCast, QuietWhenBoundedAnnotated) {
  const auto findings =
      lint_fixture("byz_narrowing_cast_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(RuleUnboundedMap, FiresInsideHandlePathsOnly) {
  const auto findings =
      lint_fixture("byz_unbounded_map_bad.cpp", "src/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleUnboundedMap), 1u);
  EXPECT_TRUE(has_finding(findings, kRuleUnboundedMap, 16));
}

TEST(RuleUnboundedMap, QuietWhenBoundedAnnotated) {
  const auto findings =
      lint_fixture("byz_unbounded_map_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(RulePerfHotAlloc, FiresInsideEveryHandlerShape) {
  const auto findings =
      lint_fixture("perf_hot_alloc_bad.cpp", "src/fix.cpp");
  // make_shared + new in on_message, new in handle; the cold make_cold()
  // allocation stays unflagged.
  EXPECT_EQ(count_rule(findings, kRulePerfHotAlloc), 3u);
  EXPECT_TRUE(has_finding(findings, kRulePerfHotAlloc, 16));
  EXPECT_TRUE(has_finding(findings, kRulePerfHotAlloc, 17));
  EXPECT_TRUE(has_finding(findings, kRulePerfHotAlloc, 23));
}

TEST(RulePerfHotAlloc, QuietWhenAnnotated) {
  const auto findings =
      lint_fixture("perf_hot_alloc_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(RulePerfHotAlloc, ScopedToSrc) {
  // bench/ and tests/ build throwaway messages by hand; the hot-path rule
  // is a production-tree discipline.
  const auto findings =
      lint_fixture("perf_hot_alloc_bad.cpp", "bench/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRulePerfHotAlloc), 0u);
}

TEST(MetaRules, AnnotationsBindToTheWholeStatement) {
  // One `bounded` before a wrapped statement covers flagged casts on every
  // continuation line of that statement, and is consumed, not stale.
  const auto findings =
      lint_fixture("annotation_wrapped_stmt_ok.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(MetaRules, AnnotationRangeStopsAtTheStatementEnd) {
  // The statement range ends at the first terminator: a flagged construct
  // on the *next* statement is not excused by the previous annotation.
  const auto findings = lint_file(
      "src/fix.cpp",
      "void f(std::uint64_t view) {\n"
      "  // scup-lint: bounded(view < 4 checked above)\n"
      "  const auto a = static_cast<std::uint32_t>(view);\n"
      "  const auto b = static_cast<std::uint32_t>(view);\n"
      "  (void)a;\n"
      "  (void)b;\n"
      "}\n",
      LintOptions{});
  EXPECT_EQ(count_rule(findings, kRuleNarrowingCast), 1u);
  EXPECT_TRUE(has_finding(findings, kRuleNarrowingCast, 4));
  EXPECT_EQ(count_rule(findings, kRuleStaleAnnotation), 0u);
}

TEST(MetaRules, StaleAndUnknownAnnotations) {
  const auto findings =
      lint_fixture("stale_annotation_bad.cpp", "src/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleStaleAnnotation), 1u);
  EXPECT_EQ(count_rule(findings, kRuleUnknownAnnotation), 1u);
}

TEST(MetaRules, CleanFixtureIsClean) {
  const auto findings = lint_fixture("clean.cpp", "src/fix.cpp");
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

// ---------------------------------------------------------- suppressions

TEST(Suppressions, SilenceMatchingFindings) {
  std::vector<Finding> errors;
  auto supps = parse_suppressions("src/a.cpp det-raw-random\n", "supp.txt",
                                  errors);
  ASSERT_EQ(supps.size(), 1u);
  EXPECT_TRUE(errors.empty());
  std::vector<Finding> findings{
      {"src/a.cpp", 3, std::string(kRuleRawRandom), "x"},
      {"src/b.cpp", 7, std::string(kRuleRawRandom), "y"},
  };
  const auto kept =
      apply_suppressions(std::move(findings), supps, "supp.txt");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].file, "src/b.cpp");
}

TEST(Suppressions, UnknownRuleIsAnError) {
  std::vector<Finding> errors;
  auto supps = parse_suppressions(
      "# comment\n"
      "src/a.cpp no-such-rule\n"
      "src/a.cpp lint-stale-suppression\n"  // meta rules not suppressible
      "src/a.cpp det-raw-random extra-field\n",
      "supp.txt", errors);
  EXPECT_TRUE(supps.empty());
  EXPECT_EQ(count_rule(errors, kRuleBadSuppression), 3u);
}

TEST(Suppressions, StaleEntryIsAFinding) {
  std::vector<Finding> errors;
  auto supps = parse_suppressions("src/gone.cpp det-raw-random\n", "supp.txt",
                                  errors);
  const auto kept = apply_suppressions({}, supps, "supp.txt");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, kRuleStaleSuppression);
  EXPECT_EQ(kept[0].file, "supp.txt");
  EXPECT_EQ(kept[0].line, 1u);
}

// ------------------------------------------------------ exit-code contract

#if defined(__unix__) || defined(__APPLE__)

namespace {

int run_binary(const std::string& args) {
  const std::string cmd =
      std::string(SCUP_LINT_BINARY) + " " + args + " > /dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << content;
}

}  // namespace

TEST(ExitCode, CleanTreeReturnsZero) {
  const fs::path root =
      fs::temp_directory_path() / "scup_lint_exit0";
  fs::remove_all(root);
  write_file(root / "src" / "ok.cpp", "int main() { return 0; }\n");
  EXPECT_EQ(run_binary(root.string()), 0);
  fs::remove_all(root);
}

TEST(ExitCode, FindingsReturnOne) {
  const fs::path root =
      fs::temp_directory_path() / "scup_lint_exit1";
  fs::remove_all(root);
  write_file(root / "src" / "bad.cpp",
             "#include <random>\nstd::random_device rd;\n");
  EXPECT_EQ(run_binary(root.string()), 1);
  fs::remove_all(root);
}

TEST(ExitCode, SuppressionsFlipFindingsToClean) {
  const fs::path root =
      fs::temp_directory_path() / "scup_lint_exit_supp";
  fs::remove_all(root);
  write_file(root / "src" / "bad.cpp",
             "#include <random>\nstd::random_device rd;\n");
  write_file(root / "supp.txt", "src/bad.cpp det-raw-random\n");
  EXPECT_EQ(run_binary(root.string() + " --suppressions " +
                       (root / "supp.txt").string()),
            0);
  // A stale suppression on a now-clean tree is itself a finding.
  write_file(root / "src" / "bad.cpp", "int main() { return 0; }\n");
  EXPECT_EQ(run_binary(root.string() + " --suppressions " +
                       (root / "supp.txt").string()),
            1);
  fs::remove_all(root);
}

TEST(ExitCode, UsageErrorsReturnTwo) {
  EXPECT_EQ(run_binary(""), 2);                       // no root
  EXPECT_EQ(run_binary("/nonexistent-scup-root"), 2);  // bad root
}

#endif  // unix
