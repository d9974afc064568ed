// Fixture suite for scup-analyze: the parser must recover the model
// (classes, fields, functions, params, statements, call sites), each rule
// family must fire on its known-bad fixture and stay quiet on the
// guarded/annotated variant, annotations must be consumed or flagged
// stale, and the CLI must keep its exit-code contract. The self-audit
// test runs the real gate over this checkout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace fs = std::filesystem;
using namespace scup::analyze;

namespace {

std::string read_fixture(const std::string& name) {
  const fs::path path = fs::path(SCUP_ANALYZE_FIXTURES) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parses a fixture as if it lived at `rel_path` and runs the full
/// analysis over that one-TU project.
std::vector<Finding> analyze_fixture(const std::string& name,
                                     const std::string& rel_path) {
  std::vector<TU> tus;
  tus.push_back(parse_tu(rel_path, read_fixture(name)));
  return analyze(tus);
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

std::string render(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << scup::lint::format_finding(f) << "\n";
  }
  return os.str();
}

const FunctionSym* find_fn(const TU& tu, const std::string& name) {
  for (const FunctionSym& f : tu.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------- parser

TEST(Parser, RecoversClassesFieldsAndMethods) {
  const TU tu = parse_tu("src/x.cpp", read_fixture("byz_taint_call_bad.cpp"));
  ASSERT_EQ(tu.functions.size(), 2u);
  const FunctionSym* admit = find_fn(tu, "admit");
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(admit->cls, "Tally");
  ASSERT_EQ(admit->params.size(), 2u);
  EXPECT_EQ(admit->params[0], "view");
  EXPECT_EQ(admit->params[1], "voter");
  // Fields: VoteMsg::view/value and Tally::votes_; method declarations
  // must not be recovered as fields.
  bool votes = false;
  for (const FieldSym& d : tu.fields) {
    EXPECT_NE(d.name, "handle");
    EXPECT_NE(d.name, "admit");
    if (d.name == "votes_") {
      votes = true;
      EXPECT_EQ(d.cls, "Tally");
    }
  }
  EXPECT_TRUE(votes);
}

TEST(Parser, BraceAndEqInitFieldsAreRecovered) {
  const TU tu = parse_tu(
      "src/x.cpp",
      "class C {\n"
      "  long plain_;\n"
      "  long eq_init_ = 0;\n"
      "  long brace_init_{0};\n"
      "  virtual void pure() = 0;\n"
      "  void inline_method() {}\n"
      "};\n");
  std::vector<std::string> names;
  for (const FieldSym& d : tu.fields) names.push_back(d.name);
  EXPECT_EQ(names, (std::vector<std::string>{"plain_", "eq_init_",
                                             "brace_init_"}));
}

TEST(Parser, RecoversCallSitesWithArguments) {
  const TU tu = parse_tu("src/x.cpp", read_fixture("byz_taint_call_bad.cpp"));
  const FunctionSym* handle = find_fn(tu, "handle");
  ASSERT_NE(handle, nullptr);
  ASSERT_EQ(handle->calls.size(), 1u);
  const CallSite& c = handle->calls[0];
  EXPECT_EQ(c.name, "admit");
  ASSERT_EQ(c.args.size(), 2u);
  EXPECT_EQ(c.args[0], (std::vector<std::string>{"msg", "view"}));
  EXPECT_EQ(c.args[1], (std::vector<std::string>{"from"}));
}

TEST(Parser, ConditionHeadersAreOwnStatements) {
  const TU tu = parse_tu("src/x.cpp",
                         "void f(int n) {\n"
                         "  for (int i = 0; i < n; ++i) {\n"
                         "    g(i);\n"
                         "  }\n"
                         "  for (const auto& x : xs) {\n"
                         "    g(x);\n"
                         "  }\n"
                         "}\n");
  const FunctionSym* f = find_fn(tu, "f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->stmts.size(), 4u);
  EXPECT_TRUE(f->stmts[0].is_loop);
  EXPECT_FALSE(f->stmts[0].is_range_for);
  EXPECT_TRUE(f->stmts[2].is_loop);
  EXPECT_TRUE(f->stmts[2].is_range_for);
}

TEST(Parser, LexicalRegionsAreCollected) {
  // Annotations bind to lexical line ranges: their own line when it has
  // code, else the next statement, through the line that ends it, skipping
  // comment-only lines in between.
  const TU tu = parse_tu("src/sim/x.cpp",
                         "// scup-guarded-by: mu_\n"
                         "int a = 0;\n"
                         "int b = 0;  // scup-guarded-by: mu_\n"
                         "// scup-sanitize: bounded by the caller\n"
                         "// (a second comment line)\n"
                         "int c = f(1,\n"
                         "          2);\n"
                         "// scup-analyze: requires-lock(mu_)\n");
  ASSERT_EQ(tu.annotations.size(), 4u);
  EXPECT_EQ(tu.annotations[0].kind, AnnKind::kGuardedBy);
  EXPECT_EQ(tu.annotations[0].value, "mu_");
  EXPECT_EQ(tu.annotations[0].comment_line, 1u);
  EXPECT_EQ(tu.annotations[0].applies_begin, 2u);
  EXPECT_EQ(tu.annotations[0].applies_end, 2u);
  EXPECT_EQ(tu.annotations[1].comment_line, 3u);
  EXPECT_EQ(tu.annotations[1].applies_begin, 3u);
  EXPECT_EQ(tu.annotations[1].applies_end, 3u);
  EXPECT_EQ(tu.annotations[2].kind, AnnKind::kSanitize);
  EXPECT_EQ(tu.annotations[2].comment_line, 4u);
  EXPECT_EQ(tu.annotations[2].applies_begin, 6u);
  EXPECT_EQ(tu.annotations[2].applies_end, 7u);
  // Nothing follows the last one: it binds to no region.
  EXPECT_EQ(tu.annotations[3].kind, AnnKind::kRequiresLock);
  EXPECT_EQ(tu.annotations[3].applies_begin, 0u);
  EXPECT_EQ(tu.annotations[3].applies_end, 0u);
}

// ---------------------------------------------------------------- byz-taint

TEST(ByzTaint, FiresThroughHelperSummary) {
  const auto findings =
      analyze_fixture("byz_taint_call_bad.cpp", "src/scp/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleByzTaint), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleByzTaint, 22)) << render(findings);
}

TEST(ByzTaint, QuietUnderGuardAndSanitize) {
  const auto findings =
      analyze_fixture("byz_taint_guard_ok.cpp", "src/scp/fix.cpp");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(ByzTaint, DynamicCastDoesNotLaunder) {
  const auto findings =
      analyze_fixture("byz_taint_cast_bad.cpp", "src/scp/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleByzTaint), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleByzTaint, 23)) << render(findings);
}

TEST(ByzTaint, MessageAsDoesNotLaunder) {
  const auto findings =
      analyze_fixture("byz_taint_message_as_bad.cpp", "src/scp/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleByzTaint), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleByzTaint, 27)) << render(findings);
}

TEST(ByzTaint, CrossTuSummaryPropagates) {
  // The helper lives in another TU; the summary must still flow.
  std::vector<TU> tus;
  tus.push_back(parse_tu("src/a.cpp",
                         "void grow(std::size_t n) {\n"
                         "  table_.resize(n);\n"
                         "}\n"
                         "std::vector<int> table_;\n"));
  tus.push_back(parse_tu("src/b.cpp",
                         "void handle(std::size_t len) {\n"
                         "  grow(len);\n"
                         "}\n"));
  const auto findings = analyze(tus);
  EXPECT_EQ(count_rule(findings, kRuleByzTaint), 1u) << render(findings);
}

TEST(ByzTaint, ModuloSubscriptIsAStructuralBound) {
  // `a[x % n]` cannot index out of range whatever x is — the modulo is a
  // guard, so the tainted subscript must stay quiet while the unguarded
  // one still fires. (Regression test for the pbft view-rotation audit.)
  std::vector<TU> tus;
  tus.push_back(parse_tu("src/p.cpp",
                         "struct R {\n"
                         "  void handle(std::size_t view) {\n"
                         "    leaders_[view % leaders_.size()] += 1;\n"
                         "    leaders_[view] += 1;\n"
                         "  }\n"
                         "  std::vector<int> leaders_;\n"
                         "};\n"));
  const auto findings = analyze(tus);
  EXPECT_EQ(count_rule(findings, kRuleByzTaint), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleByzTaint, 4)) << render(findings);
}

// ----------------------------------------------------------------- locks

TEST(Locks, UnguardedTouchAndUnlockedCallerFire) {
  const auto findings = analyze_fixture("lock_bad.cpp", "src/sim/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleLockUnguarded), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleLockUnguarded, 26))
      << render(findings);
  EXPECT_EQ(count_rule(findings, kRuleLockCaller), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleLockCaller, 29)) << render(findings);
}

TEST(Locks, AccessorPatternWithLocalStaticIsQuiet) {
  const auto findings = analyze_fixture("lock_ok.cpp", "src/sim/fix.cpp");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

// ------------------------------------------------------------- ownership
//
// State shared across threads is owned by a mutex (scup-guarded-by), and
// the lock-discipline family checks that ownership through call edges.
// The suite keeps the name of the shard-ownership family it replaced.

TEST(Ownership, EngineStateInShardClosureFires) {
  const auto findings =
      analyze_fixture("lock_owner_bad.cpp", "src/sim/fix.cpp");
  EXPECT_EQ(findings.size(), 2u) << render(findings);
  EXPECT_EQ(count_rule(findings, kRuleLockUnguarded), 1u) << render(findings);
  // Lock coverage is function-granular: the touch is reported at the
  // definition of the function that makes it.
  EXPECT_TRUE(has_finding(findings, kRuleLockUnguarded, 18))
      << render(findings);
  EXPECT_EQ(count_rule(findings, kRuleLockCaller), 1u) << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleLockCaller, 20)) << render(findings);
}

TEST(Ownership, AuditedAndBarrierAccessesAreQuiet) {
  const auto findings =
      analyze_fixture("lock_owner_ok.cpp", "src/sim/fix.cpp");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(Ownership, ScopedToSimTree) {
  // The simulator's own shared state — the message-type registry — is
  // owned by a module mutex: analyzing src/sim/ on its own binds every
  // lock annotation and finds no lock violation.
  std::vector<TU> tus;
  const fs::path sim_dir = fs::path(SCUP_ANALYZE_REPO_ROOT) / "src" / "sim";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(sim_dir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    tus.push_back(
        parse_tu("src/sim/" + file.filename().string(), buf.str()));
  }
  const auto findings = analyze(tus);
  EXPECT_EQ(count_rule(findings, kRuleLockUnguarded), 0u) << render(findings);
  EXPECT_EQ(count_rule(findings, kRuleLockCaller), 0u) << render(findings);
  std::size_t guarded = 0;
  std::size_t requires_lock = 0;
  for (const TU& tu : tus) {
    for (const Annotation& a : tu.annotations) {
      if (a.kind == AnnKind::kSanitize) continue;
      EXPECT_TRUE(a.consumed) << tu.path << ":" << a.comment_line;
      if (a.kind == AnnKind::kGuardedBy) ++guarded;
      if (a.kind == AnnKind::kRequiresLock) ++requires_lock;
    }
  }
  EXPECT_GE(guarded, 2u);
  EXPECT_GE(requires_lock, 2u);
}

// ------------------------------------------------------------------ meta

TEST(Meta, StaleAndMalformedAnnotationsAreFlagged) {
  const auto findings = analyze_fixture("stale_bad.cpp", "src/scp/fix.cpp");
  EXPECT_EQ(count_rule(findings, kRuleStaleAnnotation), 1u)
      << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleStaleAnnotation, 17))
      << render(findings);
  EXPECT_EQ(count_rule(findings, kRuleUnknownAnnotation), 2u)
      << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleUnknownAnnotation, 22))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, kRuleUnknownAnnotation, 23))
      << render(findings);
}

TEST(Meta, CleanFileStaysClean) {
  const auto findings = analyze_fixture("clean.cpp", "src/scp/fix.cpp");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(Meta, DumpShowsSummariesAndCallGraph) {
  std::vector<TU> tus;
  tus.push_back(
      parse_tu("src/scp/fix.cpp", read_fixture("byz_taint_call_bad.cpp")));
  analyze(tus);
  const std::string report = dump(tus);
  EXPECT_NE(report.find("fn Tally::admit"), std::string::npos) << report;
  EXPECT_NE(report.find("sink-params{view}"), std::string::npos) << report;
  EXPECT_NE(report.find("calls: admit"), std::string::npos) << report;
}

// ------------------------------------------------- self-audit + exit codes

#if defined(__unix__) || defined(__APPLE__)

namespace {

int run_binary(const std::string& args) {
  const std::string cmd =
      std::string(SCUP_ANALYZE_BINARY) + " " + args + " > /dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << content;
}

}  // namespace

/// The real tree must audit clean: every finding fixed or annotated, no
/// stale annotations. This is the same invocation as the CI gate.
TEST(SelfAudit, RealTreeIsClean) {
  EXPECT_EQ(run_binary(std::string(SCUP_ANALYZE_REPO_ROOT)), 0);
}

TEST(ExitCode, CleanTreeReturnsZero) {
  const fs::path root = fs::temp_directory_path() / "scup_analyze_exit0";
  fs::remove_all(root);
  write_file(root / "src" / "ok.cpp", "int main() { return 0; }\n");
  EXPECT_EQ(run_binary(root.string()), 0);
  fs::remove_all(root);
}

TEST(ExitCode, FindingsReturnOne) {
  const fs::path root = fs::temp_directory_path() / "scup_analyze_exit1";
  fs::remove_all(root);
  write_file(root / "src" / "bad.cpp",
             "void handle(unsigned n) { table_[n] = 1; }\n"
             "std::map<unsigned, int> table_;\n");
  EXPECT_EQ(run_binary(root.string()), 1);
  fs::remove_all(root);
}

TEST(ExitCode, UsageErrorsReturnTwo) {
  EXPECT_EQ(run_binary(""), 2);                          // no root
  EXPECT_EQ(run_binary("/nonexistent-scup-root"), 2);    // bad root
  EXPECT_EQ(run_binary(std::string(SCUP_ANALYZE_REPO_ROOT) +
                       " --budget-ms bogus"),
            2);  // malformed flag value
}

#endif  // unix

