// scup-lint: project-specific static analysis for the scup tree.
//
// The repo's headline guarantees are determinism proofs — bit-identical
// serial==parallel scenario-matrix cells (E12), Notary sign-log
// fingerprints, and chain-digest identity (E13). Nothing in the compiler
// stops a future change from silently breaking them: iterating an unordered
// container into a fingerprint, reaching for std::random_device outside
// common/rng, or spawning a raw std::thread outside the scenario-matrix
// runner. scup-lint is the in-repo gate for those project rules. It is
// deliberately token/line-level (no libclang dependency): every rule is a
// pattern over comment-stripped source lines plus a small amount of
// project-wide context (which identifiers are declared as unordered
// containers, which functions are message handlers).
//
// Rule families (ids are stable; suppressions and annotations refer to them):
//
//   determinism
//     det-unordered-iter    range-for over a std::unordered_{map,set}
//                           identifier in src/ without an
//                           `order-insensitive(<why>)` annotation.
//     det-raw-random        std::rand / srand / random_device / mt19937 /
//                           wall-clock time outside src/common/rng.
//
//   concurrency
//     conc-raw-thread       std::thread / std::jthread / std::async /
//                           .detach() in src/ outside core/scenario_matrix
//                           (src/sim/ included: the simulator is one
//                           serial event loop).
//     conc-unguarded-static mutable static without a `guarded-by(<mutex>)`
//                           or `thread-safe(<why>)` annotation.
//
//   byzantine-input
//     byz-narrowing-cast    narrowing static_cast on a slot/view/id-like
//                           expression without a `bounded(<why>)` annotation
//                           (the ledger_timer_id overflow class).
//     byz-unbounded-map     operator[] on a member container inside a
//                           handle() message path without a `bounded(<why>)`
//                           annotation (Byzantine memory-bomb class).
//
//   performance
//     perf-hot-alloc        std::make_shared or a `new` expression inside a
//                           message-handler body (on_message / handle) in
//                           src/ without an `alloc-ok(<why>)`
//                           annotation. Handler bodies run once per delivery
//                           — the broadcast-plane hot path; messages are
//                           built with sim::make_message and scratch space
//                           comes from reused buffers.
//
//   meta (the gate keeps itself honest)
//     lint-unknown-annotation  a `// scup-lint: ...` comment naming no known
//                              annotation.
//     lint-stale-annotation    an annotation no rule consumed — the code it
//                              excused no longer triggers, so it must go.
//     lint-bad-suppression     a suppression entry naming an unknown rule.
//     lint-stale-suppression   a suppression entry matching no finding.
//
// Annotation grammar (same line as the code, or the directly preceding
// comment-only line):
//
//     // scup-lint: <name>(<reason>)
//
// where <name> is one of order-insensitive, guarded-by, thread-safe,
// bounded, alloc-ok, and <reason> is free text (parens must balance).
// Reasons are mandatory: an annotation is an argument, not an opt-out.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace scup::lint {

// ---- rule ids ----
inline constexpr std::string_view kRuleUnorderedIter = "det-unordered-iter";
inline constexpr std::string_view kRuleRawRandom = "det-raw-random";
inline constexpr std::string_view kRuleRawThread = "conc-raw-thread";
inline constexpr std::string_view kRuleUnguardedStatic =
    "conc-unguarded-static";
inline constexpr std::string_view kRuleNarrowingCast = "byz-narrowing-cast";
inline constexpr std::string_view kRuleUnboundedMap = "byz-unbounded-map";
inline constexpr std::string_view kRulePerfHotAlloc = "perf-hot-alloc";
inline constexpr std::string_view kRuleUnknownAnnotation =
    "lint-unknown-annotation";
inline constexpr std::string_view kRuleStaleAnnotation =
    "lint-stale-annotation";
inline constexpr std::string_view kRuleBadSuppression = "lint-bad-suppression";
inline constexpr std::string_view kRuleStaleSuppression =
    "lint-stale-suppression";

/// True iff `rule` is a rule id suppressible via the suppression file (the
/// meta rules are not: suppressing the suppression checker is nonsense).
bool rule_suppressible(std::string_view rule);

struct Finding {
  std::string file;  ///< repo-relative path, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Source line split into executable text and comment text; string and
/// character literal bodies are blanked out of `code` so rule patterns never
/// match inside them.
struct ScannedLine {
  std::string code;
  std::string comment;
};

/// Comment/string-aware scan. Tracks /* */ across lines; handles // and
/// ordinary "..." / '...' literals (raw strings degrade to ordinary-string
/// handling, which is fine for this tree).
std::vector<ScannedLine> scan_source(const std::string& content);

/// Pass 1: identifiers declared as std::unordered_map / std::unordered_set
/// anywhere in the given content (members, locals, parameters). Collected
/// project-wide over src/ so a .cpp iterating a member declared in its .hpp
/// is still caught.
std::vector<std::string> collect_unordered_idents(const std::string& content);

struct LintOptions {
  /// Union of collect_unordered_idents over all src/ files.
  std::vector<std::string> unordered_idents;
};

/// Pass 2: all findings for one file. `rel_path` decides rule scope
/// (src/ vs tests/ vs bench/, plus the per-rule path exemptions).
std::vector<Finding> lint_file(const std::string& rel_path,
                               const std::string& content,
                               const LintOptions& opts);

// ---- suppression file ----
//
// Line format (one entry per line, '#' comments, blank lines ignored):
//
//     <repo-relative-path> <rule-id>
//
// An entry silences every finding of <rule-id> in that file. The file is
// checked both ways: an entry naming an unknown rule is a
// lint-bad-suppression finding, and an entry that silenced nothing is a
// lint-stale-suppression finding — suppressions cannot rot.

struct Suppression {
  std::string path;
  std::string rule;
  std::size_t line = 0;  ///< line in the suppression file (for diagnostics)
  bool used = false;
};

/// Parses the suppression file; malformed or unknown-rule entries are
/// reported as findings against `supp_rel_path`.
std::vector<Suppression> parse_suppressions(const std::string& content,
                                            const std::string& supp_rel_path,
                                            std::vector<Finding>& errors);

/// Removes suppressed findings and appends a lint-stale-suppression finding
/// for every entry that matched nothing.
std::vector<Finding> apply_suppressions(std::vector<Finding> findings,
                                        std::vector<Suppression>& supps,
                                        const std::string& supp_rel_path);

/// Stable output order: (file, line, rule).
void sort_findings(std::vector<Finding>& findings);

/// `file:line: [rule] message` — one line per finding.
std::string format_finding(const Finding& f);

}  // namespace scup::lint
