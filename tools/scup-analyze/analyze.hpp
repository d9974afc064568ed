// scup-analyze: interprocedural static analysis for the scup tree.
//
// scup-lint (tools/scup-lint) is deliberately line-level: every rule is a
// pattern over comment-stripped lines. That runs out of road exactly where
// the paper's protocols live: Byzantine-controlled message fields flow
// through helper functions into allocations and indices far from any
// handle() body, and a mutex's coverage spans functions.
//
// scup-analyze adds a lightweight semantic layer on top of the same
// comment/string-aware scanner: a per-TU parser recovers namespaces,
// classes, fields, function bodies and call sites into a project-wide
// symbol table and call graph over src/, and two interprocedural rule
// families run on top.
//
// Rule families (ids are stable; annotations refer to them):
//
//   byzantine-input
//     byz-taint             a value derived from a message handler's
//                           parameters (handle(), on_message, handle_*)
//                           reaches a growth or index sink — operator[] on
//                           a member container, insert/emplace/push_back/
//                           resize/reserve on a member, a narrowing
//                           static_cast, a loop bound, or an argument to a
//                           function whose own summary says that parameter
//                           reaches such a sink — without passing a
//                           structural guard (comparison or validating
//                           call in a branch condition; std::min/max/clamp
//                           on assignment) or a `// scup-sanitize:` note.
//
//   lock-discipline
//     lock-unguarded        a symbol annotated `// scup-guarded-by: M` is
//                           touched by an in-scope function that neither
//                           locks M nor declares `requires-lock(M)`.
//     lock-caller-unguarded a function annotated
//                           `// scup-analyze: requires-lock(M)` is called
//                           from a function that neither locks M nor
//                           requires it in turn.
//
//   meta (the gate keeps itself honest)
//     ana-unknown-annotation  a scup-analyze annotation naming no known
//                             form, or with a malformed argument.
//     ana-stale-annotation    an annotation no rule consumed — the code it
//                             describes no longer exists or no longer
//                             needs it, so it must go.
//
// Annotation grammar (same line as the code, or a preceding comment-only
// line; like scup-lint annotations, a preceding-line annotation covers the
// whole next *statement*, not just the next line):
//
//   // scup-guarded-by: <mutex>              on a field / static / local
//   // scup-sanitize: <reason>               on a statement (taint check)
//   // scup-analyze: requires-lock(<mutex>)  on a function definition
//
// Known unsoundness/incompleteness (documented, deliberate — DESIGN §4.8):
// call resolution is name-based (virtual dispatch and same-named functions
// over-approximate), taint is per-identifier (a guard on one field of an
// object sanitizes the whole object), data stored into containers/fields
// is not tracked across statements, and lock coverage is function-granular
// (a lock anywhere in the body covers the whole body). The audit protocol
// in EXPERIMENTS.md pairs the automated findings with a review of the
// dumped sink summaries (`scup-analyze --dump`) for exactly this reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"  // scup::lint::Finding, scan_source

namespace scup::analyze {

using scup::lint::Finding;

// ---- rule ids ----
inline constexpr std::string_view kRuleByzTaint = "byz-taint";
inline constexpr std::string_view kRuleLockUnguarded = "lock-unguarded";
inline constexpr std::string_view kRuleLockCaller = "lock-caller-unguarded";
inline constexpr std::string_view kRuleUnknownAnnotation =
    "ana-unknown-annotation";
inline constexpr std::string_view kRuleStaleAnnotation =
    "ana-stale-annotation";

// ---- recovered model ----

/// One token of comment-stripped code. Multi-char operators are merged
/// (::, ->, ==, ...) except << and >> so template angle brackets stay
/// countable.
struct Tok {
  std::string text;
  std::size_t line = 0;  ///< 1-based source line
  bool ident = false;    ///< [A-Za-z_][A-Za-z0-9_]*
};

enum class AnnKind {
  kGuardedBy,     ///< scup-guarded-by: <mutex>
  kSanitize,      ///< scup-sanitize: <reason>
  kRequiresLock,  ///< scup-analyze: requires-lock(<mutex>)
};

struct Annotation {
  AnnKind kind;
  std::string value;  ///< mutex name or reason text
  std::size_t comment_line = 0;
  /// The code-line range the annotation can bind to: its own line when
  /// that line has code, else the next statement (first code line through
  /// the first line containing one of ; { }).
  std::size_t applies_begin = 0;
  std::size_t applies_end = 0;
  bool consumed = false;
};

/// One statement of a function body. Branch/loop headers (if/while/for/
/// switch parenthesized heads) are statements of their own.
struct Stmt {
  std::vector<Tok> toks;
  std::size_t first_line = 0;
  std::size_t last_line = 0;
  bool is_condition = false;  ///< if/while/for/switch header
  bool is_loop = false;       ///< while/for header
  bool is_range_for = false;
  int sanitize_ann = -1;  ///< index into TU::annotations, or -1
};

/// A call site recovered from a statement: `f(...)`, `x.f(...)`,
/// `x->f(...)` or `Cls::f(...)`.
struct CallSite {
  std::string name;
  std::string qual_class;  ///< for Cls::f, else empty
  std::string receiver;    ///< x in x.f / x->f, else empty
  std::size_t line = 0;
  std::size_t stmt = 0;  ///< index into the owner's stmts
  /// Identifiers per top-level argument position.
  std::vector<std::vector<std::string>> args;
};

/// A data declaration the analyses care about: a class field, a
/// namespace-scope variable, or an annotated function-local (static or
/// plain — parallel_cells guards a plain local with a mutex).
struct FieldSym {
  std::string cls;   ///< enclosing class, empty for namespace/function scope
  std::string func;  ///< declaring function for function-locals, else empty
  std::string name;
  std::string file;
  std::size_t line = 0;
  std::string guarded_by;  ///< mutex name, empty if none
  int guarded_ann = -1;    ///< index into the declaring TU's annotations
};

struct FunctionSym {
  std::string cls;  ///< enclosing or qualifying class, empty for free
  std::string name;
  std::string file;
  std::size_t line = 0;  ///< first line of the signature
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<std::string> params;  ///< declared parameter names, in order
  std::vector<Stmt> stmts;
  std::vector<CallSite> calls;
  // Bound annotations.
  std::vector<std::string> requires_locks;
  std::vector<int> requires_lock_anns;  ///< parallel to requires_locks
  /// Mutex-name candidates: identifiers appearing in a statement that also
  /// constructs a lock_guard/unique_lock/scoped_lock/shared_lock.
  std::vector<std::string> locked_tokens;
  // Computed by analyze().
  std::uint32_t sink_params = 0;  ///< bit i: param i reaches a sink
};

/// Everything recovered from one translation unit.
struct TU {
  std::string path;  ///< repo-relative, forward slashes
  std::vector<Annotation> annotations;
  std::vector<FunctionSym> functions;
  std::vector<FieldSym> fields;
  std::vector<Finding> parse_findings;  ///< ana-unknown-annotation etc.
};

/// Tokenize + parse one file. Pure (no project context); safe to run in
/// parallel across files.
TU parse_tu(const std::string& rel_path, const std::string& content);

/// Run every rule family over the parsed project and return all findings,
/// sorted (file, line, rule). Mutates the TUs (annotation consumption,
/// computed function facts) so a subsequent dump() reflects the analysis.
std::vector<Finding> analyze(std::vector<TU>& tus);

/// Human-readable symbol-table / call-graph / taint-summary report for
/// `scup-analyze --dump`; the audit protocol reviews this alongside the
/// findings (see EXPERIMENTS.md).
std::string dump(const std::vector<TU>& tus);

}  // namespace scup::analyze
