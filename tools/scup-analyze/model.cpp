// Tokenizer + per-TU parser: recovers the model in analyze.hpp from one
// source file. Built on scup-lint's comment/string-aware scanner, so rule
// logic never sees comment or literal text.
//
// The parser is a single pass over the token stream with an explicit scope
// stack (namespace / class / function / block / other). It is a *recoverer*,
// not a grammar: constructs it cannot classify degrade to inert tokens
// rather than errors (see "known unsoundness" in analyze.hpp). Everything
// here is TU-local; linking happens in project.cpp.
#include <array>
#include <cctype>
#include <string>
#include <unordered_set>
#include <vector>

#include "analyze_internal.hpp"

namespace scup::analyze {

namespace {

using scup::lint::ScannedLine;

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Two-character operators merged into one token. << and >> are left as
/// single characters so template angle brackets stay countable.
bool merge2(char a, char b) {
  static const std::unordered_set<std::string> kOps = {
      "::", "->", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
      "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
  };
  return kOps.count(std::string{a, b}) != 0;
}

std::vector<Tok> tokenize(const std::vector<ScannedLine>& lines) {
  std::vector<Tok> toks;
  bool in_preproc = false;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const std::size_t first = code.find_first_not_of(" \t");
    const bool continues = !code.empty() && code.back() == '\\';
    if (in_preproc) {
      in_preproc = continues;
      continue;
    }
    if (first != std::string::npos && code[first] == '#') {
      in_preproc = continues;
      continue;
    }
    std::size_t p = 0;
    while (p < code.size()) {
      const char c = code[p];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++p;
        continue;
      }
      if (ident_start(c)) {
        std::size_t q = p + 1;
        while (q < code.size() && ident_char(code[q])) ++q;
        toks.push_back(Tok{code.substr(p, q - p), li + 1, true});
        p = q;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t q = p + 1;
        while (q < code.size() &&
               (ident_char(code[q]) || code[q] == '.' || code[q] == '\'')) {
          ++q;
        }
        toks.push_back(Tok{code.substr(p, q - p), li + 1, false});
        p = q;
        continue;
      }
      if (p + 1 < code.size() && merge2(c, code[p + 1])) {
        toks.push_back(Tok{code.substr(p, 2), li + 1, false});
        p += 2;
        continue;
      }
      toks.push_back(Tok{std::string(1, c), li + 1, false});
      ++p;
    }
  }
  return toks;
}

// ---- annotations ----

constexpr std::string_view kGuardedMarker = "scup-guarded-by:";
constexpr std::string_view kSanitizeMarker = "scup-sanitize:";
constexpr std::string_view kAnalyzeMarker = "scup-analyze:";

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// First identifier-shaped word at/after `pos` (hyphens allowed, for the
/// scup-analyze form names).
std::string word_after(const std::string& s, std::size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  std::size_t e = pos;
  while (e < s.size() && (ident_char(s[e]) || s[e] == '-')) ++e;
  return s.substr(pos, e - pos);
}

void bad_annotation(TU& out, std::size_t line, const std::string& what) {
  out.parse_findings.push_back(Finding{
      out.path, line, std::string(kRuleUnknownAnnotation),
      "malformed scup-analyze annotation: " + what});
}

void parse_comment_annotations(const std::string& comment, std::size_t line,
                               TU& out) {
  std::size_t pos;
  if ((pos = comment.find(kGuardedMarker)) != std::string::npos) {
    const std::string mtx = word_after(comment, pos + kGuardedMarker.size());
    if (!mtx.empty() && mtx.find('-') == std::string::npos) {
      out.annotations.push_back(Annotation{AnnKind::kGuardedBy, mtx, line});
    } else {
      bad_annotation(out, line, "scup-guarded-by expects a mutex identifier");
    }
  }
  if ((pos = comment.find(kSanitizeMarker)) != std::string::npos) {
    const std::string reason =
        trim(std::string_view(comment).substr(pos + kSanitizeMarker.size()));
    if (!reason.empty()) {
      out.annotations.push_back(Annotation{AnnKind::kSanitize, reason, line});
    } else {
      bad_annotation(out, line, "scup-sanitize requires a reason");
    }
  }
  pos = comment.find(kAnalyzeMarker);
  while (pos != std::string::npos) {
    const std::string name = word_after(comment, pos + kAnalyzeMarker.size());
    // Require a non-empty, paren-balanced argument (the mutex).
    std::string value;
    bool ok = name == "requires-lock";
    if (ok) {
      std::size_t i = comment.find(name, pos) + name.size();
      while (i < comment.size() &&
             std::isspace(static_cast<unsigned char>(comment[i])) != 0) {
        ++i;
      }
      if (i >= comment.size() || comment[i] != '(') {
        ok = false;
      } else {
        int depth = 0;
        std::size_t k = i;
        for (; k < comment.size(); ++k) {
          if (comment[k] == '(') ++depth;
          if (comment[k] == ')' && --depth == 0) break;
        }
        ok = depth == 0 && k > i + 1;
        if (ok) value = trim(comment.substr(i + 1, k - i - 1));
      }
    }
    if (ok) {
      // The argument names a mutex; it must be identifier-shaped.
      for (char c : value) ok = ok && ident_char(c);
      ok = ok && !value.empty();
    }
    if (ok) {
      out.annotations.push_back(
          Annotation{AnnKind::kRequiresLock, value, line});
    } else {
      bad_annotation(out, line,
                     "'" + name +
                         "' (expected requires-lock with a non-empty "
                         "parenthesized mutex name)");
    }
    pos = comment.find(kAnalyzeMarker, pos + kAnalyzeMarker.size());
  }
}

// ---- parser ----

bool is_keyword(const std::string& s) {
  static const std::unordered_set<std::string> kKw = {
      "alignas",   "alignof",  "auto",      "bool",         "break",
      "case",      "catch",    "char",      "class",        "const",
      "constexpr", "consteval","constinit", "continue",     "decltype",
      "default",   "delete",   "do",        "double",       "else",
      "enum",      "explicit", "extern",    "false",        "final",
      "float",     "for",      "friend",    "goto",         "if",
      "inline",    "int",      "long",      "mutable",      "namespace",
      "new",       "noexcept", "nullptr",   "operator",     "override",
      "private",   "protected","public",    "register",     "return",
      "short",     "signed",   "sizeof",    "static",       "struct",
      "switch",    "template", "this",      "thread_local", "throw",
      "true",      "try",      "typedef",   "typeid",       "typename",
      "union",     "unsigned", "using",     "virtual",      "void",
      "volatile",  "while",
  };
  return kKw.count(s) != 0;
}

bool analyzable_ident(const Tok& t) { return t.ident && !is_keyword(t.text); }

enum class ScopeKind { kNamespace, kClass, kFunction, kBlock, kOther };

struct Scope {
  ScopeKind kind;
  std::string name;
};

struct Parser {
  TU& out;
  std::vector<Scope> stack;
  std::vector<Tok> decl;
  int dparen = 0;
  FunctionSym* fn = nullptr;  ///< innermost open function, if any

  explicit Parser(TU& tu) : out(tu) {
    stack.push_back(Scope{ScopeKind::kNamespace, ""});
  }

  bool in_function() const { return fn != nullptr; }

  std::string enclosing_class() const {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == ScopeKind::kClass) return it->name;
    }
    return "";
  }

  /// Leading `else` / `do` are control glue, not statement content.
  static std::size_t stmt_start(const std::vector<Tok>& toks) {
    std::size_t b = 0;
    while (b < toks.size() &&
           (toks[b].text == "else" || toks[b].text == "do")) {
      ++b;
    }
    return b;
  }

  static bool contains(const std::vector<Tok>& toks, std::string_view w) {
    for (const Tok& t : toks) {
      if (t.text == w) return true;
    }
    return false;
  }

  /// Index of the first '(' at declaration paren-depth 0, or npos.
  static std::size_t top_level_paren(const std::vector<Tok>& toks) {
    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "(") {
        if (depth == 0) return i;
        ++depth;
      } else if (toks[i].text == ")") {
        --depth;
      }
    }
    return std::string::npos;
  }

  static bool has_top_level_eq(const std::vector<Tok>& toks) {
    int depth = 0;
    for (const Tok& t : toks) {
      if (t.text == "(" || t.text == "[") ++depth;
      if (t.text == ")" || t.text == "]") --depth;
      if (depth == 0 && t.text == "=") return true;
    }
    return false;
  }

  bool is_cond_header() const {
    const std::size_t b = stmt_start(decl);
    if (b >= decl.size()) return false;
    const std::string& t = decl[b].text;
    return t == "if" || t == "for" || t == "while" || t == "switch";
  }

  // -- statements --

  void flush_stmt(bool condition) {
    if (!in_function()) {
      decl.clear();
      return;
    }
    const std::size_t b = stmt_start(decl);
    if (b >= decl.size()) {
      decl.clear();
      return;
    }
    Stmt s;
    s.toks.assign(decl.begin() + static_cast<std::ptrdiff_t>(b), decl.end());
    s.first_line = s.toks.front().line;
    s.last_line = s.toks.back().line;
    s.is_condition = condition;
    const std::string& head = s.toks.front().text;
    s.is_loop = condition && (head == "for" || head == "while");
    if (s.is_loop && head == "for") {
      // A for header with a top-level ':' (not '::') is a range-for.
      for (const Tok& t : s.toks) {
        if (t.text == ":") {
          s.is_range_for = true;
          break;
        }
      }
    }
    // Mutex-name candidates: a statement that constructs a scoped lock
    // names the mutex it covers somewhere in the same statement.
    if (contains(s.toks, "lock_guard") || contains(s.toks, "unique_lock") ||
        contains(s.toks, "scoped_lock") || contains(s.toks, "shared_lock")) {
      for (const Tok& t : s.toks) {
        if (analyzable_ident(t)) fn->locked_tokens.push_back(t.text);
      }
    }
    collect_calls(s, fn->stmts.size());
    fn->stmts.push_back(std::move(s));
    decl.clear();
  }

  /// Call sites in one statement: `f(`, `x.f(`, `x->f(`, `Cls::f(`.
  void collect_calls(const Stmt& s, std::size_t stmt_idx) {
    const std::vector<Tok>& t = s.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!analyzable_ident(t[i]) || t[i + 1].text != "(") continue;
      CallSite c;
      c.name = t[i].text;
      c.line = t[i].line;
      c.stmt = stmt_idx;
      if (i >= 2 && t[i - 1].text == "::" && t[i - 2].ident) {
        c.qual_class = t[i - 2].text;
      } else if (i >= 2 &&
                 (t[i - 1].text == "." || t[i - 1].text == "->") &&
                 t[i - 2].ident) {
        c.receiver = t[i - 2].text;
      }
      // Argument identifiers, split at top-level commas.
      int depth = 0;
      std::vector<std::string> arg;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") {
          ++depth;
          continue;
        }
        if (t[j].text == ")") {
          if (--depth == 0) {
            c.args.push_back(std::move(arg));
            break;
          }
          continue;
        }
        if (depth == 1 && t[j].text == ",") {
          c.args.push_back(std::move(arg));
          arg.clear();
          continue;
        }
        if (depth >= 1 && analyzable_ident(t[j])) arg.push_back(t[j].text);
      }
      if (c.args.size() == 1 && c.args.front().empty()) c.args.clear();
      fn->calls.push_back(std::move(c));
    }
  }

  // -- declarations --

  /// Field/variable recovery from a declaration ending in ';' (or cut at a
  /// brace initializer). Method declarations and type aliases are skipped.
  void record_field(const std::string& cls) {
    const std::vector<Tok>& d = decl;
    if (d.empty()) return;
    for (const Tok& t : d) {
      const std::string& x = t.text;
      if (x == "using" || x == "typedef" || x == "friend" || x == "operator" ||
          x == "static_assert" || x == "enum" || x == "class" ||
          x == "struct" || x == "union" || x == "namespace" || x == "~") {
        return;
      }
    }
    std::string name;
    if (has_top_level_eq(d)) {
      // `T x = init;` — but skip `= default/delete/0` method forms.
      int depth = 0;
      std::size_t eq = d.size();
      for (std::size_t i = 0; i < d.size(); ++i) {
        if (d[i].text == "(" || d[i].text == "[") ++depth;
        if (d[i].text == ")" || d[i].text == "]") --depth;
        if (depth == 0 && d[i].text == "=") {
          eq = i;
          break;
        }
      }
      // `= default/delete/0` method forms all carry a parameter list;
      // `int x_ = 0;` does not and is a real field.
      if (eq + 1 < d.size() && contains(d, "(") &&
          (d[eq + 1].text == "default" || d[eq + 1].text == "delete" ||
           d[eq + 1].text == "0")) {
        return;
      }
      for (std::size_t i = eq; i-- > 0;) {
        if (analyzable_ident(d[i])) {
          name = d[i].text;
          break;
        }
      }
    } else if (top_level_paren(d) == std::string::npos &&
               !contains(d, "(")) {
      // `T x;` — plain declaration, no parens anywhere.
      for (std::size_t i = d.size(); i-- > 0;) {
        if (analyzable_ident(d[i])) {
          name = d[i].text;
          break;
        }
      }
    } else {
      // Parens present: a method declaration ends in ')' or a qualifier;
      // a field of callable/template type still ends in its own name
      // (`std::function<void()> cb_;`).
      const Tok& last = d.back();
      if (!analyzable_ident(last)) return;
      name = last.text;
    }
    if (name.empty() || is_keyword(name)) return;
    FieldSym f;
    f.cls = cls;
    f.name = name;
    f.file = out.path;
    f.line = d.front().line;
    out.fields.push_back(std::move(f));
  }

  // -- scope transitions --

  void classify_open_brace(std::size_t line) {
    if (in_function()) {
      flush_stmt(false);
      stack.push_back(Scope{ScopeKind::kBlock, ""});
      return;
    }
    if (contains(decl, "namespace")) {
      std::string name;
      for (std::size_t i = decl.size(); i-- > 0;) {
        if (analyzable_ident(decl[i])) {
          name = decl[i].text;
          break;
        }
      }
      stack.push_back(Scope{ScopeKind::kNamespace, name});
      decl.clear();
      return;
    }
    if (contains(decl, "enum")) {
      stack.push_back(Scope{ScopeKind::kOther, ""});
      decl.clear();
      return;
    }
    // class/struct keyword before any paren opens a class scope.
    std::size_t kw = decl.size();
    for (std::size_t i = 0; i < decl.size(); ++i) {
      if (decl[i].text == "(") break;
      if (decl[i].text == "class" || decl[i].text == "struct" ||
          decl[i].text == "union") {
        kw = i;
        break;
      }
    }
    if (kw < decl.size()) {
      std::string name;
      for (std::size_t i = kw + 1; i < decl.size(); ++i) {
        if (decl[i].text == ":") break;
        if (analyzable_ident(decl[i]) && decl[i].text != "final" &&
            decl[i].text != "alignas") {
          name = decl[i].text;
          break;
        }
      }
      stack.push_back(Scope{ScopeKind::kClass, name});
      decl.clear();
      return;
    }
    const std::size_t paren = top_level_paren(decl);
    if (paren != std::string::npos && !has_top_level_eq_before(paren)) {
      open_function(paren, line);
      decl.clear();
      return;
    }
    // Brace initializer or other unclassified brace: record the variable
    // (class fields with brace init would otherwise vanish), then swallow.
    const Scope& top = stack.back();
    if (top.kind == ScopeKind::kClass) {
      record_field(top.name);
    } else if (top.kind == ScopeKind::kNamespace) {
      record_field("");
    }
    stack.push_back(Scope{ScopeKind::kOther, ""});
    decl.clear();
  }

  bool has_top_level_eq_before(std::size_t end) const {
    for (std::size_t i = 0; i < end && i < decl.size(); ++i) {
      if (decl[i].text == "=") return true;
    }
    return false;
  }

  void open_function(std::size_t paren, std::size_t line) {
    FunctionSym f;
    f.file = out.path;
    f.line = decl.front().line;
    f.body_begin = line;
    // Name: the identifier immediately before the top-level '('
    // (destructors keep their '~'; operators collapse to "operator").
    if (contains(decl, "operator")) {
      f.name = "operator";
    } else if (paren >= 1 && decl[paren - 1].ident) {
      f.name = decl[paren - 1].text;
      if (paren >= 2 && decl[paren - 2].text == "~") f.name = "~" + f.name;
      if (paren >= 3 && decl[paren - 2].text == "::" &&
          decl[paren - 3].ident) {
        f.cls = decl[paren - 3].text;
        if (paren >= 4 && decl[paren - 4].text == "~") {
          // `~Cls::f` cannot happen; `Cls::~Cls(` has '~' after '::'.
          f.cls = decl[paren - 4].text;
        }
      }
      if (paren >= 2 && decl[paren - 2].text == "~" && paren >= 4 &&
          decl[paren - 3].text == "::" && decl[paren - 4].ident) {
        f.cls = decl[paren - 4].text;
      }
    }
    if (f.cls.empty()) f.cls = enclosing_class();
    if (f.name.empty() || is_keyword(f.name)) f.name = "<anon>";
    // Parameter names: last identifier of each top-level comma chunk
    // (cut at default arguments).
    int depth = 0;
    std::vector<Tok> chunk;
    auto flush_param = [&] {
      std::size_t stop = chunk.size();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i].text == "=") {
          stop = i;
          break;
        }
      }
      for (std::size_t i = stop; i-- > 0;) {
        if (analyzable_ident(chunk[i])) {
          f.params.push_back(chunk[i].text);
          return;
        }
      }
    };
    for (std::size_t i = paren; i < decl.size(); ++i) {
      if (decl[i].text == "(") {
        if (++depth == 1) continue;
      } else if (decl[i].text == ")") {
        if (--depth == 0) {
          if (!chunk.empty()) flush_param();
          break;
        }
      } else if (depth == 1 && decl[i].text == ",") {
        flush_param();
        chunk.clear();
        continue;
      }
      if (depth >= 1) chunk.push_back(decl[i]);
    }
    out.functions.push_back(std::move(f));
    stack.push_back(Scope{ScopeKind::kFunction, out.functions.back().name});
    fn = &out.functions.back();
  }

  void close_scope(std::size_t line) {
    flush_stmt(false);
    if (stack.size() <= 1) return;  // stray brace; keep the global frame
    const ScopeKind k = stack.back().kind;
    stack.pop_back();
    if (k == ScopeKind::kFunction) {
      fn->body_end = line;
      fn = nullptr;
      // Re-open the lexically-enclosing function if we were nested (local
      // classes inside functions never define further functions here, so
      // find the innermost Function frame's symbol by body range).
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind == ScopeKind::kFunction) {
          for (FunctionSym& g : out.functions) {
            if (g.body_end == 0 && g.name == it->name) fn = &g;
          }
          break;
        }
      }
    }
  }

  void run(const std::vector<Tok>& toks) {
    int angle_skip = 0;       // template<...> header depth
    bool await_angle = false;
    for (const Tok& t : toks) {
      if (await_angle) {
        if (t.text == "<") {
          angle_skip = 1;
          await_angle = false;
        } else {
          await_angle = false;  // `template` not followed by '<'
        }
        continue;
      }
      if (angle_skip > 0) {
        if (t.text == "<") ++angle_skip;
        if (t.text == ">") --angle_skip;
        continue;
      }
      if (t.text == "template" && decl.empty()) {
        await_angle = true;
        continue;
      }
      if (t.text == "(") {
        decl.push_back(t);
        ++dparen;
        continue;
      }
      if (t.text == ")") {
        decl.push_back(t);
        --dparen;
        if (dparen == 0 && in_function() && is_cond_header()) {
          flush_stmt(true);
        }
        continue;
      }
      if (dparen == 0 && t.text == "{") {
        classify_open_brace(t.line);
        dparen = 0;
        continue;
      }
      if (dparen == 0 && t.text == "}") {
        close_scope(t.line);
        decl.clear();
        dparen = 0;
        continue;
      }
      if (dparen == 0 && t.text == ";") {
        if (in_function()) {
          flush_stmt(false);
        } else {
          const Scope& top = stack.back();
          if (top.kind == ScopeKind::kClass) {
            record_field(top.name);
          } else if (top.kind == ScopeKind::kNamespace) {
            record_field("");
          }
          decl.clear();
        }
        continue;
      }
      if (dparen == 0 && t.text == ":" && decl.size() == 1 &&
          (decl[0].text == "public" || decl[0].text == "private" ||
           decl[0].text == "protected")) {
        decl.clear();
        continue;
      }
      decl.push_back(t);
    }
  }
};

/// Extend an annotation's binding range from its first code line through
/// the end of that statement (first line containing one of ; { }).
void bind_annotation_ranges(const std::vector<ScannedLine>& lines, TU& out) {
  auto has_code = [&](std::size_t line) {
    const std::string& c = lines[line - 1].code;
    return c.find_first_not_of(" \t") != std::string::npos;
  };
  auto ends_stmt = [&](std::size_t line) {
    const std::string& c = lines[line - 1].code;
    return c.find_first_of(";{}") != std::string::npos;
  };
  for (Annotation& a : out.annotations) {
    std::size_t line = a.comment_line;
    while (line <= lines.size() && !has_code(line)) ++line;
    if (line > lines.size()) {
      a.applies_begin = a.applies_end = 0;
      continue;
    }
    a.applies_begin = line;
    while (line < lines.size() && !ends_stmt(line)) ++line;
    a.applies_end = line;
  }
}

/// Attach parsed annotations to the functions, fields and statements they
/// cover. Unbound annotations keep consumed=false and surface as stale.
void bind_annotations(TU& out) {
  for (std::size_t ai = 0; ai < out.annotations.size(); ++ai) {
    Annotation& a = out.annotations[ai];
    if (a.applies_begin == 0) continue;
    switch (a.kind) {
      case AnnKind::kGuardedBy: {
        bool bound = false;
        for (FieldSym& f : out.fields) {
          if (f.line >= a.applies_begin && f.line <= a.applies_end) {
            f.guarded_by = a.value;
            f.guarded_ann = static_cast<int>(ai);
            bound = true;
            break;
          }
        }
        if (bound) break;
        // guarded-by may also cover a function-local declaration
        // (statics in accessors; parallel_cells' error slot).
        for (FunctionSym& f : out.functions) {
          for (const Stmt& s : f.stmts) {
            if (s.first_line > a.applies_end || s.last_line < a.applies_begin) {
              continue;
            }
            std::string name;
            std::size_t stop = s.toks.size();
            for (std::size_t i = 0; i < s.toks.size(); ++i) {
              if (s.toks[i].text == "=" || s.toks[i].text == "(") {
                stop = i;
                break;
              }
            }
            for (std::size_t i = stop; i-- > 0;) {
              if (analyzable_ident(s.toks[i])) {
                name = s.toks[i].text;
                break;
              }
            }
            if (name.empty()) continue;
            FieldSym local;
            local.func = f.name;
            local.name = name;
            local.file = out.path;
            local.line = s.first_line;
            local.guarded_by = a.value;
            local.guarded_ann = static_cast<int>(ai);
            out.fields.push_back(std::move(local));
            bound = true;
            break;
          }
          if (bound) break;
        }
        break;
      }
      case AnnKind::kSanitize: {
        for (FunctionSym& f : out.functions) {
          for (Stmt& s : f.stmts) {
            if (s.first_line <= a.applies_end &&
                s.last_line >= a.applies_begin && s.sanitize_ann < 0) {
              s.sanitize_ann = static_cast<int>(ai);
              goto bound_sanitize;
            }
          }
        }
      bound_sanitize:
        break;
      }
      case AnnKind::kRequiresLock: {
        FunctionSym* best = nullptr;
        for (FunctionSym& f : out.functions) {
          if (f.line >= a.applies_begin && f.line <= a.applies_end &&
              (best == nullptr || f.line < best->line)) {
            best = &f;
          }
        }
        if (best == nullptr) break;
        best->requires_locks.push_back(a.value);
        best->requires_lock_anns.push_back(static_cast<int>(ai));
        break;
      }
    }
  }
}

}  // namespace

TU parse_tu(const std::string& rel_path, const std::string& content) {
  TU out;
  out.path = rel_path;
  const std::vector<ScannedLine> lines = scup::lint::scan_source(content);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].comment.empty()) {
      parse_comment_annotations(lines[i].comment, i + 1, out);
    }
  }
  Parser p(out);
  p.run(tokenize(lines));
  bind_annotation_ranges(lines, out);
  bind_annotations(out);
  return out;
}

bool is_analyzable_ident_token(const Tok& t) { return analyzable_ident(t); }

bool is_cpp_keyword(const std::string& s) { return is_keyword(s); }

}  // namespace scup::analyze
