// byz-taint: interprocedural Byzantine-input taint.
//
// Seeds: every parameter of a message handler (handle, handle_*,
// on_message) is attacker-influenced. Propagation: identifier-granular
// through assignments (strong update), range-for bindings, and call
// arguments via per-function summaries. Sinks: operator[] on a
// member-shaped container, growth calls (insert/emplace/push_back/...) on a
// member, narrowing static_cast, non-range loop bounds, and arguments to
// functions whose summary says that parameter reaches a sink. Sanitizers:
// a branch condition that *checks* the value (comparison operand or
// argument of a validating call — cast-like calls are stripped first so
// neither `dynamic_cast<...>(&msg)` nor the `sim::message_as<...>(&msg)`
// type test launders msg), std::min/max/clamp on
// assignment, or an explicit `// scup-sanitize: <reason>`.
//
// Summaries (FunctionSym::sink_params, bit i = parameter i reaches a sink)
// are computed to fixpoint over the call graph, so a handler passing a
// message field two helpers deep into a map subscript is still caught —
// the class of bug scup-lint's lexical byz-unbounded-map could not see.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyze_internal.hpp"

namespace scup::analyze {

namespace {

using TaintMap = std::unordered_map<std::string, std::uint32_t>;

const std::unordered_set<std::string>& grow_calls() {
  static const std::unordered_set<std::string> kGrow = {
      "insert",       "emplace",     "try_emplace", "emplace_back",
      "push_back",    "resize",      "reserve",     "insert_or_assign",
  };
  return kGrow;
}

bool cast_like(const std::string& name) {
  return name == "static_cast" || name == "dynamic_cast" ||
         name == "const_cast" || name == "reinterpret_cast" ||
         name == "get_if" || name == "message_as";
}

bool comparison_op(const std::string& t) {
  return t == "==" || t == "!=" || t == "<" || t == ">" || t == "<=" ||
         t == ">=";
}

bool narrow_type_tok(const std::string& t) {
  static const std::unordered_set<std::string> kNarrow = {
      "int8_t",  "int16_t",  "int32_t", "uint8_t", "uint16_t",
      "uint32_t", "short",   "int",     "char",    "unsigned",
  };
  return kNarrow.count(t) != 0;
}

bool wide_type_tok(const std::string& t) {
  return t == "int64_t" || t == "uint64_t" || t == "size_t" || t == "long" ||
         t == "intmax_t" || t == "uintmax_t" || t == "ptrdiff_t";
}

bool member_shaped(const ProjectIndex& ix, const std::string& name) {
  if (ix.field_names.count(name) != 0) return true;
  return name.size() > 1 && name.back() == '_';
}

/// Remove cast-like subexpressions wholesale: `X_cast < ... > ( ... )`
/// including the argument, so neither the target type nor the casted
/// pointee participates in condition-sanitizing.
std::vector<Tok> strip_casts(const std::vector<Tok>& toks) {
  std::vector<Tok> out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].ident && cast_like(toks[i].text) && i + 1 < toks.size() &&
        toks[i + 1].text == "<") {
      std::size_t j = i + 1;
      int angle = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++angle;
        if (toks[j].text == ">" && --angle == 0) break;
      }
      if (j + 1 < toks.size() && toks[j + 1].text == "(") {
        int depth = 0;
        std::size_t k = j + 1;
        for (; k < toks.size(); ++k) {
          if (toks[k].text == "(") ++depth;
          if (toks[k].text == ")" && --depth == 0) break;
        }
        i = k;  // skip the whole cast expression
        continue;
      }
      i = j;
      continue;
    }
    out.push_back(toks[i]);
  }
  return out;
}

struct SinkHit {
  std::uint32_t bits = 0;
  std::string ident;  ///< a tainted identifier involved (for the message)
  std::string what;   ///< sink description
};

struct TaintEngine {
  ProjectIndex& ix;
  std::size_t cur_tu = 0;
  bool reporting = false;
  std::vector<Finding>* out = nullptr;

  std::uint32_t bits_of(const TaintMap& t, const std::string& id) const {
    const auto it = t.find(id);
    return it == t.end() ? 0u : it->second;
  }

  std::uint32_t range_bits(const TaintMap& t, const std::vector<Tok>& toks,
                           std::size_t b, std::size_t e,
                           std::string* which = nullptr) const {
    std::uint32_t bits = 0;
    for (std::size_t i = b; i < e && i < toks.size(); ++i) {
      if (!is_analyzable_ident_token(toks[i])) continue;
      const std::uint32_t x = bits_of(t, toks[i].text);
      if (x != 0 && which != nullptr && which->empty()) *which = toks[i].text;
      bits |= x;
    }
    return bits;
  }

  // ---- sinks ----

  SinkHit check_sinks(const FunctionSym& f, const Stmt& s, std::size_t si,
                      const TaintMap& taint) {
    SinkHit hit;
    const std::vector<Tok>& t = s.toks;
    // Member subscript with a tainted index.
    for (std::size_t i = 0; i + 1 < t.size() && hit.bits == 0; ++i) {
      if (!is_analyzable_ident_token(t[i]) || t[i + 1].text != "[") continue;
      if (!member_shaped(ix, t[i].text)) continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].text == "[") ++depth;
        if (t[j].text == "]" && --depth == 0) break;
      }
      // `a[x % n]` is structurally bounded — modulo is a guard, like
      // std::min/max/clamp on assignment.
      bool bounded = false;
      for (std::size_t k = i + 2; k < j; ++k) {
        if (t[k].text == "%") bounded = true;
      }
      if (bounded) continue;
      std::string which;
      const std::uint32_t bits = range_bits(taint, t, i + 2, j, &which);
      if (bits != 0) {
        hit = SinkHit{bits, which,
                      "index into member '" + t[i].text + "'"};
      }
    }
    // Growth call on a member with a tainted argument.
    for (std::size_t i = 0; i + 3 < t.size() && hit.bits == 0; ++i) {
      if (!is_analyzable_ident_token(t[i])) continue;
      if (t[i + 1].text != "." && t[i + 1].text != "->") continue;
      if (grow_calls().count(t[i + 2].text) == 0 || t[i + 3].text != "(") {
        continue;
      }
      if (!member_shaped(ix, t[i].text)) continue;
      int depth = 0;
      std::size_t j = i + 3;
      for (; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) break;
      }
      std::string which;
      const std::uint32_t bits = range_bits(taint, t, i + 4, j, &which);
      if (bits != 0) {
        hit = SinkHit{bits, which,
                      "growth call " + t[i].text + "." + t[i + 2].text +
                          "(...)"};
      }
    }
    // Narrowing static_cast of a tainted value.
    for (std::size_t i = 0; i + 1 < t.size() && hit.bits == 0; ++i) {
      if (t[i].text != "static_cast" || t[i + 1].text != "<") continue;
      int angle = 0;
      std::size_t j = i + 1;
      bool narrow = false;
      bool wide = false;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++angle;
        if (t[j].text == ">" && --angle == 0) break;
        if (narrow_type_tok(t[j].text)) narrow = true;
        if (wide_type_tok(t[j].text)) wide = true;
      }
      if (!narrow || wide || j + 1 >= t.size() || t[j + 1].text != "(") {
        continue;
      }
      int depth = 0;
      std::size_t k = j + 1;
      for (; k < t.size(); ++k) {
        if (t[k].text == "(") ++depth;
        if (t[k].text == ")" && --depth == 0) break;
      }
      std::string which;
      const std::uint32_t bits = range_bits(taint, t, j + 2, k, &which);
      if (bits != 0) hit = SinkHit{bits, which, "narrowing static_cast"};
    }
    // Loop bounded by tainted data (range-for is bounded by real payload
    // size; counted loops by an attacker-chosen number are not).
    if (hit.bits == 0 && s.is_loop && !s.is_range_for) {
      std::string which;
      const std::uint32_t bits = range_bits(taint, t, 0, t.size(), &which);
      if (bits != 0) hit = SinkHit{bits, which, "loop bound"};
    }
    // Tainted argument into a callee whose summary reaches a sink.
    if (hit.bits == 0) {
      for (const CallSite& c : f.calls) {
        if (c.stmt != si || hit.bits != 0) continue;
        for (const FnRef& r : ix.resolve(f, c)) {
          const FunctionSym& callee = ix.fn(r);
          if (callee.sink_params == 0) continue;
          for (std::size_t j = 0;
               j < c.args.size() && j < callee.params.size() && j < 32; ++j) {
            if (((callee.sink_params >> j) & 1u) == 0) continue;
            std::uint32_t bits = 0;
            std::string which;
            for (const std::string& id : c.args[j]) {
              const std::uint32_t x = bits_of(taint, id);
              if (x != 0 && which.empty()) which = id;
              bits |= x;
            }
            if (bits != 0) {
              hit = SinkHit{
                  bits, which,
                  "argument '" + callee.params[j] + "' of " +
                      (callee.cls.empty() ? "" : callee.cls + "::") +
                      callee.name + " (whose summary reaches a sink)"};
              break;
            }
          }
          if (hit.bits != 0) break;
        }
        if (hit.bits != 0) break;
      }
    }
    return hit;
  }

  // ---- sanitizing + propagation ----

  void condition_sanitize(const Stmt& s, TaintMap& taint) {
    const std::vector<Tok> toks = strip_casts(s.toks);
    std::size_t atom_begin = 0;
    auto flush_atom = [&](std::size_t e) {
      bool checks = false;
      for (std::size_t i = atom_begin; i < e; ++i) {
        if (comparison_op(toks[i].text)) checks = true;
        if (i + 1 < e && is_analyzable_ident_token(toks[i]) &&
            toks[i + 1].text == "(") {
          checks = true;  // a validating call inspects its arguments
        }
      }
      if (checks) {
        for (std::size_t i = atom_begin; i < e; ++i) {
          if (is_analyzable_ident_token(toks[i])) taint.erase(toks[i].text);
        }
      }
      atom_begin = e + 1;
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "&&" || toks[i].text == "||") flush_atom(i);
    }
    flush_atom(toks.size());
  }

  void assignment_update(const Stmt& s, TaintMap& taint) {
    // Condition headers keep their `if (...)` wrapper; unwrap it so an
    // if-init assignment (`if (auto* p = ...)`) sits at paren depth 0.
    std::vector<Tok> unwrapped;
    if (s.is_condition && s.toks.size() >= 3 && s.toks[1].text == "(" &&
        s.toks.back().text == ")") {
      unwrapped.assign(s.toks.begin() + 2, s.toks.end() - 1);
    }
    const std::vector<Tok>& t = unwrapped.empty() ? s.toks : unwrapped;
    if (s.is_range_for) {
      // `for (decl : expr)` — the bound names take the container's taint.
      std::size_t colon = t.size();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text == ":") {
          colon = i;
          break;
        }
      }
      if (colon == t.size()) return;
      const std::uint32_t bits = range_bits(taint, t, colon + 1, t.size());
      for (std::size_t i = 0; i < colon; ++i) {
        if (!is_analyzable_ident_token(t[i])) continue;
        if (bits == 0) {
          taint.erase(t[i].text);
        } else {
          taint[t[i].text] = bits;
        }
      }
      return;
    }
    // Top-level '=' (or compound assignment).
    int depth = 0;
    std::size_t eq = t.size();
    bool compound = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string& x = t[i].text;
      if (x == "(" || x == "[") ++depth;
      if (x == ")" || x == "]") --depth;
      if (depth != 0) continue;
      if (x == "=") {
        eq = i;
        break;
      }
      if (x == "+=" || x == "-=" || x == "*=" || x == "/=" || x == "%=" ||
          x == "&=" || x == "|=" || x == "^=") {
        eq = i;
        compound = true;
        break;
      }
    }
    if (eq == t.size()) return;
    std::uint32_t bits = range_bits(taint, t, eq + 1, t.size());
    // A clamped value is bounded: std::min/max/clamp on the rhs cleans it.
    for (std::size_t i = eq + 1; i < t.size(); ++i) {
      if (t[i].text == "min" || t[i].text == "max" || t[i].text == "clamp") {
        bits = 0;
        break;
      }
    }
    // Lhs: a structured binding (`auto [a, b] = ...`) taints every bound
    // name; a subscript store (`m[i] = v`) updates the container m, not
    // the index i; otherwise the last bracket-depth-0 identifier.
    std::vector<std::string> lhs;
    if (eq >= 1 && t[eq - 1].text == "]") {
      int bd = 0;
      std::size_t open = eq - 1;
      for (std::size_t i = eq; i-- > 0;) {
        if (t[i].text == "]") ++bd;
        if (t[i].text == "[" && --bd == 0) {
          open = i;
          break;
        }
      }
      const bool structured =
          open == 0 || t[open - 1].text == "auto" ||
          t[open - 1].text == "&" || t[open - 1].text == "&&";
      if (structured) {
        for (std::size_t i = open + 1; i < eq; ++i) {
          if (is_analyzable_ident_token(t[i])) lhs.push_back(t[i].text);
        }
      } else if (open >= 1 && is_analyzable_ident_token(t[open - 1])) {
        lhs.push_back(t[open - 1].text);
      }
    } else {
      int d = 0;
      for (std::size_t i = eq; i-- > 0;) {
        if (t[i].text == "]" || t[i].text == ")") ++d;
        if (t[i].text == "[" || t[i].text == "(") --d;
        if (d == 0 && is_analyzable_ident_token(t[i])) {
          lhs.push_back(t[i].text);
          break;
        }
      }
    }
    for (const std::string& l : lhs) {
      if (compound) {
        if (bits != 0) taint[l] |= bits;
      } else if (bits == 0) {
        taint.erase(l);
      } else {
        taint[l] = bits;
      }
    }
  }

  /// Run one function body under `taint`; returns the union of taint bits
  /// that reached any sink. Emits findings when reporting.
  std::uint32_t run_function(FunctionSym& f, TaintMap taint) {
    std::uint32_t hits = 0;
    for (std::size_t si = 0; si < f.stmts.size(); ++si) {
      Stmt& s = f.stmts[si];
      std::string any_tainted;
      const std::uint32_t present =
          range_bits(taint, s.toks, 0, s.toks.size(), &any_tainted);
      if (s.sanitize_ann >= 0 && present != 0) {
        ix.ann(cur_tu, s.sanitize_ann).consumed = true;
        for (const Tok& tk : s.toks) {
          if (is_analyzable_ident_token(tk)) taint.erase(tk.text);
        }
        continue;
      }
      if (present != 0) {
        const SinkHit hit = check_sinks(f, s, si, taint);
        if (hit.bits != 0) {
          hits |= hit.bits;
          if (reporting) {
            out->push_back(Finding{
                f.file, s.first_line, std::string(kRuleByzTaint),
                "handler-tainted '" + hit.ident + "' reaches " + hit.what +
                    " — bound/validate it in a branch, or annotate the "
                    "statement with `// scup-sanitize: <why>`"});
          }
        }
      }
      assignment_update(s, taint);
      if (s.is_condition) condition_sanitize(s, taint);
    }
    return hits;
  }
};

bool handler_name(const std::string& n) {
  return n == "handle" || n == "on_message" || n.rfind("handle_", 0) == 0 ||
         n.rfind("on_message_", 0) == 0;
}

}  // namespace

void run_taint(ProjectIndex& ix, std::vector<Finding>& out) {
  std::vector<TU>& tus = *ix.tus;
  TaintEngine eng{ix};
  // Phase 1: param->sink summaries to fixpoint (monotone bit growth, so
  // the cap is a safety net, not a correctness bound).
  for (int pass = 0; pass < 20; ++pass) {
    bool changed = false;
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      eng.cur_tu = ti;
      for (FunctionSym& f : tus[ti].functions) {
        if (f.params.empty()) continue;
        TaintMap seed;
        for (std::size_t i = 0; i < f.params.size() && i < 32; ++i) {
          seed[f.params[i]] |= 1u << i;
        }
        const std::uint32_t hits = eng.run_function(f, std::move(seed));
        if ((hits & ~f.sink_params) != 0) {
          f.sink_params |= hits;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  // Phase 2: report from handler seeds.
  eng.reporting = true;
  eng.out = &out;
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    eng.cur_tu = ti;
    for (FunctionSym& f : tus[ti].functions) {
      if (!handler_name(f.name) || f.params.empty()) continue;
      TaintMap seed;
      for (const std::string& p : f.params) seed[p] |= 1u;
      eng.run_function(f, std::move(seed));
    }
  }
}

}  // namespace scup::analyze
