// Project linking + analysis driver: joins the per-TU models into name
// indices, runs the two rule families, then the meta pass (stale
// annotations), and renders the --dump report.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze_internal.hpp"

namespace scup::analyze {

std::vector<FnRef> ProjectIndex::resolve(const FunctionSym& caller,
                                         const CallSite& c) const {
  std::vector<FnRef> out;
  auto [lo, hi] = by_name.equal_range(c.name);
  if (!c.qual_class.empty()) {
    if (c.qual_class == "std") return out;
    for (auto it = lo; it != hi; ++it) {
      if (fn(it->second).cls == c.qual_class) out.push_back(it->second);
    }
    return out;
  }
  if (!c.receiver.empty()) {
    for (auto it = lo; it != hi; ++it) {
      if (!fn(it->second).cls.empty()) out.push_back(it->second);
    }
    return out;
  }
  // Plain name: same-class methods win; otherwise every definition.
  if (!caller.cls.empty()) {
    for (auto it = lo; it != hi; ++it) {
      if (fn(it->second).cls == caller.cls) out.push_back(it->second);
    }
    if (!out.empty()) return out;
  }
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

ProjectIndex build_index(std::vector<TU>& tus) {
  ProjectIndex ix;
  ix.tus = &tus;
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    TU& tu = tus[ti];
    for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
      FunctionSym& f = tu.functions[fi];
      ix.by_name.emplace(f.name, FnRef{ti, fi});
      if (!f.requires_locks.empty()) {
        ix.requires_lock_fns.push_back(FnRef{ti, fi});
      }
    }
    for (std::size_t di = 0; di < tu.fields.size(); ++di) {
      FieldSym& d = tu.fields[di];
      if (d.func.empty()) ix.field_names.insert(d.name);
      if (!d.guarded_by.empty()) ix.guarded_fields.push_back(FieldRef{ti, di});
    }
  }
  return ix;
}

namespace {

/// Meta pass: every annotation must have been consumed by the rule that
/// reads it, or it is dead weight the next reader will trust wrongly.
void run_stale(std::vector<TU>& tus, std::vector<Finding>& out) {
  static const char* kKindName[] = {"scup-guarded-by", "scup-sanitize",
                                    "requires-lock"};
  for (TU& tu : tus) {
    for (const Annotation& a : tu.annotations) {
      if (a.consumed) continue;
      out.push_back(Finding{
          tu.path, a.comment_line, std::string(kRuleStaleAnnotation),
          std::string(kKindName[static_cast<int>(a.kind)]) +
              " annotation not consumed by any rule — the code it "
              "describes no longer needs it; remove or rebind it"});
    }
  }
}

}  // namespace

std::vector<Finding> analyze(std::vector<TU>& tus) {
  std::vector<Finding> out;
  for (const TU& tu : tus) {
    out.insert(out.end(), tu.parse_findings.begin(), tu.parse_findings.end());
  }
  ProjectIndex ix = build_index(tus);
  run_taint(ix, out);
  run_locks(ix, out);
  run_stale(tus, out);
  scup::lint::sort_findings(out);
  return out;
}

std::string dump(const std::vector<TU>& tus) {
  std::ostringstream os;
  for (const TU& tu : tus) {
    os << "== " << tu.path << "\n";
    for (const FieldSym& d : tu.fields) {
      if (d.guarded_by.empty()) continue;
      os << "  field " << (d.cls.empty() ? d.func : d.cls) << "::" << d.name
         << " guarded-by=" << d.guarded_by << "\n";
    }
    for (const FunctionSym& f : tu.functions) {
      os << "  fn " << (f.cls.empty() ? "" : f.cls + "::") << f.name << " ("
         << f.params.size() << " params, " << f.stmts.size() << " stmts) @"
         << f.line;
      for (const std::string& m : f.requires_locks) {
        os << " requires-lock(" << m << ")";
      }
      if (f.sink_params != 0) {
        os << " sink-params{";
        bool first = true;
        for (std::size_t i = 0; i < f.params.size() && i < 32; ++i) {
          if ((f.sink_params >> i) & 1u) {
            os << (first ? "" : ",") << f.params[i];
            first = false;
          }
        }
        os << "}";
      }
      os << "\n";
      // Deduplicated callee names, so reviewers can walk the call graph.
      std::set<std::string> callees;
      for (const CallSite& c : f.calls) {
        std::string label = c.name;
        if (!c.qual_class.empty()) label = c.qual_class + "::" + label;
        if (!c.receiver.empty()) label = c.receiver + "." + label;
        callees.insert(std::move(label));
      }
      if (!callees.empty()) {
        os << "    calls:";
        for (const std::string& cs : callees) os << " " << cs;
        os << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace scup::analyze
