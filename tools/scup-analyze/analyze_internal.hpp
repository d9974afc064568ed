// Internals shared between the parser (model.cpp), the linker/driver
// (project.cpp) and the rule families (taint.cpp, locks.cpp). Not
// installed; tests go through analyze.hpp.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyze.hpp"

namespace scup::analyze {

// model.cpp exports its token classifiers for the rule passes.
bool is_analyzable_ident_token(const Tok& t);
bool is_cpp_keyword(const std::string& s);

struct FnRef {
  std::size_t tu = 0;
  std::size_t fn = 0;
  bool operator==(const FnRef&) const = default;
};

struct FieldRef {
  std::size_t tu = 0;
  std::size_t idx = 0;
};

/// Project-wide linking of the per-TU models: name indices for call
/// resolution and the field universe the sink and lock rules match
/// identifiers against.
struct ProjectIndex {
  std::vector<TU>* tus = nullptr;

  /// Function name -> every definition with that name.
  std::unordered_multimap<std::string, FnRef> by_name;
  /// Names of every recovered class/namespace field ("member-shaped"
  /// identifiers, the sink receivers).
  std::unordered_set<std::string> field_names;
  /// Guarded (scup-guarded-by) symbols, in declaration order.
  std::vector<FieldRef> guarded_fields;
  /// Functions carrying requires-lock annotations.
  std::vector<FnRef> requires_lock_fns;

  FunctionSym& fn(FnRef r) { return (*tus)[r.tu].functions[r.fn]; }
  const FunctionSym& fn(FnRef r) const {
    return (*tus)[r.tu].functions[r.fn];
  }
  FieldSym& field(FieldRef r) { return (*tus)[r.tu].fields[r.idx]; }
  Annotation& ann(std::size_t tu, int idx) {
    return (*tus)[tu].annotations[static_cast<std::size_t>(idx)];
  }

  /// Name-based call resolution (see "known unsoundness" in analyze.hpp):
  /// `Cls::f` resolves exactly; `x.f` / `x->f` to every method named f;
  /// a plain `f` to same-class methods first, else every function named f.
  std::vector<FnRef> resolve(const FunctionSym& caller,
                             const CallSite& c) const;
};

ProjectIndex build_index(std::vector<TU>& tus);

// Rule families (each appends findings; the driver sorts).
void run_taint(ProjectIndex& ix, std::vector<Finding>& out);
void run_locks(ProjectIndex& ix, std::vector<Finding>& out);

}  // namespace scup::analyze
