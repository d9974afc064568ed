// Meta rules: an annotation no rule consumed is dead weight the next
// reader will trust wrongly, and malformed forms must be flagged.
#include <map>

class Quiet {
 public:
  bool handle(unsigned from, unsigned slot);

 private:
  std::map<unsigned, unsigned> table_;
};

bool Quiet::handle(unsigned from, unsigned slot) {
  if (from == 0 || slot > 8) {
    return false;
  }
  // scup-sanitize: nothing is tainted here any more, so this is stale
  table_[from] = slot;
  return true;
}

// scup-guarded-by: not-a-mutex
// scup-analyze: requires-lock
int no_reason_forms_ = 0;
