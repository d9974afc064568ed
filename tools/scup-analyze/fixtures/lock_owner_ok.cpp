// The audited forms: a requires-lock helper reached only from callers that
// hold the mutex, and a commit that takes the lock around its own write.
#include <mutex>

class Plane {
 public:
  void drain();
  void commit();

 private:
  void stamp();
  std::mutex mu_;
  // scup-guarded-by: mu_
  long seq_counter_ = 0;
  // scup-guarded-by: mu_
  long merge_count_ = 0;
};

void Plane::drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  stamp();
}

// scup-analyze: requires-lock(mu_)
void Plane::stamp() { seq_counter_ += 1; }

void Plane::commit() {
  const std::lock_guard<std::mutex> lock(mu_);
  merge_count_ += 1;
}
