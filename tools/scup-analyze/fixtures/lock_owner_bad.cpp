// Lock ownership through a call edge: state owned by mu_ is written by a
// worker entry point directly and through a requires-lock helper it calls
// without the lock; the commit that holds the lock stays quiet.
#include <mutex>

class Engine {
 public:
  void drain(int i);
  void commit();

 private:
  void bump();
  std::mutex mu_;
  // scup-guarded-by: mu_
  long clock_sum_ = 0;
};

void Engine::drain(int i) {
  clock_sum_ += i;
  bump();
}

// scup-analyze: requires-lock(mu_)
void Engine::bump() { clock_sum_ += 1; }

void Engine::commit() {
  const std::lock_guard<std::mutex> lock(mu_);
  bump();
  clock_sum_ = 0;
}
