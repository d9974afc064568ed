// Fixture: a thread in src/sim/ escapes the serial event loop, so
// conc-raw-thread fires on the spawn and the detach; the loop writing its
// own state (sequence counter, metrics) is ordinary serial code.
#include <thread>

void escape_thread() {
  std::thread t([] {});
  t.detach();
}

void touch_loop_state(Sim& sim_) {
  sim_.next_seq_ += 1;
  sim_.metrics_.messages_sent += 1;
}
