// Fixture: perf-hot-alloc must fire on make_shared and `new` inside the
// per-delivery handler bodies (on_message / handle), and stay quiet on
// allocations outside them.
#include <cstdint>
#include <memory>

using ProcessId = std::uint32_t;

struct Message {
  std::uint64_t payload = 0;
};
using MessagePtr = std::shared_ptr<const Message>;

struct Node {
  void on_message(ProcessId from, const MessagePtr& msg) {
    auto echo = std::make_shared<const Message>(*msg);
    auto* scratch = new std::uint64_t[4];
    scratch[0] = from + echo->payload;
    delete[] scratch;
  }

  bool handle(ProcessId from, const Message& msg) {
    last_ = new Message{msg.payload + from};
    return true;
  }

  Message* last_ = nullptr;
};

// Allocations outside handler bodies are not this rule's business: cold
// setup paths may heap-allocate freely.
inline MessagePtr make_cold() { return std::make_shared<const Message>(); }
