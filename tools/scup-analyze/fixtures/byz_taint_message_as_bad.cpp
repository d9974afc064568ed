// sim::message_as in a branch condition is a type test, not a value check:
// like dynamic_cast, it must not launder the message it routes.
#include <map>

namespace sim {
struct Message {
  virtual ~Message() = default;
};
template <typename T>
const T* message_as(const Message* m);
}  // namespace sim

struct Slotted final : sim::Message {
  unsigned slot = 0;
};

class Book {
 public:
  void handle(const sim::Message& msg);

 private:
  std::map<unsigned, int> slots_;
};

void Book::handle(const sim::Message& msg) {
  if (const auto* s = sim::message_as<Slotted>(&msg)) {
    slots_[s->slot] = 1;
  }
}
