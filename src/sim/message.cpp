#include "sim/message.hpp"

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>

#include "sim/wire.hpp"

namespace scup::sim {

namespace {
// The registry is process-wide shared state; the ScenarioMatrix runner
// interns from several simulation threads at once, so it is guarded by a
// mutex. Names live in a deque because name_of hands out references that
// must survive later interning (deque growth never moves elements).
// Function-local statics avoid static-initialization-order issues for
// messages interned during other globals' construction.
std::mutex& registry_mutex() {
  // scup-lint: thread-safe(a mutex is its own synchronization)
  static std::mutex mutex;
  return mutex;
}
// scup-analyze: requires-lock(registry_mutex)
std::deque<std::string>& names_by_id() {
  // scup-lint: guarded-by(registry_mutex)
  // scup-guarded-by: registry_mutex
  static std::deque<std::string> names;
  return names;
}
// scup-analyze: requires-lock(registry_mutex)
std::map<std::string, std::uint32_t, std::less<>>& ids_by_name() {
  // scup-lint: guarded-by(registry_mutex)
  // scup-guarded-by: registry_mutex
  static std::map<std::string, std::uint32_t, std::less<>> ids;
  return ids;
}
}  // namespace

std::uint32_t MessageTypeRegistry::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  // The transparent comparator looks the view up as is: a hit builds no
  // string.
  auto& ids = ids_by_name();
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  auto& names = names_by_id();
  const auto id = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  ids.emplace(names.back(), id);
  return id;
}

const std::string& MessageTypeRegistry::name_of(std::uint32_t id) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto& names = names_by_id();
  if (id >= names.size()) {
    throw std::out_of_range("MessageTypeRegistry::name_of: unknown id " +
                            std::to_string(id));
  }
  return names[id];
}

std::size_t MessageTypeRegistry::count() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return names_by_id().size();
}

namespace {
/// Runs msg's frame (u16 type header ++ payload) through `writer`: a
/// counting writer for the sizing path, a writing one for encode_frame(),
/// so the two cannot disagree.
void put_frame(const Message& msg, WireWriter& writer) {
  writer.u16(msg.wire_type());
  msg.wire_encode(writer);
}
}  // namespace

Message::SendSize Message::send_size_slow() const {
  WireWriter counter;
  put_frame(*this, counter);
  size_cache_ = static_cast<std::uint32_t>(counter.size());
  return {size_cache_, true};
}

std::vector<std::uint8_t> Message::encode_frame() const {
  std::vector<std::uint8_t> frame;
  WireWriter writer(frame);
  put_frame(*this, writer);
  return frame;
}

}  // namespace scup::sim
