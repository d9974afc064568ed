#include "sim/message.hpp"

#include <deque>
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
std::map<std::string, std::uint32_t>& ids_by_name() {
  // scup-lint: guarded-by(registry_mutex)
  // scup-guarded-by: registry_mutex
  static std::map<std::string, std::uint32_t> ids;
  return ids;
}
}  // namespace

std::uint32_t MessageTypeRegistry::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  auto& ids = ids_by_name();
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  auto& names = names_by_id();
  const auto id = static_cast<std::uint32_t>(names.size());
  names.push_back(name);
  ids.emplace(name, id);
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
// Reused sizing scratch: a message's first send encodes its frame here and
// keeps only the size. Capacity persists across encodes, so steady-state
// sizing of typical messages performs zero allocations.
thread_local std::vector<std::uint8_t> wire_scratch;

/// Appends msg's frame (u16 type header ++ payload) to out. The sizing path
/// and encode_frame() both write through here, so they cannot disagree.
void append_frame(const Message& msg, std::vector<std::uint8_t>& out) {
  WireWriter writer(out);
  writer.u16(msg.wire_type());
  msg.wire_encode(writer);
}
}  // namespace

Message::SendSize Message::send_size_slow() const {
  if (wire_type() == kWireTypeNone) {
    // Memoization for codec-less types (bench/test messages): one virtual
    // byte_size() per message object, a field read per later send.
    const std::size_t estimate = byte_size();
    size_cache_ = static_cast<std::uint32_t>(estimate);
    return {estimate, false, false};
  }
  wire_scratch.clear();
  append_frame(*this, wire_scratch);
  size_cache_ = static_cast<std::uint32_t>(wire_scratch.size());
  size_from_codec_ = true;
  return {size_cache_, true, true};
}

std::vector<std::uint8_t> Message::encode_frame() const {
  std::vector<std::uint8_t> frame;
  if (wire_type() != kWireTypeNone) append_frame(*this, frame);
  return frame;
}

}  // namespace scup::sim
