// Pending-event scheduler for the discrete-event engine.
//
// HeapScheduler orders events by the strict total order (timestamp,
// insertion sequence) — same-timestamp events dispatch FIFO — on a binary
// heap with O(log n) push/pop. That order is the engine's determinism
// contract: a run replays bit-identically because nothing else decides
// which event fires next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"

namespace stellar::sim {

using SimTime = double;

struct Event {
  SimTime at = 0.0;
  std::uint64_t seq = 0;
  Callback cb;
};

/// Strict dispatch order: earlier timestamp first, insertion order breaking
/// ties.
[[nodiscard]] inline bool dispatchesBefore(const Event& a, const Event& b) noexcept {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  return a.seq < b.seq;
}

class HeapScheduler {
 public:
  void push(Event event);
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Next event in dispatch order; requires !empty().
  [[nodiscard]] const Event& top() const noexcept { return heap_.front(); }
  Event pop();

 private:
  std::vector<Event> heap_;
};

}  // namespace stellar::sim
