#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace stellar::sim {
namespace {

// Heap comparator: std::push_heap keeps the "largest" element at the front,
// so "larger" must mean "dispatches later".
bool dispatchesAfter(const Event& a, const Event& b) noexcept {
  return dispatchesBefore(b, a);
}

}  // namespace

void HeapScheduler::push(Event event) {
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), dispatchesAfter);
}

Event HeapScheduler::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), dispatchesAfter);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

}  // namespace stellar::sim
