// Scheduler dispatch order.
//
// The determinism contract says the heap dispatches in strict
// (timestamp, insertion-seq) order. The property tests drive randomized
// push/pop workloads through it and demand exactly that pop sequence;
// failures shrink to a minimal timestamp list before reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace stellar::sim {
namespace {

using Order = std::vector<std::pair<SimTime, std::uint64_t>>;

// Pops every event and returns the (at, seq) sequence.
Order drain(HeapScheduler& scheduler) {
  Order order;
  while (!scheduler.empty()) {
    const Event event = scheduler.pop();
    order.emplace_back(event.at, event.seq);
  }
  return order;
}

// Builds a heap from the timestamp list (seq = index) and returns whether
// its pop order is the strict (at, seq) order, i.e. the sorted pairs.
// Used directly by the property test and as the failing predicate for the
// shrinker.
bool popsInDispatchOrder(const std::vector<SimTime>& times) {
  HeapScheduler heap;
  Order expected;
  for (std::size_t i = 0; i < times.size(); ++i) {
    heap.push(Event{times[i], i, {}});
    expected.emplace_back(times[i], i);
  }
  std::sort(expected.begin(), expected.end());
  return drain(heap) == expected;
}

// Greedy delta-debugging shrinker: repeatedly drop elements while the
// predicate keeps failing. Returns the minimal failing list.
std::vector<SimTime> shrinkTimes(std::vector<SimTime> times,
                                 const std::function<bool(const std::vector<SimTime>&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < times.size(); ++i) {
      std::vector<SimTime> candidate = times;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(candidate)) {
        times = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return times;
}

std::string formatTimes(const std::vector<SimTime>& times) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < times.size(); ++i) {
    out << (i == 0 ? "" : ", ") << times[i];
  }
  out << "]";
  return out.str();
}

TEST(SchedulerProperty, SameTimestampPopsAreFifo) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    util::Rng rng{util::mix64(0xF1F0, trial)};
    // Draw timestamps from a tiny value set so same-timestamp collisions
    // dominate — FIFO tie-breaking is exactly what this law targets.
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 64));
    std::vector<SimTime> times;
    times.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      times.push_back(0.5 * static_cast<double>(rng.uniformInt(0, 4)));
    }
    if (!popsInDispatchOrder(times)) {
      const std::vector<SimTime> minimal = shrinkTimes(
          times, [](const std::vector<SimTime>& t) { return !popsInDispatchOrder(t); });
      FAIL() << "trial " << trial << ": pop order diverged; minimal failing input "
             << formatTimes(minimal);
    }
  }
}

TEST(SchedulerProperty, ShrinkerFindsMinimalCounterexample) {
  // Sanity-check the shrinker itself against a synthetic predicate, so a
  // real law failure reports a genuinely minimal input.
  const std::vector<SimTime> noisy{3.0, 1.0, 1.0, 2.5, 1.0, 0.0, 4.0};
  const auto atLeastThreeOnes = [](const std::vector<SimTime>& t) {
    std::size_t ones = 0;
    for (const SimTime v : t) {
      ones += v == 1.0 ? 1 : 0;
    }
    return ones >= 3;
  };
  const std::vector<SimTime> minimal = shrinkTimes(noisy, atLeastThreeOnes);
  EXPECT_EQ(minimal, (std::vector<SimTime>{1.0, 1.0, 1.0}));
}

TEST(SchedulerProperty, InterleavedPushPopAgrees) {
  // Push/pop interleavings with a monotone lower bound (the engine never
  // schedules into the past): every pop must be the (at, seq)-minimum of
  // what is pending, which a sorted reference multiset tracks.
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    util::Rng rng{util::mix64(0xBEEF, trial)};
    HeapScheduler heap;
    Order pending;
    std::uint64_t seq = 0;
    SimTime now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const bool push = heap.empty() || rng.chance(0.6);
      if (push) {
        const SimTime at = now + 0.25 * static_cast<double>(rng.uniformInt(0, 7));
        heap.push(Event{at, seq, {}});
        pending.emplace_back(at, seq);
        ++seq;
      } else {
        const auto next = std::min_element(pending.begin(), pending.end());
        const Event popped = heap.pop();
        ASSERT_EQ(std::make_pair(popped.at, popped.seq), *next) << "trial " << trial;
        pending.erase(next);
        now = popped.at;
      }
    }
  }
}

}  // namespace
}  // namespace stellar::sim
