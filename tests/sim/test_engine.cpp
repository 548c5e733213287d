// Discrete-event engine semantics: ordering, determinism, clamping, and
// window cancellation.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace stellar::sim {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine{EngineOptions{}};
  std::vector<int> order;
  engine.scheduleAt(3.0, [&] { order.push_back(3); });
  engine.scheduleAt(1.0, [&] { order.push_back(1); });
  engine.scheduleAt(2.0, [&] { order.push_back(2); });
  const double end = engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(end, 3.0);
}

TEST(SimEngine, SimultaneousEventsAreFifo) {
  SimEngine engine{EngineOptions{}};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.scheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimEngine, EventsCanScheduleMoreEvents) {
  SimEngine engine{EngineOptions{}};
  int depth = 0;
  // Self-scheduling closure: the chain lives in a std::function and each
  // link hands the engine a plain lambda that calls it.
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      engine.scheduleAfter(0.5, [&] { chain(); });
    }
  };
  engine.scheduleAt(0.0, [&] { chain(); });
  const double end = engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(end, 49.5);
}

TEST(SimEngine, PastTimesClampToNow) {
  SimEngine engine{EngineOptions{}};
  double observed = -1.0;
  engine.scheduleAt(5.0, [&] {
    engine.scheduleAt(1.0, [&] { observed = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 5.0);
}

TEST(SimEngine, NegativeDelayClampsToZero) {
  SimEngine engine{EngineOptions{}};
  double observed = -1.0;
  engine.scheduleAfter(-3.0, [&] { observed = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 0.0);
}

TEST(SimEngine, RunUntilStopsAtLimit) {
  SimEngine engine{EngineOptions{}};
  int fired = 0;
  engine.scheduleAt(1.0, [&] { ++fired; });
  engine.scheduleAt(2.0, [&] { ++fired; });
  engine.scheduleAt(10.0, [&] { ++fired; });
  engine.runUntil(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimEngine, CountsProcessedEvents) {
  SimEngine engine{EngineOptions{}};
  for (int i = 0; i < 7; ++i) {
    engine.scheduleAt(i, [] {});
  }
  engine.run();
  EXPECT_EQ(engine.eventsProcessed(), 7u);
}

TEST(SimEngine, CancelOpenWindowsFiresOutstandingCloseHandlers) {
  SimEngine engine{EngineOptions{}};
  std::vector<int> closed;
  engine.scheduleWindow(1.0, 10.0, [] {}, [&] { closed.push_back(1); });
  engine.scheduleWindow(2.0, 20.0, [] {}, [&] { closed.push_back(2); });
  engine.scheduleWindow(8.0, 9.0, [] {}, [&] { closed.push_back(3); });
  engine.runUntil(5.0);
  EXPECT_EQ(engine.openWindows(), 2u);
  engine.cancelOpenWindows();
  EXPECT_EQ(engine.openWindows(), 0u);
  // Creation order, and the never-opened window (begin 8.0) is untouched.
  EXPECT_EQ(closed, (std::vector<int>{1, 2}));
  // Resuming the run must not double-fire the cancelled close edges.
  engine.run();
  EXPECT_EQ(closed, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.openWindows(), 0u);
}

}  // namespace
}  // namespace stellar::sim
