// Unit tests for the discrete-time Simulator driver.

#include <gtest/gtest.h>

#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

TEST(Simulator, RunAdvancesTime) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg);
  sim.Run(Seconds{0.5});
  EXPECT_NEAR(sim.now().value(), 0.5, 1e-9);
  sim.Run(Seconds{0.25});
  EXPECT_NEAR(sim.now().value(), 0.75, 1e-9);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg);
  std::vector<Seconds> fired;
  sim.AddPeriodic(Seconds{0.1}, [&fired](Seconds now) { fired.push_back(now); });
  sim.Run(Seconds{1.0});
  ASSERT_EQ(fired.size(), 10u);
  EXPECT_NEAR(fired[0].value(), 0.1, 1e-6);
  EXPECT_NEAR(fired[9].value(), 1.0, 1e-6);
}

TEST(Simulator, PeriodicFirstAtOverride) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg);
  std::vector<Seconds> fired;
  sim.AddPeriodic(Seconds{1.0}, [&fired](Seconds now) { fired.push_back(now); },
                  /*first_at_s=*/Seconds{0.25});
  sim.Run(Seconds{2.5});
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_NEAR(fired[0].value(), 0.25, 1e-6);
  EXPECT_NEAR(fired[1].value(), 1.25, 1e-6);
}

TEST(Simulator, MultiplePeriodicsFireInRegistrationOrder) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg);
  std::vector<int> order;
  sim.AddPeriodic(Seconds{0.5}, [&order](Seconds) { order.push_back(1); });
  sim.AddPeriodic(Seconds{0.5}, [&order](Seconds) { order.push_back(2); });
  sim.Run(Seconds{0.5});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Simulator, CustomTickSize) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg, /*tick_s=*/Seconds{0.01});
  std::vector<Seconds> fired;
  sim.AddPeriodic(Seconds{0.1}, [&fired](Seconds now) { fired.push_back(now); });
  sim.Run(Seconds{0.3});
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, LongTickCrossesMultipleDueTimes) {
  Package pkg(SkylakeXeon4114());
  Simulator sim(&pkg, /*tick_s=*/Seconds{1.0});  // Tick longer than the period.
  int count = 0;
  sim.AddPeriodic(Seconds{0.25}, [&count](Seconds) { count++; });
  sim.Run(Seconds{1.0});
  EXPECT_EQ(count, 4);  // Fires once per crossed due time.
}

// A non-positive tick or period would never advance past a due time, so the
// simulator refuses both instead of spinning.
TEST(SimulatorDeathTest, RejectsNonPositiveTickAndPeriod) {
  Package pkg(SkylakeXeon4114());
  EXPECT_DEATH({ Simulator bad(&pkg, Seconds{0.0}); }, "tick must be positive");
  Simulator sim(&pkg);
  EXPECT_DEATH(sim.AddPeriodic(Seconds{0.0}, [](Seconds) {}), "period must be positive");
  EXPECT_DEATH(sim.AddPeriodic(Seconds{-1.0}, [](Seconds) {}), "period must be positive");
}

}  // namespace
}  // namespace papd
