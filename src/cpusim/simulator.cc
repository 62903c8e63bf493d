#include "src/cpusim/simulator.h"

#include <algorithm>

namespace papd {

void Simulator::AddPeriodic(Seconds period_s, std::function<void(Seconds)> fn,
                            Seconds first_at_s) {
  PAPD_CHECK(period_s > Seconds{0.0}) << "periodic callback period must be positive, got"
                                      << period_s;
  Periodic p;
  p.period_s = period_s;
  p.next_due_s = first_at_s >= Seconds{0.0} ? first_at_s : package_->now() + period_s;
  p.fn = std::move(fn);
  next_due_s_ = std::min(next_due_s_, p.next_due_s);
  periodics_.push_back(std::move(p));
}

void Simulator::StepOnce() {
  package_->Tick(tick_s_);
  const Seconds now{package_->now()};
  if (now + Seconds{1e-12} >= next_due_s_) {
    FirePeriodics(now);
  }
}

void Simulator::FirePeriodics(Seconds now) {
  Seconds next{kNeverDue};
  for (Periodic& p : periodics_) {
    // A long tick may cross several due times; fire once per crossing so
    // period accounting stays exact.
    while (p.next_due_s <= now + Seconds{1e-12}) {
      p.fn(now);
      p.next_due_s += p.period_s;
    }
    next = std::min(next, p.next_due_s);
  }
  next_due_s_ = next;
}

void Simulator::Run(Seconds duration_s) {
  const Seconds end{package_->now() + duration_s};
  while (package_->now() + Seconds{1e-12} < end) {
    StepOnce();
  }
}

// PAPD_HOT
void Simulator::RunCoarse(Seconds duration_s) {
  const Seconds end{package_->now() + duration_s};
  while (package_->now() + Seconds{1e-12} < end) {
    // A segment may run at most to the window end or the next periodic due
    // time, whichever is sooner; like StepOnce it may overshoot the bound
    // by a fraction of one tick when the bound is tick-misaligned.
    const Seconds bound{std::min(end, next_due_s_)};
    const double remaining_ticks = (bound - package_->now()) / tick_s_;
    const int max_ticks =
        remaining_ticks >= 2.0
            ? static_cast<int>(std::min(remaining_ticks + 0.5,
                                        static_cast<double>(std::numeric_limits<int>::max())))
            : 0;
    int advanced = 0;
    if (max_ticks >= 2) {
      advanced = package_->AdvanceSteady(tick_s_, max_ticks);
    }
    if (advanced == 0) {
      package_->Tick(tick_s_);
    }
    const Seconds now{package_->now()};
    if (now + Seconds{1e-12} >= next_due_s_) {
      FirePeriodics(now);
    }
  }
}

}  // namespace papd
