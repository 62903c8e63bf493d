// Discrete-time simulation driver.
//
// Advances a Package in fixed ticks (default 1 ms, the time scale on which
// RAPL firmware acts) and fires registered periodic callbacks — most
// importantly the policy daemon, which the paper runs at a 1-second period.
//
// The tick loop is the hottest path in the repository (a full reproduction
// sweep executes hundreds of millions of ticks), so the periodic-callback
// scan is hoisted behind a precomputed next-due time: a tick that crosses
// no callback deadline costs one comparison, not a walk over the callback
// list with a std::function dispatch check per entry.

#ifndef SRC_CPUSIM_SIMULATOR_H_
#define SRC_CPUSIM_SIMULATOR_H_

#include <functional>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/cpusim/package.h"

namespace papd {

class Simulator {
 public:
  // The simulator borrows the package; the caller keeps ownership.  The tick
  // must be positive (PAPD_CHECKed): a non-positive tick never advances time.
  explicit Simulator(Package* package, Seconds tick_s = Seconds{0.001})
      : package_(package), tick_s_(tick_s) {
    PAPD_CHECK(tick_s_ > Seconds{0.0}) << "Simulator tick must be positive, got" << tick_s_;
  }

  Package& package() { return *package_; }
  Seconds now() const { return package_->now(); }
  Seconds tick_s() const { return tick_s_; }

  // Registers a callback fired every `period_s`, first at `first_at_s`
  // (defaults to one period in).  Callbacks run after the tick that crosses
  // their due time, in registration order.  The period must be positive
  // (PAPD_CHECKed): a non-positive one would never move past the current
  // time, and the tick that crossed it would fire the callback forever.
  void AddPeriodic(Seconds period_s, std::function<void(Seconds now)> fn,
                   Seconds first_at_s = Seconds{-1.0});

  // Runs for `duration_s` of simulated time.
  void Run(Seconds duration_s);

  // Like Run(), but advances through Package::AdvanceSteady segments when
  // the package can hold the whole socket, falling back to single ticks
  // otherwise.  Segments never cross a periodic-callback due time, so
  // callbacks fire exactly as they would under Run().  Time/energy advance
  // bit-identically to Run() only while every tick in a segment would have
  // been a fast tick (see AdvanceSteady); callers gate this behind
  // TickOptions::socket_hold.
  void RunCoarse(Seconds duration_s);

 private:
  struct Periodic {
    Seconds period_s;
    Seconds next_due_s;
    std::function<void(Seconds)> fn;
  };

  static constexpr Seconds kNeverDue{Seconds{std::numeric_limits<double>::infinity()}};

  void StepOnce();
  // Fires every periodic whose due time has been crossed and recomputes
  // next_due_s_.  Out of line: StepOnce inlines to tick + one compare.
  void FirePeriodics(Seconds now);

  Package* package_;
  Seconds tick_s_;
  std::vector<Periodic> periodics_;
  // Minimum of periodics_[i].next_due_s; kNeverDue when none registered.
  Seconds next_due_s_{kNeverDue};
};

}  // namespace papd

#endif  // SRC_CPUSIM_SIMULATOR_H_
