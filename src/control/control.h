// hpcc/control/control.h
//
// Configuration of the closed-loop adaptive control plane (DESIGN.md
// §15). Everything is OFF by default: a controller built from a
// disabled Config schedules no epoch events and touches no actuator, so
// a controller-off run is byte-identical to a build without src/control
// at all (test-enforced, control_test.cpp). Callers pass the Config to
// control::Controller explicitly.
#pragma once

#include "util/sim_time.h"

namespace hpcc::control {

struct Config {
  /// Disabled (the default) schedules nothing and actuates nothing.
  bool enabled = false;
  /// Fixed control epoch: the interval between policy evaluations.
  /// Audit rule CTRL002 flags epochs shorter than the retry backoff cap
  /// (the controller would react to transients the retry layer is still
  /// absorbing — classic control thrash).
  SimDuration epoch = msec(500);
};

}  // namespace hpcc::control
