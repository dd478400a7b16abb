// hpcc/control/controller.h
//
// The closed-loop controller (DESIGN.md §15): the runtime half of the
// survey's *adaptive* story. PR 5's obs::Registry and PR 9's
// HealthTracker/CircuitBreaker produce the signals; this header turns
// them into actuation. A Controller registers Policy objects — each
// owns exactly one knob (prefetch depth or route preference;
// policies.h) — and evaluates all of them on a fixed control epoch,
// self-scheduled on the sim::EventQueue.
//
// Control-theory guardrails live in StepGuard and are shared by every
// numeric policy:
//  * deadband     — targets within ±deadband of the current setting are
//                   held, so sensor noise never actuates;
//  * hysteresis   — the move direction must persist for N consecutive
//                   epochs before the first step, so a boundary-sitting
//                   signal cannot oscillate the knob;
//  * bounded step — one epoch moves the setting at most max_step, so a
//                   sensor spike cannot slam an actuator end to end.
//
// Every actuation appends a ControlDecision (epoch, sim time, sensor
// snapshot, old→new setting, rationale) to an audit log whose JSON
// rendering is byte-identical for identical runs — the same determinism
// contract the rest of the tree enforces (same seed ⇒ same decisions,
// controller off ⇒ byte-identical to no controller at all).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "control/control.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/sim_time.h"

namespace hpcc::control {

// ---------------------------------------------------------------------------
// StepGuard
// ---------------------------------------------------------------------------

struct GuardConfig {
  /// Absolute deadband: |target - current| <= deadband holds the knob.
  double deadband = 0.0;
  /// Consecutive epochs the move direction must persist before the
  /// first step in that direction is taken. 1 = react immediately.
  unsigned hysteresis_epochs = 1;
  /// Largest change one epoch may apply (0 = unbounded).
  double max_step = 0.0;
  /// Hard actuation range.
  double min_value = 0.0;
  double max_value = 1.0;
};

/// The shared guard every numeric policy runs its target through.
/// Deterministic: state is a pure function of the step() call sequence.
class StepGuard {
 public:
  explicit StepGuard(GuardConfig cfg) : cfg_(cfg) {}

  const GuardConfig& config() const { return cfg_; }

  /// Returns the guarded next value moving `current` toward `target`,
  /// or nullopt when the deadband or hysteresis holds the setting.
  std::optional<double> step(double current, double target);

  /// Forgets the direction streak (a phase change the policy knows
  /// about, e.g. after an external reconfiguration).
  void reset();

  unsigned streak() const { return streak_; }

 private:
  GuardConfig cfg_;
  int dir_ = 0;        // sign of the pending move (-1, 0, +1)
  unsigned streak_ = 0;  // consecutive epochs wanting that direction
};

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// What the controller hands each policy once per epoch.
struct EpochContext {
  SimTime now = 0;
  std::uint64_t epoch = 0;
  /// The policy's sensor family (obs counters/gauges under its
  /// sensor_prefix()), or an empty snapshot when metrics are off — a
  /// dark-sensor condition audit rule CTRL001 flags at config time.
  const obs::MetricsSnapshot* sensors = nullptr;
};

/// A proposed actuation: evaluate() returns one only when the policy's
/// guards say the knob should actually move this epoch.
struct Proposal {
  double old_setting = 0;
  double new_setting = 0;
  std::string sensors;    ///< compact "k=v k=v" snapshot for the log
  std::string rationale;  ///< why the knob moved, human-readable
};

/// One knob, one policy. Implementations read their sensors in
/// evaluate() (returning a Proposal when guards pass) and touch their
/// actuator only in actuate() — so a disabled controller provably never
/// perturbs the system it would have steered.
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string_view name() const = 0;
  /// Metric-name prefix of the sensor family this policy reads via
  /// obs::Registry::snapshot_subset ("" = none; the policy senses
  /// through direct references instead).
  virtual std::string_view sensor_prefix() const { return {}; }

  virtual std::optional<Proposal> evaluate(const EpochContext& ctx) = 0;
  virtual void actuate(const Proposal& p) = 0;
};

// ---------------------------------------------------------------------------
// DeltaTracker
// ---------------------------------------------------------------------------

/// Per-epoch deltas over monotonic counters: policies steer on rates,
/// not lifetime totals. A counter that shrank (registry cleared between
/// runs) resets its baseline instead of underflowing.
class DeltaTracker {
 public:
  std::uint64_t delta(const obs::MetricsSnapshot& snap,
                      const std::string& name);

 private:
  std::map<std::string, std::uint64_t> last_;
};

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// One audit-log entry per actuation.
struct ControlDecision {
  std::uint64_t epoch = 0;
  SimTime at = 0;
  std::string policy;
  std::string sensors;
  double old_setting = 0;
  double new_setting = 0;
  std::string rationale;
};

/// Deterministic %.6g double rendering shared by the decision log and
/// the policies' sensor strings.
std::string fmt_setting(double v);

class Controller {
 public:
  explicit Controller(Config cfg) : cfg_(cfg) {}

  const Config& config() const { return cfg_; }

  void add_policy(std::unique_ptr<Policy> policy);

  /// Self-schedules epoch ticks on `q`: the first at now + epoch, then
  /// every epoch until the next tick would land past `until`. A
  /// disabled config schedules nothing — the queue drains exactly as it
  /// would without a controller.
  void start(sim::EventQueue& q, SimTime until);

  /// One epoch evaluation at `now` — what the scheduled tick runs, and
  /// what tests drive directly without a queue.
  void run_epoch(SimTime now);

  std::uint64_t epochs() const { return epochs_; }
  const std::vector<ControlDecision>& decisions() const {
    return decisions_;
  }

  /// The decision audit log as a JSON array — name-sorted fields,
  /// byte-identical for identical runs (same seed ⇒ same bytes).
  std::string decisions_json(int indent = 0) const;

 private:
  void tick(sim::EventQueue* q, SimTime until);

  Config cfg_;
  std::vector<std::unique_ptr<Policy>> policies_;
  std::vector<ControlDecision> decisions_;
  std::uint64_t epochs_ = 0;
};

}  // namespace hpcc::control
