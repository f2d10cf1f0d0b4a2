//! Closed-loop QoS regulation: monitor captures drive budget retuning
//! with graceful degradation to a safe static partitioning (§III+§V).
//!
//! The controller consumes per-epoch bandwidth readings from MPAM-style
//! monitors and emits actuation commands for the resource manager: small
//! MemGuard budget steps towards a per-partition bandwidth target, with
//! a hysteresis dead-band and per-epoch rate limiting so the loop cannot
//! oscillate. A sensor watchdog screens every reading for plausibility;
//! after a sustained run of suspect epochs the controller latches into a
//! degraded state and commands a single transition to conservative
//! static partitions, reported through a typed [`DegradationReason`].
//!
//! The module is deliberately pure-numeric — readings are byte counts
//! keyed by a `u16` partition id — so it carries no dependency on the
//! cache or MPAM crates and stays unit-testable in isolation.

use autoplat_sim::MetricsRegistry;

/// One regulated partition: which core it maps to and the bandwidth
/// envelope the controller steers towards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionTarget {
    /// MPAM partition id whose bandwidth monitor feeds this target.
    pub partid: u16,
    /// Core whose MemGuard budget the controller actuates.
    pub core: usize,
    /// Desired bytes observed per epoch for this partition.
    pub target_bytes_per_epoch: u64,
    /// Budget (bytes per MemGuard period) commanded before the first epoch.
    pub initial_budget: u64,
    /// Lower clamp for commanded budgets.
    pub min_budget: u64,
    /// Upper clamp for commanded budgets.
    pub max_budget: u64,
}

/// Plausibility screen applied to every reading before the control law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensorWatchdogConfig {
    /// A reading identical to the previous one for this many consecutive
    /// epochs is flagged as stale (a frozen sensor).
    pub stale_epochs: u32,
    /// Readings above this are implausible (a spiking sensor).
    pub max_plausible_bytes: u64,
    /// Consecutive suspect epochs tolerated before degrading to safe mode.
    pub fault_tolerance: u32,
}

/// Full closed-loop configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoopConfig {
    /// Partitions under regulation, in actuation order.
    pub targets: Vec<PartitionTarget>,
    /// Dead-band around the target, in permille of the target: errors
    /// inside the band command no adjustment (hysteresis).
    pub hysteresis_permille: u32,
    /// Largest budget change commanded in one epoch (rate limiting).
    pub max_step_bytes: u64,
    /// Sensor plausibility screen.
    pub watchdog: SensorWatchdogConfig,
}

/// One monitor capture delivered to the controller at an epoch boundary.
/// `bandwidth_bytes` is `None` when the capture message was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorCapture {
    pub partid: u16,
    pub bandwidth_bytes: Option<u64>,
}

/// Why the controller abandoned closed-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// Readings froze: identical values beyond the stale threshold.
    StaleReadings,
    /// A reading exceeded the plausibility bound.
    ImplausibleReading,
    /// Capture messages stopped arriving.
    DroppedCaptures,
}

impl DegradationReason {
    /// Stable numeric code exported through `autoplat.metrics.v1`
    /// (0 is reserved for "healthy").
    pub fn code(self) -> u64 {
        match self {
            DegradationReason::StaleReadings => 1,
            DegradationReason::ImplausibleReading => 2,
            DegradationReason::DroppedCaptures => 3,
        }
    }
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradationReason::StaleReadings => "stale-readings",
            DegradationReason::ImplausibleReading => "implausible-reading",
            DegradationReason::DroppedCaptures => "dropped-captures",
        };
        f.write_str(s)
    }
}

/// Actuation command emitted by [`ClosedLoopController::on_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopAction {
    /// Retune one core's MemGuard budget.
    SetBudget { core: usize, bytes_per_period: u64 },
    /// Abandon closed-loop regulation: apply the safe static partitioning.
    EnterSafeMode { reason: DegradationReason },
}

#[derive(Debug, Clone)]
struct TargetState {
    commanded_budget: u64,
    last_reading: Option<u64>,
    unchanged_epochs: u32,
}

/// The per-epoch regulation controller. Feed it one capture set per
/// epoch via [`on_epoch`](Self::on_epoch) and forward the returned
/// actions to the actuators.
#[derive(Debug, Clone)]
pub struct ClosedLoopController {
    cfg: ClosedLoopConfig,
    states: Vec<TargetState>,
    suspect_streak: u32,
    degraded: Option<DegradationReason>,
    epochs: u64,
    adjustments: u64,
    suspect_epochs: u64,
    safe_mode_epoch: Option<u64>,
}

impl ClosedLoopController {
    pub fn new(cfg: ClosedLoopConfig) -> Self {
        assert!(!cfg.targets.is_empty(), "closed loop needs targets");
        assert!(
            cfg.watchdog.fault_tolerance >= 1,
            "fault tolerance must be at least one epoch"
        );
        for t in &cfg.targets {
            assert!(
                t.min_budget <= t.max_budget,
                "min budget above max for part {}",
                t.partid
            );
        }
        let states = cfg
            .targets
            .iter()
            .map(|t| TargetState {
                commanded_budget: t.initial_budget.clamp(t.min_budget, t.max_budget),
                last_reading: None,
                unchanged_epochs: 0,
            })
            .collect();
        Self {
            cfg,
            states,
            suspect_streak: 0,
            degraded: None,
            epochs: 0,
            adjustments: 0,
            suspect_epochs: 0,
            safe_mode_epoch: None,
        }
    }

    /// The degradation reason, once latched.
    pub fn degraded(&self) -> Option<DegradationReason> {
        self.degraded
    }

    /// The epoch index at which safe mode was commanded, if ever.
    pub fn safe_mode_epoch(&self) -> Option<u64> {
        self.safe_mode_epoch
    }

    /// Budget currently commanded for `core`, if it is under regulation.
    pub fn commanded_budget(&self, core: usize) -> Option<u64> {
        self.cfg
            .targets
            .iter()
            .position(|t| t.core == core)
            .map(|i| self.states[i].commanded_budget)
    }

    /// Process one epoch of monitor captures. Returns the actuation
    /// commands for this epoch; after safe mode has been commanded the
    /// controller is inert and returns no further actions.
    pub fn on_epoch(&mut self, captures: &[MonitorCapture]) -> Vec<LoopAction> {
        if self.degraded.is_some() {
            self.epochs += 1;
            return Vec::new();
        }
        let epoch = self.epochs;
        self.epochs += 1;

        // Watchdog pass: screen every target's reading for plausibility
        // before any of them is allowed to steer the actuators.
        let mut suspect: Option<DegradationReason> = None;
        let mut readings: Vec<Option<u64>> = Vec::with_capacity(self.cfg.targets.len());
        for (i, t) in self.cfg.targets.iter().enumerate() {
            let reading = captures
                .iter()
                .find(|c| c.partid == t.partid)
                .and_then(|c| c.bandwidth_bytes);
            match reading {
                None => suspect = suspect.or(Some(DegradationReason::DroppedCaptures)),
                Some(v) if v > self.cfg.watchdog.max_plausible_bytes => {
                    suspect = suspect.or(Some(DegradationReason::ImplausibleReading));
                }
                Some(v) => {
                    let state = &mut self.states[i];
                    if state.last_reading == Some(v) {
                        state.unchanged_epochs += 1;
                        if state.unchanged_epochs >= self.cfg.watchdog.stale_epochs {
                            suspect = suspect.or(Some(DegradationReason::StaleReadings));
                        }
                    } else {
                        state.unchanged_epochs = 0;
                    }
                }
            }
            readings.push(reading);
        }

        if let Some(reason) = suspect {
            self.suspect_epochs += 1;
            self.suspect_streak += 1;
            if self.suspect_streak >= self.cfg.watchdog.fault_tolerance {
                self.degraded = Some(reason);
                self.safe_mode_epoch = Some(epoch);
                return vec![LoopAction::EnterSafeMode { reason }];
            }
            // Suspect but still within tolerance: hold all budgets.
            for (i, _) in self.cfg.targets.iter().enumerate() {
                if let Some(v) = readings[i] {
                    self.states[i].last_reading = Some(v);
                }
            }
            return Vec::new();
        }
        self.suspect_streak = 0;

        // Control law: step each healthy target towards its bandwidth
        // target, bounded by the dead-band and the per-epoch step limit.
        let mut actions = Vec::new();
        for (i, t) in self.cfg.targets.iter().enumerate() {
            let observed = match readings[i] {
                Some(v) => v,
                None => continue,
            };
            let state = &mut self.states[i];
            state.last_reading = Some(observed);
            let dead_band =
                t.target_bytes_per_epoch * u64::from(self.cfg.hysteresis_permille) / 1000;
            let error_up = observed.saturating_sub(t.target_bytes_per_epoch);
            let error_down = t.target_bytes_per_epoch.saturating_sub(observed);
            let next = if error_up > dead_band {
                // Over target: shrink the budget.
                let step = error_up.min(self.cfg.max_step_bytes);
                state
                    .commanded_budget
                    .saturating_sub(step)
                    .clamp(t.min_budget, t.max_budget)
            } else if error_down > dead_band {
                // Under target: grow the budget.
                let step = error_down.min(self.cfg.max_step_bytes);
                state
                    .commanded_budget
                    .saturating_add(step)
                    .clamp(t.min_budget, t.max_budget)
            } else {
                state.commanded_budget
            };
            if next != state.commanded_budget {
                state.commanded_budget = next;
                self.adjustments += 1;
                actions.push(LoopAction::SetBudget {
                    core: t.core,
                    bytes_per_period: next,
                });
            }
        }
        actions
    }

    /// Export the loop's health under the `closed_loop.*` namespace.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_add("closed_loop.epochs", self.epochs);
        registry.counter_add("closed_loop.adjustments", self.adjustments);
        registry.counter_add("closed_loop.suspect_epochs", self.suspect_epochs);
        registry.gauge_set(
            "closed_loop.degraded",
            if self.degraded.is_some() { 1.0 } else { 0.0 },
        );
        registry.gauge_set(
            "closed_loop.degradation_reason",
            self.degraded.map_or(0.0, |r| r.code() as f64),
        );
        if let Some(epoch) = self.safe_mode_epoch {
            registry.gauge_set("closed_loop.safe_mode_epoch", epoch as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_target_cfg() -> ClosedLoopConfig {
        ClosedLoopConfig {
            targets: vec![PartitionTarget {
                partid: 0,
                core: 0,
                target_bytes_per_epoch: 1000,
                initial_budget: 2048,
                min_budget: 256,
                max_budget: 8192,
            }],
            hysteresis_permille: 100,
            max_step_bytes: 512,
            watchdog: SensorWatchdogConfig {
                stale_epochs: 3,
                max_plausible_bytes: 1 << 20,
                fault_tolerance: 2,
            },
        }
    }

    fn capture(partid: u16, bytes: u64) -> MonitorCapture {
        MonitorCapture {
            partid,
            bandwidth_bytes: Some(bytes),
        }
    }

    #[test]
    fn readings_inside_dead_band_command_nothing() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        // 10% hysteresis around 1000: [900, 1100] is quiet.
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        assert!(ctl.on_epoch(&[capture(0, 1099)]).is_empty());
        assert!(ctl.on_epoch(&[capture(0, 901)]).is_empty());
        assert_eq!(ctl.commanded_budget(0), Some(2048));
    }

    #[test]
    fn over_target_shrinks_budget_rate_limited() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        // Error 2000 exceeds the 512-byte step limit: one bounded step.
        let actions = ctl.on_epoch(&[capture(0, 3000)]);
        assert_eq!(
            actions,
            vec![LoopAction::SetBudget {
                core: 0,
                bytes_per_period: 2048 - 512
            }]
        );
    }

    #[test]
    fn under_target_grows_budget_within_clamp() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        let actions = ctl.on_epoch(&[capture(0, 100)]);
        assert_eq!(
            actions,
            vec![LoopAction::SetBudget {
                core: 0,
                bytes_per_period: 2048 + 512
            }]
        );
        // Repeated starvation saturates at max_budget and then goes
        // quiet. Jitter the reading so the stale watchdog stays calm.
        for i in 0..20u64 {
            ctl.on_epoch(&[capture(0, 100 + (i % 2))]);
        }
        assert_eq!(ctl.commanded_budget(0), Some(8192));
        assert_eq!(ctl.degraded(), None);
        assert!(ctl.on_epoch(&[capture(0, 100)]).is_empty());
    }

    #[test]
    fn loop_converges_without_oscillation() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        // Crude plant with one byte of jitter: observed bandwidth
        // tracks the commanded budget.
        let mut observed = 3000u64;
        let mut trajectory = Vec::new();
        for i in 0..32u64 {
            ctl.on_epoch(&[capture(0, observed + (i % 2))]);
            let budget = ctl.commanded_budget(0).unwrap();
            trajectory.push(budget);
            observed = budget.min(3000) / 2;
        }
        // Once inside the dead band the commanded budget stops moving.
        assert_eq!(ctl.degraded(), None);
        let tail = *trajectory.last().unwrap();
        assert!(trajectory.iter().rev().take(8).all(|&b| b == tail));
    }

    #[test]
    fn dropped_captures_degrade_after_tolerance() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        let missing = MonitorCapture {
            partid: 0,
            bandwidth_bytes: None,
        };
        assert!(ctl.on_epoch(&[missing]).is_empty());
        let actions = ctl.on_epoch(&[missing]);
        assert_eq!(
            actions,
            vec![LoopAction::EnterSafeMode {
                reason: DegradationReason::DroppedCaptures
            }]
        );
        assert_eq!(ctl.degraded(), Some(DegradationReason::DroppedCaptures));
        assert_eq!(ctl.safe_mode_epoch(), Some(1));
        // Latched: no further actions, ever.
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
    }

    #[test]
    fn implausible_reading_degrades() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        let huge = capture(0, (1 << 20) + 1);
        assert!(ctl.on_epoch(&[huge]).is_empty());
        assert_eq!(
            ctl.on_epoch(&[huge]),
            vec![LoopAction::EnterSafeMode {
                reason: DegradationReason::ImplausibleReading
            }]
        );
    }

    #[test]
    fn stale_readings_degrade_after_streak() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        // Identical in-band readings: stale after 3 unchanged epochs,
        // then degraded after 2 suspect epochs.
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        let actions = ctl.on_epoch(&[capture(0, 1000)]);
        assert_eq!(
            actions,
            vec![LoopAction::EnterSafeMode {
                reason: DegradationReason::StaleReadings
            }]
        );
    }

    #[test]
    fn recovery_resets_suspect_streak() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        let missing = MonitorCapture {
            partid: 0,
            bandwidth_bytes: None,
        };
        assert!(ctl.on_epoch(&[missing]).is_empty());
        // A healthy epoch clears the streak; one more drop is tolerated.
        assert!(ctl.on_epoch(&[capture(0, 1000)]).is_empty());
        assert!(ctl.on_epoch(&[missing]).is_empty());
        assert_eq!(ctl.degraded(), None);
    }

    #[test]
    fn metrics_report_degradation_code() {
        let mut ctl = ClosedLoopController::new(one_target_cfg());
        let missing = MonitorCapture {
            partid: 0,
            bandwidth_bytes: None,
        };
        ctl.on_epoch(&[missing]);
        ctl.on_epoch(&[missing]);
        let mut reg = MetricsRegistry::new();
        ctl.publish_metrics(&mut reg);
        assert_eq!(reg.gauge("closed_loop.degraded"), Some(1.0));
        assert_eq!(
            reg.gauge("closed_loop.degradation_reason"),
            Some(DegradationReason::DroppedCaptures.code() as f64)
        );
        assert_eq!(reg.gauge("closed_loop.safe_mode_epoch"), Some(1.0));
        assert_eq!(reg.counter("closed_loop.suspect_epochs"), 2);
    }
}
