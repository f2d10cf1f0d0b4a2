//! The autoplat benchmark: three batch workloads driven through the
//! public library APIs of `autoplat-campaign`, `autoplat-core` and
//! `autoplat-admission`.
//!
//! * `campaign_full` — the 243-point `CampaignSpec::full` sweep through
//!   `autoplat_campaign::run`: the runner, per-point `CoSim::new` and
//!   hundreds of short saturated co-simulations.
//! * `cosim_qos` — one long `CoSimConfig::small_qos` run of the closed
//!   QoS loop in its stable regime: the same `CoSim` layer without any
//!   runner or set-up effect.
//! * `fleet_admission` — the hierarchical `FleetSim` at the `fleet` bin's
//!   operating point with 10^5 clients: the admission control plane
//!   only, so it predicts no change for optimisations of the other two.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run wraps spans ([`trace`]) around every call the benchmark
//! makes into a layer and derives the per-layer metrics
//! ([`PER_LAYER`]) from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

pub mod campaign;
pub mod cosim;
pub mod fleet;
pub mod trace;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
///
/// `work_per_s` is the workload's own rate: campaign points
/// (`campaign.points_per_s`) on `campaign_full`, simulated µs
/// (`cosim.sim_us_per_s`) on `cosim_qos` and admitted clients
/// (`fleet.admissions_per_s`) on `fleet_admission`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.runner.parallel_efficiency", "ratio"),
    ("campaign.runner.reduce_s", "s"),
    ("campaign.design_space.config_s", "s"),
    ("campaign.cosim.new_s", "s"),
    ("campaign.cosim.loaded_run_s", "s"),
    ("campaign.cosim.solo_run_s", "s"),
    ("campaign.point_ms.p50", "ms"),
    ("campaign.point_ms.p95", "ms"),
    ("campaign.cosim.events", "count"),
    ("campaign.cosim.ns_per_event", "ns"),
    ("campaign.cosim.packets", "count"),
    ("campaign.regulation.throttle_stalls", "count"),
    ("campaign.regulation.stall_share", "ratio"),
    ("campaign.dram.row_hits", "count"),
    ("campaign.dram.row_misses", "count"),
    ("campaign.conformance.generate_s", "s"),
    ("campaign.conformance.check_s.dram", "s"),
    ("campaign.conformance.check_s.dpq", "s"),
    ("campaign.conformance.check_s.perbank", "s"),
    ("campaign.conformance.passed", "count"),
    ("campaign.conformance.violations", "count"),
    ("cosim.new_s", "s"),
    ("cosim.run_s", "s"),
    ("cosim.events", "count"),
    ("cosim.events_per_s", "1/s"),
    ("cosim.ns_per_event", "ns"),
    ("cosim.events_per_sim_us", "1/us"),
    ("cosim.packets", "count"),
    ("cosim.ns_per_packet", "ns"),
    ("cosim.dram.row_hits", "count"),
    ("cosim.dram.row_misses", "count"),
    ("cosim.dram.refreshes", "count"),
    ("cosim.dram.busy_share", "ratio"),
    ("cosim.regulation.replenishments", "count"),
    ("cosim.regulation.throttle_stalls", "count"),
    ("cosim.qos.epochs", "count"),
    ("cosim.qos.loop_adjustments", "count"),
    ("cosim.cache.hits", "count"),
    ("cosim.cache.misses", "count"),
    ("cosim.cache.hit_ratio", "ratio"),
    ("cosim.mpam.captures_dropped", "count"),
    ("cosim.victim.response_max_ns", "ns"),
    ("fleet.new_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.kicks", "count"),
    ("fleet.us_per_kick", "us"),
    ("fleet.control_messages", "count"),
    ("fleet.messages_per_admission", "ratio"),
    ("fleet.ns_per_message", "ns"),
    ("fleet.bundles", "count"),
    ("fleet.client_reclaims", "count"),
    ("fleet.clients_quarantined", "count"),
    ("fleet.queue_depth.p50", "count"),
    ("fleet.queue_depth.p99", "count"),
    ("fleet.reconverge_cycles", "cycles"),
    ("trace_overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// Set-ups timed per run at least, so `setup_s` is a median even when
/// one timed iteration fills the whole run.
pub const MIN_SETUPS: usize = 31;

/// Extra set-ups timed after each iteration, so the set-up samples are
/// spread over the whole run instead of one moment of it.
pub const SETUPS_PER_ITERATION: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full 243-point campaign sweep.
    CampaignFull,
    /// One long closed-loop QoS co-simulation.
    CosimQos,
    /// Hierarchical fleet admission with faults and a crash storm.
    FleetAdmission,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignFull,
        Workload::CosimQos,
        Workload::FleetAdmission,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignFull => "campaign_full",
            Workload::CosimQos => "cosim_qos",
            Workload::FleetAdmission => "fleet_admission",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the matching repository binary uses (`campaign`,
    /// `cosim`, `fleet`).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CampaignFull => 42,
            Workload::CosimQos => 0,
            Workload::FleetAdmission => 1,
        }
    }

    /// A seed kept out of tuning, for checking a future claim.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::CampaignFull => 4242,
            Workload::CosimQos => 7,
            Workload::FleetAdmission => 1001,
        }
    }

    /// Name and unit of the workload's own rate, printed in place of
    /// the generic `work_per_s`.
    pub fn rate_name(self) -> (&'static str, &'static str) {
        match self {
            Workload::CampaignFull => ("campaign.points_per_s", "points/s"),
            Workload::CosimQos => ("cosim.sim_us_per_s", "sim_us/s"),
            Workload::FleetAdmission => ("fleet.admissions_per_s", "admissions/s"),
        }
    }
}

/// Input sizes of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Truncate the campaign grid to its first points (`None`: all 243).
    pub campaign_points: Option<u64>,
    /// Release window of the `cosim_qos` run, in simulated µs.
    pub cosim_horizon_us: f64,
    /// Clients of the `fleet_admission` population.
    pub fleet_clients: u32,
}

impl Scale {
    /// The benchmark's input sizes.
    pub const FULL: Scale = Scale {
        campaign_points: None,
        cosim_horizon_us: 2_000.0,
        fleet_clients: 100_000,
    };

    /// A few-millisecond size for the self-test.
    pub const TINY: Scale = Scale {
        campaign_points: Some(4),
        cosim_horizon_us: 25.0,
        fleet_clients: 1_000,
    };
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (points, runs or clients).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// No operation failed and every cross-run check agreed.
    pub correct: bool,
    /// The workload's metrics by name; names come from [`END_TO_END`]
    /// (untraced) or [`PER_LAYER`] (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The result line: every metric of the catalogue for this mode,
    /// with 0 for a metric of a layer the workload does not call.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `workload` for about `seconds` and reports its end-to-end
/// (`traced == false`) or per-layer metrics.
pub fn run(workload: Workload, seed: u64, scale: Scale, seconds: f64, traced: bool) -> Outcome {
    let mut out = match (workload, traced) {
        (Workload::CampaignFull, false) => campaign::measure(seed, scale, seconds),
        (Workload::CampaignFull, true) => campaign::traced(seed, scale),
        (Workload::CosimQos, false) => cosim::measure(seed, scale, seconds),
        (Workload::CosimQos, true) => cosim::traced(seed, scale, seconds),
        (Workload::FleetAdmission, false) => fleet::measure(seed, scale, seconds),
        (Workload::FleetAdmission, true) => fleet::traced(seed, scale, seconds),
    };
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.lines.push(format!(
        "error_rate = {error_rate} ratio ({} failed of {} attempted)",
        out.failed, out.attempted
    ));
    if traced {
        out.metrics.insert("error_rate", error_rate);
    } else {
        match peak_rss_mb() {
            Some(rss) => {
                out.lines.push(format!("peak_rss_mb = {rss} MiB"));
                out.metrics.insert("peak_rss_mb", rss);
            }
            None => {
                out.lines.push("peak_rss_mb: VmHWM unavailable".to_string());
                out.correct = false;
            }
        }
    }
    out.correct &= out.failed == 0;
    out
}

/// The verdict of one workload output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Work completed: points, simulated µs or admitted clients.
    pub work: f64,
    /// Hash of the timing-free outputs.
    pub digest: u64,
}

/// Tallies checks across the iterations of one run. An iteration whose
/// digest differs from the first one of the run fails as a whole.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    pub digest_mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, c: Check) {
        self.attempted += c.attempted;
        match self.digest {
            Some(d) if d != c.digest => {
                self.digest_mismatches += 1;
                self.failed += c.attempted;
            }
            _ => {
                self.digest = Some(c.digest);
                self.failed += c.failed;
            }
        }
    }

    /// The tallied iterations as an outcome, with a digest line added.
    pub fn into_outcome(
        self,
        metrics: BTreeMap<&'static str, f64>,
        mut lines: Vec<String>,
    ) -> Outcome {
        lines.push(format!(
            "digest = 0x{:016x} ({} mismatching iterations)",
            self.digest.unwrap_or(0),
            self.digest_mismatches
        ));
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: self.digest_mismatches == 0,
            metrics,
            lines,
        }
    }
}

/// True while another iteration as long as `last` still ends within
/// `seconds` of `started`.
fn another_fits(started: Instant, seconds: f64, last: f64) -> bool {
    started.elapsed().as_secs_f64() + last <= seconds
}

/// Untraced measurement: repeats set-up and run while another iteration
/// fits in `seconds` (at least once), timing [`SETUPS_PER_ITERATION`]
/// extra set-ups after each, then tops set-ups up to [`MIN_SETUPS`].
///
/// The rate is the best iteration's: host contention only ever slows an
/// iteration down, and on a shared host the fastest iteration varies far
/// less between runs than the median one. `setup_s` is the median
/// set-up.
pub(crate) fn timed_runs<S, O>(
    workload: Workload,
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> O,
    check: impl Fn(&O) -> Check,
    mut lines: Vec<String>,
) -> Outcome {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut tally = Tally::default();
    loop {
        let t0 = Instant::now();
        let input = black_box(setup());
        let t1 = Instant::now();
        let output = black_box(run(input));
        let wall = t1.elapsed().as_secs_f64();
        setups.push((t1 - t0).as_secs_f64());
        let c = check(&output);
        rates.push(c.work / wall.max(1e-9));
        tally.add(c);
        drop(output);
        for _ in 0..SETUPS_PER_ITERATION {
            setups.push(time_setup(&mut setup));
        }
        if !another_fits(started, seconds, t0.elapsed().as_secs_f64()) {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(time_setup(&mut setup));
    }

    let (rate_name, rate_unit) = workload.rate_name();
    let rate = rates.iter().copied().fold(0.0, f64::max);
    let setup = median(&setups);
    lines.push(format!(
        "{} timed iterations at {rates:?} {rate_unit}, {} set-ups",
        rates.len(),
        setups.len()
    ));
    lines.push(format!("{rate_name} = {rate} {rate_unit} (best iteration)"));
    lines.push(format!(
        "setup_s = {setup} s (median; min {} s, max {} s)",
        fastest(&setups),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    let metrics = BTreeMap::from([("work_per_s", rate), ("setup_s", setup)]);
    tally.into_outcome(metrics, lines)
}

/// Seconds one set-up takes; its result is dropped untimed.
fn time_setup<S>(setup: &mut impl FnMut() -> S) -> f64 {
    let t0 = Instant::now();
    let input = black_box(setup());
    let seconds = t0.elapsed().as_secs_f64();
    drop(input);
    seconds
}

/// Host threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs` (0 when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Span names of one traced `config → new → run` iteration.
pub(crate) struct SpanNames {
    pub iteration: &'static str,
    pub config: &'static str,
    pub new: &'static str,
    pub run: &'static str,
}

/// A traced run of a `config → new → run` workload.
pub(crate) struct Paired<O> {
    pub tracer: trace::Tracer,
    /// Fastest traced wall over fastest untraced wall, minus one.
    pub overhead: f64,
    /// Output of the last traced iteration.
    pub last: O,
    pub tally: Tally,
}

/// Traced measurement: pairs of one untraced and one traced iteration
/// making the same calls, the order alternating between pairs, while
/// another pair fits in `seconds` (at least one pair).
pub(crate) fn paired_runs<C, S, O>(
    seconds: f64,
    names: SpanNames,
    config: impl Fn() -> C,
    new: impl Fn(C) -> S,
    run: impl Fn(S) -> O,
    check: impl Fn(&O) -> Check,
) -> Paired<O> {
    let started = Instant::now();
    let mut tracer = trace::Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tally = Tally::default();
    let mut pair = 0u64;
    let last = loop {
        let pair_started = Instant::now();
        let mut last = None;
        let traced_first = pair % 2 == 1;
        for traced_half in [traced_first, !traced_first] {
            if traced_half {
                let root = tracer.open(names.iteration, pair, None);
                let cfg = tracer.leaf(names.config, pair, Some(root), &config);
                let sim = tracer.leaf(names.new, pair, Some(root), || black_box(new(cfg)));
                let out = tracer.leaf(names.run, pair, Some(root), || black_box(run(sim)));
                tracer.close(root);
                traced.push(tracer.spans()[root].seconds());
                tally.add(check(&out));
                last = Some(out);
            } else {
                let t0 = Instant::now();
                let out = black_box(run(black_box(new(config()))));
                untraced.push(t0.elapsed().as_secs_f64());
                tally.add(check(&out));
            }
        }
        pair += 1;
        if !another_fits(started, seconds, pair_started.elapsed().as_secs_f64()) {
            break last.expect("every pair has a traced half");
        }
    };
    Paired {
        tracer,
        overhead: ratio(fastest(&traced), fastest(&untraced)) - 1.0,
        last,
        tally,
    }
}

/// Lines listing the span totals of a traced run.
pub(crate) fn span_lines(tracer: &trace::Tracer) -> Vec<String> {
    tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            format!(
                "span {name}: count {} total {:.6} s self {:.6} s",
                t.count, t.total_s, t.self_s
            )
        })
        .collect()
}

/// Per-layer lines for the metrics a traced run measured.
pub(crate) fn metric_lines(metrics: &BTreeMap<&'static str, f64>) -> Vec<String> {
    PER_LAYER
        .iter()
        .filter_map(|(name, unit)| metrics.get(name).map(|v| format!("{name} = {v} {unit}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(digest: u64, failed: u64) -> Check {
        Check {
            attempted: 10,
            failed,
            work: 1.0,
            digest,
        }
    }

    #[test]
    fn an_iteration_with_another_digest_fails_whole() {
        let mut t = Tally::default();
        t.add(check(1, 0));
        t.add(check(1, 2));
        t.add(check(9, 0));
        assert_eq!((t.attempted, t.failed, t.digest_mismatches), (30, 12, 1));
        assert!(!t.into_outcome(BTreeMap::new(), Vec::new()).correct);
    }

    #[test]
    fn median_and_nearest_rank_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.95), 95.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
