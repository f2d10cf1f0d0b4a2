//! `campaign_full`: the `CampaignSpec::full` sweep through
//! `autoplat_campaign::run`.
//!
//! The traced run cannot put spans inside the runner's worker threads,
//! so it replays `run_point`'s public calls serially under spans and
//! checks that the replay reproduces the untraced run's simulated
//! counters ([`AGREEMENT_COUNTERS`]) before trusting its numbers.

use std::collections::BTreeMap;
use std::time::Instant;

use autoplat_campaign::{
    fnv1a64, reduce, run, ArbiterPolicy, CampaignConfig, CampaignReport, CampaignSpec, PointOutcome,
};
use autoplat_conformance::{CaseResult, Observations, Scenario, Violation};
use autoplat_core::cosim::{CoSim, CoSimReport};
use autoplat_sim::SimRng;

use crate::trace::Tracer;
use crate::{median, metric_lines, nproc, quantile, ratio, span_lines, Check, Outcome, Scale};

/// Campaign worker threads the workload asks for (at most `nproc`).
pub const WORKERS: usize = 2;

/// Counters the traced replay must reproduce exactly.
pub const AGREEMENT_COUNTERS: [&str; 4] = [
    "campaign.points",
    "campaign.conformance.passed",
    "campaign.victim.throttle_stalls",
    "campaign.victim.deadline_misses",
];

/// The workload's campaign: the full grid, possibly truncated.
pub fn config(seed: u64, scale: Scale) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(CampaignSpec::full(seed));
    cfg.points = scale.campaign_points;
    cfg.workers = WORKERS.min(nproc());
    cfg
}

/// Checks a report: every point present once, none violating its
/// conformance bound. The digest covers the reduced registry.
fn check(report: &CampaignReport, expected: u64) -> Check {
    let m = &report.metrics;
    let points = m.counter("campaign.points");
    let violations = m.counter("campaign.conformance.violations");
    Check {
        attempted: expected,
        failed: (points.abs_diff(expected) + violations).min(expected),
        work: points.min(expected) as f64,
        digest: fnv1a64(m.to_json().as_bytes()),
    }
}

fn provenance(cfg: &CampaignConfig) -> String {
    format!(
        "campaign_full: {} of {} points, {} workers, chunks of {}",
        cfg.total_points(),
        cfg.spec.len(),
        cfg.workers,
        cfg.chunk_points
    )
}

/// Untraced run: the whole campaign, repeated for `seconds`.
pub fn measure(seed: u64, scale: Scale, seconds: f64) -> Outcome {
    let cfg = config(seed, scale);
    let expected = cfg.total_points();
    crate::timed_runs(
        crate::Workload::CampaignFull,
        seconds,
        || config(seed, scale),
        |cfg| run(&cfg),
        |report| check(report, expected),
        vec![provenance(&cfg)],
    )
}

/// Simulated counters summed over the replay's co-simulations.
#[derive(Debug, Default)]
struct CoSimTotals {
    events: u64,
    packets: u64,
    throttle_stalls: u64,
    row_hits: u64,
    row_misses: u64,
}

impl CoSimTotals {
    fn add(&mut self, r: &CoSimReport) {
        self.events += r.events_delivered;
        self.packets += r.packets_delivered as u64;
        self.throttle_stalls += r.tasks.iter().map(|t| t.throttle_stalls).sum::<u64>();
        self.row_hits += r.dram_row_hits;
        self.row_misses += r.dram_row_misses;
    }
}

fn check_span(arbiter: ArbiterPolicy) -> &'static str {
    match arbiter {
        ArbiterPolicy::FrFcfs => "campaign.conformance.check.dram",
        ArbiterPolicy::Dpq => "campaign.conformance.check.dpq",
        ArbiterPolicy::PerBankRegulated => "campaign.conformance.check.perbank",
    }
}

/// The outcome `run_point` records for the same results.
fn point_outcome(
    index: u64,
    seed: u64,
    arbiter: ArbiterPolicy,
    loaded: &CoSimReport,
    solo: &CoSimReport,
    verdict: Result<(CaseResult, Observations), Violation>,
) -> PointOutcome {
    let loaded_max = loaded.tasks[0].response.max().unwrap_or(0.0);
    let solo_max = solo.tasks[0].response.max().unwrap_or(0.0);
    let slowdown = if solo_max > 0.0 {
        loaded_max / solo_max
    } else {
        1.0
    };
    let mut counters: Vec<(String, u64)> = vec![
        ("campaign.points".into(), 1),
        (
            "campaign.victim.deadline_misses".into(),
            loaded.tasks[0].deadline_misses,
        ),
        (
            "campaign.victim.throttle_stalls".into(),
            loaded.tasks[0].throttle_stalls,
        ),
        ("campaign.controls_dropped".into(), loaded.controls_dropped),
    ];
    let mut observations: Vec<(String, f64)> = vec![("campaign.slowdown".into(), slowdown)];
    if loaded.tasks[0].throttle_stalls == 0 {
        observations.push(("campaign.slowdown.unthrottled".into(), slowdown));
    }
    observations.push(("campaign.victim.response_max_ns".into(), loaded_max));
    observations.push(("campaign.victim.solo_response_max_ns".into(), solo_max));
    match verdict {
        Ok((result, obs)) => {
            let name = match result {
                CaseResult::Pass => "campaign.conformance.passed",
                CaseResult::Vacuous => "campaign.conformance.vacuous",
            };
            counters.push((name.into(), 1));
            for (obs_name, value) in obs {
                if obs_name == arbiter.tightness_obs() {
                    observations.push(("campaign.wcd_tightness".into(), value));
                }
                observations.push((obs_name.into(), value));
            }
        }
        Err(_) => counters.push(("campaign.conformance.violations".into(), 1)),
    }
    PointOutcome {
        index,
        seed,
        counters,
        observations,
    }
}

/// Replays every point's public calls serially under spans.
fn replay(cfg: &CampaignConfig, tracer: &mut Tracer) -> (Vec<PointOutcome>, CoSimTotals) {
    let mut outcomes = Vec::new();
    let mut totals = CoSimTotals::default();
    for i in 0..cfg.total_points() {
        let root = tracer.open("campaign.point", i, None);
        let (point, loaded_cfg, solo_cfg) =
            tracer.leaf("campaign.design_space.config", i, Some(root), || {
                let point = cfg.spec.point(i);
                let loaded = point.platform.loaded_config();
                let solo = point.platform.solo_config();
                (point, loaded, solo)
            });
        let sim = tracer.leaf("campaign.cosim.new", i, Some(root), || {
            CoSim::new(loaded_cfg)
        });
        let loaded = tracer.leaf("campaign.cosim.loaded_run", i, Some(root), || sim.run());
        let sim = tracer.leaf("campaign.cosim.new", i, Some(root), || CoSim::new(solo_cfg));
        let solo = tracer.leaf("campaign.cosim.solo_run", i, Some(root), || sim.run());
        let mut rng = SimRng::seed_from(point.seed);
        let scenario = tracer.leaf("campaign.conformance.generate", i, Some(root), || {
            Scenario::generate(point.arbiter.family(), &mut rng)
        });
        let verdict = tracer.leaf(check_span(point.arbiter), i, Some(root), || {
            cfg.oracle.check_observed(&scenario)
        });
        tracer.close(root);
        totals.add(&loaded);
        totals.add(&solo);
        outcomes.push(point_outcome(
            point.index,
            point.seed,
            point.arbiter,
            &loaded,
            &solo,
            verdict,
        ));
    }
    (outcomes, totals)
}

/// Traced run: one untraced campaign (the wall that parallel
/// efficiency divides by), then the serial traced replay.
pub fn traced(seed: u64, scale: Scale) -> Outcome {
    let cfg = config(seed, scale);
    let expected = cfg.total_points();
    let started = Instant::now();
    let report = run(&cfg);
    let wall = started.elapsed().as_secs_f64();
    let untraced = check(&report, expected);

    let mut tracer = Tracer::new();
    let (outcomes, cosim) = replay(&cfg, &mut tracer);
    let replayed = tracer.leaf("campaign.runner.reduce", 0, None, || reduce(outcomes));

    let mut lines = vec![provenance(&cfg)];
    let mut disagreeing = 0;
    for name in AGREEMENT_COUNTERS {
        let (a, b) = (report.metrics.counter(name), replayed.counter(name));
        if a != b {
            disagreeing += 1;
            lines.push(format!(
                "replay disagrees on {name}: untraced {a}, replay {b}"
            ));
        }
    }
    let passed = replayed.counter("campaign.conformance.passed");
    let violations = replayed.counter("campaign.conformance.violations");
    let replay_failed = if disagreeing > 0 {
        expected
    } else {
        (replayed.counter("campaign.points").abs_diff(expected) + violations).min(expected)
    };

    let point_ms: Vec<f64> = tracer
        .durations("campaign.point")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let run_s = tracer.total("campaign.cosim.loaded_run") + tracer.total("campaign.cosim.solo_run");
    let metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        (
            "campaign.runner.parallel_efficiency",
            ratio(tracer.total("campaign.point"), cfg.workers as f64 * wall),
        ),
        (
            "campaign.runner.reduce_s",
            tracer.total("campaign.runner.reduce"),
        ),
        (
            "campaign.design_space.config_s",
            tracer.total("campaign.design_space.config"),
        ),
        ("campaign.cosim.new_s", tracer.total("campaign.cosim.new")),
        (
            "campaign.cosim.loaded_run_s",
            tracer.total("campaign.cosim.loaded_run"),
        ),
        (
            "campaign.cosim.solo_run_s",
            tracer.total("campaign.cosim.solo_run"),
        ),
        ("campaign.point_ms.p50", quantile(&point_ms, 0.5)),
        ("campaign.point_ms.p95", quantile(&point_ms, 0.95)),
        ("campaign.cosim.events", cosim.events as f64),
        (
            "campaign.cosim.ns_per_event",
            ratio(run_s * 1e9, cosim.events as f64),
        ),
        ("campaign.cosim.packets", cosim.packets as f64),
        (
            "campaign.regulation.throttle_stalls",
            cosim.throttle_stalls as f64,
        ),
        (
            "campaign.regulation.stall_share",
            ratio(cosim.throttle_stalls as f64, cosim.events as f64),
        ),
        ("campaign.dram.row_hits", cosim.row_hits as f64),
        ("campaign.dram.row_misses", cosim.row_misses as f64),
        (
            "campaign.conformance.generate_s",
            tracer.total("campaign.conformance.generate"),
        ),
        (
            "campaign.conformance.check_s.dram",
            tracer.total("campaign.conformance.check.dram"),
        ),
        (
            "campaign.conformance.check_s.dpq",
            tracer.total("campaign.conformance.check.dpq"),
        ),
        (
            "campaign.conformance.check_s.perbank",
            tracer.total("campaign.conformance.check.perbank"),
        ),
        ("campaign.conformance.passed", passed as f64),
        ("campaign.conformance.violations", violations as f64),
    ]);
    lines.push(format!(
        "untraced run {wall:.6} s with {} workers; serial replay of {} points, {} counters disagree; point time median {:.3} ms over {} samples",
        cfg.workers,
        expected,
        disagreeing,
        median(&point_ms),
        point_ms.len()
    ));
    lines.extend(span_lines(&tracer));
    lines.extend(metric_lines(&metrics));
    lines.push(format!("digest = 0x{:016x}", untraced.digest));
    Outcome {
        attempted: 2 * expected,
        failed: untraced.failed + replay_failed,
        correct: disagreeing == 0,
        metrics,
        lines,
    }
}
