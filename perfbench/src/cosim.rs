//! `cosim_qos`: one long `CoSimConfig::small_qos` run — the closed QoS
//! loop (cache, MPAM monitors, closed-loop regulation) over the NoC,
//! DRAM, MemGuard and scheduling layers.
//!
//! `small_qos` stays in its stable regime as the horizon grows (events
//! grow linearly with it). `CoSimConfig::small` does not: its Resume
//! retries pile up and events grow quadratically, so it is unfit for a
//! long run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use autoplat_campaign::fnv1a64;
use autoplat_core::cosim::{CoSim, CoSimConfig, CoSimReport};
use autoplat_sim::SimTime;

use crate::{fastest, median, metric_lines, ratio, span_lines, Check, Outcome, Scale, SpanNames};

/// The workload's co-simulation.
pub fn config(seed: u64, scale: Scale) -> CoSimConfig {
    let mut cfg = CoSimConfig::small_qos();
    cfg.horizon = SimTime::from_us(scale.cosim_horizon_us);
    cfg.seed = seed;
    cfg
}

/// Hash of the timing-free outputs: the report's counters, its metrics
/// registry and the victim's response.
pub fn digest(r: &CoSimReport) -> u64 {
    let mut s = r.metrics.to_json();
    for t in &r.tasks {
        let _ = write!(
            s,
            "|task {} {} {} {} {} {:?} {:?} {:?}",
            t.released,
            t.completed,
            t.deadline_misses,
            t.throttle_stalls,
            t.response.count(),
            t.response.min().map(f64::to_bits),
            t.response.max().map(f64::to_bits),
            t.response.sum().to_bits()
        );
    }
    let _ = write!(
        s,
        "|{} {} {} {} {} {} {} {} {} {} {} {} {}",
        r.packets_delivered,
        r.mean_noc_latency_cycles.to_bits(),
        r.dram_busy.as_ps(),
        r.dram_row_hits,
        r.dram_row_misses,
        r.dram_refreshes,
        r.replenishments,
        r.controls_applied,
        r.controls_refused,
        r.controls_dropped,
        r.finished_at.as_ps(),
        r.events_delivered,
        r.qos.as_ref().map_or(0, |q| q.epochs.len()),
    );
    if let Some(q) = &r.qos {
        let _ = write!(
            s,
            "|qos {} {} {} {} {:?} {:?}",
            q.cache_hits,
            q.cache_misses,
            q.captures_dropped,
            q.loop_adjustments,
            q.degraded,
            q.safe_mode_epoch
        );
    }
    fnv1a64(s.as_bytes())
}

/// A run fails when it closed no QoS epoch, delivered no packet, or
/// left a task without a completed job.
fn check(r: &CoSimReport) -> Check {
    let epochs = r.qos.as_ref().map_or(0, |q| q.epochs.len());
    let ok = epochs > 0 && r.packets_delivered > 0 && r.tasks.iter().all(|t| t.completed > 0);
    Check {
        attempted: 1,
        failed: u64::from(!ok),
        work: r.finished_at.as_us(),
        digest: digest(r),
    }
}

fn provenance(scale: Scale) -> String {
    format!(
        "cosim_qos: small_qos, horizon {} us, one run per iteration",
        scale.cosim_horizon_us
    )
}

/// Untraced run: set-up (config + `CoSim::new`) and run, repeated for
/// `seconds`.
pub fn measure(seed: u64, scale: Scale, seconds: f64) -> Outcome {
    crate::timed_runs(
        crate::Workload::CosimQos,
        seconds,
        || CoSim::new(config(seed, scale)),
        CoSim::run,
        check,
        vec![provenance(scale)],
    )
}

/// Traced run: untraced and traced iterations in pairs.
pub fn traced(seed: u64, scale: Scale, seconds: f64) -> Outcome {
    let p = crate::paired_runs(
        seconds,
        SpanNames {
            iteration: "cosim.iteration",
            config: "cosim.config",
            new: "cosim.new",
            run: "cosim.run",
        },
        || config(seed, scale),
        CoSim::new,
        CoSim::run,
        check,
    );
    let r = &p.last;
    let run_s = fastest(&p.tracer.durations("cosim.run"));
    let events = r.events_delivered as f64;
    let packets = r.packets_delivered as f64;
    let sim_us = r.finished_at.as_us();
    let qos = r.qos.as_ref();
    let cache_hits = qos.map_or(0, |q| q.cache_hits) as f64;
    let cache_misses = qos.map_or(0, |q| q.cache_misses) as f64;
    let metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("cosim.new_s", median(&p.tracer.durations("cosim.new"))),
        ("cosim.run_s", run_s),
        ("cosim.events", events),
        ("cosim.events_per_s", ratio(events, run_s)),
        ("cosim.ns_per_event", ratio(run_s * 1e9, events)),
        ("cosim.events_per_sim_us", ratio(events, sim_us)),
        ("cosim.packets", packets),
        ("cosim.ns_per_packet", ratio(run_s * 1e9, packets)),
        ("cosim.dram.row_hits", r.dram_row_hits as f64),
        ("cosim.dram.row_misses", r.dram_row_misses as f64),
        ("cosim.dram.refreshes", r.dram_refreshes as f64),
        (
            "cosim.dram.busy_share",
            ratio(r.dram_busy.as_secs(), r.finished_at.as_secs()),
        ),
        ("cosim.regulation.replenishments", r.replenishments as f64),
        (
            "cosim.regulation.throttle_stalls",
            r.tasks.iter().map(|t| t.throttle_stalls).sum::<u64>() as f64,
        ),
        ("cosim.qos.epochs", qos.map_or(0, |q| q.epochs.len()) as f64),
        (
            "cosim.qos.loop_adjustments",
            qos.map_or(0, |q| q.loop_adjustments) as f64,
        ),
        ("cosim.cache.hits", cache_hits),
        ("cosim.cache.misses", cache_misses),
        (
            "cosim.cache.hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        (
            "cosim.mpam.captures_dropped",
            qos.map_or(0, |q| q.captures_dropped) as f64,
        ),
        (
            "cosim.victim.response_max_ns",
            r.tasks[0].response.max().unwrap_or(0.0),
        ),
        ("trace_overhead", p.overhead),
    ]);
    let mut lines = vec![provenance(scale)];
    lines.extend(span_lines(&p.tracer));
    lines.extend(metric_lines(&metrics));
    let mut out = p.tally.into_outcome(metrics, lines);
    out.lines.push(format!("simulated {sim_us} us per run"));
    out
}
