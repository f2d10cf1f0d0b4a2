//! `fleet_admission`: the hierarchical `FleetSim` at the `fleet` bin's
//! full-scale operating point (drop/delay/duplicate faults, 1% crash
//! storm) with a 10^5-client population. It exercises the admission
//! control plane only — never the NoC, DRAM or campaign code.

use std::collections::BTreeMap;

use autoplat_admission::{
    FleetConfig, FleetOutcome, FleetSim, FleetTopology, RetryPolicy, WatchdogConfig,
};
use autoplat_campaign::fnv1a64;
use autoplat_sim::{FaultPlan, MetricsRegistry};

use crate::{fastest, median, metric_lines, ratio, span_lines, Check, Outcome, Scale, SpanNames};

/// The `fleet` bin's full-scale configuration for `clients` clients.
pub fn config(seed: u64, scale: Scale) -> FleetConfig {
    let clients = scale.fleet_clients;
    FleetConfig {
        clients,
        clusters: (clients / 15_000).clamp(8, 64),
        capacity_milli: u64::from(clients) * 100,
        demand_milli: 100,
        critical_every: 1,
        wave_size: (clients / 20).max(1),
        wave_interval: 500,
        client_latency_cycles: 20,
        bundle_latency_cycles: 50,
        heartbeat_interval_cycles: 2_500,
        watchdog: WatchdogConfig {
            timeout_cycles: 10_000,
            quarantine_threshold: 1,
            quarantine_cooldown_cycles: 100_000,
        },
        client_retry: RetryPolicy::new(192, 8),
        rm_retry: RetryPolicy::new(192, 8),
        bundle_retry: RetryPolicy::new(64, 6),
        cluster_timeout_cycles: 20_000,
        fault_plan: FaultPlan::new()
            .drop_probability(0.01)
            .delay_probability(0.02)
            .max_delay_cycles(60)
            .duplicate_probability(0.005),
        crashes: clients / 100,
        crash_at: Some(20_000),
        horizon: 60_000,
        seed,
        topology: FleetTopology::Hierarchical,
        ..FleetConfig::default()
    }
}

/// Hash of the `publish_metrics` export.
pub fn digest(o: &FleetOutcome) -> u64 {
    let mut reg = MetricsRegistry::new();
    o.publish_metrics(&mut reg);
    fnv1a64(reg.to_json().as_bytes())
}

/// Clients that gave up or never reached a terminal state fail, out of
/// the clients that did not crash. A root-ledger mismatch or a run
/// without bundles fails every client.
fn check(o: &FleetOutcome, clients: u32) -> Check {
    let clients = u64::from(clients);
    let non_crashed = clients.saturating_sub(o.crashed.len() as u64);
    let accounted = (o.admitted.len() + o.refused.len() + o.gave_up.len() + o.crashed.len()) as u64;
    let ledger_ok = o.root_granted_milli == Some(o.active_guaranteed_milli);
    let failed = if !ledger_ok || o.bundles == 0 {
        non_crashed
    } else {
        (o.gave_up.len() as u64 + clients.saturating_sub(accounted)).min(non_crashed)
    };
    Check {
        attempted: non_crashed,
        failed,
        work: o.admitted.len() as f64,
        digest: digest(o),
    }
}

fn provenance(cfg: &FleetConfig) -> String {
    format!(
        "fleet_admission: {} clients, {} clusters, {} crashes at cycle {:?}, horizon {} cycles",
        cfg.clients, cfg.clusters, cfg.crashes, cfg.crash_at, cfg.horizon
    )
}

/// Untraced run: set-up (config + `FleetSim::new`) and run, repeated
/// for `seconds`.
pub fn measure(seed: u64, scale: Scale, seconds: f64) -> Outcome {
    let clients = scale.fleet_clients;
    crate::timed_runs(
        crate::Workload::FleetAdmission,
        seconds,
        || FleetSim::new(config(seed, scale)),
        FleetSim::run,
        |o| check(o, clients),
        vec![provenance(&config(seed, scale))],
    )
}

/// Traced run: untraced and traced iterations in pairs.
pub fn traced(seed: u64, scale: Scale, seconds: f64) -> Outcome {
    let clients = scale.fleet_clients;
    let p = crate::paired_runs(
        seconds,
        SpanNames {
            iteration: "fleet.iteration",
            config: "fleet.config",
            new: "fleet.new",
            run: "fleet.run",
        },
        || config(seed, scale),
        FleetSim::new,
        FleetSim::run,
        |o| check(o, clients),
    );
    let o = &p.last;
    let run_s = fastest(&p.tracer.durations("fleet.run"));
    let kicks = o.kicks as f64;
    let messages = o.control_messages as f64;
    let metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("fleet.new_s", median(&p.tracer.durations("fleet.new"))),
        ("fleet.run_s", run_s),
        ("fleet.kicks", kicks),
        ("fleet.us_per_kick", ratio(run_s * 1e6, kicks)),
        ("fleet.control_messages", messages),
        (
            "fleet.messages_per_admission",
            ratio(messages, o.admitted.len() as f64),
        ),
        ("fleet.ns_per_message", ratio(run_s * 1e9, messages)),
        ("fleet.bundles", o.bundles as f64),
        ("fleet.client_reclaims", o.client_reclaims as f64),
        ("fleet.clients_quarantined", o.quarantined.len() as f64),
        (
            "fleet.queue_depth.p50",
            o.queue_depth.quantile(0.5).unwrap_or(0.0),
        ),
        (
            "fleet.queue_depth.p99",
            o.queue_depth.quantile(0.99).unwrap_or(0.0),
        ),
        (
            "fleet.reconverge_cycles",
            o.reconverge_cycles.unwrap_or(0) as f64,
        ),
        ("trace_overhead", p.overhead),
    ]);
    let mut lines = vec![provenance(&config(seed, scale))];
    lines.extend(span_lines(&p.tracer));
    lines.extend(metric_lines(&metrics));
    p.tally.into_outcome(metrics, lines)
}
