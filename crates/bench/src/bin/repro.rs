//! `repro` — regenerates one table or figure of the DATE'21 paper, one
//! extension experiment (X1–X8) or the WCD validation, and prints it.
//!
//! ```text
//! repro <name> [--smoke] [--export-json PATH] [--export-csv PATH]
//! ```
//!
//! `<name>` is one of `table1`, `table2`, `fig1`–`fig7`, `interference`,
//! `validation` or `ablation_{cache,memguard,sched,controller,priority,
//! cluster}`. `--smoke` shortens `fig5` and `validation`, the two
//! experiments that publish metrics; for the others the exports are
//! empty — see [`autoplat_bench::ExportOptions`].
//! Exits 2 on a usage error and 1 when the experiment or an export
//! fails.

use autoplat_bench as bench;
use autoplat_bench::cli;
use autoplat_bench::format::{render_bars, render_table};
use autoplat_bench::ExportOptions;
use autoplat_core::architecture::{ConsolidationPlan, Domain, EeArchitecture, VehicleFunction};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::{ControllerConfig, FrFcfsController};
use autoplat_sim::MetricsRegistry;

/// How an experiment runs: most only print; `fig5` and `validation`
/// also take `--smoke` and publish metrics for the exports.
#[derive(Clone, Copy)]
enum Experiment {
    Print(fn()),
    Publish(fn(smoke: bool, metrics: &mut MetricsRegistry) -> Result<(), String>),
}
use Experiment::{Print, Publish};

const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", Print(table1)),
    ("table2", Print(table2)),
    ("fig1", Print(fig1)),
    ("fig2", Print(fig2)),
    ("fig3", Print(fig3)),
    ("fig4", Print(fig4)),
    ("fig5", Publish(fig5)),
    ("fig6", Print(fig6)),
    ("fig7", Print(fig7)),
    ("interference", Print(interference)),
    ("validation", Publish(validation)),
    ("ablation_cache", Print(ablation_cache)),
    ("ablation_memguard", Print(ablation_memguard)),
    ("ablation_sched", Print(ablation_sched)),
    ("ablation_controller", Print(ablation_controller)),
    ("ablation_priority", Print(ablation_priority)),
    ("ablation_cluster", Print(ablation_cluster)),
];

fn main() {
    let (run, opts) = cli::parse_or_exit("repro", |args| {
        let names = || {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            format!("expected one of: {}", names.join(", "))
        };
        let name = args
            .positional()
            .ok_or_else(|| format!("missing experiment name ({})", names()))?;
        let run = EXPERIMENTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, run)| *run)
            .ok_or_else(|| format!("unknown experiment {name:?} ({})", names()))?;
        Ok((run, ExportOptions::from_cli(args)?))
    });
    let mut metrics = MetricsRegistry::new();
    match run {
        Print(print) => print(),
        Publish(publish) => cli::or_exit("repro", 1, publish(opts.smoke, &mut metrics)),
    }
    cli::or_exit("repro", 1, opts.write(&metrics));
}

/// Table I: DRAM timing parameters (ns).
fn table1() {
    let rows: Vec<Vec<String>> = bench::table1()
        .into_iter()
        .map(|r| vec![r.name.to_string(), format!("{}", r.ns)])
        .collect();
    println!("Table I: DRAM timing parameters (ns), DDR3-1600");
    print!("{}", render_table(&["parameter", "ns"], &rows));
}

/// Table II: upper and lower bounds on the WCD (ns).
fn table2() {
    let rows: Vec<Vec<String>> = bench::table2()
        .into_iter()
        .map(|r| {
            vec![
                format!("{} Gbps", r.write_rate_gbps),
                format!("{:.3}", r.lower_ns),
                format!("{:.3}", r.upper_ns),
                format!("{:.3}", r.upper_ns - r.lower_ns),
            ]
        })
        .collect();
    println!(
        "Table II: upper and lower bounds on the WCD (ns); W_high=55, N_wd=16, N_cap=16, burst=8, N={}",
        bench::TABLE2_QUEUE_POSITION
    );
    print!(
        "{}",
        render_table(&["write rate", "lower bound", "upper bound", "gap"], &rows)
    );
}

/// Fig. 1: the three classes of centralized E/E architectures.
fn fig1() {
    let functions = vec![
        VehicleFunction::new("brake-control", Domain::Chassis, true),
        VehicleFunction::new("steering-assist", Domain::Chassis, true),
        VehicleFunction::new("engine-mgmt", Domain::Powertrain, true),
        VehicleFunction::new("lane-keeping", Domain::Adas, true),
        VehicleFunction::new("object-detection", Domain::Adas, true),
        VehicleFunction::new("predictive-maintenance", Domain::Powertrain, false),
        VehicleFunction::new("media-player", Domain::Infotainment, false),
        VehicleFunction::new("navigation", Domain::Infotainment, false),
        VehicleFunction::new("climate", Domain::Body, false),
    ];
    println!("Fig. 1: consolidation under the three centralized E/E classes");
    println!("({} vehicle functions)", functions.len());
    let rows: Vec<Vec<String>> = [
        EeArchitecture::Decentralized,
        EeArchitecture::DomainCentralized,
        EeArchitecture::DomainFusion,
        EeArchitecture::VehicleCentralized,
    ]
    .into_iter()
    .map(|arch| {
        let plan = ConsolidationPlan::consolidate(arch, &functions);
        vec![
            arch.to_string(),
            plan.platform_count().to_string(),
            plan.max_colocation().to_string(),
            plan.has_mixed_criticality_platform().to_string(),
            arch.groups_by_domain().to_string(),
        ]
    })
    .collect();
    print!(
        "{}",
        render_table(
            &[
                "architecture",
                "platforms",
                "max co-location",
                "mixed criticality",
                "by domain"
            ],
            &rows
        )
    );
}

/// Fig. 2: CLUSTERPARTCR partition-group assignment.
fn fig2() {
    let (bits, rows) = bench::fig2();
    println!("Fig. 2: DynamIQ Shared Unit L3 partition control register");
    println!("CLUSTERPARTCR = {bits:#010x}");
    let table: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| {
            vec![
                format!("group {}", r.group),
                r.owner
                    .map_or("unassigned".to_string(), |s| format!("schemeID {s}")),
                format!("{:#06x}", r.way_mask),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["partition group", "private to", "ways (16-way L3)"],
            &table
        )
    );
}

/// Fig. 3: MPAM cache-portion partition bitmaps.
fn fig3() {
    println!("Fig. 3: cache portions assigned via MPAM cache-portion bitmaps");
    let rows: Vec<Vec<String>> = bench::fig3()
        .into_iter()
        .map(|r| {
            let kind = match (r.partid0, r.partid1) {
                (true, true) => "shared",
                (true, false) => "private to PARTID 0",
                (false, true) => "private to PARTID 1",
                (false, false) => "closed to both",
            };
            vec![
                format!("P{}", r.portion),
                r.partid0.to_string(),
                r.partid1.to_string(),
                kind.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["portion", "PARTID 0", "PARTID 1", "role"], &rows)
    );
}

/// Fig. 4: the FR-FCFS controller model, as a structural and behavioural
/// summary of the simulator configuration.
fn fig4() {
    let cfg = ControllerConfig::paper();
    let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
    println!("Fig. 4: FR-FCFS DRAM controller model");
    println!();
    println!(
        "  masters ──> [ read queue  (cap {:>2}) ] ──┐",
        cfg.read_queue_capacity
    );
    println!(
        "  masters ──> [ write queue (cap {:>2}) ] ──┤",
        cfg.write_queue_capacity
    );
    println!(
        "                                           ├──> scheduler ──> DRAM ({} banks)",
        ctrl.banks()
    );
    println!("              refresh timer (tREFI) ───────┘");
    println!();
    let t = ctrl.timing();
    let rows = vec![
        vec!["hit promotion cap N_cap".into(), cfg.n_cap.to_string()],
        vec!["write batch length N_wd".into(), cfg.n_wd.to_string()],
        vec!["high watermark W_high".into(), cfg.w_high.to_string()],
        vec!["low watermark W_low".into(), cfg.w_low.to_string()],
        vec![
            "row-miss read cost".into(),
            format!("{} ns", t.read_miss_cost()),
        ],
        vec![
            "row-hit read cost".into(),
            format!("{} ns", t.read_hit_cost()),
        ],
        vec![
            "write batch cost".into(),
            format!("{} ns", t.write_batch_cost(cfg.n_wd)),
        ],
        vec!["refresh cost tRFC".into(), format!("{} ns", t.t_rfc)],
        vec!["refresh interval tREFI".into(), format!("{} ns", t.t_refi)],
    ];
    print!("{}", render_table(&["parameter", "value"], &rows));
}

/// Fig. 5: the watermark read/write switching behaviour; `--smoke`
/// prints only the first eight switches.
fn fig5(smoke: bool, metrics: &mut MetricsRegistry) -> Result<(), String> {
    println!("Fig. 5: watermark policy — observed read/write mode switches");
    println!("(controller: W_low=8, W_high=24, N_wd=16 on DDR3-1600)");
    let events = bench::fig5(metrics);
    let shown = if smoke {
        8.min(events.len())
    } else {
        events.len()
    };
    let rows: Vec<Vec<String>> = events
        .into_iter()
        .take(shown)
        .map(|e| {
            vec![
                format!("{:.1}", e.at_ns),
                e.direction,
                e.write_queue_depth.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["time (ns)", "transition", "write queue depth"], &rows)
    );
    Ok(())
}

/// Fig. 6: end-to-end admission control across NoC + DRAM.
fn fig6() {
    println!("Fig. 6: E2E admission control — RM-assigned rates and guarantees");
    let rows: Vec<Vec<String>> = bench::fig6()
        .into_iter()
        .map(|r| {
            vec![
                format!("app{}", r.app),
                format!("{:.5}", r.rate),
                format!("{:.1}", r.e2e_bound_ns),
                format!("{:.1}", r.hop_by_hop_ns),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "application",
                "rate (req/ns)",
                "E2E bound (ns)",
                "hop-by-hop (ns)"
            ],
            &rows
        )
    );
}

/// Fig. 7: adaptive injection rates vs system mode.
fn fig7() {
    println!("Fig. 7: adaptive resource services (injection rate vs system mode)");
    let rows = bench::fig7(8);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.4}", r.symmetric_rate),
                format!("{:.4}", r.critical_rate),
                format!("{:.4}", r.best_effort_rate),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "mode",
                "symmetric",
                "critical (weighted)",
                "best effort (weighted)"
            ],
            &table
        )
    );
    println!("\nsymmetric rate per mode:");
    print!(
        "{}",
        render_bars(
            &rows
                .iter()
                .map(|r| (format!("mode {}", r.mode), r.symmetric_rate))
                .collect::<Vec<_>>(),
            40
        )
    );
}

/// X1: memory-interference characterization (the \[2\]-style latency
/// blowup).
fn interference() {
    println!("X1: latency-probe read latency vs co-running bandwidth hogs");
    let rows: Vec<Vec<String>> = bench::interference()
        .into_iter()
        .map(|r| {
            vec![
                r.hogs.to_string(),
                format!("{:.1}", r.mean_latency_ns),
                format!("{:.1}", r.max_latency_ns),
                format!("{:.2}x", r.slowdown),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["hogs", "mean latency (ns)", "max latency (ns)", "slowdown"],
            &rows
        )
    );
}

/// Validation: simulated adversarial probe completion vs analytic
/// bounds; `--smoke` sweeps N = 1..=6 instead of 1..=24.
fn validation(smoke: bool, metrics: &mut MetricsRegistry) -> Result<(), String> {
    let max_position = if smoke { 6 } else { 24 };
    println!("WCD validation at 4 Gbps writes: simulator vs analytic bounds");
    let rows: Vec<Vec<String>> = bench::validation_wcd(max_position, 4.0, metrics)
        .map_err(|e| format!("WCD validation sweep at 4 Gbps has no bound: {e}"))?
        .into_iter()
        .map(|r| {
            vec![
                r.queue_position.to_string(),
                format!("{:.1}", r.lower_ns),
                format!("{:.1}", r.simulated_ns),
                format!("{:.1}", r.upper_ns),
                (r.simulated_ns <= r.upper_ns).to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "N",
                "analytic lower",
                "simulated",
                "analytic upper",
                "within bound"
            ],
            &rows
        )
    );
    Ok(())
}

/// X2: cache-partitioning ablation (isolation vs the §II coupling
/// effect).
fn ablation_cache() {
    println!("X2: way-partitioning sweep (critical probe vs streaming hog)");
    let rows: Vec<Vec<String>> = bench::ablation_cache()
        .into_iter()
        .map(|r| {
            vec![
                if r.critical_ways == 0 {
                    "none".into()
                } else {
                    r.critical_ways.to_string()
                },
                format!("{:.3}", r.critical_hit_rate),
                format!("{:.1}", r.critical_mean_ns),
                format!("{:.3}", r.hog_hit_rate),
                format!("{:.1}", r.dram_busy_us),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "critical ways",
                "probe hit rate",
                "probe mean (ns)",
                "hog hit rate",
                "DRAM busy (us)"
            ],
            &rows
        )
    );
}

/// X3: MemGuard budget sweep (protection vs utilization trade-off).
fn ablation_memguard() {
    println!("X3: MemGuard hog-budget sweep (10 us regulation period)");
    let rows: Vec<Vec<String>> = bench::ablation_memguard()
        .into_iter()
        .map(|r| {
            vec![
                r.hog_budget
                    .map_or("unlimited".into(), |b| format!("{b} B")),
                format!("{:.1}", r.probe_mean_ns),
                format!("{:.1}", r.hog_finish_us),
                format!("{:.1}", r.hog_throttled_us),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "hog budget/period",
                "probe mean (ns)",
                "hog finish (us)",
                "hog throttled (us)"
            ],
            &rows
        )
    );
}

/// X4: scheduling-policy comparison (partitioned vs global fixed
/// priority).
fn ablation_sched() {
    println!("X4: schedulable task sets out of 50 random sets, 4 cores");
    for util in [0.5, 0.6, 0.7] {
        println!("\nper-core utilization {util}:");
        let rows: Vec<Vec<String>> = bench::ablation_sched(50, util)
            .into_iter()
            .map(|r| vec![r.policy, format!("{}/{}", r.schedulable_sets, r.trials)])
            .collect();
        print!("{}", render_table(&["policy", "schedulable"], &rows));
    }
}

/// X5: controller design-space exploration (N_wd x N_cap).
fn ablation_controller() {
    println!("X5: FR-FCFS design space (DDR3-1600, N=16, burst 8)");
    let rows: Vec<Vec<String>> = bench::ablation_controller()
        .into_iter()
        .map(|r| {
            vec![
                r.n_wd.to_string(),
                r.n_cap.to_string(),
                r.wcd_4gbps_ns
                    .map_or("saturated".into(), |w| format!("{w:.1}")),
                format!("{:.2}", r.max_rate_for_3us),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "N_wd",
                "N_cap",
                "WCD @ 4 Gbps (ns)",
                "max rate for 3 us WCD (Gbps)"
            ],
            &rows
        )
    );
}

/// X7: NoC priority partitioning (MPAM §III-B.4 at the interconnect).
fn ablation_priority() {
    println!("X7: critical-flow latency under congestion vs arbitration priority");
    let rows: Vec<Vec<String>> = bench::ablation_priority()
        .into_iter()
        .map(|r| {
            vec![
                r.critical_priority.to_string(),
                format!("{:.1}", r.critical_mean_cycles),
                format!("{:.1}", r.background_mean_cycles),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "critical priority",
                "critical mean (cycles)",
                "background mean (cycles)"
            ],
            &rows
        )
    );
}

/// X8: cluster-shared L2 interference (§II's pinning caveat).
fn ablation_cluster() {
    println!("X8: probe sharing a cluster L2 with a hog (64 KiB L2, 2 cores/cluster)");
    let rows: Vec<Vec<String>> = bench::ablation_cluster_l2()
        .into_iter()
        .map(|r| {
            vec![
                r.config,
                format!("{:.3}", r.probe_l2_hit_share),
                format!("{:.1}", r.probe_mean_ns),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["configuration", "probe L2 hit share", "probe mean (ns)"],
            &rows
        )
    );
}
