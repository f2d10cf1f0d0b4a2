//! Composed full-platform co-simulation: DRAM + NoC + MemGuard +
//! scheduling + admission control under one clock on the shared
//! discrete-event kernel, plus a tick-stepped vs event-driven NoC
//! kernel benchmark on sparse traffic.
//!
//! Flags: `--smoke` (short horizon and benchmark window),
//! `--closed-loop` (compose the MPAM-monitored QoS loop on top),
//! `--sensor-faults` (with `--closed-loop`: drop every monitor
//! capture, forcing graceful degradation to safe static partitions),
//! `--export-json <path>`, `--export-csv <path>` — see
//! [`autoplat_bench::ExportOptions`]. Exports carry only the
//! deterministic co-simulation metrics, never wall-clock timings.

use std::time::Instant;

use autoplat_bench::cli;
use autoplat_bench::format::render_table;
use autoplat_bench::perf::sparse_noc;
use autoplat_bench::ExportOptions;
use autoplat_core::platform::{CoSim, CoSimConfig, ControlCommand, QosReport};
use autoplat_sim::{FaultPlan, SimTime};

fn main() {
    let (opts, closed_loop, sensor_faults) = cli::parse_or_exit("cosim", |args| {
        let opts = ExportOptions::from_cli(args)?;
        let closed_loop = args.flag("--closed-loop");
        let sensor_faults = args.flag("--sensor-faults");
        if sensor_faults && !closed_loop {
            return Err("--sensor-faults requires --closed-loop".into());
        }
        Ok((opts, closed_loop, sensor_faults))
    });

    let mut cfg = if closed_loop {
        CoSimConfig::small_qos()
    } else {
        CoSimConfig::small()
    };
    if opts.smoke {
        // The closed-loop smoke still needs a few 5 us epochs so the
        // watchdog (fault tolerance 2) can reach safe mode.
        cfg.horizon = SimTime::from_us(if closed_loop { 25.0 } else { 10.0 });
    }
    if closed_loop {
        if sensor_faults {
            cfg.fault_plan = FaultPlan::new().sensor_drop_probability(1.0);
        }
    } else {
        // Exercise the control plane: tighten, then restore, core 2's
        // budget. The closed-loop run owns the budgets itself, so the
        // manual commands only make sense open-loop.
        cfg.controls = vec![
            (
                SimTime::from_us(3.0),
                ControlCommand::SetBudget {
                    core: 2,
                    bytes_per_period: 2048,
                },
            ),
            (
                SimTime::from_us(7.0),
                ControlCommand::SetBudget {
                    core: 2,
                    bytes_per_period: 192,
                },
            ),
        ];
    }
    let horizon = cfg.horizon;
    println!(
        "Co-simulation: {} tasks on a 4x4 mesh over {:.0} us{}",
        cfg.tasks.len(),
        horizon.as_us(),
        if closed_loop {
            " (closed-loop QoS)"
        } else {
            ""
        }
    );

    let report = CoSim::new(cfg).run();

    let rows: Vec<Vec<String>> = report
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                i.to_string(),
                t.released.to_string(),
                t.completed.to_string(),
                t.deadline_misses.to_string(),
                t.throttle_stalls.to_string(),
                format!("{:.1}", t.response.mean()),
                format!("{:.1}", t.response.max().unwrap_or(0.0)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "task",
                "released",
                "completed",
                "misses",
                "stalls",
                "mean resp ns",
                "max resp ns"
            ],
            &rows
        )
    );
    println!(
        "packets delivered: {} (mean NoC latency {:.1} cycles)",
        report.packets_delivered, report.mean_noc_latency_cycles
    );
    println!(
        "DRAM: busy {:.1} us, {} row hits / {} misses, {} refreshes",
        report.dram_busy.as_us(),
        report.dram_row_hits,
        report.dram_row_misses,
        report.dram_refreshes
    );
    println!(
        "regulation: {} replenishments; controls: {} applied, {} refused, {} dropped",
        report.replenishments,
        report.controls_applied,
        report.controls_refused,
        report.controls_dropped
    );
    println!(
        "finished at {:.2} us after {} kernel events",
        report.finished_at.as_us(),
        report.events_delivered
    );
    if let Some(qos) = &report.qos {
        print_qos_summary(qos);
    }

    kernel_benchmark(opts.smoke);

    cli::or_exit("cosim", 1, opts.write(&report.metrics));
}

/// Prints the closed-loop QoS outcome: per-partition caps vs observed
/// traffic in the final epoch, loop activity, and — if the sensor
/// watchdog gave up — the degradation reason and safe-mode epoch.
fn print_qos_summary(qos: &QosReport) {
    println!(
        "\nQoS loop: {} epochs, {} budget retunes, {} captures dropped",
        qos.epochs.len(),
        qos.loop_adjustments,
        qos.captures_dropped
    );
    println!(
        "shared cache: {} hits / {} misses",
        qos.cache_hits, qos.cache_misses
    );
    if let Some(last) = qos.epochs.last() {
        let rows: Vec<Vec<String>> = last
            .parts
            .iter()
            .map(|p| {
                vec![
                    p.partid.to_string(),
                    p.observed_bytes.to_string(),
                    p.cap_bytes.to_string(),
                    p.reading.map_or("dropped".to_string(), |r| r.to_string()),
                    p.budget_after.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["part", "observed B", "cap B", "reading", "budget B"],
                &rows
            )
        );
    }
    match (&qos.degraded, qos.safe_mode_epoch) {
        (Some(reason), Some(epoch)) => {
            println!("degraded to safe static partitions at epoch {epoch}: {reason:?}")
        }
        (Some(reason), None) => println!("degraded: {reason:?}"),
        _ => println!("loop healthy: no degradation"),
    }
}

/// Times the tick-stepped reference against the event-driven kernel
/// path on identical sparse traffic. Wall-clock numbers go to stdout
/// only; the exported metrics stay deterministic.
fn kernel_benchmark(smoke: bool) {
    let cycles: u64 = if smoke { 50_000 } else { 500_000 };
    let gap: u64 = 1_000;

    let mut dense = sparse_noc(cycles, gap);
    let started = Instant::now();
    dense.run_cycles_dense(cycles);
    let dense_wall = started.elapsed();

    let mut event = sparse_noc(cycles, gap);
    let started = Instant::now();
    event.run_cycles(cycles);
    let event_wall = started.elapsed();

    assert_eq!(
        dense.completed().len(),
        event.completed().len(),
        "kernel paths must agree before their timings mean anything"
    );

    let rate = |wall: std::time::Duration| cycles as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "\nNoC kernel benchmark: {cycles} cycles, one 4-flit packet per {gap} cycles, \
         {} delivered",
        event.completed().len()
    );
    let rows = vec![
        vec![
            "tick-stepped".to_string(),
            format!("{:.1}", dense_wall.as_secs_f64() * 1e3),
            format!("{:.0}", rate(dense_wall)),
        ],
        vec![
            "event-driven".to_string(),
            format!("{:.1}", event_wall.as_secs_f64() * 1e3),
            format!("{:.0}", rate(event_wall)),
        ],
    ];
    print!("{}", render_table(&["path", "wall ms", "cycles/s"], &rows));
    println!(
        "event-driven speedup on sparse traffic: {:.1}x",
        dense_wall.as_secs_f64() / event_wall.as_secs_f64().max(1e-9)
    );
}
