//! Perf-baseline exporter: measures the event-kernel and co-simulation
//! workloads in `autoplat_bench::perf` and writes the results as
//! `autoplat.metrics.v1` JSON.
//!
//! Flags:
//! * `--quick` — CI smoke scale (seconds); without it, the full scale the
//!   committed repo-root `BENCH_kernel.json` / `BENCH_cosim.json`
//!   baselines are produced at
//! * `--export-kernel PATH` — write the kernel baselines JSON
//! * `--export-cosim PATH` — write the co-sim baselines JSON
//!
//! Build `--release`: these numbers are the trajectory later PRs are
//! compared against, and debug timings would poison the record. The
//! exporter refuses to write from an unoptimized build.
//!
//! Exits non-zero if the calendar queue fails to keep its hold-model
//! throughput at or above the retained `BinaryHeap` baseline — the
//! regression this artifact exists to catch.

use std::path::PathBuf;

use autoplat_bench::cli;
use autoplat_bench::export::write_json;
use autoplat_bench::format::render_table;
use autoplat_bench::perf::{cosim_baselines, kernel_baselines, PerfScale};
use autoplat_sim::metrics::MetricsRegistry;

struct Options {
    quick: bool,
    export_kernel: Option<PathBuf>,
    export_cosim: Option<PathBuf>,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, String> {
    Ok(Options {
        quick: args.flag("--quick"),
        export_kernel: args.value("--export-kernel")?,
        export_cosim: args.value("--export-cosim")?,
    })
}

fn print_gauges(registry: &MetricsRegistry, names: &[&str]) {
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|n| {
            vec![
                n.to_string(),
                format!("{:.0}", registry.gauge(n).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    print!("{}", render_table(&["metric", "per second"], &rows));
}

fn main() {
    let args = cli::parse_or_exit("perf", parse_args);
    cli::refuse_debug_timing("perf", false);
    let scale = if args.quick {
        PerfScale::quick()
    } else {
        PerfScale::full()
    };

    println!(
        "perf baselines ({} scale)",
        if args.quick { "quick" } else { "full" }
    );
    let kernel = kernel_baselines(scale);
    print_gauges(
        &kernel,
        &[
            "kernel.queue.calendar.hold_events_per_sec",
            "kernel.queue.heap.hold_events_per_sec",
            "kernel.queue.calendar.burst_events_per_sec",
            "kernel.queue.heap.burst_events_per_sec",
            "kernel.queue.calendar.ties_events_per_sec",
            "kernel.queue.heap.ties_events_per_sec",
            "kernel.engine.chain_events_per_sec",
            "kernel.engine.batch_events_per_sec",
        ],
    );
    let speedup = kernel
        .gauge("kernel.queue.hold_speedup_vs_heap")
        .unwrap_or(0.0);
    println!("calendar vs heap on the hold model: {speedup:.2}x");

    let cosim = cosim_baselines(scale);
    print_gauges(
        &cosim,
        &[
            "cosim.kick.events_per_sec",
            "cosim.noc.event_cycles_per_sec",
            "cosim.noc.dense_cycles_per_sec",
        ],
    );
    println!(
        "event-driven NoC vs dense reference: {:.1}x",
        cosim
            .gauge("cosim.noc.event_vs_dense_speedup")
            .unwrap_or(0.0)
    );

    for (path, registry) in [(&args.export_kernel, &kernel), (&args.export_cosim, &cosim)] {
        if let Some(path) = path {
            cli::or_exit("perf", 1, write_json(path, registry));
            println!("perf baselines written to {}", path.display());
        }
    }

    if speedup < 1.0 {
        eprintln!(
            "perf: REGRESSION — calendar queue hold-model throughput fell below \
             the BinaryHeap baseline ({speedup:.2}x)"
        );
        std::process::exit(1);
    }
}
