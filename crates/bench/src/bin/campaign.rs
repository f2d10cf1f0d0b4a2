//! `campaign` — the design-space sweep reproducing the paper's
//! interference-variation claim as a measured distribution.
//!
//! Sweeps a seeded grid (mesh topology × task set × MemGuard budgets ×
//! control-fault plan, crossed with an arbiter axis that only picks the
//! point's conformance family), measuring every point's
//! loaded-vs-solo slowdown and WCD-bound tightness, and reduces the
//! outcomes into one byte-deterministic `autoplat.metrics.v1` export
//! (`BENCH_campaign.json`). The report is identical for any `--workers`
//! value, and a run killed with `--kill-after-chunks` resumes with
//! `--resume` to the same bytes — `ci.sh` holds both properties with
//! `cmp` gates.
//!
//! ```text
//! campaign [--smoke] [--points N] [--workers N] [--seed S]
//!          [--chunk-points K] [--checkpoint-dir DIR] [--resume]
//!          [--kill-after-chunks N] [--deterministic]
//!          [--export-json PATH] [--export-csv PATH]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use autoplat_bench::cli;
use autoplat_bench::ExportOptions;
use autoplat_campaign::{
    run, run_checkpointed, CampaignConfig, CampaignSpec, CampaignStatus, DirStore,
};
use autoplat_sim::MetricsRegistry;

struct Options {
    /// `--smoke`, `--export-json`, `--export-csv`.
    export: ExportOptions,
    points: Option<u64>,
    workers: usize,
    seed: u64,
    chunk_points: u64,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    kill_after_chunks: Option<u64>,
    deterministic: bool,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, String> {
    let opts = Options {
        export: ExportOptions::from_cli(args)?,
        points: args.value("--points")?,
        workers: args.value("--workers")?.unwrap_or(4),
        seed: args.value("--seed")?.unwrap_or(42),
        chunk_points: args.value("--chunk-points")?.unwrap_or(8),
        checkpoint_dir: args.value("--checkpoint-dir")?,
        resume: args.flag("--resume"),
        kill_after_chunks: args.value("--kill-after-chunks")?,
        deterministic: args.flag("--deterministic"),
    };
    if opts.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    if opts.points == Some(0) {
        return Err("--points must be >= 1".into());
    }
    if (opts.resume || opts.kill_after_chunks.is_some()) && opts.checkpoint_dir.is_none() {
        return Err("--resume / --kill-after-chunks need --checkpoint-dir".into());
    }
    Ok(opts)
}

fn gauge(reg: &MetricsRegistry, name: &str) -> f64 {
    reg.gauge(name).unwrap_or(f64::NAN)
}

fn main() {
    let args = cli::parse_or_exit("campaign", parse_args);
    if !args.deterministic {
        cli::refuse_debug_timing("campaign", true);
    }

    let spec = if args.export.smoke {
        CampaignSpec::smoke(args.seed)
    } else {
        CampaignSpec::full(args.seed)
    };
    let mut cfg = CampaignConfig::new(spec);
    cfg.points = args.points;
    cfg.chunk_points = args.chunk_points;
    cfg.workers = args.workers;
    println!(
        "campaign: {} points in {} chunks, {} workers, seed {} ({} grid)",
        cfg.total_points(),
        cfg.total_chunks(),
        cfg.workers,
        args.seed,
        if args.export.smoke { "smoke" } else { "full" }
    );

    let started = Instant::now();
    let report = match &args.checkpoint_dir {
        Some(dir) => {
            let mut store = cli::or_exit("campaign", 2, DirStore::open(dir));
            let status = cli::or_exit(
                "campaign",
                1,
                run_checkpointed(&cfg, &mut store, args.resume, args.kill_after_chunks),
            );
            match status {
                CampaignStatus::Complete(report) => *report,
                CampaignStatus::Paused {
                    completed_chunks,
                    total_chunks,
                } => {
                    println!(
                        "campaign: paused after {completed_chunks}/{total_chunks} chunks; \
                         rerun with --resume to continue"
                    );
                    return;
                }
            }
        }
        None => run(&cfg),
    };
    let elapsed = started.elapsed().as_secs_f64();

    let mut metrics = report.metrics;
    if !args.deterministic {
        metrics.gauge_set(
            "campaign.points_per_sec",
            cfg.total_points() as f64 / elapsed.max(1e-9),
        );
        metrics.gauge_set("campaign.wall_seconds", elapsed);
    }

    println!(
        "  interference: slowdown min {:.2}x / max {:.2}x -> variation ratio {:.2}x",
        gauge(&metrics, "campaign.interference.min_slowdown"),
        gauge(&metrics, "campaign.interference.max_slowdown"),
        gauge(&metrics, "campaign.interference.variation_ratio"),
    );
    println!(
        "  unthrottled subset (pure interference): variation ratio {:.2}x",
        gauge(
            &metrics,
            "campaign.interference.unthrottled_variation_ratio"
        ),
    );
    println!(
        "  wcd-bound tightness: p50 {:.3} / p95 {:.3} / p99 {:.3}",
        gauge(&metrics, "campaign.wcd_tightness.p50"),
        gauge(&metrics, "campaign.wcd_tightness.p95"),
        gauge(&metrics, "campaign.wcd_tightness.p99"),
    );
    println!(
        "  conformance: {} passed, {} vacuous, {} violations",
        metrics.counter("campaign.conformance.passed"),
        metrics.counter("campaign.conformance.vacuous"),
        metrics.counter("campaign.conformance.violations"),
    );

    cli::or_exit("campaign", 1, args.export.write(&metrics));

    if metrics.counter("campaign.conformance.violations") > 0 {
        eprintln!("campaign: conformance violations in the sweep");
        std::process::exit(1);
    }
}
