//! `campaign` — the design-space sweep reproducing the paper's
//! interference-variation claim as a measured distribution.
//!
//! Sweeps a seeded grid (arbiter policy × mesh topology × task set ×
//! MemGuard budgets × control-fault plan), measuring every point's
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

use autoplat_campaign::{
    run, run_checkpointed, CampaignConfig, CampaignSpec, CampaignStatus, DirStore,
};
use autoplat_sim::metrics::{validate_csv_export, validate_json_export};
use autoplat_sim::MetricsRegistry;

struct Args {
    smoke: bool,
    points: Option<u64>,
    workers: usize,
    seed: u64,
    chunk_points: u64,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    kill_after_chunks: Option<u64>,
    deterministic: bool,
    export_json: Option<PathBuf>,
    export_csv: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        points: None,
        workers: 4,
        seed: 42,
        chunk_points: 8,
        checkpoint_dir: None,
        resume: false,
        kill_after_chunks: None,
        deterministic: false,
        export_json: None,
        export_csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--resume" => args.resume = true,
            "--deterministic" => args.deterministic = true,
            "--points" => {
                args.points = Some(
                    value("--points")?
                        .parse()
                        .map_err(|e| format!("--points: {e}"))?,
                )
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--chunk-points" => {
                args.chunk_points = value("--chunk-points")?
                    .parse()
                    .map_err(|e| format!("--chunk-points: {e}"))?
            }
            "--kill-after-chunks" => {
                args.kill_after_chunks = Some(
                    value("--kill-after-chunks")?
                        .parse()
                        .map_err(|e| format!("--kill-after-chunks: {e}"))?,
                )
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?))
            }
            "--export-json" => args.export_json = Some(PathBuf::from(value("--export-json")?)),
            "--export-csv" => args.export_csv = Some(PathBuf::from(value("--export-csv")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    if args.points == Some(0) {
        return Err("--points must be >= 1".into());
    }
    if (args.resume || args.kill_after_chunks.is_some()) && args.checkpoint_dir.is_none() {
        return Err("--resume / --kill-after-chunks need --checkpoint-dir".into());
    }
    Ok(args)
}

fn gauge(reg: &MetricsRegistry, name: &str) -> f64 {
    reg.gauge(name).unwrap_or(f64::NAN)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) && !args.deterministic {
        eprintln!(
            "campaign: refusing to record wall-clock throughput from a debug build; \
             run with `cargo run --release -p autoplat-bench --bin campaign` \
             (or pass --deterministic for a timing-free export)"
        );
        std::process::exit(2);
    }

    let spec = if args.smoke {
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
        if args.smoke { "smoke" } else { "full" }
    );

    let started = Instant::now();
    let report = match &args.checkpoint_dir {
        Some(dir) => {
            let mut store = DirStore::open(dir).unwrap_or_else(|e| {
                eprintln!("campaign: {e}");
                std::process::exit(2);
            });
            let status = run_checkpointed(&cfg, &mut store, args.resume, args.kill_after_chunks)
                .unwrap_or_else(|e| {
                    eprintln!("campaign: {e}");
                    std::process::exit(1);
                });
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

    if let Some(path) = &args.export_json {
        let json = metrics.to_json();
        validate_json_export(&json).unwrap_or_else(|e| {
            eprintln!("campaign: refusing to write invalid JSON export: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("campaign: writing {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("metrics JSON written to {}", path.display());
    }
    if let Some(path) = &args.export_csv {
        let csv = metrics.to_csv();
        validate_csv_export(&csv).unwrap_or_else(|e| {
            eprintln!("campaign: refusing to write invalid CSV export: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, csv).unwrap_or_else(|e| {
            eprintln!("campaign: writing {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("metrics CSV written to {}", path.display());
    }

    if metrics.counter("campaign.conformance.violations") > 0 {
        eprintln!("campaign: conformance violations in the sweep");
        std::process::exit(1);
    }
}
