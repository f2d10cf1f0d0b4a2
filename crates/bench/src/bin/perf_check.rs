//! Perf regression gate: compares a freshly measured metrics export
//! against a committed baseline and fails when throughput regresses.
//!
//! Every gauge named `*_per_sec` present in **both** files is compared;
//! the fresh value must reach at least `--min-ratio` (default 0.25) of
//! the baseline. The deliberately loose default absorbs machine-to-
//! machine variance and CI noise while still catching order-of-magnitude
//! regressions (an accidental O(n^2) queue, a debug assert in a hot
//! loop). Gauges present in only one file are reported but never fail
//! the gate, so adding or renaming benches does not require lock-step
//! baseline updates.
//!
//! Flags:
//! * `--baseline PATH` — committed reference export (required)
//! * `--fresh PATH` — just-measured export to judge (required)
//! * `--min-ratio R` — fresh/baseline floor, 0 < R (default 0.25)
//!
//! Exits 1 listing every regressed gauge, 2 on usage/parse errors.

use autoplat_bench::cli;
use autoplat_sim::MetricsRegistry;

struct Options {
    baseline: String,
    fresh: String,
    min_ratio: f64,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, String> {
    let opts = Options {
        baseline: args.value("--baseline")?.ok_or("--baseline is required")?,
        fresh: args.value("--fresh")?.ok_or("--fresh is required")?,
        min_ratio: args.value("--min-ratio")?.unwrap_or(0.25),
    };
    if opts.min_ratio <= 0.0 || !opts.min_ratio.is_finite() {
        return Err("--min-ratio must be a positive finite number".into());
    }
    Ok(opts)
}

fn load(path: &str) -> Result<MetricsRegistry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    MetricsRegistry::counters_and_gauges_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Names of all `*_per_sec` gauges in a registry.
fn throughput_gauges(registry: &MetricsRegistry) -> Vec<String> {
    registry
        .names()
        .into_iter()
        .filter(|name| name.ends_with("_per_sec") && registry.gauge(name).is_some())
        .map(str::to_string)
        .collect()
}

fn main() {
    let args = cli::parse_or_exit("perf_check", parse_args);
    let baseline = cli::or_exit("perf_check", 2, load(&args.baseline));
    let fresh = cli::or_exit("perf_check", 2, load(&args.fresh));

    let base_names = throughput_gauges(&baseline);
    let fresh_names = throughput_gauges(&fresh);
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for name in &base_names {
        let base = baseline.gauge(name).expect("filtered on presence");
        let Some(now) = fresh.gauge(name) else {
            println!("perf_check: {name}: only in baseline, skipped");
            continue;
        };
        compared += 1;
        let floor = base * args.min_ratio;
        let ratio = if base > 0.0 {
            now / base
        } else {
            f64::INFINITY
        };
        if now < floor {
            regressions.push(format!(
                "{name}: fresh {now:.0} < {floor:.0} ({:.0} baseline x {}), ratio {ratio:.3}",
                base, args.min_ratio
            ));
        } else {
            println!("perf_check: {name}: {now:.0} vs baseline {base:.0} (ratio {ratio:.2}) ok");
        }
    }
    for name in &fresh_names {
        if baseline.gauge(name).is_none() {
            println!("perf_check: {name}: only in fresh export, skipped");
        }
    }

    if compared == 0 {
        eprintln!(
            "perf_check: no overlapping *_per_sec gauges between {} and {}",
            args.baseline, args.fresh
        );
        std::process::exit(2);
    }
    if !regressions.is_empty() {
        eprintln!(
            "perf_check: {} of {compared} throughput gauges regressed below {}x baseline:",
            regressions.len(),
            args.min_ratio
        );
        for line in &regressions {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
    println!(
        "perf_check: {compared} throughput gauges within {}x of {}",
        args.min_ratio, args.baseline
    );
}
