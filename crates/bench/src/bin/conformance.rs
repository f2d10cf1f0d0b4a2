//! Differential conformance sweep: analytic bounds as oracles for every
//! simulator (see `crates/conformance` and DESIGN.md §9).
//!
//! Flags:
//! * `--cases N` — cases per family (default 50, `--smoke` forces 5)
//! * `--seed S` — master seed (default 7)
//! * `--family NAME` — restrict to one family (dram, noc, memguard,
//!   sched, determinism, closedloop, dpq, perbank, diff)
//! * `--case-seed 0xHEX` — replay a single case seed (requires
//!   `--family`); this is the reproducer line printed on failure
//! * `--shards N` — fan the sweep across N worker threads (default 1);
//!   the report is byte-identical for every N (deterministic shard merge)
//! * `--export-json PATH` / `--export-csv PATH` — metrics export
//! * `--smoke` — tiny sweep for CI gating
//!
//! Exits 1 if any invariant is violated, printing the shrunk minimal
//! scenario and a replay command line for each failure.

use autoplat_bench::cli;
use autoplat_bench::format::render_table;
use autoplat_bench::ExportOptions;
use autoplat_conformance::{run_case, run_sweep_parallel, Family, Oracle, SweepConfig};
use autoplat_sim::MetricsRegistry;

struct Options {
    cases: u64,
    seed: u64,
    family: Option<Family>,
    case_seed: Option<u64>,
    shards: usize,
    /// `--smoke` only shrinks the default `--cases`.
    export: ExportOptions,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, String> {
    let export = ExportOptions::from_cli(args)?;
    let opts = Options {
        cases: args
            .value("--cases")?
            .unwrap_or(if export.smoke { 5 } else { 50 }),
        seed: args.value("--seed")?.unwrap_or(7),
        family: args
            .value::<String>("--family")?
            .map(|name| Family::parse(&name).ok_or_else(|| format!("unknown family '{name}'")))
            .transpose()?,
        case_seed: args
            .value::<String>("--case-seed")?
            .map(|raw| {
                let digits = raw.strip_prefix("0x").unwrap_or(&raw);
                u64::from_str_radix(digits, 16).map_err(|e| format!("--case-seed: {e}"))
            })
            .transpose()?,
        shards: args.value("--shards")?.unwrap_or(1),
        export,
    };
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if opts.case_seed.is_some() && opts.family.is_none() {
        return Err("--case-seed requires --family".into());
    }
    Ok(opts)
}

fn main() {
    let args = cli::parse_or_exit("conformance", parse_args);
    let oracle = Oracle::default();

    // Single-case replay path: the reproducer printed on failure.
    if let Some(seed) = args.case_seed {
        let family = args.family.expect("validated in parse_args");
        match run_case(&oracle, family, seed) {
            Ok(result) => {
                println!("case 0x{seed:x} ({}) -> {result:?}", family.name());
            }
            Err(shrunk) => {
                eprintln!(
                    "case 0x{seed:x} ({}) FAILED: {}\nminimal scenario: {:?}",
                    family.name(),
                    shrunk.violation,
                    shrunk.scenario
                );
                std::process::exit(1);
            }
        }
        return;
    }

    let config = SweepConfig {
        seed: args.seed,
        cases: args.cases,
        family: args.family,
        oracle,
    };
    println!(
        "conformance sweep: {} cases/family, master seed {}, {} shard{}",
        config.cases,
        config.seed,
        args.shards,
        if args.shards == 1 { "" } else { "s" }
    );
    let report = run_sweep_parallel(&config, args.shards);
    let rows: Vec<Vec<String>> = report
        .stats
        .iter()
        .map(|(family, s)| {
            vec![
                family.name().to_string(),
                s.cases.to_string(),
                s.passed.to_string(),
                s.vacuous.to_string(),
                s.violations.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["family", "cases", "passed", "vacuous", "violations"],
            &rows
        )
    );

    let mut metrics = MetricsRegistry::new();
    report.publish_metrics(&mut metrics);
    cli::or_exit("conformance", 1, args.export.write(&metrics));

    if !report.all_passed() {
        for failure in &report.failures {
            eprintln!(
                "\nFAIL {} case {} (seed 0x{:x}, size {} -> {} in {} steps)\n{}",
                failure.family.name(),
                failure.case_index,
                failure.case_seed,
                failure.original_size,
                failure.shrunk.scenario.size(),
                failure.shrunk.steps,
                failure.reproducer()
            );
        }
        std::process::exit(1);
    }
    println!("all {} cases conformant", report.total_cases());
}
