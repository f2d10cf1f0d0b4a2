//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_full|cosim_qos|fleet_admission> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Report lines go to standard output; the last line is the JSON result
//! (`correct`, `attempted`, `failed`, `metrics`); a failed output check
//! shows as `"correct": false`. Exits 2 on bad arguments or a debug
//! build.

use autoplat_perfbench::{nproc, run, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <campaign_full|cosim_qos|fleet_admission> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; run with `cargo run --release`");
        std::process::exit(2);
    }
    let w = args.workload;
    let seed = args.seed.unwrap_or(w.default_seed());
    println!(
        "perfbench: workload {} seed {seed} (default {}, held-out {}), {} run, {} s, nproc {}, campaign workers {}, release build",
        w.name(),
        w.default_seed(),
        w.held_out_seed(),
        if args.trace { "traced" } else { "untraced" },
        args.seconds,
        nproc(),
        autoplat_perfbench::campaign::WORKERS.min(nproc()),
    );
    let outcome = run(w, seed, Scale::FULL, args.seconds, args.trace);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result_json(args.trace));
}
