//! Small-scale self-test: every workload, untraced and traced, at
//! `Scale::TINY`. Each must pass its output checks and emit every
//! metric `BENCHMARK.json` names, with valid names and units.

use std::collections::BTreeSet;

use autoplat_perfbench::{run, Scale, Workload, END_TO_END, PER_LAYER};

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Metric names listed in one section of `BENCHMARK.json`.
fn benchmark_names(section: &str, next: Option<&str>) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\""))
            .expect("next section present")
    });
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

/// The per-layer metrics a workload measures itself; the rest read 0.
fn own_layer_metrics(w: Workload) -> BTreeSet<&'static str> {
    let prefix = match w {
        Workload::CampaignFull => "campaign.",
        Workload::CosimQos => "cosim.",
        Workload::FleetAdmission => "fleet.",
    };
    let mut names: BTreeSet<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.insert("error_rate");
    if w != Workload::CampaignFull {
        names.insert("trace_overhead");
    }
    names
}

#[test]
fn catalogue_matches_benchmark_json() {
    let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        benchmark_names("end_to_end", Some("per_layer")),
        names(END_TO_END)
    );
    assert_eq!(benchmark_names("per_layer", None), names(PER_LAYER));
    let workloads = benchmark_names("workloads", Some("end_to_end"));
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
    }
}

#[test]
fn every_workload_emits_every_metric() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = run(w, w.default_seed(), Scale::TINY, 0.0, traced);
            let what = format!("{} traced={traced}: {:#?}", w.name(), out.lines);
            assert!(out.correct, "{what}");
            assert!(out.attempted >= 1, "{what}");
            assert_eq!(out.failed, 0, "{what}");

            let measured: BTreeSet<&str> = out.metrics.keys().copied().collect();
            if traced {
                assert_eq!(measured, own_layer_metrics(w), "{what}");
            } else {
                let all: BTreeSet<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
                assert_eq!(measured, all, "{what}");
                for (name, v) in &out.metrics {
                    assert!(*v > 0.0, "{name} = {v}: {what}");
                }
            }
            for v in out.metrics.values() {
                assert!(v.is_finite(), "{what}");
            }

            let json = out.result_json(traced);
            let catalogue = if traced { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalogue {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {json}"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}
