//! Determinism and naming checks of the benchmark on small inputs: the
//! same seed repeats every count exactly, a second seed yields different
//! inputs that still certify, and every metric name is legal.

use std::collections::HashSet;

use kdom_perfbench::metrics::{is_valid_name, Outcome, END_TO_END, PER_LAYER};
use kdom_perfbench::workloads::{run, Config, Scale, SingleCall, Workload};

/// The counts that must repeat exactly for one seed.
const COUNTS: [&str; 4] = [
    "engine.messages",
    "engine.total_bits",
    "engine.executed_rounds",
    "core.partition_charge_rounds",
];

fn smoke(seed: u64) -> Config {
    Config {
        seed,
        seconds: 0.01,
        scale: Scale::Smoke,
    }
}

fn certified(w: Workload, cfg: &Config, traced: bool) -> Outcome {
    let out = run(w, cfg, traced);
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    assert!(
        out.correct(table),
        "{} seed {} traced={traced}: {:?}",
        w.name(),
        cfg.seed,
        out
    );
    out
}

#[test]
fn metric_names_are_legal_and_unique() {
    let mut seen = HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
    }
}

#[test]
fn single_call_counts_repeat_for_a_seed() {
    for w in [
        Workload::FastmstGnm,
        Workload::BfsGnm1m,
        Workload::KdomBroom,
    ] {
        let a = certified(w, &smoke(7), false);
        let b = certified(w, &smoke(7), false);
        assert_eq!(
            a.metrics.get("sim_rounds"),
            b.metrics.get("sim_rounds"),
            "{}",
            w.name()
        );
        let a = certified(w, &smoke(7), true);
        let b = certified(w, &smoke(7), true);
        for name in COUNTS {
            assert_eq!(
                a.metrics.get(name),
                b.metrics.get(name),
                "{} {name}",
                w.name()
            );
        }
        assert!(a.metrics.get("engine.messages") > Some(0.0), "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_inputs_and_still_certifies() {
    for w in [
        Workload::FastmstGnm,
        Workload::BfsGnm1m,
        Workload::KdomBroom,
    ] {
        let g1 = SingleCall::of(w, &smoke(7)).input();
        let g2 = SingleCall::of(w, &smoke(8)).input();
        assert_ne!(g1.fingerprint(), g2.fingerprint(), "{}", w.name());
        certified(w, &smoke(8), false);
        certified(w, &smoke(8), true);
    }
}

#[test]
fn serve_mix_certifies_and_repeats_its_rounds() {
    let a = certified(Workload::ServeMix, &smoke(3), false);
    let b = certified(Workload::ServeMix, &smoke(3), false);
    assert_eq!(a.metrics.get("sim_rounds"), b.metrics.get("sim_rounds"));
    let traced = certified(Workload::ServeMix, &smoke(4), true);
    assert!(traced.metrics.get("jobs.cache_lookups") > Some(0.0));
    assert!(traced.metrics.get("jobs.engine_runs") > Some(0.0));
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    // every other name is a workload the program runs
    let workloads = Workload::ALL
        .iter()
        .filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())))
        .count();
    assert!(workloads >= 2, "the gate needs at least two workloads");
    let names = json.matches("\"name\":").count();
    assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
}
