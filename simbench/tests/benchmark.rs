//! The benchmark's own checks: its digests catch a changed report, every
//! name it prints is declared in `BENCHMARK.json`, and its reference is a
//! function of the seed.

use std::collections::BTreeSet;

use burst_core::Mechanism;
use burst_sim::{try_simulate, RunLength, SimReport, SystemConfig};
use burst_simbench::digest::{self, cell_key, report_digest, Digests};
use burst_simbench::metrics::{self, END_TO_END, PER_LAYER, SUMMARY_ONLY};
use burst_simbench::runs::{self, Plan, Workload, DEFAULT_SEED};
use burst_workloads::SpecBenchmark;

/// A plan of `workload` small enough for a debug build.
fn small(workload: Workload, seed: u64) -> Plan {
    Plan {
        instructions: 2_000,
        ..Plan::new(workload, seed)
    }
}

fn small_report() -> SimReport {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    try_simulate(
        &cfg,
        SpecBenchmark::Swim.workload(DEFAULT_SEED),
        RunLength::Instructions(2_000),
    )
    .expect("a short swim run completes")
}

#[test]
fn a_perturbed_report_fails_the_digest_check() {
    let report = small_report();
    let key = cell_key(SpecBenchmark::Swim, report.mechanism);
    let reference: Digests = [(key.clone(), report_digest(&report))].into();
    assert!(digest::matches(&reference, &key, report_digest(&report)));

    type Perturb = fn(&mut SimReport);
    let perturbations: [(&str, Perturb); 6] = [
        ("cpu_cycles", |r| r.cpu_cycles += 1),
        ("instructions", |r| r.instructions += 1),
        ("ctrl.row_hits", |r| r.ctrl.row_hits += 1),
        ("bus.activates", |r| r.bus.activates += 1),
        ("cpu.stall_cycles", |r| r.cpu.stall_cycles += 1),
        ("robustness.retries", |r| r.robustness.retries += 1),
    ];
    for (field, perturb) in perturbations {
        let mut bad = report.clone();
        perturb(&mut bad);
        assert!(
            !digest::matches(&reference, &key, report_digest(&bad)),
            "perturbing {field} went unnoticed"
        );
    }
    // The engine counters are not compared by `SimReport::eq`, so they do
    // not enter the digest either: engines differ in them by design.
    let mut other_engine = report.clone();
    other_engine.engine.steps += 1;
    assert!(digest::matches(
        &reference,
        &key,
        report_digest(&other_engine)
    ));
    // A cell missing from the reference fails too.
    assert!(!digest::matches(
        &Digests::new(),
        &key,
        report_digest(&report)
    ));
}

#[test]
fn a_run_checked_against_another_reference_fails() {
    let plan = small(Workload::SwimDense, DEFAULT_SEED);
    let mut reference = runs::compute_reference(&plan).expect("reference");
    for d in reference.values_mut() {
        *d ^= 1;
    }
    let outcome = runs::run_untraced(&plan, 0.0, &reference);
    assert_eq!(outcome.failed, outcome.attempted);
    assert!(!outcome.correct());
    let text = outcome.render(END_TO_END).expect("renders");
    assert!(text.trim_end().ends_with('}') && text.contains("\"correct\": false"));
}

#[test]
fn same_seed_gives_the_same_digests_and_another_seed_different_ones() {
    let w = Workload::SwimDense;
    let a = runs::compute_reference(&small(w, DEFAULT_SEED)).expect("reference");
    let b = runs::compute_reference(&small(w, DEFAULT_SEED)).expect("reference");
    let c = runs::compute_reference(&small(w, DEFAULT_SEED + 1)).expect("reference");
    assert_eq!(a, b);
    assert_eq!(a.keys().collect::<Vec<_>>(), c.keys().collect::<Vec<_>>());
    assert_ne!(a, c, "the seed did not change the reference");
}

#[test]
fn another_seed_checks_a_sample_of_every_benchmark_against_the_reference() {
    let keys = |plan: Plan| -> BTreeSet<String> {
        plan.reference_cells()
            .into_iter()
            .map(|(b, m)| cell_key(b, m))
            .collect()
    };
    let all = keys(Plan::new(Workload::EvalSweep, DEFAULT_SEED));
    let mut covered = BTreeSet::new();
    for seed in DEFAULT_SEED + 1..DEFAULT_SEED + 11 {
        let sample = keys(Plan::new(Workload::EvalSweep, seed));
        assert_eq!(sample.len(), 16 * runs::SAMPLED_PER_BENCHMARK, "seed {seed}");
        for b in SpecBenchmark::all16() {
            let prefix = format!("{}/", b.name());
            let row = sample.iter().filter(|k| k.starts_with(&prefix)).count();
            assert_eq!(row, runs::SAMPLED_PER_BENCHMARK, "seed {seed}, {}", b.name());
        }
        assert!(sample.is_subset(&all), "seed {seed}");
        covered.extend(sample);
    }
    assert!(
        covered.len() * 2 > all.len(),
        "ten seeds check only {} of {} cells",
        covered.len(),
        all.len()
    );
}

#[test]
fn the_recorded_reference_covers_every_cell_of_every_workload() {
    for w in Workload::ALL {
        let recorded = digest::parse_recorded(digest::RECORDED, w.name()).expect("parses");
        let mut cells: Vec<String> = Plan::new(w, DEFAULT_SEED)
            .cells()
            .into_iter()
            .map(|(b, m)| cell_key(b, m))
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(
            recorded.keys().cloned().collect::<Vec<_>>(),
            cells,
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_printed_name_is_well_formed_and_declared() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    // The file's own layout: workloads, then end_to_end, then per_layer.
    // Each section holds its declared entries in order and no others.
    let (head, per_layer) = text
        .split_once("\"per_layer\"")
        .expect("a per_layer section");
    let (workloads, end_to_end) = head
        .split_once("\"end_to_end\"")
        .expect("an end_to_end section");
    let entries: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()))
        .collect();
    assert_in_order(workloads, &entries);
    assert_eq!(workloads.matches("\"why\": ").count(), entries.len());
    for (section, list) in [(end_to_end, END_TO_END), (per_layer, PER_LAYER)] {
        let entries: Vec<String> = list
            .iter()
            .map(|m| format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit))
            .collect();
        assert_in_order(section, &entries);
        assert_eq!(section.matches("\"unit\": ").count(), entries.len());
    }

    // What real runs print, untraced and traced.
    let plan = small(Workload::SwimDense, DEFAULT_SEED);
    let reference = runs::compute_reference(&plan).expect("reference");
    let printed = [
        (runs::run_untraced(&plan, 0.0, &reference), END_TO_END),
        (runs::run_traced(&plan, &reference), PER_LAYER),
    ];
    for (outcome, list) in printed {
        assert!(outcome.correct(), "{:?}", outcome.problems);
        let text = outcome
            .render(list)
            .expect("every metric measured and declared");
        let (lines, result) = text
            .trim_end()
            .rsplit_once('\n')
            .expect("lines and a result");
        for line in lines.lines() {
            let mut fields = line.split(' ');
            assert_eq!(fields.next(), Some("metric"), "{line}");
            let name = fields.next().expect("a name");
            assert!(valid_name(name), "{name}");
            let unit = fields.nth(1).expect("a unit");
            let decl = metrics::find(list, name).or_else(|| metrics::find(SUMMARY_ONLY, name));
            assert_eq!(decl.map(|m| m.unit), Some(unit), "{name} is not declared");
        }
        let metrics = result
            .strip_prefix("{\"correct\": true, \"attempted\": ")
            .and_then(|r| r.split_once(", \"failed\": 0, \"metrics\": {"))
            .map(|(attempted, metrics)| {
                assert!(attempted.parse::<u64>().is_ok_and(|n| n > 0), "{result}");
                metrics
            })
            .unwrap_or_else(|| panic!("result keys out of shape: {result}"));
        let entries: Vec<String> = list
            .iter()
            .flat_map(|m| {
                [
                    format!("\"{}\": {{\"value\": ", m.name),
                    format!(", \"unit\": \"{}\"}}", m.unit),
                ]
            })
            .collect();
        assert_in_order(metrics, &entries);
        assert_eq!(metrics.matches("\"value\": ").count(), list.len());
        assert!(metrics.ends_with("}}"), "{result}");
    }
}

/// Asserts that `text` holds each of `entries` in order.
fn assert_in_order(text: &str, entries: &[String]) {
    let mut rest = text;
    for e in entries {
        let at = rest
            .find(e.as_str())
            .unwrap_or_else(|| panic!("{e} missing or out of order"));
        rest = &rest[at + e.len()..];
    }
}

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}
