//! A cell started from a shared warm state is the cell a cold warm-up
//! gives: the same simulated state after warm-up, the same op stream
//! after it, and the same report from every supervised sweep path —
//! parallel, with retried cells, and resumed from a journal.

use burst_core::Mechanism;
use burst_sim::experiments::Sweep;
use burst_sim::journal::fingerprint;
use burst_sim::{
    try_simulate, Journal, RunLength, SimReport, SupervisorConfig, System, SystemConfig,
    TransientFaultPlan, WarmStart,
};
use burst_workloads::{OpSource, SpecBenchmark};

const SEED: u64 = 42;

#[test]
fn warm_start_equals_cold_warm_up_for_every_benchmark() {
    let base = SystemConfig::baseline();
    for b in SpecBenchmark::all16() {
        let warm = WarmStart::new(&base, b.workload(SEED));
        for m in [Mechanism::BkInOrder, Mechanism::BurstTh(52)] {
            let cfg = base.with_mechanism(m);
            let mut cold_source = b.workload(SEED);
            let mut cold = System::new(&cfg);
            cold.warm(&mut cold_source);
            let (shared, mut shared_source) = warm.clone().start(&cfg);
            assert_eq!(
                shared.checkpoint().expect("snapshot").bytes,
                cold.checkpoint().expect("snapshot").bytes,
                "{b}/{m}: state after warm-up"
            );
            for i in 0..10_000 {
                assert_eq!(
                    shared_source.next_op(),
                    cold_source.next_op(),
                    "{b}/{m}: op {i} after warm-up"
                );
            }
        }
    }
}

fn grid() -> ([SpecBenchmark; 2], [Mechanism; 8]) {
    (
        [SpecBenchmark::Swim, SpecBenchmark::Mcf],
        Mechanism::all_paper(),
    )
}

const LEN: RunLength = RunLength::Instructions(2_000);

/// Every cell simulated on its own, with its own cold warm-up.
fn per_cell_reports(base: &SystemConfig) -> Vec<SimReport> {
    let (benches, mechs) = grid();
    let mut out = Vec::new();
    for b in benches {
        for m in mechs {
            let cfg = base.with_mechanism(m);
            out.push(try_simulate(&cfg, b.workload(SEED), LEN).expect("cell runs"));
        }
    }
    out
}

fn sweep(sup: &SupervisorConfig, journal: Option<&Journal>) -> Vec<SimReport> {
    let (benches, mechs) = grid();
    let run = Sweep::run_supervised(
        "warm",
        &SystemConfig::baseline(),
        &benches,
        &mechs,
        LEN,
        SEED,
        2,
        sup,
        journal,
        None,
    );
    assert!(run.ok(), "sweep completes: {:?}", run.failures);
    run.value.cells.into_iter().map(|c| c.report).collect()
}

fn no_backoff() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base_ms: 0,
        ..SupervisorConfig::default()
    }
}

#[test]
fn supervised_grid_from_shared_warm_state_matches_per_cell_runs() {
    let want = per_cell_reports(&SystemConfig::baseline());
    assert_eq!(sweep(&no_backoff(), None), want, "plain grid");

    let plan = TransientFaultPlan {
        seed: 3,
        fail_permille: 150,
        max_failures: 1,
    };
    let retried = (0..want.len() as u64)
        .filter(|&cell| plan.should_fail(cell, 0))
        .count();
    assert!(retried >= 1, "the plan retries at least one cell");
    let sup = SupervisorConfig {
        inject: Some(plan),
        ..no_backoff()
    };
    assert_eq!(sweep(&sup, None), want, "grid with retried cells");
}

#[test]
fn resumed_grid_from_shared_warm_state_matches_per_cell_runs() {
    let dir = std::env::temp_dir().join(format!("burst-warm-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("grid.journal");
    let _ = std::fs::remove_file(&path);
    let fp = fingerprint("warm start itest v1");
    let want = per_cell_reports(&SystemConfig::baseline());
    {
        let journal = Journal::create(&path, fp).expect("create journal");
        assert_eq!(sweep(&no_backoff(), Some(&journal)), want);
    }
    // Keep the first five records: the resumed grid restores them and
    // simulates the other cells, which then share a warm state that no
    // longer serves every cell of its benchmark.
    let text = std::fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    let header = lines.len() - want.len();
    let kept = lines[..header + 5].join("\n") + "\n";
    std::fs::write(&path, kept).expect("truncate journal");

    let journal = Journal::resume(&path, fp).expect("resume journal");
    assert_eq!(journal.completed_cells(), 5);
    assert_eq!(sweep(&no_backoff(), Some(&journal)), want, "resumed grid");
    let _ = std::fs::remove_dir_all(&dir);
}
