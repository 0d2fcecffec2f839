//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 5). Each driver returns structured rows; the
//! [`crate::report`] module renders them as the text tables the bench
//! harness prints.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use burst_core::Mechanism;
use burst_dram::{Command, Cycle, Dir, DramConfig, Loc, RowPolicy, RowState, TimingParams};
use burst_workloads::{MixWorkload, OpSource, SpecBenchmark};

use crate::checkpoint::{try_simulate_checkpointed, CheckpointPolicy, CheckpointedRunError};
use crate::simio::{real_io, SimIo};
use crate::supervisor::{supervise_with, CellError, CellOutcome, FailureKind, SupervisorConfig};
use crate::{Journal, RunLength, SimReport, System, SystemConfig, WarmStart};

/// Per-sweep checkpoint plan: where each cell writes its mid-run
/// checkpoint and how often. Threaded from the harness `--checkpoint-every`
/// / `--checkpoint-dir` flags down to every supervised cell.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Memory cycles between checkpoints; 0 disables checkpointing.
    pub every: u64,
    /// Directory holding one `<scope>-<benchmark>-<mechanism>.ckpt` file
    /// per in-flight cell.
    pub dir: PathBuf,
    /// Cell fingerprint the files are bound to — use the same fingerprint
    /// as the sweep's journal so both resume machineries agree on what
    /// configuration the state belongs to.
    pub fingerprint: u64,
    /// Whether checkpoint writes fsync before their atomic rename (see
    /// [`CheckpointPolicy::durable`]); threaded from the harness
    /// `--checkpoint-durable` flag, default `true`.
    pub durable: bool,
    /// The filesystem checkpoint I/O runs through —
    /// [`crate::simio::real_io`] in production, a
    /// [`crate::simio::ChaosIo`] under the crash-point matrix.
    pub io: Arc<dyn SimIo>,
}

impl CheckpointPlan {
    /// A production plan (real filesystem, durable writes).
    pub fn new(every: u64, dir: PathBuf, fingerprint: u64) -> CheckpointPlan {
        CheckpointPlan {
            every,
            dir,
            fingerprint,
            durable: true,
            io: real_io(),
        }
    }

    /// The checkpoint file for one cell (journal key with `/` flattened
    /// to `-`, plus the `.ckpt` suffix the repository gitignores).
    pub fn cell_path(
        &self,
        scope: &str,
        benchmark: SpecBenchmark,
        mechanism: Mechanism,
    ) -> PathBuf {
        self.dir.join(format!(
            "{}.ckpt",
            cell_key(scope, benchmark, mechanism).replace('/', "-")
        ))
    }

    /// Deletes orphaned `*.ckpt.tmp` scratch files in the plan's
    /// directory — the debris of writes that crashed between `File::create`
    /// and the atomic rename. Returns how many were removed. Best-effort:
    /// an unreadable directory (not yet created, permissions) removes
    /// nothing; live checkpoints are never touched.
    pub fn gc_orphans(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_orphan = name.to_str().is_some_and(|n| n.ends_with(".ckpt.tmp"));
            if is_orphan && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// Default instruction budget per run for harness experiments. The paper
/// simulates 2 billion instructions; this default preserves the shape at
/// laptop scale. Raise it via the drivers' `len` parameter for longer runs.
pub const DEFAULT_RUN: RunLength = RunLength::Instructions(120_000);

/// The six mechanisms Figure 8 plots.
pub fn fig8_mechanisms() -> [Mechanism; 6] {
    [
        Mechanism::BkInOrder,
        Mechanism::RowHit,
        Mechanism::Intel,
        Mechanism::BurstRp,
        Mechanism::BurstWp,
        Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    ]
}

/// The seven mechanisms Figure 10 plots (all except the BkInOrder
/// normalisation baseline).
pub fn fig10_mechanisms() -> [Mechanism; 7] {
    [
        Mechanism::RowHit,
        Mechanism::Intel,
        Mechanism::IntelRp,
        Mechanism::Burst,
        Mechanism::BurstRp,
        Mechanism::BurstWp,
        Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    ]
}

/// The threshold sweep of Figures 11 and 12: `Burst`, `WP` (= TH0),
/// TH8..TH60, `RP` (= TH64).
pub fn fig12_mechanisms() -> Vec<Mechanism> {
    let mut v = vec![Mechanism::Burst, Mechanism::BurstWp];
    for t in [8, 16, 24, 32, 40, 48, 52, 56, 60] {
        v.push(Mechanism::BurstTh(t));
    }
    v.push(Mechanism::BurstRp);
    v
}

/// The warm starts shared by the pending cells of one
/// [`Sweep::run_supervised`] call, one per benchmark. A cell's warm-up
/// depends on its workload seed, `cfg.cpu` and `cfg.warm_mem_ops`, and the
/// cells of one call differ only in benchmark and mechanism, so the
/// benchmark alone keys a state here. The first cell of a benchmark warms
/// it; the state is dropped as soon as the last pending cell of that
/// benchmark has taken it, so a grid does not keep one per benchmark alive.
struct WarmShare {
    slots: Vec<Mutex<WarmSlot>>,
    /// The index into `slots` of each pending cell.
    slot_of: Vec<usize>,
}

struct WarmSlot {
    benchmark: SpecBenchmark,
    state: Option<Arc<WarmStart<MixWorkload>>>,
    /// Pending cells of this benchmark that have not taken the state yet.
    waiting: Vec<usize>,
}

impl WarmShare {
    fn new(items: &[(SpecBenchmark, Mechanism)]) -> WarmShare {
        let mut slots: Vec<WarmSlot> = Vec::new();
        let mut slot_of = Vec::with_capacity(items.len());
        for (i, &(b, _)) in items.iter().enumerate() {
            let s = match slots.iter().position(|slot| slot.benchmark == b) {
                Some(s) => s,
                None => {
                    slots.push(WarmSlot {
                        benchmark: b,
                        state: None,
                        waiting: Vec::new(),
                    });
                    slots.len() - 1
                }
            };
            slots[s].waiting.push(i);
            slot_of.push(s);
        }
        WarmShare {
            slots: slots.into_iter().map(Mutex::new).collect(),
            slot_of,
        }
    }

    /// Pending cell `idx` (of benchmark `b`, configuration `cfg`) started
    /// from its benchmark's warm state. A state that is missing — not yet
    /// warmed, or already released before a retry of this cell — is warmed
    /// again, which gives the same state.
    fn start(
        &self,
        idx: usize,
        cfg: &SystemConfig,
        b: SpecBenchmark,
        seed: u64,
    ) -> (System, MixWorkload) {
        let state = {
            // `state` only ever changes from one whole value to another, so
            // a cell that panicked while holding the lock left it usable.
            let mut slot = self.slots[self.slot_of[idx]]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let state = match &slot.state {
                Some(state) => Arc::clone(state),
                None => Arc::new(WarmStart::new(cfg, b.workload(seed))),
            };
            slot.waiting.retain(|&i| i != idx);
            slot.state = if slot.waiting.is_empty() {
                None
            } else {
                Some(Arc::clone(&state))
            };
            state
        };
        // The last holder moves the state into its cell instead of copying.
        Arc::try_unwrap(state)
            .unwrap_or_else(|shared| WarmStart::clone(&shared))
            .start(cfg)
    }
}

/// One simulated (benchmark, mechanism) cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Benchmark simulated.
    pub benchmark: SpecBenchmark,
    /// Mechanism simulated.
    pub mechanism: Mechanism,
    /// Full report.
    pub report: SimReport,
}

/// A benchmark x mechanism sweep — the data behind Figures 7, 9 and 10.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// All simulated cells.
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// Runs `benchmarks` x `mechanisms` on `base` (each cell overrides
    /// only the mechanism), each for `len` at `seed`, on `jobs` worker
    /// threads (`0` auto-detects, see [`crate::default_jobs`]). Cell order
    /// — and every cell's report — is identical for any job count.
    ///
    /// Every cell runs under [`crate::supervise`] with per-cell deadlines,
    /// bounded retries and (optionally) journalled resume. A panicking,
    /// stalling or wedged cell becomes a [`CellFailure`] record instead of
    /// tearing down the sweep; the returned [`Sweep`] holds every cell
    /// that *did* complete, still in grid order, so figure extraction
    /// degrades gracefully.
    ///
    /// `scope` namespaces journal keys (`scope/benchmark/mechanism`) so one
    /// journal file can serve several grids in the same harness run. When a
    /// `journal` is supplied, cells already recorded in it are restored
    /// without re-simulation (counted in [`Supervised::resumed`]) and every
    /// newly completed cell is appended and fsynced *before* the sweep
    /// moves on — a `SIGKILL` loses at most the cells in flight.
    ///
    /// When a [`CheckpointPlan`] is supplied too, even the cells in flight
    /// survive: each one periodically writes a fingerprint-bound
    /// checkpoint, a killed run resumes the cell mid-flight from it, the
    /// journal records which checkpoint file each completed cell used, and
    /// stale checkpoints of journalled cells are deleted on resume.
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised(
        scope: &str,
        base: &SystemConfig,
        benchmarks: &[SpecBenchmark],
        mechanisms: &[Mechanism],
        len: RunLength,
        seed: u64,
        jobs: usize,
        sup: &SupervisorConfig,
        journal: Option<&Journal>,
        ckpt: Option<&CheckpointPlan>,
    ) -> Supervised<Sweep> {
        let mut grid = Vec::with_capacity(benchmarks.len() * mechanisms.len());
        for &b in benchmarks {
            for &m in mechanisms {
                grid.push((b, m));
            }
        }
        let ckpt = ckpt.filter(|p| p.every > 0);
        if let Some(plan) = ckpt {
            // Scratch files from writes that crashed mid-protocol are
            // orphans: no resume path will ever read them.
            plan.gc_orphans();
        }
        let mut slots: Vec<Option<SweepCell>> = vec![None; grid.len()];
        let mut resumed = 0usize;
        let mut pending: Vec<(usize, (SpecBenchmark, Mechanism))> = Vec::new();
        let mut failures_by_idx: Vec<(usize, CellFailure)> = Vec::new();
        for (i, &(b, m)) in grid.iter().enumerate() {
            let key = cell_key(scope, b, m);
            if let Some(entry) = journal.and_then(|j| j.lookup(&key)) {
                // The cell is complete, so any checkpoint it left
                // behind — its own recorded path or the one this
                // plan would use — is stale; collect both.
                if let Some(p) = &entry.checkpoint {
                    let _ = std::fs::remove_file(p);
                }
                if let Some(plan) = ckpt {
                    let _ = std::fs::remove_file(plan.cell_path(scope, b, m));
                }
                slots[i] = Some(SweepCell {
                    benchmark: b,
                    mechanism: m,
                    report: entry.report.clone(),
                });
                resumed += 1;
            } else if let Some(q) = journal.and_then(|j| j.lookup_quarantine(&key)) {
                // The cell exhausted its retries in an earlier run: skip
                // it (graceful degradation — no re-burning the budget),
                // surface the recorded failure, and GC the checkpoint it
                // will never resume from.
                if let Some(plan) = ckpt {
                    let _ = std::fs::remove_file(plan.cell_path(scope, b, m));
                }
                failures_by_idx.push((
                    i,
                    CellFailure {
                        scope: scope.to_string(),
                        benchmark: b,
                        mechanism: m,
                        kind: q.kind,
                        attempts: q.attempts,
                        payload: q.payload.clone(),
                        quarantined: true,
                    },
                ));
            } else {
                pending.push((i, (b, m)));
            }
        }
        let items: Vec<(SpecBenchmark, Mechanism)> = pending.iter().map(|&(_, p)| p).collect();
        let warm = Arc::new(WarmShare::new(&items));
        let base_cfg = *base;
        let run_plan = ckpt.cloned();
        let run_scope = scope.to_string();
        let outcomes = supervise_with(
            &items,
            jobs,
            sup,
            move |i, &(b, m), _attempt| {
                let cfg = base_cfg.with_mechanism(m);
                cfg.validate()
                    .map_err(|e| CellError::other(format!("invalid configuration: {e}")))?;
                match &run_plan {
                    Some(plan) => {
                        let policy = CheckpointPolicy {
                            every: plan.every,
                            path: plan.cell_path(&run_scope, b, m),
                            fingerprint: plan.fingerprint,
                            durable: plan.durable,
                            io: Arc::clone(&plan.io),
                        };
                        try_simulate_checkpointed(&cfg, || b.workload(seed), len, &policy).map_err(
                            |e| match e {
                                CheckpointedRunError::Run(e) => CellError::from(e),
                                CheckpointedRunError::Checkpoint(e) => {
                                    CellError::other(format!("checkpoint failure: {e}"))
                                }
                            },
                        )
                    }
                    None => {
                        let (mut sys, mut source) = warm.start(i, &cfg, b, seed);
                        sys.try_run(&mut source, len).map_err(CellError::from)?;
                        Ok(sys.report(source.name()))
                    }
                }
            },
            |i, outcome| {
                let Some(j) = journal else { return };
                let (b, m) = items[i];
                let key = cell_key(scope, b, m);
                match outcome {
                    CellOutcome::Done { value, attempts } => {
                        let path = ckpt.map(|plan| plan.cell_path(scope, b, m));
                        if let Err(e) =
                            j.record_with_checkpoint(&key, *attempts, value, path.as_deref())
                        {
                            // A broken journal must not fail the sweep: the
                            // results are still in memory; only resumability
                            // of this cell is lost.
                            eprintln!("warning: journal write failed for {key}: {e}");
                        }
                    }
                    CellOutcome::Failed {
                        kind,
                        attempts,
                        payload,
                    } => {
                        // Retries exhausted: quarantine the cell so the
                        // next resume skips it instead of burning the
                        // whole budget again on a deterministic failure.
                        if let Err(e) = j.record_quarantine(&key, *kind, *attempts, payload) {
                            eprintln!("warning: quarantine write failed for {key}: {e}");
                        }
                    }
                }
            },
        );
        let newly_quarantined = journal.is_some();
        for ((slot_idx, (b, m)), outcome) in pending.into_iter().zip(outcomes) {
            match outcome {
                CellOutcome::Done { value, .. } => {
                    slots[slot_idx] = Some(SweepCell {
                        benchmark: b,
                        mechanism: m,
                        report: value,
                    });
                }
                CellOutcome::Failed {
                    kind,
                    attempts,
                    payload,
                } => failures_by_idx.push((
                    slot_idx,
                    CellFailure {
                        scope: scope.to_string(),
                        benchmark: b,
                        mechanism: m,
                        kind,
                        attempts,
                        payload,
                        quarantined: newly_quarantined,
                    },
                )),
            }
        }
        failures_by_idx.sort_by_key(|&(i, _)| i);
        let failures = failures_by_idx.into_iter().map(|(_, f)| f).collect();
        Supervised {
            value: Sweep {
                cells: slots.into_iter().flatten().collect(),
            },
            failures,
            resumed,
        }
    }

    /// The cell for `(benchmark, mechanism)`, if simulated.
    pub fn cell(&self, benchmark: SpecBenchmark, mechanism: Mechanism) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.mechanism == mechanism)
    }

    /// Mechanisms present, in first-seen order.
    pub fn mechanisms(&self) -> Vec<Mechanism> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.mechanism) {
                out.push(c.mechanism);
            }
        }
        out
    }

    /// Benchmarks present, in first-seen order.
    pub fn benchmarks(&self) -> Vec<SpecBenchmark> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.benchmark) {
                out.push(c.benchmark);
            }
        }
        out
    }

    /// Figure 7: average read and write latency (memory cycles) per
    /// mechanism, averaged over benchmarks.
    pub fn fig7_rows(&self) -> Vec<Fig7Row> {
        self.mechanisms()
            .into_iter()
            .map(|m| {
                let cells: Vec<&SweepCell> =
                    self.cells.iter().filter(|c| c.mechanism == m).collect();
                let n = cells.len() as f64;
                Fig7Row {
                    mechanism: m,
                    read_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_read_latency())
                        .sum::<f64>()
                        / n,
                    write_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_write_latency())
                        .sum::<f64>()
                        / n,
                }
            })
            .collect()
    }

    /// Figure 9: row-state mix and bus utilisation per mechanism, averaged
    /// over benchmarks.
    pub fn fig9_rows(&self) -> Vec<Fig9Row> {
        self.mechanisms()
            .into_iter()
            .map(|m| {
                let cells: Vec<&SweepCell> =
                    self.cells.iter().filter(|c| c.mechanism == m).collect();
                let n = cells.len() as f64;
                let avg = |f: &dyn Fn(&SweepCell) -> f64| -> f64 {
                    cells.iter().map(|c| f(c)).sum::<f64>() / n
                };
                Fig9Row {
                    mechanism: m,
                    row_hit: avg(&|c| c.report.ctrl.row_hit_rate()),
                    row_conflict: avg(&|c| c.report.ctrl.row_conflict_rate()),
                    row_empty: avg(&|c| c.report.ctrl.row_empty_rate()),
                    addr_bus: avg(&|c| c.report.addr_bus_utilization()),
                    data_bus: avg(&|c| c.report.data_bus_utilization()),
                }
            })
            .collect()
    }

    /// Figure 10: execution time per benchmark per mechanism, normalised to
    /// `BkInOrder`.
    ///
    /// Tolerates an incomplete sweep (supervised runs can lose cells): a
    /// benchmark whose `BkInOrder` baseline is missing is dropped entirely,
    /// and a missing `(benchmark, mechanism)` cell is simply absent from
    /// that row's `normalized` pairs.
    pub fn fig10_rows(&self) -> Vec<Fig10Row> {
        self.benchmarks()
            .into_iter()
            .filter_map(|b| {
                let base = self.cell(b, Mechanism::BkInOrder)?.report.cpu_cycles as f64;
                let normalized = self
                    .mechanisms()
                    .into_iter()
                    .filter(|&m| m != Mechanism::BkInOrder)
                    .filter_map(|m| {
                        self.cell(b, m)
                            .map(|cell| (m, cell.report.cpu_cycles as f64 / base))
                    })
                    .collect();
                Some(Fig10Row {
                    benchmark: b,
                    normalized,
                })
            })
            .collect()
    }

    /// Geometric-mean normalised execution time per mechanism (the
    /// "average" group of Figure 10).
    pub fn fig10_average(&self) -> Vec<(Mechanism, f64)> {
        let rows = self.fig10_rows();
        self.mechanisms()
            .into_iter()
            .filter(|&m| m != Mechanism::BkInOrder)
            .map(|m| {
                let product: f64 = rows
                    .iter()
                    .map(|r| {
                        r.normalized
                            .iter()
                            .find(|(mm, _)| *mm == m)
                            .map(|(_, v)| v.ln())
                            .unwrap_or(0.0)
                    })
                    .sum();
                (m, (product / rows.len() as f64).exp())
            })
            .collect()
    }
}

/// The journal key for one `(scope, benchmark, mechanism)` cell —
/// `scope/benchmark/mechanism`, e.g. `sweep/swim/Burst_TH52`. Mechanism
/// names round-trip through [`Mechanism::from_name`], so the key is both
/// human-greppable and machine-parseable.
pub fn cell_key(scope: &str, benchmark: SpecBenchmark, mechanism: Mechanism) -> String {
    format!("{scope}/{}/{}", benchmark.name(), mechanism.name())
}

/// One unrecovered cell of a supervised experiment, for the failure
/// taxonomy summary.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Which grid the cell belonged to (`sweep`, `fig8`, `fig11`, `fig12`).
    pub scope: String,
    /// Benchmark of the failed cell.
    pub benchmark: SpecBenchmark,
    /// Mechanism of the failed cell.
    pub mechanism: Mechanism,
    /// Taxonomy bucket of the final failure.
    pub kind: FailureKind,
    /// Attempts consumed (including retries).
    pub attempts: u32,
    /// Diagnostic of the final failure.
    pub payload: String,
    /// Whether the cell is quarantined in the sweep's journal: resumes
    /// skip it (surfacing this record) instead of retrying. `false` for
    /// unjournalled sweeps, whose failures are retried on every run.
    pub quarantined: bool,
}

impl CellFailure {
    /// The failed cell's journal key (`scope/benchmark/mechanism`).
    pub fn key(&self) -> String {
        cell_key(&self.scope, self.benchmark, self.mechanism)
    }
}

/// A supervised experiment result: the salvageable value plus the failure
/// records and resume statistics the harness reports.
#[derive(Debug, Clone)]
pub struct Supervised<T> {
    /// The experiment's (possibly partial) result.
    pub value: T,
    /// Every unrecovered cell, in grid order.
    pub failures: Vec<CellFailure>,
    /// Cells restored from the journal instead of re-simulated.
    pub resumed: usize,
}

impl<T> Supervised<T> {
    /// Whether every cell completed (possibly after retries).
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of a run in which every cell completed. Panics, listing
    /// the failed cells, when any did not, so a caller that needs the full
    /// grid cannot mistake a partial one for it.
    #[track_caller]
    pub fn complete(self) -> T {
        assert!(
            self.ok(),
            "{} cell(s) failed: {:?}",
            self.failures.len(),
            self.failures
        );
        self.value
    }
}

/// One Figure 7 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Average read latency in memory cycles.
    pub read_latency: f64,
    /// Average write latency in memory cycles.
    pub write_latency: f64,
}

/// One Figure 9 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Row-hit fraction.
    pub row_hit: f64,
    /// Row-conflict fraction.
    pub row_conflict: f64,
    /// Row-empty fraction.
    pub row_empty: f64,
    /// Address-bus utilisation.
    pub addr_bus: f64,
    /// Data-bus utilisation.
    pub data_bus: f64,
}

/// One Figure 10 row: a benchmark's execution time under each mechanism,
/// normalised to BkInOrder.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark.
    pub benchmark: SpecBenchmark,
    /// `(mechanism, normalised execution time)` pairs.
    pub normalized: Vec<(Mechanism, f64)>,
}

/// Figure 8 / 11: outstanding-access distributions for one benchmark under
/// several mechanisms.
#[derive(Debug, Clone)]
pub struct OutstandingRow {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Fraction of time N reads were outstanding, index = N.
    pub reads: Vec<f64>,
    /// Fraction of time N writes were outstanding, index = N.
    pub writes: Vec<f64>,
    /// Write-queue saturation rate (Section 5.1 quotes 24% Intel, 46%
    /// Burst, 70% Burst_RP, 2% Burst_WP, 9% Burst_TH52 for swim).
    pub saturation: f64,
    /// Mean outstanding reads.
    pub mean_reads: f64,
    /// Mean outstanding writes.
    pub mean_writes: f64,
}

/// Derives one outstanding-access row from a finished report. Everything
/// Figure 8/11 plots lives in the controller stats, so rows can equally be
/// rebuilt from journalled reports on resume.
fn outstanding_row(mechanism: Mechanism, report: &SimReport) -> OutstandingRow {
    OutstandingRow {
        mechanism,
        reads: report.ctrl.outstanding_reads.fractions(),
        writes: report.ctrl.outstanding_writes.fractions(),
        saturation: report.ctrl.write_saturation_rate(),
        mean_reads: report.ctrl.outstanding_reads.mean(),
        mean_writes: report.ctrl.outstanding_writes.mean(),
    }
}

/// Figures 8 and 11: the outstanding-access distributions for one
/// benchmark, crash-isolated. Pass [`fig8_mechanisms`] with scope
/// `"fig8"` or [`fig12_mechanisms`] with scope `"fig11"`. Rows for failed
/// cells are simply missing; the failures travel in
/// [`Supervised::failures`].
#[allow(clippy::too_many_arguments)]
pub fn outstanding_supervised(
    scope: &str,
    base: &SystemConfig,
    benchmark: SpecBenchmark,
    mechanisms: &[Mechanism],
    len: RunLength,
    seed: u64,
    jobs: usize,
    sup: &SupervisorConfig,
    journal: Option<&Journal>,
    ckpt: Option<&CheckpointPlan>,
) -> Supervised<Vec<OutstandingRow>> {
    let s = Sweep::run_supervised(
        scope,
        base,
        &[benchmark],
        mechanisms,
        len,
        seed,
        jobs,
        sup,
        journal,
        ckpt,
    );
    Supervised {
        value: s
            .value
            .cells
            .iter()
            .map(|c| outstanding_row(c.mechanism, &c.report))
            .collect(),
        failures: s.failures,
        resumed: s.resumed,
    }
}

/// One Figure 12 row: threshold-sweep latency and execution time averaged
/// over benchmarks, normalised to plain `Burst`.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Mechanism (a threshold point).
    pub mechanism: Mechanism,
    /// Average read latency (memory cycles).
    pub read_latency: f64,
    /// Average write latency (memory cycles).
    pub write_latency: f64,
    /// Execution time normalised to plain `Burst`.
    pub normalized_exec: f64,
}

/// Crash-isolated Figure 12: the threshold sweep under supervision, with
/// journalled resume under scope `"fig12"`. Mechanisms whose every cell
/// failed are dropped from the rows; normalisation falls back to `NaN` if
/// the plain-`Burst` baseline itself is entirely missing.
#[allow(clippy::too_many_arguments)]
pub fn fig12_supervised(
    base: &SystemConfig,
    benchmarks: &[SpecBenchmark],
    len: RunLength,
    seed: u64,
    jobs: usize,
    sup: &SupervisorConfig,
    journal: Option<&Journal>,
    ckpt: Option<&CheckpointPlan>,
) -> Supervised<Vec<Fig12Row>> {
    let mechanisms = fig12_mechanisms();
    let s = Sweep::run_supervised(
        "fig12",
        base,
        benchmarks,
        &mechanisms,
        len,
        seed,
        jobs,
        sup,
        journal,
        ckpt,
    );
    Supervised {
        value: fig12_rows_from_sweep(&s.value, &mechanisms),
        failures: s.failures,
        resumed: s.resumed,
    }
}

/// Aggregates a (possibly partial) threshold sweep into Figure 12 rows.
/// A mechanism with no surviving cells yields no row; a missing `Burst`
/// normalisation baseline yields `NaN` normalised execution times rather
/// than a panic, so salvage output still renders.
fn fig12_rows_from_sweep(sweep: &Sweep, mechanisms: &[Mechanism]) -> Vec<Fig12Row> {
    let base: f64 = sweep
        .cells
        .iter()
        .filter(|c| c.mechanism == Mechanism::Burst)
        .map(|c| c.report.cpu_cycles as f64)
        .sum();
    mechanisms
        .iter()
        .filter_map(|&m| {
            let cells: Vec<&SweepCell> = sweep.cells.iter().filter(|c| c.mechanism == m).collect();
            if cells.is_empty() {
                return None;
            }
            let n = cells.len() as f64;
            let exec: f64 = cells.iter().map(|c| c.report.cpu_cycles as f64).sum();
            Some(Fig12Row {
                mechanism: m,
                read_latency: cells
                    .iter()
                    .map(|c| c.report.ctrl.avg_read_latency())
                    .sum::<f64>()
                    / n,
                write_latency: cells
                    .iter()
                    .map(|c| c.report.ctrl.avg_write_latency())
                    .sum::<f64>()
                    / n,
                normalized_exec: if base > 0.0 { exec / base } else { f64::NAN },
            })
        })
        .collect()
}

/// Table 1: access latency by controller policy and row state.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Controller policy.
    pub policy: RowPolicy,
    /// Row-hit latency, if defined.
    pub hit: Option<Cycle>,
    /// Row-empty latency.
    pub empty: Option<Cycle>,
    /// Row-conflict latency, if defined.
    pub conflict: Option<Cycle>,
}

/// Table 1 for a given device timing.
pub fn table1(timing: &TimingParams) -> Vec<Table1Row> {
    [RowPolicy::OpenPage, RowPolicy::ClosePageAutoprecharge]
        .into_iter()
        .map(|policy| Table1Row {
            policy,
            hit: policy.access_latency(RowState::Hit, timing),
            empty: policy.access_latency(RowState::Empty, timing),
            conflict: policy.access_latency(RowState::Conflict, timing),
        })
        .collect()
}

/// Figure 1: schedules the motivating four-access example on the 2-2-2
/// burst-length-4 device and returns `(in_order_cycles, out_of_order_cycles)`.
///
/// The paper's hand schedule takes 28 cycles strictly in order without
/// interleaving and 16 cycles out of order with interleaving.
pub fn fig1() -> (Cycle, Cycle) {
    (fig1_in_order(), fig1_out_of_order())
}

/// The four accesses of Figure 1: two row empties (bank0 row0, bank1 row0),
/// then two row conflicts (bank0 row1, bank0 row0).
fn fig1_accesses() -> [Loc; 4] {
    [
        Loc::new(0, 0, 0, 0, 0),
        Loc::new(0, 0, 1, 0, 0),
        Loc::new(0, 0, 0, 1, 0),
        Loc::new(0, 0, 0, 0, 8),
    ]
}

/// Strictly serial, non-interleaved execution (Figure 1a): each access's
/// transactions and data complete before the next access begins.
fn fig1_in_order() -> Cycle {
    let cfg = DramConfig::figure1();
    let mut ch = burst_dram::Channel::new(cfg);
    let mut now: Cycle = 0;
    for loc in fig1_accesses() {
        // Issue precharge/activate/column strictly when each unblocks,
        // without overlapping the next access.
        loop {
            let state = ch.row_state(loc);
            let cmd = match state {
                RowState::Hit => Command::Column {
                    loc,
                    dir: Dir::Read,
                    auto_precharge: false,
                },
                RowState::Empty => Command::Activate(loc),
                RowState::Conflict => Command::Precharge(loc),
            };
            let at = ch.earliest_issue(&cmd, now).expect("command applicable");
            let issued = ch.issue(&cmd, at);
            now = at;
            if cmd.is_column() {
                now = issued.data_end; // wait for data before the next access
                break;
            }
        }
    }
    now
}

/// Out-of-order, interleaved execution (Figure 1b) via the burst scheduler.
fn fig1_out_of_order() -> Cycle {
    use burst_core::{Access, AccessId, AccessKind, CtrlConfig};
    use burst_dram::{AddressMapping, Dram};

    let cfg = DramConfig::figure1();
    let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
    let mut sched = Mechanism::Burst.build(CtrlConfig::default(), cfg.geometry);
    let mut done = Vec::new();
    for (i, loc) in fig1_accesses().into_iter().enumerate() {
        // Synthesise distinct addresses; the scheduler only uses `loc`.
        let addr = burst_dram::PhysAddr::new(i as u64 * 64);
        sched.enqueue(
            Access::new(AccessId::new(i as u64), AccessKind::Read, addr, loc, 0),
            0,
            &mut done,
        );
    }
    let mut now = 0;
    while done.len() < 4 {
        sched.tick(&mut dram, now, &mut done);
        now += 1;
        assert!(now < 1000, "figure 1 example must complete quickly");
    }
    done.iter()
        .map(|c| c.done_at)
        .max()
        .expect("four completions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "1 cell(s) failed")]
    fn complete_refuses_a_partial_grid() {
        let failure = CellFailure {
            scope: "sweep".into(),
            benchmark: SpecBenchmark::Swim,
            mechanism: Mechanism::Burst,
            kind: crate::supervisor::FailureKind::Panic,
            attempts: 3,
            payload: "boom".into(),
            quarantined: false,
        };
        Supervised {
            value: (),
            failures: vec![failure],
            resumed: 0,
        }
        .complete();
    }

    #[test]
    fn warm_share_releases_after_last_cell_and_survives_retries_and_panics() {
        let cfg = SystemConfig::baseline().with_warm_mem_ops(5_000);
        let items = [
            (SpecBenchmark::Swim, Mechanism::RowHit),
            (SpecBenchmark::Swim, Mechanism::BurstTh(52)),
            (SpecBenchmark::Gzip, Mechanism::RowHit),
        ];
        let share = WarmShare::new(&items);
        let held = |s: usize| {
            let slot = share.slots[s]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.state.is_some()
        };
        let start = |i: usize| {
            let (b, m) = items[i];
            let (sys, _) = share.start(i, &cfg.with_mechanism(m), b, 7);
            sys.checkpoint().expect("snapshot").bytes
        };
        let cold = |i: usize| {
            let (b, m) = items[i];
            let mut sys = System::new(&cfg.with_mechanism(m));
            sys.warm(&mut b.workload(7));
            sys.checkpoint().expect("snapshot").bytes
        };
        assert_eq!(start(0), cold(0));
        assert!(held(0), "swim's second cell has not taken the state yet");
        // A retry of a cell that already took the state keeps it held.
        assert_eq!(start(0), cold(0));
        assert!(held(0));
        // A panic while a cell holds the lock poisons it but leaves the
        // state usable.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = share.slots[0].lock();
            panic!("cell panicked");
        }));
        assert!(poisoned.is_err());
        assert_eq!(start(1), cold(1));
        assert!(!held(0), "released after the last swim cell took it");
        // A retry after the release warms again and gets the same state.
        assert_eq!(start(1), cold(1));
        assert!(!held(0));
        assert_eq!(start(2), cold(2));
        assert!(!held(1));
    }

    #[test]
    fn table1_matches_paper_for_pc2_6400() {
        let rows = table1(&TimingParams::ddr2_pc2_6400());
        assert_eq!(rows[0].hit, Some(5));
        assert_eq!(rows[0].empty, Some(10));
        assert_eq!(rows[0].conflict, Some(15));
        assert_eq!(rows[1].hit, None);
        assert_eq!(rows[1].empty, Some(10));
        assert_eq!(rows[1].conflict, None);
    }

    #[test]
    fn fig1_in_order_is_28_cycles() {
        // Paper Figure 1(a): 28 memory cycles for the four accesses.
        assert_eq!(fig1_in_order(), 28);
    }

    #[test]
    fn fig1_out_of_order_beats_in_order() {
        let (in_order, ooo) = fig1();
        assert_eq!(in_order, 28);
        assert!(
            ooo <= 20,
            "out-of-order with interleaving should approach the paper's 16 cycles, got {ooo}"
        );
        assert!(ooo < in_order);
    }

    #[test]
    fn fig12_mechanism_list_matches_paper_axis() {
        let names: Vec<String> = fig12_mechanisms().iter().map(|m| m.name()).collect();
        assert_eq!(names.first().unwrap(), "Burst");
        assert_eq!(names.last().unwrap(), "Burst_RP");
        assert!(names.contains(&"Burst_TH52".to_string()));
        assert!(names.contains(&"Burst_WP".to_string()));
    }

    #[test]
    fn supervised_sweep_restores_cells_from_journal() {
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Gzip];
        let ms = [Mechanism::BkInOrder, Mechanism::Burst];
        let len = RunLength::Instructions(2_000);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("burst-exp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let fp = crate::journal::fingerprint("experiments-test");
        let first = {
            let journal = crate::Journal::create(&path, fp).unwrap();
            Sweep::run_supervised(
                "sweep",
                &base,
                &bs,
                &ms,
                len,
                1,
                1,
                &sup,
                Some(&journal),
                None,
            )
        };
        assert!(first.ok());
        let journal = crate::Journal::resume(&path, fp).unwrap();
        assert_eq!(journal.completed_cells(), 2);
        let second = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            len,
            1,
            1,
            &sup,
            Some(&journal),
            None,
        );
        assert_eq!(second.resumed, 2, "every cell restored, none re-simulated");
        for (a, b) in first.value.cells.iter().zip(&second.value.cells) {
            assert_eq!(a.report, b.report, "journal round trip must be lossless");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_supervised_sweep_matches_and_garbage_collects() {
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Swim];
        let ms = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
        let len = RunLength::Instructions(3_000);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("burst-exp-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fp = crate::journal::fingerprint("experiments-ckpt-test");
        let plan = CheckpointPlan::new(500, dir.clone(), fp);
        let jpath = dir.join("sweep.journal");
        let per_cell: Vec<SimReport> = ms
            .iter()
            .map(|&m| crate::try_simulate(&base.with_mechanism(m), bs[0].workload(1), len).unwrap())
            .collect();
        let first = {
            let journal = crate::Journal::create(&jpath, fp).unwrap();
            Sweep::run_supervised(
                "sweep",
                &base,
                &bs,
                &ms,
                len,
                1,
                1,
                &sup,
                Some(&journal),
                Some(&plan),
            )
        };
        assert!(first.ok());
        assert_eq!(first.value.cells.len(), per_cell.len());
        for (a, b) in per_cell.iter().zip(&first.value.cells) {
            assert_eq!(*a, b.report, "checkpointing must not perturb results");
        }
        for &(b, m) in &[(bs[0], ms[0]), (bs[0], ms[1])] {
            assert!(
                !plan.cell_path("sweep", b, m).exists(),
                "completed cells leave no checkpoint behind"
            );
        }
        // The journal records each cell's checkpoint path; a resumed sweep
        // garbage-collects stale checkpoint files a crash left behind.
        let journal = crate::Journal::resume(&jpath, fp).unwrap();
        let stale = plan.cell_path("sweep", bs[0], ms[0]);
        std::fs::write(&stale, b"stale").unwrap();
        let second = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            len,
            1,
            1,
            &sup,
            Some(&journal),
            Some(&plan),
        );
        assert_eq!(second.resumed, 2);
        assert!(!stale.exists(), "resume deletes stale checkpoints");
        assert_eq!(
            journal
                .lookup(&cell_key("sweep", bs[0], ms[0]))
                .unwrap()
                .checkpoint
                .as_deref(),
            Some(stale.as_path()),
            "journal entries carry the checkpoint path"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_sweep_salvages_around_invalid_cells() {
        // BurstTh(200) exceeds the write-queue capacity, so validate()
        // rejects it: the cell must fail as Other while siblings complete.
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Gzip];
        let ms = [Mechanism::BkInOrder, Mechanism::BurstTh(200)];
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let s = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            RunLength::Instructions(2_000),
            1,
            1,
            &sup,
            None,
            None,
        );
        assert_eq!(s.value.cells.len(), 1);
        assert_eq!(s.value.cells[0].mechanism, Mechanism::BkInOrder);
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].kind, FailureKind::Other);
        assert_eq!(s.failures[0].key(), "sweep/gzip/Burst_TH200");
    }

    #[test]
    fn sweep_runs_and_extracts_rows() {
        let sweep = Sweep::run_supervised(
            "sweep",
            &SystemConfig::baseline(),
            &[SpecBenchmark::Swim],
            &[Mechanism::BkInOrder, Mechanism::BurstTh(52)],
            RunLength::Instructions(3_000),
            1,
            0,
            &SupervisorConfig::default(),
            None,
            None,
        )
        .value;
        assert_eq!(sweep.cells.len(), 2);
        let fig7 = sweep.fig7_rows();
        assert_eq!(fig7.len(), 2);
        assert!(fig7.iter().all(|r| r.read_latency > 0.0));
        let fig9 = sweep.fig9_rows();
        let sum = fig9[0].row_hit + fig9[0].row_conflict + fig9[0].row_empty;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "row states partition accesses: {sum}"
        );
        let fig10 = sweep.fig10_rows();
        assert_eq!(fig10.len(), 1);
        assert_eq!(fig10[0].normalized.len(), 1);
    }
}
