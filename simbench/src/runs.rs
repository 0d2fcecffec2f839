//! The two workloads, their untraced (end-to-end) runs and their traced
//! (per-layer) runs.
//!
//! Only the calls into the simulator's public functions are timed; digests
//! are taken and checked outside the clocks.

use std::hint::black_box;
use std::time::Instant;

use burst_core::Mechanism;
use burst_dram::TimingParams;
use burst_sim::experiments::{fig1, fig12_mechanisms, fig8_mechanisms, table1, Sweep};
use burst_sim::report::{render_fig10, render_fig7, render_fig9, render_table1};
use burst_sim::{
    map_parallel, try_simulate, ChunkOutcome, Engine, PhaseProfile, RunCursor, RunError, RunLength,
    SimReport, SupervisorConfig, System, SystemConfig,
};
use burst_workloads::{Op, OpSource, SpecBenchmark};

use crate::digest::{self, cell_key, report_digest, Digests};
use crate::host;
use crate::metrics::{median, percentile, Envelope, Outcome};

/// The seed EXPERIMENTS.md uses, and the one whose reference is recorded.
pub const DEFAULT_SEED: u64 = 42;

/// Per-cell budget of eval-sweep, the budget of the paper evaluation.
pub const SWEEP_INSTRUCTIONS: u64 = 60_000;

/// Budget of each long simulation.
pub const LONG_INSTRUCTIONS: u64 = 1_000_000;

/// The paper's Fig. 10 average execution-time reduction of Burst_TH52
/// against BkInOrder, in percent.
const PAPER_TH52_REDUCTION_PCT: f64 = 21.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full paper evaluation: 338 short cells on `nproc` workers.
    EvalSweep,
    /// One long, event-dense, write-heavy Burst_TH52 run of swim.
    SwimDense,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 2] = [Workload::EvalSweep, Workload::SwimDense];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalSweep => "eval-sweep",
            Workload::SwimDense => "swim-dense",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of every simulated workload generator.
    pub seed: u64,
    /// Instruction budget of each simulation.
    pub instructions: u64,
}

impl Plan {
    /// The benchmark's plan for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let instructions = match workload {
            Workload::EvalSweep => SWEEP_INSTRUCTIONS,
            Workload::SwimDense => LONG_INSTRUCTIONS,
        };
        Plan {
            workload,
            seed,
            instructions,
        }
    }

    /// Worker threads: the host's cores. Each worker of a long workload
    /// runs its simulation back to back, so that every core is measured, as
    /// in eval-sweep.
    pub fn jobs(&self) -> usize {
        host::nproc()
    }

    fn len(&self) -> RunLength {
        RunLength::Instructions(self.instructions)
    }

    /// Every simulated cell, in the order the workload runs them: for
    /// eval-sweep the four grids `all` runs, repeats included; for
    /// swim-dense the one long Burst_TH52 cell.
    pub fn cells(&self) -> Vec<(SpecBenchmark, Mechanism)> {
        match self.workload {
            Workload::EvalSweep => grids()
                .iter()
                .flat_map(|(_, bs, ms)| {
                    bs.iter()
                        .flat_map(move |&b| ms.iter().map(move |&m| (b, m)))
                })
                .collect(),
            Workload::SwimDense => vec![(SpecBenchmark::Swim, th52())],
        }
    }

    /// The distinct cells the reference engine simulates: every one at the
    /// default seed, whose reference is recorded. At another seed, eval-sweep
    /// checks [`SAMPLED_PER_BENCHMARK`] of each benchmark's distinct cells,
    /// spread over its mechanisms and rotated by the seed, so that every
    /// benchmark is checked in every run and every cell over a few seeds;
    /// simulating all 256 would cost more than the timed run.
    pub fn reference_cells(&self) -> Vec<(SpecBenchmark, Mechanism)> {
        let mut unique = self.cells();
        let mut seen = std::collections::BTreeSet::new();
        unique.retain(|&c| seen.insert(cell_key(c.0, c.1)));
        if self.recorded() || self.workload != Workload::EvalSweep {
            return unique;
        }
        let mut sample = Vec::new();
        for (i, b) in SpecBenchmark::all16().into_iter().enumerate() {
            let row: Vec<_> = unique.iter().filter(|c| c.0 == b).copied().collect();
            let n = row.len();
            let at = (self.seed as usize).wrapping_add(i) % n.max(1);
            sample.extend(
                (0..SAMPLED_PER_BENCHMARK.min(n))
                    .map(|k| row[(at + k * n / SAMPLED_PER_BENCHMARK) % n]),
            );
        }
        sample
    }

    fn recorded(&self) -> bool {
        *self == Plan::new(self.workload, DEFAULT_SEED)
    }
}

/// Distinct cells of each benchmark that eval-sweep checks against the
/// reference engine at a seed without a recorded reference; the others are
/// checked for agreement between their repetitions in the run.
pub const SAMPLED_PER_BENCHMARK: usize = 3;

fn th52() -> Mechanism {
    Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD)
}

type Grid = (&'static str, Vec<SpecBenchmark>, Vec<Mechanism>);

/// The grids of the `all` harness: the main sweep, Figure 8 and Figure 11
/// (both on swim) and the Figure 12 threshold sweep.
fn grids() -> [Grid; 4] {
    let benchmarks = SpecBenchmark::all16().to_vec();
    [
        ("sweep", benchmarks.clone(), Mechanism::all_paper().to_vec()),
        (
            "fig8",
            vec![SpecBenchmark::Swim],
            fig8_mechanisms().to_vec(),
        ),
        ("fig11", vec![SpecBenchmark::Swim], fig12_mechanisms()),
        ("fig12", benchmarks, fig12_mechanisms()),
    ]
}

/// The reference digests of `plan`: recorded for the default plan,
/// otherwise simulated now with the per-cycle reference engine.
///
/// # Errors
///
/// A malformed or empty recorded reference, or a reference cell that
/// failed to simulate.
pub fn reference(plan: &Plan) -> Result<Digests, String> {
    if !plan.recorded() {
        return compute_reference(plan);
    }
    let d = digest::parse_recorded(digest::RECORDED, plan.workload.name())?;
    if d.is_empty() {
        return Err(format!(
            "no recorded reference for {}",
            plan.workload.name()
        ));
    }
    Ok(d)
}

/// Simulates [`Plan::reference_cells`] with `Engine::CycleNoSkip`.
///
/// # Errors
///
/// The first cell that failed to simulate.
pub fn compute_reference(plan: &Plan) -> Result<Digests, String> {
    let unique = plan.reference_cells();
    let base = SystemConfig::baseline().with_engine(Engine::CycleNoSkip);
    let reports = map_parallel(&unique, plan.jobs(), |_, &(b, m)| {
        try_simulate(&base.with_mechanism(m), b.workload(plan.seed), plan.len())
    });
    let mut out = Digests::new();
    for (&(b, m), r) in unique.iter().zip(reports) {
        let r = r.map_err(|e| format!("reference cell {}: {e}", cell_key(b, m)))?;
        out.insert(cell_key(b, m), report_digest(&r));
    }
    Ok(out)
}

/// Checks simulated cells: each against the reference if it holds the
/// cell, otherwise against the cell's first report in the run.
struct Checker<'a> {
    reference: &'a Digests,
    first: Digests,
}

impl<'a> Checker<'a> {
    fn new(reference: &'a Digests) -> Self {
        Checker {
            reference,
            first: Digests::new(),
        }
    }

    fn check(&mut self, out: &mut Outcome, b: SpecBenchmark, r: &SimReport, what: &str) {
        let key = cell_key(b, r.mechanism);
        let d = report_digest(r);
        let (ok, against) = if self.reference.contains_key(&key) {
            (digest::matches(self.reference, &key, d), "the reference")
        } else {
            (*self.first.entry(key.clone()).or_insert(d) == d, "its first run")
        };
        if !ok {
            out.fail(format!("{what} {key}: report differs from {against}"));
        }
    }
}

/// Times the set-up of one cell of each of the main sweep's benchmarks
/// (workload construction, `System::new` and `System::warm`), the calls
/// the experiments layer makes before each of eval-sweep's cells; one part
/// per benchmark.
fn cell_setups(plan: &Plan, setups: &mut Envelope) {
    let base = SystemConfig::baseline();
    let mut rep = setups.repetition(host::thread_cpu_s);
    for b in SpecBenchmark::all16() {
        let sys = rep.time(|| {
            let mut source = b.workload(plan.seed);
            black_box(set_up(&base, &mut source))
        });
        drop(sys);
    }
}

/// Evaluations an eval-sweep run makes at least: each part's fastest time
/// is the fastest of this many or more.
const EVAL_REPS: usize = 3;

/// Memory cycles of one timed slice of a long simulation: 0.3 to 1 ms of
/// host time. The shorter a slice, the likelier some repetition of it ran
/// undisturbed: on a busy host, runs with slices of 100k cycles (10 to 50
/// ms) read 18 to 107% above runs with 2k-cycle slices made right after.
const SLICE_CYCLES: u64 = 2_000;

/// Rounds of cell set-ups after each evaluation, so that each benchmark's
/// fastest set-up is taken from this many per evaluation.
const SETUP_ROUNDS: usize = 8;

/// The untraced run: repeats the workload's unit of work (one evaluation,
/// or one long simulation with its set-up) until `seconds` have passed,
/// and reports each time metric as the sum of the fastest time of each
/// part of the unit (see [`Envelope`]).
///
/// The parts of an evaluation are Table 1 with Figure 1, each benchmark's
/// row of each grid, and the figures rendered; an evaluation is repeated at
/// least [`EVAL_REPS`] times. The parts of a long simulation are its set-up
/// and its slices of [`SLICE_CYCLES`]. `setup_s` is the set-up of one cell:
/// a long simulation's own, or for eval-sweep the median over the 16
/// benchmarks of the set-up of one of their cells, timed after each
/// evaluation.
pub fn run_untraced(plan: &Plan, seconds: f64, reference: &Digests) -> Outcome {
    let mut out = Outcome::default();
    let mut checker = Checker::new(reference);
    let mut unit = Envelope::default();
    let (mut instructions, mut mem_cycles, mut gaps) = (0, 0, Vec::new());
    let (setup_s, run_s) = match plan.workload {
        Workload::EvalSweep => {
            let (base, sup) = (SystemConfig::baseline(), SupervisorConfig::default());
            let mut setups = Envelope::default();
            let start = Instant::now();
            for reps in 1.. {
                let ev = evaluate(plan, &base, &sup, &mut unit);
                out.attempted += plan.cells().len() as u64;
                for f in ev.failures {
                    out.fail(f);
                }
                for (b, r) in &ev.cells {
                    checker.check(&mut out, *b, r, "cell");
                }
                instructions = ev.cells.iter().map(|(_, r)| r.instructions).sum();
                mem_cycles = ev.cells.iter().map(|(_, r)| r.mem_cycles).sum();
                gaps.push(ev.paper_gap_pp);
                for _ in 0..SETUP_ROUNDS {
                    cell_setups(plan, &mut setups);
                }
                if reps >= EVAL_REPS && start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            (median(setups.wall()), unit.wall_s())
        }
        Workload::SwimDense => {
            let (b, m) = plan.cells()[0];
            for result in long_sims(plan, seconds, &mut unit) {
                out.attempted += 1;
                match result {
                    Ok(r) => {
                        checker.check(&mut out, b, &r, "run");
                        instructions = r.instructions;
                        mem_cycles = r.mem_cycles;
                    }
                    Err(e) => out.fail(format!("{}: {e}", cell_key(b, m))),
                }
            }
            let setup_s = unit.wall().first().copied().unwrap_or(0.0);
            (setup_s, unit.wall_s() - setup_s)
        }
    };
    // With no successful repetition nothing is measured, and the result
    // is refused for its missing metrics.
    if instructions > 0 {
        out.values = vec![
            ("wall_s", unit.wall_s()),
            ("setup_s", setup_s),
            ("sim_minstr_per_s", instructions as f64 / run_s / 1e6),
            ("sim_mcycles_per_s", mem_cycles as f64 / run_s / 1e6),
            ("cpu_s", unit.cpu_s()),
            ("peak_rss_mb", host::peak_rss_mb()),
        ];
    }
    let fail_frac = out.failed.min(out.attempted) as f64 / out.attempted.max(1) as f64;
    out.summary = vec![("fail_frac", fail_frac)];
    if plan.workload == Workload::EvalSweep {
        out.summary.push(("paper_gap_pp", median(&gaps)));
    }
    out
}

/// The outputs of one paper evaluation.
struct Evaluation {
    cells: Vec<(SpecBenchmark, SimReport)>,
    failures: Vec<String>,
    paper_gap_pp: f64,
}

/// One paper evaluation, as `all --instructions 60000` runs it without a
/// journal or CSVs: Table 1, Figure 1, then each grid through the
/// supervised sweep (the call `outstanding_supervised` and
/// `fig12_supervised` delegate to, which also returns every cell's report),
/// with the main sweep's figures rendered. Each grid is run one
/// benchmark's row at a time, as `all` runs the swim-only Figure 8 and 11
/// grids, so that each row is a part of `unit`; a row's cells are still
/// spread over `plan.jobs()` workers.
fn evaluate(
    plan: &Plan,
    base: &SystemConfig,
    sup: &SupervisorConfig,
    unit: &mut Envelope,
) -> Evaluation {
    let mut rep = unit.repetition(host::process_cpu_s);
    rep.time(|| {
        black_box(render_table1(&table1(&TimingParams::ddr2_pc2_6400())));
        black_box(fig1());
    });
    let mut ev = Evaluation {
        cells: Vec::new(),
        failures: Vec::new(),
        paper_gap_pp: f64::NAN,
    };
    for (scope, bs, ms) in grids() {
        let mut grid = Sweep { cells: Vec::new() };
        for b in bs {
            let s = rep.time(|| {
                Sweep::run_supervised(
                    scope,
                    base,
                    &[b],
                    &ms,
                    plan.len(),
                    plan.seed,
                    plan.jobs(),
                    sup,
                    None,
                    None,
                )
            });
            ev.failures.extend(s.failures.iter().map(|f| {
                format!(
                    "{}: {:?} after {} attempts: {}",
                    f.key(),
                    f.kind,
                    f.attempts,
                    f.payload
                )
            }));
            grid.cells.extend(s.value.cells);
        }
        if scope == "sweep" {
            let average = rep.time(|| {
                black_box(render_fig7(&grid.fig7_rows()));
                black_box(render_fig9(&grid.fig9_rows()));
                let average = grid.fig10_average();
                black_box(render_fig10(&grid.fig10_rows(), &average).ok());
                average
            });
            if let Some(&(_, v)) = average.iter().find(|(m, _)| *m == th52()) {
                ev.paper_gap_pp = ((1.0 - v) * 100.0 - PAPER_TH52_REDUCTION_PCT).abs();
            }
        }
        ev.cells
            .extend(grid.cells.into_iter().map(|c| (c.benchmark, c.report)));
    }
    ev
}

/// `System::new` and `System::warm`: with the workload's construction
/// before it, one set-up.
fn set_up<S: OpSource>(cfg: &SystemConfig, source: &mut S) -> System {
    let mut sys = System::new(cfg);
    sys.warm(source);
    sys
}

/// One long simulation of `plan`'s cell, timed into `unit`: its set-up as
/// part 0, then each slice of [`SLICE_CYCLES`] through
/// `System::try_run_chunk`, which runs exactly as one `System::try_run`.
fn long_sim(plan: &Plan, unit: &mut Envelope) -> Result<SimReport, RunError> {
    let (b, m) = plan.cells()[0];
    let cfg = SystemConfig::baseline().with_mechanism(m);
    let mut rep = unit.repetition(host::thread_cpu_s);
    let (mut source, mut sys) = rep.time(|| {
        let mut source = b.workload(plan.seed);
        let sys = set_up(&cfg, &mut source);
        (source, sys)
    });
    let mut cursor = RunCursor::start(&sys);
    while rep.time(|| sys.try_run_chunk(&mut source, plan.len(), &mut cursor, SLICE_CYCLES))?
        == ChunkOutcome::Paused
    {}
    Ok(sys.report(source.name()))
}

/// Runs `plan`'s long simulation back to back on each of `plan.jobs()`
/// workers until `seconds` have passed, at least once on each, and folds
/// every worker's timings into `unit`. A worker lives for the whole run:
/// with fresh threads for each round of simulations, `peak_rss_mb` jumped
/// by 1.3 MB in some runs.
fn long_sims(plan: &Plan, seconds: f64, unit: &mut Envelope) -> Vec<Result<SimReport, RunError>> {
    let start = Instant::now();
    let done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.jobs())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Envelope::default();
                    let mut sims = vec![long_sim(plan, &mut mine)];
                    while start.elapsed().as_secs_f64() < seconds {
                        sims.push(long_sim(plan, &mut mine));
                    }
                    (mine, sims)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut sims = Vec::new();
    for (mine, s) in done {
        unit.merge(&mine);
        sims.extend(s);
    }
    sims
}

/// An op source that counts the ops drawn from it.
struct Counted<S> {
    inner: S,
    ops: u64,
}

impl<S: OpSource> OpSource for Counted<S> {
    fn next_op(&mut self) -> Op {
        self.ops += 1;
        self.inner.next_op()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Clocks and counts of one cell of a replay.
struct CellTrace {
    /// Workload construction + `System::new` + `System::warm`.
    setup_s: f64,
    /// `System::warm` alone.
    warm_s: f64,
    /// `System::try_run`.
    run_s: f64,
    warm_ops: u64,
    run_ops: u64,
    profile: PhaseProfile,
    report: Result<SimReport, RunError>,
}

impl CellTrace {
    fn total_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

fn trace_cell(cfg: &SystemConfig, b: SpecBenchmark, plan: &Plan, profile: bool) -> CellTrace {
    let t0 = Instant::now();
    let mut source = Counted {
        inner: b.workload(plan.seed),
        ops: 0,
    };
    let mut sys = System::new(cfg);
    if profile {
        sys.enable_phase_profile();
    }
    let t1 = Instant::now();
    sys.warm(&mut source);
    let t2 = Instant::now();
    let warm_ops = source.ops;
    let result = sys.try_run(&mut source, plan.len());
    let t3 = Instant::now();
    CellTrace {
        setup_s: (t2 - t0).as_secs_f64(),
        warm_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        warm_ops,
        run_ops: source.ops - warm_ops,
        profile: sys.phase_profile().copied().unwrap_or_default(),
        report: result.map(|()| sys.report(source.name())),
    }
}

/// Runs every cell of `plan` on `plan.jobs()` workers; returns the wall time
/// and the cells in order.
fn replay(plan: &Plan, profile: bool) -> (f64, Vec<CellTrace>) {
    let cells = plan.cells();
    let base = SystemConfig::baseline();
    let t = Instant::now();
    let traces = map_parallel(&cells, plan.jobs(), |_, &(b, m)| {
        trace_cell(&base.with_mechanism(m), b, plan, profile)
    });
    (t.elapsed().as_secs_f64(), traces)
}

/// Seconds to draw the same ops from an identical source: `(warm, run)`.
fn generation_s(b: SpecBenchmark, seed: u64, warm_ops: u64, run_ops: u64) -> (f64, f64) {
    let mut source = b.workload(seed);
    let t0 = Instant::now();
    for _ in 0..warm_ops {
        black_box(source.next_op());
    }
    let t1 = Instant::now();
    for _ in 0..run_ops {
        black_box(source.next_op());
    }
    ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
}

/// The traced run: replays every cell untraced and then with the phase
/// profile on, checks both against each other and the reference, and
/// reports the per-layer metrics.
pub fn run_traced(plan: &Plan, reference: &Digests) -> Outcome {
    let cells = plan.cells();
    let (plain_wall, plain) = replay(plan, false);
    let (traced_wall, traced) = replay(plan, true);
    let mut out = Outcome {
        attempted: 2 * cells.len() as u64,
        ..Outcome::default()
    };
    let mut checker = Checker::new(reference);
    let mut reports = Vec::new();
    for ((&(b, m), p), t) in cells.iter().zip(&plain).zip(&traced) {
        let key = cell_key(b, m);
        match (&p.report, &t.report) {
            (Ok(pr), Ok(tr)) => {
                checker.check(&mut out, b, pr, "untraced cell");
                if report_digest(tr) != report_digest(pr) {
                    out.fail(format!(
                        "traced cell {key}: report differs from the untraced one"
                    ));
                }
                reports.push(tr);
            }
            (p, t) => {
                for e in [p, t].into_iter().filter_map(|r| r.as_ref().err()) {
                    out.fail(format!("cell {key}: {e}"));
                }
            }
        }
        if t.profile.total_ns() as f64 > t.run_s * 1e9 {
            out.fail(format!("traced cell {key}: phases exceed the try_run time"));
        }
    }
    let gens = map_parallel(&traced, plan.jobs(), |i, t| {
        generation_s(cells[i].0, plan.seed, t.warm_ops, t.run_ops)
    });

    let sum = |f: &dyn Fn(&CellTrace) -> f64| traced.iter().map(f).sum::<f64>();
    let sum_r = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ns = |v: u64| v as f64 / 1e9;
    let gen_run: f64 = gens.iter().map(|g| g.1).sum();
    let tick_s = sum(&|t| ns(t.profile.dram_ns));
    let full_ticks = sum_r(&|r| r.engine.events_dispatched());
    let jumps = sum_r(&|r| r.engine.jumps());
    let mem_cycles = sum_r(&|r| r.mem_cycles);
    let bus_cycles = sum_r(&|r| r.mem_cycles * r.channels());
    let plain_totals: Vec<f64> = plain.iter().map(CellTrace::total_s).collect();
    let plain_sum: f64 = plain_totals.iter().sum();
    let mut seen = std::collections::BTreeSet::new();
    let repeats = cells
        .iter()
        .filter(|&&(b, m)| !seen.insert(cell_key(b, m)))
        .count();
    let workers = plan.jobs().clamp(1, cells.len().max(1)) as f64;

    out.values = vec![
        ("workloads.ops", sum(&|t| (t.warm_ops + t.run_ops) as f64)),
        ("workloads.gen_s", gens.iter().map(|g| g.0 + g.1).sum()),
        ("cpu.warm_s", sum(&|t| t.warm_s)),
        ("cpu.run_s", sum(&|t| ns(t.profile.cpu_ns)) - gen_run),
        ("cpu.deliver_s", sum(&|t| ns(t.profile.deliver_ns))),
        ("cpu.retired", sum_r(&|r| r.instructions)),
        (
            "cpu.ipc",
            sum_r(&|r| r.instructions) / sum_r(&|r| r.cpu_cycles).max(1.0),
        ),
        ("cpu.stall_cycles", sum_r(&|r| r.cpu.stall_cycles)),
        ("cpu.mem_reads", sum_r(&|r| r.cpu.mem_reads)),
        ("cpu.mem_writes", sum_r(&|r| r.cpu.mem_writes)),
        ("core.tick_s", tick_s),
        ("core.handoff_s", sum(&|t| ns(t.profile.handoff_ns))),
        ("core.full_ticks", full_ticks),
        ("core.noop_ticks", sum_r(&|r| r.engine.noop_ticks)),
        ("core.tick_ns", tick_s * 1e9 / full_ticks.max(1.0)),
        (
            "core.read_latency_mean",
            sum_r(&|r| r.ctrl.read_latency_sum) / sum_r(&|r| r.ctrl.reads_done).max(1.0),
        ),
        ("core.row_hits", sum_r(&|r| r.ctrl.row_hits)),
        ("core.row_conflicts", sum_r(&|r| r.ctrl.row_conflicts)),
        ("core.preemptions", sum_r(&|r| r.ctrl.preemptions)),
        ("core.piggybacks", sum_r(&|r| r.ctrl.piggybacks)),
        (
            "core.write_saturated_cycles",
            sum_r(&|r| r.ctrl.write_saturated_cycles),
        ),
        ("dram.activates", sum_r(&|r| r.bus.activates)),
        ("dram.precharges", sum_r(&|r| r.bus.precharges)),
        ("dram.refreshes", sum_r(&|r| r.bus.refreshes)),
        (
            "dram.data_bus_util",
            sum_r(&|r| r.bus.data_cycles) / bus_cycles.max(1.0),
        ),
        (
            "engine.horizon_s",
            sum(&|t| t.run_s - ns(t.profile.total_ns())),
        ),
        ("engine.steps", sum_r(&|r| r.engine.steps)),
        (
            "engine.events_per_kcycle",
            full_ticks * 1000.0 / mem_cycles.max(1.0),
        ),
        (
            "engine.mean_jump",
            sum_r(&|r| r.engine.skipped()) / jumps.max(1.0),
        ),
        (
            "engine.quiescent_skipped",
            sum_r(&|r| r.engine.quiescent_skipped),
        ),
        ("engine.busy_skipped", sum_r(&|r| r.engine.busy_skipped)),
        ("experiments.cells", cells.len() as f64),
        ("experiments.repeat_cells", repeats as f64),
        ("experiments.cell_s.p50", percentile(&plain_totals, 50.0)),
        ("experiments.cell_s.p97", percentile(&plain_totals, 97.0)),
        ("experiments.cell_s.max", percentile(&plain_totals, 100.0)),
        (
            "experiments.worker_util",
            plain_sum / (workers * plain_wall),
        ),
        (
            "experiments.setup_share",
            plain.iter().map(|t| t.setup_s).sum::<f64>() / plain_sum,
        ),
        (
            "trace.overhead_pct",
            (traced_wall / plain_wall - 1.0) * 100.0,
        ),
    ];
    out
}
