//! The metric registry and the result line.
//!
//! Every name printed is declared here, with its unit, and each list
//! mirrors a section of `BENCHMARK.json` (a test holds them equal).

use std::fmt::Write as _;
use std::time::Instant;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run. Host time unless the
/// name says simulated.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("sim_minstr_per_s", "Minstr/s"),
    m("sim_mcycles_per_s", "Mcycles/s"),
    m("cpu_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.ops", "count"),
    m("workloads.gen_s", "s"),
    m("cpu.warm_s", "s"),
    m("cpu.run_s", "s"),
    m("cpu.deliver_s", "s"),
    m("cpu.retired", "count"),
    m("cpu.ipc", "instr/cycle"),
    m("cpu.stall_cycles", "count"),
    m("cpu.mem_reads", "count"),
    m("cpu.mem_writes", "count"),
    m("core.tick_s", "s"),
    m("core.handoff_s", "s"),
    m("core.full_ticks", "count"),
    m("core.noop_ticks", "count"),
    m("core.tick_ns", "ns"),
    m("core.read_latency_mean", "cycles"),
    m("core.row_hits", "count"),
    m("core.row_conflicts", "count"),
    m("core.preemptions", "count"),
    m("core.piggybacks", "count"),
    m("core.write_saturated_cycles", "count"),
    m("dram.activates", "count"),
    m("dram.precharges", "count"),
    m("dram.refreshes", "count"),
    m("dram.data_bus_util", "frac"),
    m("engine.horizon_s", "s"),
    m("engine.steps", "count"),
    m("engine.events_per_kcycle", "1/kcycle"),
    m("engine.mean_jump", "cycles"),
    m("engine.quiescent_skipped", "count"),
    m("engine.busy_skipped", "count"),
    m("experiments.cells", "count"),
    m("experiments.repeat_cells", "count"),
    m("experiments.cell_s.p50", "s"),
    m("experiments.cell_s.p97", "s"),
    m("experiments.cell_s.max", "s"),
    m("experiments.worker_util", "frac"),
    m("experiments.setup_share", "frac"),
    m("trace.overhead_pct", "%"),
];

/// Printed on the untraced summary lines but kept out of the result
/// object: the result's metrics are compared as a share of their median,
/// and these two can be zero (`fail_frac` is zero on every healthy run)
/// or exist for one workload only (`paper_gap_pp`). `fail_frac` also
/// travels as the result's `failed` / `attempted`.
pub const SUMMARY_ONLY: &[Metric] = &[m("fail_frac", "frac"), m("paper_gap_pp", "pp")];

/// Looks a declared metric up by name in `list`.
pub fn find(list: &[Metric], name: &str) -> Option<Metric> {
    list.iter().copied().find(|x| x.name == name)
}

/// One run's outcome.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulations whose output was checked.
    pub attempted: u64,
    /// Simulations that failed or disagreed with the reference.
    pub failed: u64,
    /// Values of one registry list, by name.
    pub values: Vec<(&'static str, f64)>,
    /// Values of [`SUMMARY_ONLY`] metrics, by name.
    pub summary: Vec<(&'static str, f64)>,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failure.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The printed lines: one `metric <name> <value> <unit>` line per
    /// value of `list` in its order, then the summary-only values, then the
    /// result object as the last line.
    ///
    /// # Errors
    ///
    /// A value of `list` missing or not finite, or a name not in `list` —
    /// a bug in the benchmark, reported instead of a result.
    pub fn render(&self, list: &[Metric]) -> Result<String, String> {
        if let Some((name, _)) = self.values.iter().find(|(n, _)| find(list, n).is_none()) {
            return Err(format!("undeclared metric {name}"));
        }
        let mut lines = String::new();
        let mut json = String::new();
        for metric in list {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == metric.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", metric.name));
            }
            let _ = writeln!(lines, "metric {} {value} {}", metric.name, metric.unit);
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        for &(name, value) in &self.summary {
            let unit = find(SUMMARY_ONLY, name)
                .ok_or_else(|| format!("undeclared summary metric {name}"))?
                .unit;
            let _ = writeln!(lines, "metric {name} {value} {unit}");
        }
        let _ = writeln!(
            lines,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        Ok(lines)
    }
}

/// The median of `xs` (the mean of the middle two for an even count);
/// zero for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `xs`; zero for none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fastest wall and CPU seconds seen for each part of a unit of work
/// that a run repeats.
///
/// A simulation is deterministic, so every repetition of a part does the
/// same work, and other tenants of the host can only add time to it. The
/// fastest time of each part is therefore the steadiest estimate of its
/// cost, and their sum the cost of the whole unit. On a shared host the
/// median of whole units moved by a third between runs of the same code,
/// because the host's load changes over seconds; a part short next to
/// those changes is seen at least once in a quiet moment.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Envelope {
    /// Records one timing of part `part`.
    pub fn record(&mut self, part: usize, wall_s: f64, cpu_s: f64) {
        if self.wall.len() <= part {
            self.wall.resize(part + 1, f64::INFINITY);
            self.cpu.resize(part + 1, f64::INFINITY);
        }
        self.wall[part] = self.wall[part].min(wall_s);
        self.cpu[part] = self.cpu[part].min(cpu_s);
    }

    /// Folds in the timings of `other`, part by part.
    pub fn merge(&mut self, other: &Envelope) {
        for (i, (&w, &c)) in other.wall.iter().zip(&other.cpu).enumerate() {
            self.record(i, w, c);
        }
    }

    /// The fastest wall seconds of each part.
    pub fn wall(&self) -> &[f64] {
        &self.wall
    }

    /// The sum of the fastest wall seconds of every part.
    pub fn wall_s(&self) -> f64 {
        self.wall.iter().sum()
    }

    /// The sum of the fastest CPU seconds of every part.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.iter().sum()
    }

    /// A stopwatch for one repetition, its parts numbered from zero and
    /// its CPU time read from `cpu_clock`.
    pub fn repetition(&mut self, cpu_clock: fn() -> f64) -> Stopwatch<'_> {
        Stopwatch {
            envelope: self,
            part: 0,
            cpu_clock,
        }
    }
}

/// Times the successive parts of one repetition into an [`Envelope`].
pub struct Stopwatch<'a> {
    envelope: &'a mut Envelope,
    part: usize,
    cpu_clock: fn() -> f64,
}

impl Stopwatch<'_> {
    /// Runs `f` as the next part and records its wall and CPU seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, c) = (Instant::now(), (self.cpu_clock)());
        let value = f();
        let wall_s = t.elapsed().as_secs_f64();
        self.envelope
            .record(self.part, wall_s, (self.cpu_clock)() - c);
        self.part += 1;
        value
    }
}
