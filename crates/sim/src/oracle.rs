//! Lockstep reference oracle: runs the configured engine (the full
//! discrete-event engine by default) and a naive per-cycle engine side by
//! side on the same configuration and workload, comparing whole-system
//! state hashes at every epoch boundary.
//!
//! Clock jumping — quiescent event-horizon skipping and the event
//! engine's busy-period jumps alike — is *supposed* to be bit-identical
//! to per-cycle stepping; the determinism tests assert that for final
//! reports. The oracle strengthens the guarantee to *every intermediate
//! state*: a skip bug that cancels out by the end of a run — or one that
//! only corrupts a rarely-reported statistic — cannot hide from a
//! per-epoch hash comparison.
//!
//! On a mismatch the oracle does not just fail: it restores both engines
//! to the last agreed epoch boundary (using the checkpoint machinery) and
//! bisects, probing intermediate cycles until it has pinned the **first
//! divergent cycle** exactly. The resulting [`DivergenceError`] names the
//! cycle and both engines' per-component hashes, so the failing subsystem
//! is identified before anyone opens a debugger.
//!
//! The oracle's own self-test injects an artificial perturbation
//! ([`Perturbation`]) into the test engine at a chosen cycle and asserts
//! the bisection reports exactly that cycle.

use burst_snap::SnapError;
use burst_workloads::{CountingSource, OpSource};

use crate::system::{
    ChunkOutcome, ComponentHashes, RunCursor, RunError, RunLength, SimReport, System, SystemConfig,
};

/// Oracle tuning.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Memory cycles between state-hash comparisons. Smaller epochs
    /// tighten the initial bracket the bisection starts from; the default
    /// balances comparison overhead against bisection work.
    pub epoch: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { epoch: 4096 }
    }
}

/// An artificial state perturbation the oracle applies to the test
/// engine — the self-test that proves the bisection finds the exact
/// injected cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation {
    /// Memory cycle at which to apply the perturbation.
    pub at: u64,
    /// What to perturb.
    pub kind: PerturbKind,
}

/// The state mutation a [`Perturbation`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbKind {
    /// Skew the CPU's stall-cycle accounting by this many cycles —
    /// emulating the bookkeeping bug class cycle skipping could
    /// introduce.
    StallAccounting(u64),
}

impl Perturbation {
    fn apply(&self, sys: &mut System) {
        match self.kind {
            PerturbKind::StallAccounting(cycles) => sys.perturb_stall_accounting(cycles),
        }
    }
}

/// The oracle's verdict on a divergence: where it first appeared and what
/// each engine's state looked like there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceError {
    /// First memory cycle at which the engines' state hashes differ.
    pub first_divergent_cycle: u64,
    /// Per-component hashes of the skip-enabled (test) engine there.
    pub test: ComponentHashes,
    /// Per-component hashes of the per-cycle (reference) engine there.
    pub reference: ComponentHashes,
}

impl DivergenceError {
    /// Names of the components whose hashes differ.
    pub fn divergent_components(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.test.cpu != self.reference.cpu {
            out.push("cpu");
        }
        if self.test.sched != self.reference.sched {
            out.push("sched");
        }
        if self.test.dram != self.reference.dram {
            out.push("dram");
        }
        if self.test.system != self.reference.system {
            out.push("system");
        }
        out
    }
}

impl core::fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "engines diverge first at memory cycle {} in [{}]; \
             test engine: {}; reference engine: {}",
            self.first_divergent_cycle,
            self.divergent_components().join(", "),
            self.test,
            self.reference
        )
    }
}

impl std::error::Error for DivergenceError {}

/// Why an oracle run did not produce a clean report.
#[derive(Debug)]
pub enum OracleError {
    /// The engines disagree; the bisected first divergent cycle and both
    /// component-hash sets are attached.
    Divergence(DivergenceError),
    /// One of the engines latched a forward-progress failure.
    Run(RunError),
    /// The state could not be serialised for comparison.
    Snap(SnapError),
}

impl core::fmt::Display for OracleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OracleError::Divergence(d) => d.fmt(f),
            OracleError::Run(e) => write!(f, "oracle engine stalled: {e}"),
            OracleError::Snap(e) => write!(f, "oracle could not hash state: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<RunError> for OracleError {
    fn from(e: RunError) -> Self {
        OracleError::Run(e)
    }
}

impl From<SnapError> for OracleError {
    fn from(e: SnapError) -> Self {
        OracleError::Snap(e)
    }
}

/// One engine plus everything needed to re-run it from a snapshot.
struct Engine<W: OpSource> {
    sys: System,
    workload: CountingSource<W>,
    cursor: RunCursor,
}

impl<W: OpSource> Engine<W> {
    /// Advances exactly `n` memory cycles (or until the run length is
    /// reached), applying `perturb` at its exact cycle if it falls inside
    /// the stride. Returns the cycles actually advanced.
    fn advance(
        &mut self,
        len: RunLength,
        n: u64,
        perturb: Option<&Perturbation>,
    ) -> Result<u64, RunError> {
        let start = self.sys.mem_cycle();
        let target = start + n;
        if let Some(p) = perturb {
            if p.at > start && p.at <= target {
                // Stop exactly at the perturbation cycle. Budget
                // exhaustion pauses precisely there because skips are
                // capped at the remaining budget.
                let outcome = self.sys.try_run_chunk(
                    &mut self.workload,
                    len,
                    &mut self.cursor,
                    p.at - start,
                )?;
                if self.sys.mem_cycle() == p.at {
                    p.apply(&mut self.sys);
                }
                if outcome == ChunkOutcome::Done {
                    return Ok(self.sys.mem_cycle() - start);
                }
            }
        }
        let remaining = target - self.sys.mem_cycle();
        if remaining > 0 {
            self.sys
                .try_run_chunk(&mut self.workload, len, &mut self.cursor, remaining)?;
        }
        Ok(self.sys.mem_cycle() - start)
    }
}

/// Runs `cfg` under the lockstep oracle: the engine `cfg` selects (the
/// event engine by default) and the per-cycle reference engine
/// advance in [`OracleConfig::epoch`]-cycle strides, comparing state
/// hashes at every boundary, with `perturb` (a self-test fault) applied
/// to the test engine only.
///
/// On success returns the test engine's report — which the caller may
/// additionally compare against a plain [`crate::try_simulate`] run.
///
/// # Errors
///
/// [`OracleError::Divergence`] with the exact first divergent cycle and
/// both engines' component hashes when the engines disagree;
/// [`OracleError::Run`] when either engine stalls.
pub fn oracle_simulate<W, F>(
    cfg: &SystemConfig,
    make_workload: F,
    len: RunLength,
    oracle_cfg: &OracleConfig,
    perturb: Option<Perturbation>,
) -> Result<SimReport, OracleError>
where
    W: OpSource,
    F: Fn() -> W,
{
    let epoch = oracle_cfg.epoch.max(1);
    // The test engine is whatever `cfg` selects (Engine::Event unless the
    // caller overrode it); the reference is always plain per-cycle.
    let test_cfg = *cfg;
    let ref_cfg = cfg.with_engine(crate::system::Engine::CycleNoSkip);
    let build = |cfg: &SystemConfig| -> Engine<W> {
        let mut sys = System::new(cfg);
        let mut workload = CountingSource::new(make_workload());
        sys.warm(&mut workload);
        let cursor = RunCursor::start(&sys);
        Engine {
            sys,
            workload,
            cursor,
        }
    };
    let mut test = build(&test_cfg);
    let mut reference = build(&ref_cfg);
    if test.sys.state_hash()? != reference.sys.state_hash()? {
        // Construction or warm-up already disagrees — divergence at the
        // starting cycle, no bisection bracket to narrow.
        return Err(OracleError::Divergence(DivergenceError {
            first_divergent_cycle: test.sys.mem_cycle(),
            test: test.sys.component_hashes()?,
            reference: reference.sys.component_hashes()?,
        }));
    }
    loop {
        // Remember the last agreed state so a mismatch can be replayed.
        let agreed_test = test.sys.checkpoint()?;
        let agreed_ref = reference.sys.checkpoint()?;
        let agreed_test_ops = test.workload.consumed();
        let agreed_ref_ops = reference.workload.consumed();
        let agreed_test_cursor = test.cursor;
        let agreed_ref_cursor = reference.cursor;
        let start = test.sys.mem_cycle();

        let adv_t = test.advance(len, epoch, perturb.as_ref())?;
        let adv_r = reference.advance(len, epoch, None)?;
        let stride = adv_t.min(adv_r);
        let done = adv_t < epoch && adv_r < epoch && adv_t == adv_r;
        let agree = adv_t == adv_r && test.sys.state_hash()? == reference.sys.state_hash()?;
        if agree {
            if done || stride == 0 {
                return Ok(test.sys.report(test.workload.name().to_string()));
            }
            continue;
        }

        // Mismatch inside (start, start + stride']. Bisect by replaying
        // both engines from the agreed snapshot: `lo` cycles past the
        // boundary agree, `hi` cycles differ; the answer is `start + hi`.
        let hi0 = if adv_t == adv_r { stride } else { stride + 1 };
        let mut lo = 0u64;
        let mut hi = hi0;
        let probe = |k: u64| -> Result<(bool, ComponentHashes, ComponentHashes), OracleError> {
            let mut t = Engine {
                sys: System::new(&test_cfg),
                workload: CountingSource::new(make_workload()),
                cursor: agreed_test_cursor,
            };
            t.sys.restore(&agreed_test.bytes)?;
            t.workload.skip(agreed_test_ops);
            let mut r = Engine {
                sys: System::new(&ref_cfg),
                workload: CountingSource::new(make_workload()),
                cursor: agreed_ref_cursor,
            };
            r.sys.restore(&agreed_ref.bytes)?;
            r.workload.skip(agreed_ref_ops);
            let at = t.advance(len, k, perturb.as_ref())?;
            let ar = r.advance(len, k, None)?;
            let th = t.sys.component_hashes()?;
            let rh = r.sys.component_hashes()?;
            Ok((at != ar || th != rh, th, rh))
        };
        let mut verdict = None;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (differs, th, rh) = probe(mid)?;
            if differs {
                hi = mid;
                verdict = Some((th, rh));
            } else {
                lo = mid;
            }
        }
        let (test_hashes, ref_hashes) = match verdict.filter(|_| hi < hi0) {
            Some(v) => v,
            None => {
                let (_, th, rh) = probe(hi)?;
                (th, rh)
            }
        };
        return Err(OracleError::Divergence(DivergenceError {
            first_divergent_cycle: start + hi,
            test: test_hashes,
            reference: ref_hashes,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_core::Mechanism;
    use burst_workloads::SpecBenchmark;

    fn cfg(m: Mechanism) -> SystemConfig {
        SystemConfig::baseline()
            .with_mechanism(m)
            .with_warm_mem_ops(1_000)
    }

    #[test]
    fn oracle_passes_cleanly_and_matches_plain_simulation() {
        let cfg = cfg(Mechanism::BurstTh(52));
        let len = RunLength::Instructions(20_000);
        let report = oracle_simulate(
            &cfg,
            || SpecBenchmark::Swim.workload(3),
            len,
            &OracleConfig { epoch: 512 },
            None,
        )
        .expect("engines must agree");
        let plain =
            crate::try_simulate(&cfg, SpecBenchmark::Swim.workload(3), len).expect("plain run");
        assert_eq!(report, plain);
    }

    #[test]
    fn oracle_bisects_to_the_exact_perturbed_cycle() {
        let cfg = cfg(Mechanism::BurstRp);
        let len = RunLength::Instructions(50_000);
        let at = 3_333;
        let err = oracle_simulate(
            &cfg,
            || SpecBenchmark::Mcf.workload(11),
            len,
            &OracleConfig { epoch: 1024 },
            Some(Perturbation {
                at,
                kind: PerturbKind::StallAccounting(7),
            }),
        )
        .expect_err("perturbation must be caught");
        match err {
            OracleError::Divergence(d) => {
                assert_eq!(
                    d.first_divergent_cycle, at,
                    "bisection must land on the injected cycle: {d}"
                );
                assert_eq!(
                    d.divergent_components(),
                    vec!["cpu"],
                    "only the CPU stats were skewed: {d}"
                );
            }
            other => panic!("expected divergence, got {other}"),
        }
    }
}
