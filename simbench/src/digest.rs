//! Reference digests: one FNV-1a hash per simulated cell, over every
//! `SimReport` field that `SimReport::eq` compares.
//!
//! The recorded file holds the digests the per-cycle reference engine
//! (`Engine::CycleNoSkip`) produces at the default seed; for any other
//! seed the benchmark recomputes them with that engine before timing.

use std::collections::BTreeMap;

use burst_core::Mechanism;
use burst_sim::SimReport;
use burst_workloads::SpecBenchmark;

/// Digests keyed by cell, `<benchmark>/<mechanism>` (e.g. `swim/Burst_TH52`).
pub type Digests = BTreeMap<String, u64>;

/// The recorded default-seed reference, one `<workload> <cell> <hex>` line
/// per cell.
pub const RECORDED: &str = include_str!("../reference/seed42.txt");

/// Where `--write-reference` writes [`RECORDED`].
pub const RECORDED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/seed42.txt");

/// The digest key of one `(benchmark, mechanism)` cell. A cell's report
/// depends only on the pair, the seed and the budget, so grids that repeat
/// a pair share its reference.
pub fn cell_key(benchmark: SpecBenchmark, mechanism: Mechanism) -> String {
    format!("{}/{}", benchmark.name(), mechanism.name())
}

/// FNV-1a over every field `SimReport::eq` compares. The engine counters
/// are left out on purpose: they differ between engines by design.
pub fn report_digest(r: &SimReport) -> u64 {
    let text = format!(
        "{:?}\x1f{:?}\x1f{}\x1f{}\x1f{}\x1f{:?}\x1f{:?}\x1f{:?}\x1f{:?}\x1f{}",
        r.mechanism,
        r.workload,
        r.cpu_cycles,
        r.mem_cycles,
        r.instructions,
        r.ctrl,
        r.bus,
        r.cpu,
        r.robustness,
        r.channels(),
    );
    burst_snap::fnv1a64(text.as_bytes())
}

/// Whether `digest` is the reference digest of `key`; a cell missing from
/// the reference does not match.
pub fn matches(reference: &Digests, key: &str, digest: u64) -> bool {
    reference.get(key) == Some(&digest)
}

/// The recorded digests of one workload.
///
/// # Errors
///
/// A malformed line, named with its line number.
pub fn parse_recorded(text: &str, workload: &str) -> Result<Digests, String> {
    let mut out = Digests::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, key, hex] = fields[..] else {
            return Err(format!("reference line {}: expected 3 fields", i + 1));
        };
        let digest =
            u64::from_str_radix(hex, 16).map_err(|e| format!("reference line {}: {e}", i + 1))?;
        if w == workload {
            out.insert(key.to_string(), digest);
        }
    }
    Ok(out)
}

/// Renders one workload's digests in the [`RECORDED`] line format.
pub fn render(workload: &str, digests: &Digests) -> String {
    digests
        .iter()
        .map(|(k, d)| format!("{workload} {k} {d:016x}\n"))
        .collect()
}
