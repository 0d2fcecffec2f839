//! Drive the simulator with a hand-built workload instead of a SPEC
//! surrogate: three streaming arrays (like a triad kernel) mixed with a
//! pointer-chasing index structure, then compare plain burst scheduling
//! against the thresholded variant.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use burst_scheduling::prelude::*;
use burst_scheduling::workloads::{MixSource, MixWorkload, PointerChaseWorkload, StreamWorkload};

fn triad_with_index(seed: u64) -> MixWorkload {
    // c[i] = a[i] + s * b[i]: two loaded arrays, one stored array. Spread
    // the arrays so they start on different banks, and page-shuffle to
    // model physical page allocation.
    let streams = StreamWorkload::new(
        "triad",
        vec![0x1000_0000, 0x3000_0000, 0x5000_0000],
        32 << 20, // 32 MB per array
        64,
        0.33, // one store per three memory ops
        1.5,  // one memory op per ~2.5 instructions
        seed,
    )
    .with_page_shuffle(8192);

    // An index structure walked by dependent loads.
    let chase = PointerChaseWorkload::new("index", 0x7000_0000, 16 << 20, 2.0, 0.1, seed ^ 1);

    MixWorkload::new(
        "triad+index",
        vec![
            (0.8, Box::new(streams) as Box<dyn MixSource>),
            (0.2, Box::new(chase) as _),
        ],
        seed ^ 2,
    )
}

fn main() {
    for mechanism in [
        Mechanism::BkInOrder,
        Mechanism::Burst,
        Mechanism::BurstTh(52),
    ] {
        let config = SystemConfig::baseline().with_mechanism(mechanism);
        let report = simulate(
            &config,
            triad_with_index(7),
            RunLength::Instructions(40_000),
        );
        println!(
            "{:<12} cpu_cycles={:<9} read_lat={:>6.1}  row_hit={:>5.1}%  bus={:>5.1}%",
            mechanism.name(),
            report.cpu_cycles,
            report.ctrl.avg_read_latency(),
            report.ctrl.row_hit_rate() * 100.0,
            report.data_bus_utilization() * 100.0,
        );
    }
}
