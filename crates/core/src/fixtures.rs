//! Graphs shared by the unit tests.

use rotsched_dfg::{Dfg, DfgBuilder, OpKind};

use crate::heuristics::HeuristicConfig;

/// `n` unit-time additions chained `v0 → … → v{n−1}`, closed by a back
/// edge carrying `delays` delays.
pub(crate) fn ring(n: usize, delays: u32) -> Dfg {
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    DfgBuilder::new("ring")
        .nodes("v", n, OpKind::Add, 1)
        .chain(&refs)
        .edge(&format!("v{}", n - 1), "v0", delays)
        .build()
        .unwrap()
}

/// A short heuristic sweep: 16 rotations per phase, 8 retained best
/// schedules, one round.
pub(crate) fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 16,
        max_size: None,
        keep_best: 8,
        rounds: 1,
    }
}
