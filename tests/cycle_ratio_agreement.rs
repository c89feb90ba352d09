//! Differential agreement of the independent cycle-ratio
//! implementations on degenerate inputs.
//!
//! Three pieces of code compute the recurrence bound of a DFG, each with
//! its own algorithm: `dfg::analysis::iteration_bound` (exact maximum
//! cycle ratio on the solver side), `verify::recurrence_bound`
//! (Bellman–Ford binary search on the verifier side) and the analysis
//! pass's `critical_cycle` (parametric search with a witness cycle).
//! The contract between them, pinned here on zero-time cycles,
//! self-loops, zero-delay cycles, near-`u32::MAX` times and delays,
//! acyclic and empty graphs, and the seeded random corpus:
//!
//! * `recurrence_bound` is `None` when `iteration_bound` reports a
//!   zero-delay cycle, whatever the times on it;
//! * it is `Some(1)` when `iteration_bound` is `Ok(None)` (no cycle);
//! * it is `Some(max(ib, 1))` when `iteration_bound` is `Ok(Some(ib))`
//!   with `ib < u32::MAX`, and `None` above that (the verifier's bound
//!   is a `u32` kernel length);
//! * the critical-cycle section's bound and ratio (as a value) equal the
//!   dfg ones whenever both exist.

use rotsched::benchmarks::{random_dfg, RandomDfgConfig};
use rotsched::dfg::analysis::{iteration_bound, max_cycle_ratio};
use rotsched::dfg::rng::SplitMix64;
use rotsched::verify::{analyze, recurrence_bound, ResourceSpec};
use rotsched::{Dfg, DfgError, OpKind};

/// Checks the contract on `g`; returns the dfg bound (`Err(())` for a
/// zero-delay cycle) and the verifier's bound.
fn check(g: &Dfg, what: &str) -> (Result<Option<u64>, ()>, Option<u32>) {
    let ib = iteration_bound(g);
    let verify = recurrence_bound(g);
    match &ib {
        Err(DfgError::ZeroDelayCycle { .. }) => assert_eq!(verify, None, "{what}"),
        Err(e) => panic!("{what}: unexpected iteration_bound error {e}"),
        Ok(None) => assert_eq!(verify, Some(1), "{what}: acyclic"),
        Ok(Some(ib)) => {
            let expected = u32::try_from((*ib).max(1)).ok().filter(|&b| b < u32::MAX);
            assert_eq!(verify, expected, "{what}: ib {ib}");
        }
    }
    let report = analyze(g, &ResourceSpec::unlimited(), None);
    if let (Ok(Some(ib)), Some(c)) = (&ib, &report.critical_cycle) {
        assert_eq!(c.iteration_bound, *ib, "{what}: critical-cycle bound");
        let ratio = max_cycle_ratio(g).ok().flatten().expect("a cyclic graph");
        assert_eq!(
            u128::from(c.ratio.num) * u128::from(ratio.den()),
            u128::from(ratio.num()) * u128::from(c.ratio.den),
            "{what}: critical-cycle ratio {}/{} vs {ratio}",
            c.ratio.num,
            c.ratio.den,
        );
    }
    (ib.map_err(|_| ()), verify)
}

/// A graph of `times.len()` nodes with the given `(from, to, delays)`
/// edges.
fn graph(times: &[u32], edges: &[(usize, usize, u32)]) -> Dfg {
    let mut g = Dfg::new("degenerate");
    let ids: Vec<_> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| g.add_node(format!("v{i}"), OpKind::Add, t))
        .collect();
    for &(from, to, delays) in edges {
        g.add_edge(ids[from], ids[to], delays).expect("valid edge");
    }
    g
}

const MAX: u32 = u32::MAX;

type Case = (
    &'static str,
    &'static [u32],
    &'static [(usize, usize, u32)],
    Result<Option<u64>, ()>,
    Option<u32>,
);

#[test]
fn degenerate_graphs() {
    let max = u64::from(MAX);
    #[rustfmt::skip]
    let cases: [Case; 22] = [
        ("zero-time ring", &[0, 0], &[(0, 1, 0), (1, 0, 1)], Ok(Some(0)), Some(1)),
        ("zero-time self-loop", &[0], &[(0, 0, 3)], Ok(Some(0)), Some(1)),
        ("mixed-time ring", &[0, 3, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 2)], Ok(Some(2)), Some(2)),
        ("self-loop", &[5], &[(0, 0, 1)], Ok(Some(5)), Some(5)),
        ("two-delay self-loop", &[5], &[(0, 0, 2)], Ok(Some(3)), Some(3)),
        ("slack self-loop", &[1], &[(0, 0, 4)], Ok(Some(1)), Some(1)),
        ("self-loop beside a ring", &[2, 3], &[(0, 0, 1), (0, 1, 0), (1, 0, 1)], Ok(Some(5)), Some(5)),
        ("zero-delay pair", &[1, 1], &[(0, 1, 0), (1, 0, 0)], Err(()), None),
        ("zero-delay triangle beside a ring", &[1, 2, 3, 1],
            &[(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 3, 1)], Err(()), None),
        ("zero-time zero-delay pair", &[0, 0], &[(0, 1, 0), (1, 0, 0)], Err(()), None),
        ("2·MAX ring", &[MAX, MAX], &[(0, 1, 0), (1, 0, 1)], Ok(Some(2 * max)), None),
        ("MAX self-loop", &[MAX], &[(0, 0, 1)], Ok(Some(max)), None),
        ("MAX-1 self-loop", &[MAX - 1], &[(0, 0, 1)], Ok(Some(max - 1)), Some(MAX - 1)),
        ("MAX-delay self-loop", &[1], &[(0, 0, MAX)], Ok(Some(1)), Some(1)),
        ("MAX/MAX self-loop", &[MAX], &[(0, 0, MAX)], Ok(Some(1)), Some(1)),
        ("MAX+1 over MAX", &[MAX, 1], &[(0, 1, 0), (1, 0, MAX)], Ok(Some(2)), Some(2)),
        ("2·MAX over 2·MAX", &[MAX, MAX], &[(0, 1, MAX), (1, 0, MAX)], Ok(Some(1)), Some(1)),
        ("2·MAX over MAX", &[MAX, MAX], &[(0, 1, 1), (1, 0, MAX - 1)], Ok(Some(2)), Some(2)),
        ("near-MAX 3-ring", &[MAX - 1, 1, MAX], &[(0, 1, 0), (1, 2, 0), (2, 0, 3)],
            Ok(Some(2 * max / 3)), Some(MAX / 3 * 2)),
        ("empty", &[], &[], Ok(None), Some(1)),
        ("single node", &[4], &[], Ok(None), Some(1)),
        ("chain", &[1, MAX, 0], &[(0, 1, 0), (1, 2, 3)], Ok(None), Some(1)),
    ];
    for (what, times, edges, dfg, verify) in cases {
        assert_eq!(check(&graph(times, edges), what), (dfg, verify), "{what}");
    }
}

/// The seeded random corpus as generated, plus a copy of each graph
/// with its node times redrawn from the degenerate values.
#[test]
fn seeded_random_corpus() {
    let extremes = [0, 1, 2, MAX - 1, MAX];
    let mut cyclic = 0;
    for seed in 0..120_u64 {
        let config = RandomDfgConfig {
            nodes: 1 + (seed % 24) as usize,
            feedback_density: [0.02, 0.08, 0.2][(seed % 3) as usize],
            max_delays: 1 + (seed % 4) as u32,
            ..RandomDfgConfig::default()
        };
        let g = random_dfg(&config, seed);
        if matches!(check(&g, &format!("seed {seed}")).0, Ok(Some(_))) {
            cyclic += 1;
        }
        let mut rng = SplitMix64::new(0xD1FF ^ seed);
        let mut extreme = g.clone();
        for v in g.node_ids() {
            let time = extremes[rng.index(extremes.len())];
            extreme.node_mut(v).set_time(time);
        }
        let _ = check(&extreme, &format!("seed {seed}, extreme times"));
    }
    assert!(cyclic > 60, "only {cyclic} cyclic graphs in the corpus");
}
