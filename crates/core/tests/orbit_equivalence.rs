//! Orbit fast-forward equivalence: an untraced driver, which skips the
//! repeated orbit at the end of a rotation phase, must return exactly
//! what a driver under a counting observer returns — that one runs
//! every rotation. Both sides are compared on the paper's Tables 2–3
//! and a seeded random corpus over a grid of policies, objectives,
//! heuristics, `keep_best` and `α`, and through the portfolio at
//! several job counts.

use rotsched_baselines::{PublishedRow, TABLE_2, TABLE_3};
use rotsched_benchmarks::{all_benchmarks, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{
    initial_state, BestSet, HeuristicConfig, HeuristicOutcome, Objective, RotationError,
    RotationScheduler, SearchDriver, SearchEvent, SearchObserver, SolveOutcome,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];
const OBJECTIVES: [Objective; 3] = [
    Objective::Length,
    Objective::LengthRegs,
    Objective::LengthRegsCode,
];
const KEEP_BEST: [usize; 3] = [1, 2, 16];
const ALPHAS: [usize; 3] = [8, 32, 100];

/// Counts rotations. Any observer that observes makes the driver run
/// the plain loop.
#[derive(Default)]
struct Counting {
    rotations: usize,
}

impl SearchObserver for Counting {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        if let SearchEvent::Rotated { .. } = event {
            self.rotations += 1;
        }
    }
}

fn table_cells() -> Vec<(String, Dfg, ResourceSet)> {
    let graphs = all_benchmarks(&TimingModel::paper());
    TABLE_2
        .iter()
        .chain(TABLE_3)
        .map(|row: &PublishedRow| {
            let (_, g) = graphs
                .iter()
                .find(|(name, _)| *name == row.benchmark)
                .expect("every table row names a suite benchmark");
            let res = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
            (format!("{} {}", row.benchmark, res.label()), g.clone(), res)
        })
        .collect()
}

fn random_cells() -> Vec<(String, Dfg, ResourceSet)> {
    (0..24_u64)
        .map(|seed| {
            let mut rng = SplitMix64::new(0x0EB1 ^ seed);
            let g = random_dfg(
                &RandomDfgConfig {
                    nodes: rng.range_u32(4, 14) as usize,
                    forward_density: 0.25,
                    feedback_density: 0.12,
                    max_delays: 3,
                    mult_fraction: 0.4,
                    mult_steps: rng.range_u32(1, 3),
                },
                seed,
            );
            let res = ResourceSet::adders_multipliers(
                rng.range_u32(1, 3),
                rng.range_u32(1, 2),
                rng.chance(0.5),
            );
            (format!("random-{seed}"), g, res)
        })
        .collect()
}

fn assert_same_outcome(
    what: &str,
    fast: &Result<HeuristicOutcome, RotationError>,
    plain: &Result<HeuristicOutcome, RotationError>,
) {
    match (fast, plain) {
        (Ok(fast), Ok(plain)) => {
            assert_eq!(fast.best_score, plain.best_score, "{what}: best score");
            assert_eq!(fast.best, plain.best, "{what}: best set");
            assert_eq!(fast.phases, plain.phases, "{what}: phase stats");
            assert_eq!(
                fast.total_rotations, plain.total_rotations,
                "{what}: total rotations"
            );
            assert_eq!(fast.stopped, plain.stopped, "{what}: stop reason");
        }
        (Err(fast), Err(plain)) => assert_eq!(fast, plain, "{what}: error"),
        _ => panic!("{what}: one side failed: {fast:?} vs {plain:?}"),
    }
}

/// Runs one grid point both ways; returns the rotations the untraced
/// drivers skipped.
fn check_grid_point(label: &str, g: &Dfg, res: &ResourceSet, point: usize) -> usize {
    let policy = POLICIES[point % 4];
    let objective = OBJECTIVES[point / 4 % 3];
    let keep_best = KEEP_BEST[point / 12 % 3];
    let alpha = ALPHAS[point / 36 % 3];
    let first_heuristic = point / 108 == 0;
    let config = HeuristicConfig {
        rotations_per_phase: alpha,
        max_size: None,
        keep_best,
        rounds: 1,
    };
    let what = format!(
        "{label}: {policy:?}, {objective:?}, keep_best {keep_best}, alpha {alpha}, h{}",
        if first_heuristic { 1 } else { 2 }
    );
    let fast_sched = ListScheduler::new(policy);
    let plain_sched = ListScheduler::new(policy);
    let mut fast = SearchDriver::incremental(g, &fast_sched, res).with_objective(objective);
    let mut plain = SearchDriver::incremental(g, &plain_sched, res)
        .with_objective(objective)
        .with_observer(Counting::default());
    let (fast_out, plain_out) = if first_heuristic {
        (fast.heuristic1(&config), plain.heuristic1(&config))
    } else {
        (fast.heuristic2(&config), plain.heuristic2(&config))
    };
    assert_same_outcome(&what, &fast_out, &plain_out);
    assert_eq!(
        plain.skipped_rotations(),
        0,
        "{what}: an observed driver skips"
    );
    if let Ok(out) = &plain_out {
        assert_eq!(
            plain.observer.rotations, out.total_rotations,
            "{what}: the observer saw every rotation"
        );
    }
    fast.skipped_rotations()
}

/// The full 216-point grid (4 policies × 3 objectives × 3 `keep_best`
/// × 3 `α` × 2 heuristics) on every cell in release builds. Debug
/// builds, which are far slower and replay every skipped rotation, run
/// every 27th point, offset by the cell index so the cells together
/// still cover the grid.
fn check_corpus(cells: &[(String, Dfg, ResourceSet)]) -> usize {
    let stride = if cfg!(debug_assertions) { 27 } else { 1 };
    let mut skipped = 0;
    for (i, (label, g, res)) in cells.iter().enumerate() {
        for point in (i % stride..216).step_by(stride) {
            skipped += check_grid_point(label, g, res, point);
        }
    }
    skipped
}

#[test]
fn fast_forward_matches_the_plain_loop_on_the_paper_tables() {
    let skipped = check_corpus(&table_cells());
    assert!(skipped > 0, "no table phase ever closed an orbit");
}

#[test]
fn fast_forward_matches_the_plain_loop_on_random_graphs() {
    let skipped = check_corpus(&random_cells());
    assert!(skipped > 0, "no random phase ever closed an orbit");
}

fn assert_same_solve(what: &str, fast: &SolveOutcome, plain: &SolveOutcome) {
    assert_eq!(fast.length, plain.length, "{what}: length");
    assert_eq!(fast.score, plain.score, "{what}: score");
    assert_eq!(fast.depth, plain.depth, "{what}: depth");
    assert_eq!(fast.state, plain.state, "{what}: winning state");
    assert_eq!(fast.quality, plain.quality, "{what}: quality");
    assert_eq!(fast.stats, plain.stats, "{what}: stats");
    assert_eq!(fast.outcome.best, plain.outcome.best, "{what}: best set");
    assert_eq!(fast.outcome.phases, plain.outcome.phases, "{what}: phases");
    assert_eq!(
        fast.outcome.total_rotations, plain.outcome.total_rotations,
        "{what}: total rotations"
    );
}

/// The portfolio's tasks run untraced drivers unless a trace is asked
/// for, so a traced portfolio is the plain-loop side.
#[test]
fn portfolio_fast_forward_matches_the_traced_portfolio() {
    let cells: Vec<_> = table_cells().into_iter().chain(random_cells()).collect();
    // Debug builds check every 12th (cell, objective) pair.
    let stride = if cfg!(debug_assertions) { 12 } else { 1 };
    for (i, (label, g, res)) in cells.iter().enumerate() {
        for (o, objective) in OBJECTIVES.into_iter().enumerate() {
            if (i + o) % stride != 0 {
                continue;
            }
            for jobs in [1_usize, 2, 4] {
                let scheduler = RotationScheduler::new(g, res.clone())
                    .with_objective(objective)
                    .with_jobs(jobs);
                let what = format!("{label}: {objective:?}, jobs {jobs}");
                let fast = scheduler.solve_portfolio().expect("solves");
                let (plain, _trace) = scheduler.solve_portfolio_traced(16).expect("solves");
                assert_same_solve(&what, &fast, &plain);
            }
        }
    }
}

/// A uniform ring: every orbit of size-1 rotations rotates each node
/// once per lap, so each lap lifts the whole rotation function by one
/// and the restored state must carry that shift.
#[test]
fn ring_orbit_closes_with_a_nonzero_retiming_shift() {
    let g = DfgBuilder::new("ring")
        .nodes("v", 5, OpKind::Add, 1)
        .chain(&["v0", "v1", "v2", "v3", "v4"])
        .edge("v4", "v0", 2)
        .build()
        .expect("valid ring");
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(2, 0, false);
    let start = initial_state(&g, &sched, &res).expect("ring schedules");
    for alpha in [7, 20, 100] {
        let mut fast_state = start.clone();
        let mut fast_best = BestSet::new(4);
        let mut fast = SearchDriver::incremental(&g, &sched, &res);
        let fast_stats = fast
            .run_phase(&mut fast_state, &mut fast_best, 1, alpha)
            .expect("ring rotates");

        let mut plain_state = start.clone();
        let mut plain_best = BestSet::new(4);
        let mut plain =
            SearchDriver::incremental(&g, &sched, &res).with_observer(Counting::default());
        let plain_stats = plain
            .run_phase(&mut plain_state, &mut plain_best, 1, alpha)
            .expect("ring rotates");

        assert_eq!(fast_stats, plain_stats, "alpha {alpha}: stats");
        assert_eq!(fast_state, plain_state, "alpha {alpha}: final state");
        assert_eq!(fast_best.score, plain_best.score, "alpha {alpha}: score");
        assert_eq!(
            fast_best.schedules, plain_best.schedules,
            "alpha {alpha}: best"
        );
        assert_eq!(plain.observer.rotations, alpha);
        assert_eq!(fast_stats.rotations, alpha);
        assert!(
            fast.skipped_rotations() > 0,
            "alpha {alpha}: the ring's orbit never closed"
        );
        // Every node was rotated on many laps, each adding the same
        // shift to the whole rotation function.
        assert!(
            fast_state.retiming.min_value() >= 2,
            "alpha {alpha}: laps must lift the retiming: {:?}",
            fast_state.retiming
        );
    }
}
