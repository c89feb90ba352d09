//! The step-by-step placement loop the event-driven core replaced,
//! kept as a test oracle.
//!
//! [`place_free`](super::place_free) jumps between the steps where a
//! scan can place a node or raise an error. This oracle visits every
//! control step instead, re-sorting the ready list and recomputing each
//! ready node's earliest start on every scan. The seeded property test
//! below holds the two to the same schedules, the same reservations and
//! the same errors. The incremental-vs-reference suites cannot catch a
//! divergence here: both of their sides call the same placement core.
//! The oracle's horizon sums the clamped node times, like the core's:
//! a zero-time node still takes a step.

use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, OpKind};

use super::{
    bind_classes, build_fixed_table, place_free, ListScheduler, PlaceInputs, PlaceScratch, ZeroSet,
};
use crate::error::SchedError;
use crate::priority::PriorityPolicy;
use crate::reservation::ReservationTable;
use crate::resources::{ResourceClass, ResourceSet};
use crate::schedule::Schedule;

/// [`place_free`] through the step-by-step loop.
fn place_free_stepwise(
    inputs: &PlaceInputs<'_>,
    table: &mut ReservationTable,
    schedule: &mut Schedule,
    free: &[NodeId],
    scratch: &mut PlaceScratch,
) -> Result<(), SchedError> {
    for &v in free {
        scratch.is_free[v] = true;
        scratch.blocking[v] = 0;
        scratch.latest[v] = None;
    }
    let result = stepwise_inner(inputs, table, schedule, free, scratch);
    for &v in free {
        scratch.is_free[v] = false;
    }
    result
}

fn stepwise_inner(
    inputs: &PlaceInputs<'_>,
    table: &mut ReservationTable,
    schedule: &mut Schedule,
    free: &[NodeId],
    scratch: &mut PlaceScratch,
) -> Result<(), SchedError> {
    let PlaceInputs {
        dfg,
        zero,
        weights,
        class_of,
        resources,
    } = *inputs;
    let PlaceScratch {
        is_free,
        blocking,
        latest,
        ready,
        ..
    } = scratch;

    // The flat structure-of-arrays view: every precedence walk below
    // runs over these contiguous slices instead of per-node edge
    // vectors and edge objects. Per-node order is insertion order, so
    // every decision matches the `Vec<Vec<EdgeId>>` iteration exactly.
    let csr = dfg.csr();
    let in_ids = csr.in_edge_ids();
    let in_tails = csr.in_tails();
    let out_ids = csr.out_edge_ids();
    let out_heads = csr.out_heads();
    let times = csr.times();
    let is_free = is_free.as_slice();
    let weights = weights.as_slice();

    // Dependency bookkeeping over the zero-delay DAG of G_r.
    // blocking[v] = number of *unscheduled free* zero-delay preds.
    for v in free.iter().copied() {
        for i in csr.in_range(v.index()) {
            if zero.contains(in_ids[i]) && is_free[in_tails[i] as usize] {
                blocking[v] += 1;
            }
        }
    }

    // Latest start allowed by *fixed* zero-delay successors: v must
    // finish before any fixed successor w starts, i.e.
    // s(v) <= s(w) - t(v). A bound of 0 marks an unsatisfiable box-in
    // (control steps are 1-based). Fixed nodes never move, so this is
    // computed once.
    for &v in free {
        let t = times[v.index()];
        for i in csr.out_range(v.index()) {
            if zero.contains(out_ids[i]) {
                let w = out_heads[i] as usize;
                if !is_free[w] {
                    if let Some(sw) = schedule.start(NodeId::from_index(w)) {
                        let bound = sw.saturating_sub(t);
                        latest[v] = Some(latest[v].map_or(bound, |a| a.min(bound)));
                    }
                }
            }
        }
    }

    // Earliest start from already-scheduled zero-delay predecessors.
    let earliest_start = |v: NodeId, schedule: &Schedule| -> u32 {
        let mut earliest = 1;
        for i in csr.in_range(v.index()) {
            if zero.contains(in_ids[i]) {
                let u = in_tails[i] as usize;
                if let Some(su) = schedule.start(NodeId::from_index(u)) {
                    earliest = earliest.max(su + times[u]);
                }
            }
        }
        earliest
    };

    let mut remaining: usize = free.len();
    ready.clear();
    ready.extend(free.iter().copied().filter(|&v| blocking[v] == 0));

    // A safe horizon: everything fits after the fixed part even fully
    // serialized. Zero-time nodes still take a step, so the serial
    // length sums the clamped times.
    let serial: u64 = times.iter().map(|&t| u64::from(t)).sum();
    let horizon = table.horizon() + u32::try_from(serial).unwrap_or(u32::MAX) + 1;

    let mut cs: u32 = 1;
    while remaining > 0 {
        // Steps before every ready node's earliest start place nothing —
        // skip them wholesale. Decisions are unchanged: a node whose
        // earliest start exceeds `cs` is passed over (and its deadline
        // not examined) by the scan below anyway.
        if let Some(min_earliest) = ready.iter().map(|&v| earliest_start(v, schedule)).min() {
            cs = cs.max(min_earliest);
        }
        if cs > horizon {
            let stuck = free
                .iter()
                .copied()
                .find(|&v| schedule.start(v).is_none())
                .expect("remaining > 0 implies an unscheduled free node");
            return Err(SchedError::NoFeasibleSlot { node: stuck });
        }

        // Ready nodes whose precedence admits this step: nodes boxed
        // in by fixed successors (earliest deadline) first, then by
        // weight. Unboxed nodes have no deadline, so plain full
        // scheduling is unaffected. The key ends in the unique node id,
        // so the unstable sort is deterministic and allocation-free.
        ready.sort_unstable_by_key(|&v| {
            (
                latest[v].unwrap_or(u32::MAX),
                core::cmp::Reverse(weights[v.index()]),
                v,
            )
        });
        let mut placed_any = true;
        while placed_any {
            placed_any = false;
            let mut i = 0;
            while i < ready.len() {
                let v = ready[i];
                let earliest = earliest_start(v, schedule);
                if earliest > cs {
                    i += 1;
                    continue;
                }
                if let Some(bound) = latest[v] {
                    if cs > bound {
                        return Err(SchedError::NoFeasibleSlot { node: v });
                    }
                }
                let class_id = class_of[v];
                let class = resources.class(class_id);
                let time = dfg.node(v).time();
                if table.can_place(class_id, class.occupancy(time).map(|off| cs + off)) {
                    table.place(class_id, class.occupancy(time).map(|off| cs + off));
                    schedule.set(v, cs);
                    remaining -= 1;
                    ready.swap_remove(i);
                    placed_any = true;
                    // Unblock free successors.
                    for j in csr.out_range(v.index()) {
                        if zero.contains(out_ids[j]) {
                            let w = NodeId::from_index(out_heads[j] as usize);
                            if is_free[w.index()] && schedule.start(w).is_none() {
                                blocking[w] -= 1;
                                if blocking[w] == 0 {
                                    ready.push(w);
                                }
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
            if placed_any {
                // Newly unblocked nodes may also fit in this step.
                ready.sort_unstable_by_key(|&v| {
                    (
                        latest[v].unwrap_or(u32::MAX),
                        core::cmp::Reverse(weights[v.index()]),
                        v,
                    )
                });
            }
        }
        cs += 1;
    }
    Ok(())
}

/// A random graph over adder- and multiplier-class nodes with times in
/// `0..=3`: forward edges (mostly zero-delay, so the DAG is non-trivial)
/// plus delayed back edges.
fn random_graph(rng: &mut SplitMix64) -> Dfg {
    let n = rng.range_u32(2, 14) as usize;
    let mut g = Dfg::new("oracle");
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let op = if rng.chance(0.5) {
                OpKind::Add
            } else {
                OpKind::Mul
            };
            g.add_node(format!("v{i}"), op, rng.range_u32(0, 3))
        })
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            if rng.chance(0.3) {
                let delays = if rng.chance(0.75) {
                    0
                } else {
                    rng.range_u32(1, 2)
                };
                g.add_edge(ids[i], ids[j], delays).expect("valid edge");
            }
            if rng.chance(0.08) {
                g.add_edge(ids[j], ids[i], rng.range_u32(1, 2))
                    .expect("valid edge");
            }
        }
    }
    g
}

/// Two unit classes with random counts and independent pipelining.
fn random_resources(rng: &mut SplitMix64) -> ResourceSet {
    ResourceSet::new(vec![
        ResourceClass::new(
            "A",
            rng.range_u32(1, 3),
            vec![
                OpKind::Add,
                OpKind::Sub,
                OpKind::Cmp,
                OpKind::Shift,
                OpKind::Other,
            ],
            rng.chance(0.4),
        ),
        ResourceClass::new(
            "M",
            rng.range_u32(1, 3),
            vec![OpKind::Mul, OpKind::Div],
            rng.chance(0.5),
        ),
    ])
}

/// Runs both loops on clones of the same partial schedule and table and
/// asserts identical outcomes; returns the shared result.
fn compare(
    inputs: &PlaceInputs<'_>,
    table: &ReservationTable,
    schedule: &Schedule,
    free: &[NodeId],
    seed: u64,
) -> Result<(), SchedError> {
    let mut fast_table = table.clone();
    let mut fast_schedule = schedule.clone();
    let mut fast_scratch = PlaceScratch::new(inputs.dfg);
    let fast = place_free(
        inputs,
        &mut fast_table,
        &mut fast_schedule,
        free,
        &mut fast_scratch,
    );
    let mut slow_table = table.clone();
    let mut slow_schedule = schedule.clone();
    let mut slow_scratch = PlaceScratch::new(inputs.dfg);
    let slow = place_free_stepwise(
        inputs,
        &mut slow_table,
        &mut slow_schedule,
        free,
        &mut slow_scratch,
    );
    assert_eq!(fast, slow, "seed {seed}: outcomes differ");
    if fast.is_ok() {
        assert_eq!(
            fast_schedule, slow_schedule,
            "seed {seed}: schedules differ"
        );
        assert!(
            fast_table.same_usage(&slow_table),
            "seed {seed}: reservations differ"
        );
    }
    fast
}

#[test]
fn event_driven_placement_matches_the_stepwise_oracle() {
    const POLICIES: [PriorityPolicy; 4] = [
        PriorityPolicy::DescendantCount,
        PriorityPolicy::PathHeight,
        PriorityPolicy::Mobility,
        PriorityPolicy::InputOrder,
    ];
    const SEEDS: usize = 4000;
    let (mut full, mut partial_ok, mut boxed_in) = (0, 0, 0);
    for seed in 0..SEEDS as u64 {
        let mut rng = SplitMix64::new(seed);
        let g = random_graph(&mut rng);
        let resources = random_resources(&mut rng);
        let zero = ZeroSet::compute(&g, None);
        let scheduler = ListScheduler::new(POLICIES[rng.index(POLICIES.len())]);
        let weights = scheduler
            .cached_weights(&g, None)
            .expect("acyclic zero DAG");
        let class_of = bind_classes(&g, &resources).expect("every op binds");
        let inputs = PlaceInputs {
            dfg: &g,
            zero: &zero,
            weights: &weights,
            class_of: &class_of,
            resources: &resources,
        };

        // Full scheduling: every node free on an empty table.
        let all: Vec<NodeId> = g.node_ids().collect();
        let mut schedule = Schedule::empty(&g);
        compare(
            &inputs,
            &ReservationTable::new(&resources),
            &schedule,
            &all,
            seed,
        )
        .expect("full scheduling always succeeds");
        full += 1;
        place_free(
            &inputs,
            &mut ReservationTable::new(&resources),
            &mut schedule,
            &all,
            &mut PlaceScratch::new(&g),
        )
        .expect("full scheduling always succeeds");

        // Partial rescheduling: free a random subset, and sometimes
        // pull fixed nodes earlier so free nodes are boxed in by their
        // fixed successors.
        for _ in 0..4 {
            let mut partial = schedule.clone();
            let free: Vec<NodeId> = all.iter().copied().filter(|_| rng.chance(0.4)).collect();
            for &v in &free {
                partial.clear(v);
            }
            if rng.chance(0.6) {
                let length = schedule.length(&g);
                for &v in &all {
                    if partial.start(v).is_some() && rng.chance(0.3) {
                        partial.set(v, rng.range_u32(1, length));
                    }
                }
            }
            let Ok(table) = build_fixed_table(&g, &class_of, &resources, &partial) else {
                continue;
            };
            match compare(&inputs, &table, &partial, &free, seed) {
                Ok(()) => partial_ok += 1,
                Err(SchedError::NoFeasibleSlot { .. }) => boxed_in += 1,
                Err(other) => panic!("seed {seed}: unexpected error {other}"),
            }
        }
    }
    assert_eq!(full, SEEDS);
    assert!(
        partial_ok > 2 * SEEDS,
        "only {partial_ok} partial reschedules succeeded"
    );
    assert!(boxed_in > SEEDS / 5, "only {boxed_in} boxed-in free sets");
}
