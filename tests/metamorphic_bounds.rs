//! Metamorphic invariants of the lower bounds over the seeded random
//! corpus: transformations whose effect on the answer is known without
//! knowing the answer.
//!
//! * Relabelling the nodes and inserting the edges in another order is
//!   the same loop, so `lower_bound`, `iteration_bound` and the maximum
//!   cycle ratio do not change.
//! * Scaling every node time by `k` scales every cycle's time by `k`,
//!   so the maximum cycle ratio is multiplied by exactly `k`.
//! * One more functional unit in a class can only relax the resource
//!   constraint, so `lower_bound` never rises. The relation is checked
//!   from machines whose classes all have at least one unit: a class
//!   with no units cannot run its operations at all, so no finite bound
//!   describes that machine.

use rotsched::benchmarks::{random_dfg, RandomDfgConfig};
use rotsched::dfg::analysis::{iteration_bound, max_cycle_ratio, Ratio};
use rotsched::dfg::rng::SplitMix64;
use rotsched::sched::ResourceClass;
use rotsched::{lower_bound, Dfg, ResourceSet};

const SEEDS: u64 = 80;

fn corpus() -> impl Iterator<Item = (u64, Dfg)> {
    (0..SEEDS).map(|seed| {
        let config = RandomDfgConfig {
            nodes: 2 + (seed % 20) as usize,
            feedback_density: [0.04, 0.1, 0.2][(seed % 3) as usize],
            max_delays: 1 + (seed % 3) as u32,
            mult_steps: 1 + (seed % 3) as u32,
            ..RandomDfgConfig::default()
        };
        (seed, random_dfg(&config, seed))
    })
}

fn machines() -> impl Iterator<Item = ResourceSet> {
    (0..18).map(|i| ResourceSet::adders_multipliers(1 + i % 3, 1 + i / 3 % 3, i >= 9))
}

/// `g` with its nodes added in a shuffled order under new names and its
/// edges inserted in a shuffled order.
fn relabelled(g: &Dfg, rng: &mut SplitMix64) -> Dfg {
    let mut order: Vec<_> = g.node_ids().collect();
    shuffle(&mut order, rng);
    let mut h = Dfg::new("relabelled");
    let mut new_id = vec![None; g.node_count()];
    for (i, &v) in order.iter().enumerate() {
        let node = g.node(v);
        new_id[v.index()] = Some(h.add_node(format!("r{i}"), node.op(), node.time()));
    }
    let mut edges: Vec<_> = g.edges().map(|(_, e)| *e).collect();
    shuffle(&mut edges, rng);
    for e in edges {
        let from = new_id[e.from().index()].expect("every node is mapped");
        let to = new_id[e.to().index()].expect("every node is mapped");
        h.add_edge(from, to, e.delays())
            .expect("a valid edge stays valid");
    }
    h
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The bounds a relabelling must keep: iteration bound, maximum cycle
/// ratio, and the lower bound on every machine.
fn bounds(g: &Dfg) -> (Option<u64>, Option<Ratio>, Vec<u64>) {
    let lbs = machines().map(|res| lower_bound(g, &res).expect("valid"));
    (
        iteration_bound(g).expect("valid"),
        max_cycle_ratio(g).expect("valid"),
        lbs.collect(),
    )
}

#[test]
fn relabelling_and_edge_order_change_no_bound() {
    for (seed, g) in corpus() {
        let mut rng = SplitMix64::new(0x7E1A ^ seed);
        let expected = bounds(&g);
        for round in 0..3 {
            let h = relabelled(&g, &mut rng);
            assert_eq!(bounds(&h), expected, "seed {seed}, relabelling {round}");
        }
    }
}

#[test]
fn scaling_times_scales_the_max_cycle_ratio() {
    let mut cyclic = 0;
    for (seed, g) in corpus() {
        let base = max_cycle_ratio(&g).expect("valid");
        if base.is_some() {
            cyclic += 1;
        }
        for k in [0_u32, 1, 2, 3, 7, 1000] {
            let mut scaled = g.clone();
            for v in g.node_ids() {
                scaled.node_mut(v).set_time(g.node(v).time() * k);
            }
            let expected = base.map(|r| Ratio::new(r.num() * u64::from(k), r.den()));
            assert_eq!(
                max_cycle_ratio(&scaled).expect("valid"),
                expected,
                "seed {seed}: times scaled by {k}"
            );
        }
    }
    assert!(cyclic > SEEDS / 2, "only {cyclic} cyclic graphs");
}

#[test]
fn one_more_unit_never_raises_the_lower_bound() {
    let mut lowered = 0;
    for (seed, g) in corpus() {
        for res in machines() {
            let before = lower_bound(&g, &res).expect("valid");
            for class in 0..res.classes().len() {
                let more = ResourceSet::new(
                    res.classes()
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let count = c.count() + u32::from(i == class);
                            ResourceClass::new(c.name(), count, c.ops(), c.is_pipelined())
                        })
                        .collect(),
                );
                let after = lower_bound(&g, &more).expect("valid");
                assert!(
                    after <= before,
                    "seed {seed}: one more {} unit on {} raised the bound {before} -> {after}",
                    res.classes()[class].name(),
                    res.label()
                );
                if after < before {
                    lowered += 1;
                }
            }
        }
    }
    assert!(lowered > 0, "no added unit ever lowered a bound");
}
