//! `random-portfolio`: a large seeded corpus of distinct random cyclic
//! graphs, each solved by the search portfolio at one job and then run
//! through the `--certify --analyze` steps. Unlike `paper`, the
//! portfolio stops at the lower bound, so most requests are cheap and
//! the layers around the search (parse, lint, bound, certify, analyze)
//! carry the median request, while the few problems that never reach
//! the bound carry the tail and the throughput.

use std::time::Instant;

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{RotationScheduler, SolveQuality};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::text;
use rotsched_sched::{analyze_loop_schedule, PriorityPolicy, ResourceSet};
use rotsched_verify::Code;

use crate::stats::Modes;
use crate::trace::Tracer;
use crate::{guarded, steps, KernelSums, Pass, Workload};

/// Distinct problems per corpus. The few problems that never reach the
/// bound dominate the corpus's total solve time, so the corpus must hold
/// many of them for throughput to agree between seeds.
const PROBLEMS: usize = 16000;
/// Requests per timing chunk: each chunk's fastest passes are kept
/// separately, so a burst of contention costs only the chunks it hits.
const CHUNK_LEN: usize = 1000;
/// Node counts are spread evenly over this range.
const NODES: std::ops::RangeInclusive<usize> = 8..=16;
/// Cost-mode boundaries in nanoseconds: under 1 ms, 1–10 ms, 10 ms or more.
const MODE_BOUNDS_NS: [u64; 2] = [1_000_000, 10_000_000];

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

struct Problem {
    text: String,
    resources: ResourceSet,
    policy: PriorityPolicy,
}

/// What one request produces; equal across passes.
#[derive(Debug, PartialEq, Eq)]
struct Output {
    length: u32,
    lower_bound: u64,
    registers: u64,
    code_ops: u64,
    optimal: bool,
    rotations: u64,
    analysis: String,
}

pub struct RandomPortfolio {
    problems: Vec<Problem>,
    references: Vec<Output>,
    kernels: KernelSums,
    next_request: u64,
}

/// `len` values cycling through `values`, in seeded random order: the
/// same marginal distribution as independent draws, with none of their
/// between-seed spread.
fn balanced<T: Copy>(rng: &mut SplitMix64, values: &[T], len: usize) -> Vec<T> {
    let mut out: Vec<T> = (0..len).map(|i| values[i % values.len()]).collect();
    for i in (1..len).rev() {
        out.swap(i, rng.index(i + 1));
    }
    out
}

/// The seeded corpus. Resources and policy follow the distribution of
/// `rotsched_serve::seeded_corpus` (1–3 adders, 1–2 multipliers,
/// pipelined multipliers one time in four, four policies), drawn as
/// balanced shuffles.
fn corpus(seed: u64) -> Vec<Problem> {
    let mut rng = SplitMix64::new(seed);
    let nodes: Vec<usize> = NODES.collect();
    let nodes = balanced(&mut rng, &nodes, PROBLEMS);
    let adders = balanced(&mut rng, &[1_u32, 2, 3], PROBLEMS);
    let mults = balanced(&mut rng, &[1_u32, 2], PROBLEMS);
    let pipelined = balanced(&mut rng, &[true, false, false, false], PROBLEMS);
    let policies = balanced(&mut rng, &POLICIES, PROBLEMS);
    (0..PROBLEMS)
        .map(|i| {
            let config = RandomDfgConfig {
                nodes: nodes[i],
                ..RandomDfgConfig::default()
            };
            Problem {
                text: text::to_text(&random_dfg(&config, rng.next_u64())),
                resources: ResourceSet::adders_multipliers(adders[i], mults[i], pipelined[i]),
                policy: policies[i],
            }
        })
        .collect()
}

fn request(p: &Problem, t: &mut Tracer, id: u64) -> Result<Output, String> {
    let root = t.open(id, "request", None);
    let (graph, spec, lb) = steps::front(t, id, root, &p.text, &p.resources)?;
    let scheduler = RotationScheduler::new(&graph, p.resources.clone()).with_policy(p.policy);
    let solved = t
        .time(id, "core.solve_us", root, || scheduler.solve_portfolio())
        .map_err(|e| format!("solve: {e}"))?;
    let kernel = t
        .time(id, "core.loop_schedule_us", root, || {
            scheduler.loop_schedule(&solved.state)
        })
        .map_err(|e| format!("loop schedule: {e}"))?;
    let optimal = matches!(solved.quality, SolveQuality::Optimal);
    let (claimed, certified) = t.time(id, "verify.certify_us", root, || {
        steps::certify(&graph, &spec, &kernel, optimal)
    });
    if let Err(diags) = certified {
        return Err(format!("certification failed: {}", steps::codes(&diags)));
    }
    let analysis = t.time(id, "verify.analyze_us", root, || {
        analyze_loop_schedule(&graph, &p.resources, &kernel).render_json(&graph)
    });
    t.close(root);
    Ok(Output {
        length: solved.length,
        lower_bound: lb,
        registers: claimed.registers,
        code_ops: claimed.code_ops,
        optimal,
        rotations: solved.stats.total_rotations as u64,
        analysis,
    })
}

/// Shows the optimality check has teeth: claiming `Optimal` for a
/// kernel longer than every bound the verifier knows must draw E114.
fn forged_optimal_is_caught(p: &Problem) -> Result<(), String> {
    let mut quiet = Tracer::new(false, Instant::now());
    let (graph, spec, _) = steps::front(&mut quiet, 0, None, &p.text, &p.resources)?;
    let scheduler = RotationScheduler::new(&graph, p.resources.clone()).with_policy(p.policy);
    let solved = scheduler.solve_portfolio().map_err(|e| e.to_string())?;
    let kernel = scheduler
        .loop_schedule(&solved.state)
        .map_err(|e| e.to_string())?;
    match steps::certify(&graph, &spec, &kernel, true).1 {
        Err(diags) if diags.iter().any(|d| d.code == Code::ForgedOptimality) => Ok(()),
        _ => Err("a forged Optimal claim certified without E114".into()),
    }
}

fn check(out: &Output) -> Result<(), String> {
    if u64::from(out.length) < out.lower_bound {
        return Err(format!(
            "length {} below the lower bound {}",
            out.length, out.lower_bound
        ));
    }
    Ok(())
}

impl Workload for RandomPortfolio {
    fn setup(seed: u64) -> Result<Self, String> {
        let problems = corpus(seed);
        let mut tracer = Tracer::new(false, Instant::now());
        let mut references = Vec::with_capacity(problems.len());
        let mut kernels = KernelSums::default();
        let mut forged_checked = false;
        for (i, p) in problems.iter().enumerate() {
            let out = guarded(|| request(p, &mut tracer, i as u64))
                .map_err(|e| format!("problem {i}: {e}"))?;
            check(&out).map_err(|e| format!("problem {i}: {e}"))?;
            if u64::from(out.length) > out.lower_bound && !forged_checked {
                forged_optimal_is_caught(p).map_err(|e| format!("problem {i}: {e}"))?;
                forged_checked = true;
            }
            kernels.add(
                out.length,
                out.registers,
                out.code_ops,
                u64::from(out.length) == out.lower_bound,
                out.rotations,
            );
            references.push(out);
        }
        if !forged_checked {
            return Err("no problem above its lower bound to forge an Optimal claim on".into());
        }
        Ok(RandomPortfolio {
            problems,
            references,
            kernels,
            next_request: 0,
        })
    }

    fn pass(&mut self, traced: bool, origin: Instant) -> Pass {
        let mut pass = Pass::new(traced, origin, 1);
        pass.latencies_ns.reserve(self.problems.len());
        let mut chunk = (Instant::now(), 0);
        for (i, (p, reference)) in self.problems.iter().zip(&self.references).enumerate() {
            if i > 0 && i % CHUNK_LEN == 0 {
                pass.close_chunk(&mut chunk);
            }
            let id = self.next_request;
            self.next_request += 1;
            let t = Instant::now();
            let out = guarded(|| request(p, &mut pass.tracer, id));
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            match out {
                Err(e) => pass.fail(format!("problem {i}: {e}")),
                Ok(out) => {
                    pass.latencies_ns.push(ns);
                    if out != *reference {
                        pass.reject(format!("problem {i}: output differs from the warm-up pass"));
                    } else if let Err(e) = check(&out) {
                        pass.reject(format!("problem {i}: {e}"));
                    } else {
                        pass.passed += 1;
                    }
                }
            }
        }
        pass.close_chunk(&mut chunk);
        pass
    }

    fn kernels(&self) -> KernelSums {
        self.kernels
    }

    fn modes(&self, sorted_ns: &[u64]) -> Option<Modes> {
        let n = sorted_ns.len().max(1) as f64;
        let below = |bound: u64| sorted_ns.partition_point(|&x| x < bound) as f64 / n;
        let (fast, mid) = (below(MODE_BOUNDS_NS[0]), below(MODE_BOUNDS_NS[1]));
        Some(Modes {
            shares: vec![
                ("<1ms", fast),
                ("1-10ms", mid - fast),
                (">=10ms", 1.0 - mid),
            ],
            boundaries: vec![fast, mid],
        })
    }
}
