//! `paper`: the 38 cells of the paper's Tables 2 and 3, each run through
//! the steps of `rotsched solve --verify 25 --certify`, one caller, in
//! table order. The search is almost all of each request, so this is
//! where a search change shows and a serve or wire change should not.

use std::time::Instant;

use rotsched_baselines::{resource_label, PublishedRow, TABLE_2, TABLE_3};
use rotsched_benchmarks::{all_benchmarks, TimingModel};
use rotsched_core::{RotationScheduler, SolveQuality};
use rotsched_dfg::text;
use rotsched_sched::ResourceSet;

use crate::trace::Tracer;
use crate::{guarded, steps, KernelSums, Pass, Workload};

/// Iterations the end-to-end simulation runs, as in `--verify 25`.
const SIMULATED_ITERATIONS: u32 = 25;

struct Cell {
    label: String,
    text: String,
    resources: ResourceSet,
    published_rs: u32,
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
    table: String,
}

pub struct Paper {
    cells: Vec<Cell>,
    references: Vec<Output>,
    kernels: KernelSums,
    next_request: u64,
}

fn cells() -> Vec<Cell> {
    let graphs = all_benchmarks(&TimingModel::paper());
    TABLE_2
        .iter()
        .chain(TABLE_3)
        .map(|row: &PublishedRow| {
            let graph = &graphs
                .iter()
                .find(|(name, _)| *name == row.benchmark)
                .expect("every table row names a suite benchmark")
                .1;
            Cell {
                label: format!("{} {}", row.benchmark, resource_label(row)),
                text: text::to_text(graph),
                resources: ResourceSet::adders_multipliers(
                    row.adders,
                    row.multipliers,
                    row.pipelined,
                ),
                published_rs: row.rs,
            }
        })
        .collect()
}

/// One request. Errors are requests that did not complete; the caller
/// checks the output of those that did.
fn request(cell: &Cell, t: &mut Tracer, id: u64) -> Result<Output, String> {
    let root = t.open(id, "request", None);
    let (graph, spec, lb) = steps::front(t, id, root, &cell.text, &cell.resources)?;
    let scheduler = RotationScheduler::new(&graph, cell.resources.clone());
    let solved = t
        .time(id, "core.solve_us", root, || scheduler.solve())
        .map_err(|e| format!("solve: {e}"))?;
    let kernel = t
        .time(id, "core.loop_schedule_us", root, || {
            scheduler.loop_schedule(&solved.state)
        })
        .map_err(|e| format!("loop schedule: {e}"))?;
    t.time(id, "sched.simulate_us", root, || {
        scheduler.verify(&solved.state, SIMULATED_ITERATIONS)
    })
    .map_err(|e| format!("simulation: {e}"))?;
    let optimal = matches!(solved.quality, SolveQuality::Optimal);
    let (claimed, certified) = t.time(id, "verify.certify_us", root, || {
        steps::certify(&graph, &spec, &kernel, optimal)
    });
    if let Err(diags) = certified {
        return Err(format!("certification failed: {}", steps::codes(&diags)));
    }
    let table = t.time(id, "sched.render_us", root, || {
        kernel
            .schedule()
            .format_table(&graph, &["Mult", "Adder"], |v| {
                usize::from(!graph.node(v).op().is_multiplicative())
            })
    });
    t.close(root);
    Ok(Output {
        length: solved.length,
        lower_bound: lb,
        registers: claimed.registers,
        code_ops: claimed.code_ops,
        optimal,
        rotations: solved.stats.total_rotations as u64,
        table,
    })
}

/// The workload's own checks on a completed request: every cell is
/// claimed, and certified, optimal, and no cell is worse than the paper.
fn check(cell: &Cell, out: &Output) -> Result<(), String> {
    if u64::from(out.length) < out.lower_bound {
        return Err(format!(
            "{}: length {} below the lower bound {}",
            cell.label, out.length, out.lower_bound
        ));
    }
    if !out.optimal {
        return Err(format!("{}: kernel not certified optimal", cell.label));
    }
    if out.length > cell.published_rs {
        return Err(format!(
            "{}: length {} worse than the published {}",
            cell.label, out.length, cell.published_rs
        ));
    }
    Ok(())
}

impl Workload for Paper {
    fn setup(_seed: u64) -> Result<Self, String> {
        // The tables are the inputs; the seed has nothing to vary.
        let cells = cells();
        let mut tracer = Tracer::new(false, Instant::now());
        let mut references = Vec::with_capacity(cells.len());
        let mut kernels = KernelSums::default();
        for (i, cell) in cells.iter().enumerate() {
            let out = guarded(|| request(cell, &mut tracer, i as u64))
                .map_err(|e| format!("{}: {e}", cell.label))?;
            check(cell, &out)?;
            kernels.add(
                out.length,
                out.registers,
                out.code_ops,
                u64::from(out.length) == out.lower_bound,
                out.rotations,
            );
            references.push(out);
        }
        Ok(Paper {
            cells,
            references,
            kernels,
            next_request: 0,
        })
    }

    fn pass(&mut self, traced: bool, origin: Instant) -> Pass {
        let mut pass = Pass::new(traced, origin, 1);
        pass.latencies_ns.reserve(self.cells.len());
        for (cell, reference) in self.cells.iter().zip(&self.references) {
            let id = self.next_request;
            self.next_request += 1;
            let t = Instant::now();
            let out = guarded(|| request(cell, &mut pass.tracer, id));
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            match out {
                Err(e) => pass.fail(format!("{}: {e}", cell.label)),
                Ok(out) => {
                    pass.latencies_ns.push(ns);
                    if out != *reference {
                        pass.reject(format!(
                            "{}: output differs from the warm-up pass",
                            cell.label
                        ));
                    } else if let Err(e) = check(cell, &out) {
                        pass.reject(e);
                    } else {
                        pass.passed += 1;
                    }
                }
            }
        }
        pass
    }

    fn kernels(&self) -> KernelSums {
        self.kernels
    }
}
