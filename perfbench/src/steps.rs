//! Request steps that `paper` and `random-portfolio` share.

use rotsched_baselines::lower_bound;
use rotsched_core::objective::{code_size, static_registers};
use rotsched_dfg::{text, Dfg};
use rotsched_sched::{verify_spec, verify_starts, LoopSchedule, ResourceSet};
use rotsched_verify::{
    certify_claim, has_errors, lint, Certificate, Claim, Diagnostic, LintContext, LintOptions,
    ResourceSpec,
};

use crate::trace::Tracer;

/// Parses the graph text, lints it against the resources and computes
/// the lower bound, each in its layer's span under `root`.
pub fn front(
    t: &mut Tracer,
    id: u64,
    root: Option<usize>,
    graph_text: &str,
    resources: &ResourceSet,
) -> Result<(Dfg, ResourceSpec, u64), String> {
    let graph = t
        .time(id, "dfg.parse_us", root, || text::parse(graph_text))
        .map_err(|e| format!("parse: {e}"))?;
    let spec = verify_spec(resources);
    let options = LintOptions::default();
    let diags = t.time(id, "verify.lint_us", root, || {
        lint(
            &graph,
            &LintContext {
                spec: Some(&spec),
                retiming: None,
                options: &options,
                recurrence_hint: None,
            },
        )
    });
    if has_errors(&diags) {
        return Err(format!("lint reported errors: {}", codes(&diags)));
    }
    let lb = t
        .time(id, "baselines.lower_bound_us", root, || {
            lower_bound(&graph, resources)
        })
        .map_err(|e| format!("lower bound: {e}"))?;
    Ok((graph, spec, lb))
}

/// What a certified kernel claims besides its length and depth.
pub struct Claimed {
    pub registers: u64,
    pub code_ops: u64,
}

/// Claims the kernel's length, depth, optimality, static registers and
/// code size, and has the independent verifier certify the claim.
pub fn certify(
    graph: &Dfg,
    spec: &ResourceSpec,
    kernel: &LoopSchedule,
    optimal: bool,
) -> (Claimed, Result<Certificate, Vec<Diagnostic>>) {
    let claimed = Claimed {
        registers: static_registers(graph, kernel.retiming()),
        code_ops: code_size(graph, kernel.retiming()),
    };
    let claim = Claim {
        kernel_length: kernel.kernel_length(),
        depth: Some(kernel.retiming().depth()),
        optimal,
        registers: Some(claimed.registers),
        code_size: Some(claimed.code_ops),
    };
    let starts = verify_starts(graph, kernel.schedule());
    let certified = certify_claim(graph, spec, Some(kernel.retiming()), &starts, &claim);
    (claimed, certified)
}

/// The diagnostic codes, comma-separated.
pub fn codes(diags: &[Diagnostic]) -> String {
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    codes.join(",")
}
