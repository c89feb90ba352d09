//! Independent lower bounds on the kernel length.
//!
//! The certificate checker must be able to *confirm* an optimality
//! verdict without trusting the solver's bound computation, so this
//! module re-derives both bounds from scratch with a different
//! algorithm than the scheduler side uses (plain Bellman–Ford
//! positive-cycle probes instead of iterated parametric maximum cycle
//! ratio):
//!
//! * **recurrence**: a cycle `C` forces `L · Σ_{e∈C} d(e) ≥ Σ_{v∈C}
//!   t(v)` on every initiation interval `L` (sum the per-edge
//!   precedence constraints `s(v) + d_r·L ≥ s(u) + t(u)` around the
//!   cycle: starts cancel and `Σ d_r = Σ d`). So length `L − 1` is
//!   impossible exactly when some cycle has `Σt > (L−1)·Σd`.
//! * **resource**: [`crate::ResourceSpec::resource_bound`].

use rotsched_dfg::Dfg;

use crate::lint::kahn_zero_delay;

/// Whether some cycle proves every legal kernel is at least `min_length`
/// steps long — i.e. there is a cycle with `Σt > (min_length − 1)·Σd`.
///
/// `recurrence_forces(g, 1)` is trivially true for a non-empty graph
/// and `recurrence_forces(g, 0)` is false; a graph with a zero-delay
/// cycle forces every length (no legal kernel exists at all, which the
/// lint engine reports separately as `E001`).
#[must_use]
pub fn recurrence_forces(dfg: &Dfg, min_length: u32) -> bool {
    if min_length == 0 {
        return false;
    }
    if min_length == 1 {
        return dfg.node_count() > 0;
    }
    has_zero_delay_cycle(dfg) || exists_positive_cycle(dfg, i128::from(min_length) - 1)
}

/// The recurrence lower bound: the smallest `L ≥ 1` not excluded by any
/// cycle, or `None` when no length up to `u32::MAX − 1` survives —
/// either a zero-delay cycle excludes every length, or the critical
/// ratio itself exceeds what `u32` can carry (possible only with
/// near-`u32::MAX` computation times).
///
/// On a graph without cycles this is 1. Binary search over
/// [`recurrence_forces`], which is monotone in its threshold.
#[must_use]
pub fn recurrence_bound(dfg: &Dfg) -> Option<u32> {
    if dfg.node_count() == 0 {
        return Some(1);
    }
    // Any cycle's ratio Σt/Σd is at most Σ_V t(v) (delays are ≥ 1 on
    // every cycle that has any), so the bound, if it exists, is ≤ that.
    let hi = u32::try_from(dfg.total_time().min(u64::from(u32::MAX) - 1)).unwrap_or(u32::MAX - 1);
    let (mut lo, mut hi) = (1_u32, hi.max(1));
    // A zero-delay cycle excludes every length, even when its nodes take
    // no time and so never make a cycle positive.
    if has_zero_delay_cycle(dfg) || exists_positive_cycle(dfg, i128::from(hi)) {
        return None;
    }
    // Invariant: !forces(hi + 1), forces(lo).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if exists_positive_cycle(dfg, i128::from(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Whether some cycle consists of zero-delay edges only.
fn has_zero_delay_cycle(dfg: &Dfg) -> bool {
    !kahn_zero_delay(dfg, true).iter().all(|&ordered| ordered)
}

/// Bellman–Ford probe: is there a cycle with positive total weight under
/// `w(e) = t(from(e)) − k·d(e)`?
///
/// Longest-path relaxation from an implicit super-source (all distances
/// start at 0); if the |V|-th pass still relaxes, a positive cycle
/// exists. A single weight `t − k·d` fits in `i128` for any `u32`-sized
/// inputs, but distances *accumulate* one weight per relaxation, so the
/// sums saturate rather than trust a size argument; saturation cannot
/// mask a positive cycle, because a distance pinned at `i128::MAX`
/// merely stops relaxing (the `n`-th-pass test needs only one strict
/// improvement anywhere, and ~2⁶² chained relaxations would have to
/// precede a pin).
fn exists_positive_cycle(dfg: &Dfg, k: i128) -> bool {
    let n = dfg.node_count();
    if n == 0 {
        return false;
    }
    // Weights once, not once per pass: up to n+1 sweeps re-read them.
    let weights: Vec<(usize, usize, i128)> = dfg
        .edges()
        .map(|(_, edge)| {
            let w = i128::from(dfg.node(edge.from()).time())
                .saturating_sub(k.saturating_mul(i128::from(edge.delays())));
            (edge.from().index(), edge.to().index(), w)
        })
        .collect();
    // A positive cycle needs a positive-weight edge.
    let Some(max_w) = weights.iter().map(|&(_, _, w)| w).filter(|&w| w > 0).max() else {
        return false;
    };
    // Distances start at 0 and a simple path carries at most
    // (n−1)·max_w; any distance beyond that already proves a positive
    // cycle, so the sweep can answer without finishing its pass budget.
    let threshold = i128::from(n as u64 - 1).saturating_mul(max_w);
    let mut dist = vec![0_i128; n];
    for pass in 0..=n {
        let mut relaxed = false;
        for &(from, to, w) in &weights {
            let candidate = dist[from].saturating_add(w);
            if candidate > dist[to] {
                if candidate > threshold {
                    return true;
                }
                dist[to] = candidate;
                relaxed = true;
            }
        }
        if !relaxed {
            return false;
        }
        if pass == n {
            return true;
        }
    }
    unreachable!("loop returns on the (n+1)-th pass")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    /// A recurrence of total time 3 through one delay: bound 3.
    fn iir() -> Dfg {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        g
    }

    #[test]
    fn bound_matches_cycle_ratio() {
        let g = iir();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(recurrence_forces(&g, 3));
        assert!(!recurrence_forces(&g, 4));
    }

    #[test]
    fn acyclic_graph_has_bound_one() {
        let mut g = Dfg::new("chain");
        let a = g.add_node("a", OpKind::Add, 5);
        let b = g.add_node("b", OpKind::Add, 5);
        g.add_edge(a, b, 0).unwrap();
        assert_eq!(recurrence_bound(&g), Some(1));
        assert!(recurrence_forces(&g, 1));
        assert!(!recurrence_forces(&g, 2));
    }

    #[test]
    fn zero_delay_cycle_excludes_everything() {
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        assert_eq!(recurrence_bound(&g), None);
        assert!(recurrence_forces(&g, 1_000_000));
    }

    #[test]
    fn zero_time_zero_delay_cycle_excludes_everything() {
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 0);
        let b = g.add_node("b", OpKind::Add, 0);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        assert_eq!(recurrence_bound(&g), None);
        assert!(recurrence_forces(&g, 2));
    }

    #[test]
    fn fractional_ratio_rounds_up() {
        // 5 time units through 2 delays: ratio 2.5, bound 3.
        let mut g = Dfg::new("frac");
        let a = g.add_node("a", OpKind::Add, 2);
        let b = g.add_node("b", OpKind::Add, 3);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(recurrence_forces(&g, 3));
        assert!(!recurrence_forces(&g, 4));
    }

    #[test]
    fn empty_graph_is_harmless() {
        let g = Dfg::new("empty");
        assert_eq!(recurrence_bound(&g), Some(1));
        assert!(!recurrence_forces(&g, 1));
    }

    #[test]
    fn near_overflow_delays_do_not_panic() {
        let mut g = Dfg::new("big");
        let a = g.add_node("a", OpKind::Add, u32::MAX);
        g.add_edge(a, a, u32::MAX).unwrap();
        assert_eq!(recurrence_bound(&g), Some(1));
    }

    #[test]
    fn near_overflow_times_saturate_instead_of_wrapping() {
        // Two u32::MAX-time nodes around one delay: the true ratio
        // (2^33 − 2) no longer fits in u32, so the bound degrades to
        // None rather than a wrapped nonsense value.
        let mut g = Dfg::new("huge");
        let a = g.add_node("a", OpKind::Add, u32::MAX);
        let b = g.add_node("b", OpKind::Add, u32::MAX);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert_eq!(recurrence_bound(&g), None);
        // The probe itself stays exact at any representable threshold.
        assert!(recurrence_forces(&g, u32::MAX));
    }

    #[test]
    fn near_overflow_mixed_cycle_keeps_the_exact_bound() {
        // A u32::MAX-time node through u32::MAX delays alongside a
        // small recurrence: the huge cycle's ratio rounds up to 2 and
        // the small one forces 3, so the exact answer survives the
        // extreme weights.
        let mut g = Dfg::new("mixed");
        let big = g.add_node("big", OpKind::Mul, u32::MAX);
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(big, big, u32::MAX).unwrap();
        g.add_edge(big, m, 1).unwrap();
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(!recurrence_forces(&g, 4));
    }
}
