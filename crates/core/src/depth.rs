//! Pipeline-depth minimization (Subsection 3.2) and the bridge from a
//! rotation state to an executable [`LoopSchedule`].
//!
//! A long rotation sequence can accumulate a rotation function `R` with
//! a large spread even though the schedule it realizes admits a much
//! shallower pipeline (Figure 5: depth 4 reduced to 2). Theorem 2 turns
//! "find a retiming realizing `s`" into a system of difference
//! constraints — the LP dual of single-source shortest paths — and
//! Lemma 3 reads the retiming off the distances. The implementation
//! lives in [`rotsched_sched::validate::realizing_retiming`]; this
//! module packages it for rotation states and produces prologue/kernel/
//! epilogue expansions.

use rotsched_dfg::{Dfg, Retiming};
use rotsched_sched::{minimal_wrap, LoopSchedule, ResourceSet, Schedule};

use crate::error::RotationError;
use crate::rotate::RotationState;

/// Finds the shallow-depth retiming realizing `schedule` (Theorem 2 +
/// Lemma 3), replacing whatever rotation function produced it.
///
/// # Errors
///
/// Returns [`RotationError::Unrealizable`] when no retiming realizes the
/// schedule — impossible for schedules produced by rotation.
pub fn minimize_depth(dfg: &Dfg, schedule: &Schedule) -> Result<Retiming, RotationError> {
    rotsched_sched::validate::realizing_retiming(dfg, schedule).ok_or(RotationError::Unrealizable)
}

/// Converts a rotation state into an executable [`LoopSchedule`]:
///
/// 1. wrap multi-cycle tails minimally (Section 4) to get the kernel
///    length;
/// 2. re-derive the realizing retiming of minimum spread from the
///    wrapped kernel (Section 3.2) — this usually has a much smaller
///    depth than the accumulated rotation function;
/// 3. bundle kernel and retiming for expansion and simulation.
///
/// The Theorem 2 LP only enforces `d_r ≥ 1` for chained-violating edges,
/// which is *weaker* than the wrap condition when a producer's tail
/// crosses the kernel boundary (`s(v) + L ≥ s(u) + t(u)` must hold for
/// its one-delay consumers). When the minimized retiming fails that
/// stronger check, the accumulated rotation function — under which the
/// wrap was validated — is used instead.
///
/// # Errors
///
/// Propagates wrap failures and [`RotationError::Unrealizable`].
pub fn into_loop_schedule(
    dfg: &Dfg,
    resources: &ResourceSet,
    state: &RotationState,
) -> Result<LoopSchedule, RotationError> {
    let wrapped = minimal_wrap(dfg, Some(&state.retiming), &state.schedule, resources)?;
    let minimized = minimize_depth(dfg, &wrapped.schedule)?;
    let retiming = if rotsched_sched::wrap_to_length(
        dfg,
        Some(&minimized),
        &wrapped.schedule,
        resources,
        wrapped.kernel_length,
    )
    .is_ok()
    {
        minimized
    } else {
        state.retiming.to_normalized()
    };
    Ok(LoopSchedule::new(
        wrapped.kernel_length,
        wrapped.schedule,
        retiming,
    ))
}

/// The pipeline depth of the state's accumulated rotation function
/// (before minimization) — Property 2.
#[must_use]
pub fn accumulated_depth(state: &RotationState) -> u32 {
    state.retiming.depth()
}

/// The pipeline depth after depth minimization, i.e. the depth reported
/// in the paper's tables (the parenthesized numbers).
///
/// # Errors
///
/// Returns [`RotationError::Unrealizable`] when the schedule is not a
/// static schedule of `G`.
pub fn minimized_depth(dfg: &Dfg, state: &RotationState) -> Result<u32, RotationError> {
    Ok(minimize_depth(dfg, &state.schedule)?.depth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::ring;
    use crate::rotate::{down_rotate, initial_state};
    use rotsched_sched::{simulate, ListScheduler};

    #[test]
    fn many_rotations_accumulate_depth_but_minimization_collapses_it() {
        let g = ring(4, 2);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        // Rotate many times: R keeps growing.
        for _ in 0..8 {
            if st.length(&g) <= 1 {
                break;
            }
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        }
        let accumulated = accumulated_depth(&st);
        let minimized = minimized_depth(&g, &st).unwrap();
        assert!(minimized <= accumulated);
        assert!(
            minimized <= 3,
            "a 2-delay ring pipeline needs at most 3 stages, got {minimized}"
        );
        assert!(accumulated >= minimized);
    }

    #[test]
    fn minimized_retiming_realizes_the_same_schedule() {
        let g = ring(4, 2);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        for _ in 0..5 {
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        }
        let r = minimize_depth(&g, &st.schedule).unwrap();
        rotsched_sched::validate::check_dag_schedule(&g, Some(&r), &st.schedule, &res).unwrap();
    }

    #[test]
    fn loop_schedule_simulates_correctly_end_to_end() {
        let g = ring(4, 2);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        for _ in 0..4 {
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        }
        let ls = into_loop_schedule(&g, &res, &st).unwrap();
        let report = simulate(&g, &ls, &res, 12).unwrap();
        assert_eq!(report.executions, 4 * 12);
        // The pipelined makespan beats running the 4-step critical path
        // 12 times.
        assert!(report.makespan < 4 * 12);
    }

    #[test]
    fn unrotated_state_has_depth_one() {
        let g = ring(3, 1);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let st = initial_state(&g, &sched, &res).unwrap();
        assert_eq!(accumulated_depth(&st), 1);
        assert_eq!(minimized_depth(&g, &st).unwrap(), 1);
    }
}
