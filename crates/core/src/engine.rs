//! The unified rotation-search engine: one instrumented loop behind
//! every heuristic, phase, and portfolio worker.
//!
//! Four generations of growth (pruning, incremental contexts, budgets,
//! certification) each threaded their concern through a separate copy of
//! the paper's core loop. [`SearchDriver`] collapses them: a single
//! generic driver parameterized over the composable concerns —
//!
//! * a **step mode** ([`StepMode`]): how one down-rotation executes —
//!   through a persistent incremental [`RotationContext`]
//!   ([`IncrementalStep`], the production path) or the from-scratch
//!   operator ([`ScratchStep`], the reference/ablation path);
//! * a **prune source**: `None` or a portfolio [`PruneSignal`];
//! * a **budget**: `None` or an armed [`BudgetMeter`];
//! * an **observer** ([`SearchObserver`]): a monomorphized event sink.
//!   The default [`NoopObserver`] compiles to nothing — and, since no
//!   one watches the rotations, lets the driver fast-forward over a
//!   phase's repeated orbit — while a
//!   [`TraceRecorder`](crate::trace::TraceRecorder) turns the same run
//!   into convergence telemetry.
//!
//! The paper's three search procedures (DAC 1993 §5) are methods of
//! this one driver: [`SearchDriver::run_phase`] is `RotationPhase(i, α)`,
//! and [`SearchDriver::heuristic1`] and [`SearchDriver::heuristic2`] are
//! sweep policies over it. The driver and the
//! [`RotationScheduler`](crate::RotationScheduler) facade built on it are
//! the only search entry points. Results are bit-identical to the
//! pre-engine code paths — enforced by the `seeded_incremental`,
//! `seeded_portfolio`, and `seeded_anytime` suites and the byte-stable
//! bench tables.

use rotsched_dfg::{Dfg, NodeId};
use rotsched_sched::{CacheStats, ListScheduler, ResourceSet, WrapScratch};

use crate::arena::SolveArena;
use crate::budget::{BudgetMeter, StopReason};
use crate::context::RotationContext;
use crate::error::RotationError;
use crate::heuristics::{HeuristicConfig, HeuristicOutcome};
use crate::objective::{Objective, Score};
use crate::orbit::OrbitLog;
use crate::phase::{BestSet, PhaseStats};
use crate::portfolio::PruneSignal;
use crate::rotate::{down_rotate, initial_state, RotationState};

/// A structured event emitted by the [`SearchDriver`] at every decision
/// point of the search. Borrowed payloads keep emission allocation-free;
/// observers that need to retain data copy what they keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SearchEvent<'a> {
    /// A rotation phase began: `alpha` rotations of requested `size`.
    PhaseStart {
        /// Requested rotation size `i`.
        size: u32,
        /// Down-rotations the phase will attempt (`α`).
        alpha: usize,
    },
    /// One down-rotation completed.
    Rotated {
        /// The rotated node set (the old schedule's first steps).
        node_set: &'a [NodeId],
        /// The *wrapped* schedule length after the rotation — the
        /// paper's length metric, the one the search optimizes.
        length: u32,
    },
    /// The incumbent best score strictly improved.
    IncumbentImproved {
        /// The new best (wrapped) length — the length component of the
        /// new best score.
        length: u32,
        /// The new best packed score. Under the default length-only
        /// objective this is exactly `Score::from_length(length)`.
        score: Score,
    },
    /// Heuristic 2 rescheduled the retimed graph between phases
    /// (`FullSchedule(G_R)`).
    Rescheduled {
        /// The wrapped length of the fresh full schedule.
        length: u32,
    },
    /// The portfolio prune signal ended the phase (the bound was
    /// reached, here or by a lower-indexed task).
    Pruned,
    /// A budget limit fired; the phase stopped at its cancellation
    /// point with the incumbent intact.
    Stopped(StopReason),
    /// A rotation phase ended (by exhausting `alpha`, pruning,
    /// stopping, or running out of schedule to rotate).
    PhaseEnd {
        /// Down-rotations actually performed.
        rotations: usize,
        /// The incumbent best (wrapped) length at phase end.
        best_length: u32,
        /// Weight-memo hit/miss delta accumulated by this phase's
        /// incremental context (zeros on the reference path).
        cache: CacheStats,
    },
}

/// An event sink for [`SearchDriver`] runs.
///
/// Implementations observe, they do not steer: the only control flow
/// that depends on the observer is whether the driver may skip a
/// repeated orbit ([`SearchObserver::OBSERVES`]), and skipping returns
/// what the full loop returns — so a traced run returns the
/// bit-identical result of an untraced one (enforced by the
/// `trace_determinism` and `orbit_equivalence` suites).
pub trait SearchObserver {
    /// Whether the observer looks at events at all. Only a driver whose
    /// observer does not may fast-forward over a phase's repeated
    /// orbit (see [`SearchDriver::run_phase`]); an observing driver
    /// runs every rotation and sees every event.
    const OBSERVES: bool = true;

    /// Receives one search event.
    fn on_event(&mut self, event: SearchEvent<'_>);
}

/// The zero-cost observer: every event monomorphizes to nothing, so a
/// driver over `NoopObserver` is the uninstrumented loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {
    const OBSERVES: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: SearchEvent<'_>) {}
}

impl<O: SearchObserver + ?Sized> SearchObserver for &mut O {
    const OBSERVES: bool = O::OBSERVES;

    #[inline]
    fn on_event(&mut self, event: SearchEvent<'_>) {
        (**self).on_event(event);
    }
}

/// How the driver executes one down-rotation.
///
/// Both modes funnel into the same placement core, so their results are
/// bit-identical; they differ only in per-step cost (see DESIGN.md §6).
pub trait StepMode {
    /// Called once at the start of every phase, before any rotation of
    /// `state`; the incremental mode (re)builds its context here.
    ///
    /// # Errors
    ///
    /// Propagates scheduling-substrate failures from the context build.
    fn begin_phase(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
    ) -> Result<(), RotationError>;

    /// Performs one down-rotation of `size` on `state`, returning the
    /// rotated node set as a borrow of the mode's internal buffer (valid
    /// until the next call) — the steady-state step never allocates an
    /// owned set.
    ///
    /// # Errors
    ///
    /// See [`down_rotate`].
    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError>;

    /// Running cache counters of the mode's scheduling state (zeros
    /// when the mode keeps none).
    fn cache_stats(&self) -> CacheStats;
}

/// The production step mode: rotations run through a persistent
/// [`RotationContext`], rebuilt at each phase start, so per-step work is
/// proportional to the rotated prefix rather than the graph.
#[derive(Debug, Default)]
pub struct IncrementalStep {
    ctx: Option<RotationContext>,
    /// Pools the prefix buffer across context rebuilds (and, through
    /// [`SearchDriver::into_step`], across the items of a batch solve),
    /// so only the first phase of the first solve grows it.
    arena: SolveArena,
}

impl StepMode for IncrementalStep {
    fn begin_phase(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
    ) -> Result<(), RotationError> {
        let buffer = match self.ctx.take() {
            Some(retired) => retired.into_buffer(),
            None => self.arena.nodes.acquire(),
        };
        self.ctx = Some(RotationContext::with_buffer(
            dfg, scheduler, resources, state, buffer,
        )?);
        Ok(())
    }

    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError> {
        let ctx = self.ctx.as_mut().expect("begin_phase precedes rotate");
        ctx.down_rotate_in_place(dfg, scheduler, resources, state, size)?;
        Ok(ctx.rotated())
    }

    fn cache_stats(&self) -> CacheStats {
        self.ctx
            .as_ref()
            .map(RotationContext::cache_stats)
            .unwrap_or_default()
    }
}

/// The reference step mode: every rotation uses the non-incremental
/// [`down_rotate`] operator. Kept as the ablation arm for equivalence
/// tests and the `rotation_step` before/after benchmark.
#[derive(Clone, Debug, Default)]
pub struct ScratchStep {
    /// Retains the last rotated set so the trait can hand out a borrow.
    last: Vec<NodeId>,
}

impl StepMode for ScratchStep {
    fn begin_phase(
        &mut self,
        _dfg: &Dfg,
        _scheduler: &ListScheduler,
        _resources: &ResourceSet,
        _state: &RotationState,
    ) -> Result<(), RotationError> {
        Ok(())
    }

    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError> {
        self.last = down_rotate(dfg, scheduler, resources, state, size)?.rotated;
        Ok(&self.last)
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// The unified search driver: one `(graph, scheduler, resources)`
/// binding plus the composable concerns, exposing the paper's phase
/// loop and both heuristics as methods.
///
/// Construct with [`SearchDriver::incremental`] (the production step
/// mode) or [`SearchDriver::reference`] (the from-scratch ablation),
/// attach concerns with the `with_*` builders, then run.
///
/// # Examples
///
/// ```
/// use rotsched_core::engine::SearchDriver;
/// use rotsched_core::{BestSet, HeuristicConfig};
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::{ListScheduler, ResourceSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 2)
///     .build()?;
/// let scheduler = ListScheduler::default();
/// let resources = ResourceSet::adders_multipliers(2, 0, false);
/// let mut driver = SearchDriver::incremental(&g, &scheduler, &resources);
/// let outcome = driver.heuristic2(&HeuristicConfig::default())?;
/// assert_eq!(outcome.best_length, 2); // the iteration bound
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SearchDriver<'a, S, O = NoopObserver> {
    dfg: &'a Dfg,
    scheduler: &'a ListScheduler,
    resources: &'a ResourceSet,
    prune: Option<&'a PruneSignal<'a>>,
    budget: Option<&'a BudgetMeter>,
    step: S,
    /// What the search minimizes; [`Objective::Length`] reproduces the
    /// paper's scalar search bit for bit.
    objective: Objective,
    /// Reusable buffers for the per-step wrapped-length probe, built on
    /// the first phase and recycled for the driver's lifetime.
    wrap: Option<WrapScratch>,
    /// The states of the running phase, for orbit fast-forward; its
    /// buffers are recycled across phases like `wrap`'s.
    orbit: OrbitLog,
    /// The attached observer; public so callers can reclaim a recorder
    /// after the run.
    pub observer: O,
}

impl<'a, S: StepMode> SearchDriver<'a, S, NoopObserver> {
    /// A driver on an existing step mode. Passing an [`IncrementalStep`]
    /// that already served another driver keeps its pooled buffers warm,
    /// which is how
    /// [`solve_batch`](crate::RotationScheduler::solve_batch) amortizes
    /// per-item setup; reclaim the step afterwards with
    /// [`SearchDriver::into_step`].
    #[must_use]
    pub fn with_step(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
        step: S,
    ) -> Self {
        SearchDriver {
            dfg,
            scheduler,
            resources,
            prune: None,
            budget: None,
            step,
            objective: Objective::Length,
            wrap: None,
            orbit: OrbitLog::default(),
            observer: NoopObserver,
        }
    }
}

impl<'a> SearchDriver<'a, IncrementalStep, NoopObserver> {
    /// A driver on the incremental step mode (the production path).
    #[must_use]
    pub fn incremental(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
    ) -> Self {
        Self::with_step(dfg, scheduler, resources, IncrementalStep::default())
    }
}

impl<'a> SearchDriver<'a, ScratchStep, NoopObserver> {
    /// A driver on the from-scratch step mode (the reference arm).
    #[must_use]
    pub fn reference(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
    ) -> Self {
        Self::with_step(dfg, scheduler, resources, ScratchStep::default())
    }
}

impl<'a, S: StepMode, O: SearchObserver> SearchDriver<'a, S, O> {
    /// Attaches a portfolio pruning signal.
    #[must_use]
    pub fn with_prune(mut self, prune: Option<&'a PruneSignal<'a>>) -> Self {
        self.prune = prune;
        self
    }

    /// Attaches an armed budget meter.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<&'a BudgetMeter>) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the objective the search minimizes (default:
    /// [`Objective::Length`], the paper's scalar).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the observer, keeping every other concern.
    #[must_use]
    pub fn with_observer<P: SearchObserver>(self, observer: P) -> SearchDriver<'a, S, P> {
        SearchDriver {
            dfg: self.dfg,
            scheduler: self.scheduler,
            resources: self.resources,
            prune: self.prune,
            budget: self.budget,
            step: self.step,
            objective: self.objective,
            wrap: self.wrap,
            orbit: self.orbit,
            observer,
        }
    }

    /// Rotations this driver has fast-forwarded over instead of running
    /// them (see [`SearchDriver::run_phase`]); always 0 for an observed
    /// or budgeted driver. They still count in every
    /// [`PhaseStats::rotations`].
    #[must_use]
    pub fn skipped_rotations(&self) -> usize {
        self.orbit.skipped
    }

    /// Consumes the driver, handing back its step mode with every pooled
    /// buffer intact (see [`SearchDriver::with_step`]).
    #[must_use]
    pub fn into_step(self) -> S {
        self.step
    }

    /// Runs `RotationPhase(S_init, L_opt, Q, G, i, α)` — `alpha`
    /// rotations of size `size` on `state`, halving the effective size
    /// whenever it reaches the schedule length, recording improvements
    /// into `best`. This is the paper's one core loop; both heuristics
    /// and every portfolio worker reduce to calls of this method.
    ///
    /// **Orbit fast-forward.** The phase's state sequence is eventually
    /// periodic (see DESIGN.md §9). When the observer does not observe
    /// ([`SearchObserver::OBSERVES`]) and no budget limit is armed, the
    /// driver logs every state after a rotation. Once a state repeats,
    /// the rest of the phase only walks that orbit again: the driver
    /// fills in the remaining lengths from the orbit and sets `state` to
    /// the one the last rotation would leave, without rotating. Every
    /// offer a skipped rotation would make is rejected by `best` — it
    /// repeats an offer of this phase, and since then the best score
    /// has either dropped below it or stayed equal with the set never
    /// cleared — so the result, the stats and `best` are those of the
    /// full loop. Observed and budgeted phases run every rotation.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures. Invalid sizes cannot occur: the
    /// size is halved below the schedule length first, and a schedule of
    /// length 1 terminates the phase early.
    pub fn run_phase(
        &mut self,
        state: &mut RotationState,
        best: &mut BestSet,
        size: u32,
        alpha: usize,
    ) -> Result<PhaseStats, RotationError> {
        self.step
            .begin_phase(self.dfg, self.scheduler, self.resources, state)?;
        if self.wrap.is_none() {
            self.wrap = Some(WrapScratch::new(self.dfg, self.resources)?);
        }
        let cache_before = self.step.cache_stats();
        self.observer
            .on_event(SearchEvent::PhaseStart { size, alpha });
        let mut stats = PhaseStats {
            requested_size: size,
            ..PhaseStats::default()
        };
        let fast_forward = !O::OBSERVES && self.budget.is_none_or(BudgetMeter::is_unlimited);
        if fast_forward {
            self.orbit.reset(self.dfg.node_count(), alpha);
        }
        let mut min_seen = u32::MAX;
        for j in 0..alpha {
            // The cancellation point: checked before each rotation, so a
            // fired budget never abandons a rotation halfway and the
            // state always holds a complete legal schedule.
            if let Some(reason) = self.budget.and_then(BudgetMeter::check) {
                stats.stopped = Some(reason);
                self.observer.on_event(SearchEvent::Stopped(reason));
                break;
            }
            if self.prune.is_some_and(|p| p.should_stop(best.score)) {
                self.observer.on_event(SearchEvent::Pruned);
                break;
            }
            let Some(effective) = effective_size(size, state.schedule.length(self.dfg)) else {
                break; // nothing left to rotate
            };
            let rotated =
                self.step
                    .rotate(self.dfg, self.scheduler, self.resources, state, effective)?;
            if let Some(meter) = self.budget {
                meter.charge_rotation();
            }
            let wrapped = self
                .wrap
                .as_mut()
                .expect("scratch is built at phase start")
                .wrapped_length(
                    self.dfg,
                    Some(&state.retiming),
                    &state.schedule,
                    self.resources,
                )?;
            self.observer.on_event(SearchEvent::Rotated {
                node_set: rotated,
                length: wrapped,
            });
            stats.rotations += 1;
            stats.lengths.push(wrapped);
            if wrapped < min_seen {
                min_seen = wrapped;
                stats.first_optimum_at = Some(j + 1);
            }
            let score = self.objective.score(self.dfg, &state.retiming, wrapped);
            if best.offer(score, state) {
                self.observer.on_event(SearchEvent::IncumbentImproved {
                    length: best.length(),
                    score: best.score,
                });
            }
            if let Some(p) = self.prune {
                p.record(best.score);
            }
            if fast_forward {
                // A repeat while the prune signal says stop falls through
                // to the loop head, which ends the phase as it would have.
                if let Some(k) = self.orbit.record(state) {
                    if !self.prune.is_some_and(|p| p.should_stop(best.score)) {
                        self.skip_orbit(state, best, &mut stats, size, alpha, k)?;
                        break;
                    }
                }
            }
        }
        self.observer.on_event(SearchEvent::PhaseEnd {
            rotations: stats.rotations,
            best_length: best.length(),
            cache: self.step.cache_stats().since(&cache_before),
        });
        Ok(stats)
    }

    /// Completes a phase whose latest state (after rotation
    /// `stats.rotations`) repeats the state after rotation `k + 1`,
    /// without rotating: the remaining lengths cycle through the orbit
    /// `k + 1 ..= j`, and the final state is the orbit state the last
    /// rotation lands on, lifted by the uniform retiming shift of every
    /// full lap. The skipped offers are all rejected (see
    /// [`SearchDriver::run_phase`]), so `best` needs no update. Debug
    /// builds replay the skipped rotations through the real step and
    /// check the state, the lengths and the rejections.
    fn skip_orbit(
        &mut self,
        state: &mut RotationState,
        best: &BestSet,
        stats: &mut PhaseStats,
        size: u32,
        alpha: usize,
        k: usize,
    ) -> Result<(), RotationError> {
        let j = stats.rotations - 1;
        let period = j - k;
        let skipped = alpha - 1 - j;
        let lap_shift = state
            .retiming
            .as_slice()
            .first()
            .map_or(0, |&r| r - self.orbit.anchor(k));
        #[cfg(debug_assertions)]
        let replay = self.replay(state, best, size, skipped)?;
        #[cfg(not(debug_assertions))]
        let _ = (best, size);

        for t in j + 1..alpha {
            stats.lengths.push(stats.lengths[k + (t - k) % period]);
        }
        stats.rotations += skipped;
        self.orbit.skipped += skipped;
        let to_last = alpha - 1 - k;
        let laps = i64::try_from(to_last / period).expect("lap count fits in i64");
        self.orbit
            .restore(k + to_last % period, lap_shift * laps, state);

        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(replay.0, *state, "fast-forward lands on the replayed state");
            debug_assert_eq!(replay.1, stats.lengths[j + 1..], "fast-forward lengths");
        }
        Ok(())
    }

    /// Runs `count` more rotations of a copy of `state` through the real
    /// step, returning the final state and the wrapped lengths, and
    /// checks that `best` rejects every offer on the way.
    #[cfg(debug_assertions)]
    fn replay(
        &mut self,
        state: &RotationState,
        best: &BestSet,
        size: u32,
        count: usize,
    ) -> Result<(RotationState, Vec<u32>), RotationError> {
        let mut replay = state.clone();
        let mut lengths = Vec::with_capacity(count);
        for _ in 0..count {
            let effective = effective_size(size, replay.schedule.length(self.dfg))
                .expect("an orbit state was rotated before");
            self.step.rotate(
                self.dfg,
                self.scheduler,
                self.resources,
                &mut replay,
                effective,
            )?;
            let wrapped = self
                .wrap
                .as_mut()
                .expect("scratch is built at phase start")
                .wrapped_length(
                    self.dfg,
                    Some(&replay.retiming),
                    &replay.schedule,
                    self.resources,
                )?;
            let mut probe = best.clone();
            let score = self.objective.score(self.dfg, &replay.retiming, wrapped);
            debug_assert!(
                !probe.offer(score, &replay) && probe.schedules == best.schedules,
                "an offer inside a repeated orbit is rejected"
            );
            lengths.push(wrapped);
        }
        Ok((replay, lengths))
    }

    /// Offers `state` to `best` through the driver's concerns: emits
    /// [`SearchEvent::IncumbentImproved`] on a strict improvement and
    /// publishes the new best into the prune signal. This is how
    /// out-of-phase candidates (the initial schedule, an inter-phase
    /// reschedule) enter an instrumented search.
    pub fn offer(&mut self, best: &mut BestSet, length: u32, state: &RotationState) {
        let score = self.objective.score(self.dfg, &state.retiming, length);
        if best.offer(score, state) {
            self.observer.on_event(SearchEvent::IncumbentImproved {
                length: best.length(),
                score: best.score,
            });
        }
        if let Some(p) = self.prune {
            p.record(best.score);
        }
    }

    /// The prologue both heuristics share: the initial list schedule,
    /// offered as the first incumbent of a fresh best set, and the
    /// largest phase size `β`.
    fn start(
        &mut self,
        config: &HeuristicConfig,
    ) -> Result<(RotationState, BestSet, u32), RotationError> {
        let init = initial_state(self.dfg, self.scheduler, self.resources)?;
        let mut best = BestSet::new(config.keep_best);
        let wrapped = init.wrapped_length(self.dfg, self.resources)?;
        self.offer(&mut best, wrapped, &init);
        let beta = config
            .max_size
            .unwrap_or_else(|| init.length(self.dfg))
            .max(1);
        Ok((init, best, beta))
    }

    /// Heuristic 1: independent phases of sizes `1..=β`, each restarting
    /// from the initial schedule and the zero rotation function. A fired
    /// budget ends the current phase at its cancellation point and skips
    /// the remaining sizes.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn heuristic1(
        &mut self,
        config: &HeuristicConfig,
    ) -> Result<HeuristicOutcome, RotationError> {
        let (init, mut best, beta) = self.start(config)?;
        let mut phases = Vec::new();
        for size in 1..=beta {
            let mut state = init.clone();
            let stats = self.run_phase(&mut state, &mut best, size, config.rotations_per_phase)?;
            // Key the sweep's early exit off the *recorded* stop, not a
            // fresh meter check: deterministic limits then truncate the
            // exact same phase prefix on every run.
            let stopped = stats.stopped.is_some();
            phases.push(stats);
            if stopped {
                break;
            }
        }
        Ok(HeuristicOutcome::from_parts(best, phases))
    }

    /// Heuristic 2: iterative compaction with phases of decreasing size
    /// `β, β−1, …, 1`; each phase continues from the previous phase's
    /// final rotation function via a fresh `FullSchedule` of the retimed
    /// graph. The sweep stops early when the prune signal says further
    /// work is pointless or the budget fires (a budget stop ends the
    /// sweep after the phase that recorded it — its chained reschedule
    /// is skipped, so the incumbent is exactly what the truncated search
    /// produced).
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn heuristic2(
        &mut self,
        config: &HeuristicConfig,
    ) -> Result<HeuristicOutcome, RotationError> {
        let (mut state, mut best, beta) = self.start(config)?;
        let mut phases = Vec::new();
        'sweep: for _round in 0..config.rounds.max(1) {
            for size in (1..=beta).rev() {
                if self.prune.is_some_and(|p| p.should_stop(best.score)) {
                    self.observer.on_event(SearchEvent::Pruned);
                    break 'sweep;
                }
                let stats =
                    self.run_phase(&mut state, &mut best, size, config.rotations_per_phase)?;
                let stopped = stats.stopped.is_some();
                phases.push(stats);
                if stopped {
                    break 'sweep;
                }

                // Find a new initial schedule for the next phase from the
                // accumulated rotation function: FullSchedule(G_R). The
                // rotation function is kept in place.
                state.schedule =
                    self.scheduler
                        .schedule(self.dfg, Some(&state.retiming), self.resources)?;
                let wrapped = state.wrapped_length(self.dfg, self.resources)?;
                self.observer
                    .on_event(SearchEvent::Rescheduled { length: wrapped });
                self.offer(&mut best, wrapped, &state);
            }
        }
        Ok(HeuristicOutcome::from_parts(best, phases))
    }
}

/// The rotation size a phase of requested `size` uses on a schedule of
/// `length` steps — halved until below the length, since rotating the
/// whole schedule is illegal — or `None` when nothing is left to rotate.
fn effective_size(size: u32, length: u32) -> Option<u32> {
    if length <= 1 {
        return None;
    }
    let mut effective = size;
    while effective >= length {
        effective = effective.div_ceil(2);
    }
    (effective > 0).then_some(effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{config, ring};

    /// An observer that counts events by kind, for structural checks.
    #[derive(Default)]
    struct Counter {
        phase_starts: usize,
        phase_ends: usize,
        rotations: usize,
        improvements: usize,
        reschedules: usize,
        cache_hits: u64,
        lengths: Vec<u32>,
    }

    impl SearchObserver for Counter {
        fn on_event(&mut self, event: SearchEvent<'_>) {
            match event {
                SearchEvent::PhaseStart { .. } => self.phase_starts += 1,
                SearchEvent::PhaseEnd { cache, .. } => {
                    self.phase_ends += 1;
                    self.cache_hits += cache.weight_memo_hits;
                }
                SearchEvent::Rotated { length, node_set } => {
                    assert!(!node_set.is_empty());
                    self.rotations += 1;
                    self.lengths.push(length);
                }
                SearchEvent::IncumbentImproved { .. } => self.improvements += 1,
                SearchEvent::Rescheduled { .. } => self.reschedules += 1,
                SearchEvent::Pruned | SearchEvent::Stopped(_) => {}
            }
        }
    }

    #[test]
    fn events_mirror_phase_stats() {
        let g = ring(6, 3);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(Counter::default());
        let mut state = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(4);
        let stats = driver.run_phase(&mut state, &mut best, 2, 8).unwrap();
        let counter = &driver.observer;
        assert_eq!(counter.phase_starts, 1);
        assert_eq!(counter.phase_ends, 1);
        assert_eq!(counter.rotations, stats.rotations);
        assert_eq!(counter.lengths, stats.lengths);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let g = ring(7, 2);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let config = config();
        let plain = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(Counter::default());
        let observed = driver.heuristic2(&config).unwrap();
        assert_eq!(plain.best_length, observed.best_length);
        assert_eq!(plain.best, observed.best);
        assert_eq!(plain.phases, observed.phases);
        assert_eq!(driver.observer.rotations, observed.total_rotations);
        assert!(driver.observer.improvements >= 1, "initial offer improves");
        assert_eq!(
            driver.observer.reschedules,
            observed.phases.len(),
            "one chained reschedule per completed phase"
        );
    }

    #[test]
    fn reference_and_incremental_drivers_agree() {
        let g = ring(6, 3);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let config = config();
        let fast = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        let slow = SearchDriver::reference(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        assert_eq!(fast.best_length, slow.best_length);
        assert_eq!(fast.best, slow.best);
        assert_eq!(fast.phases, slow.phases);
    }
}
