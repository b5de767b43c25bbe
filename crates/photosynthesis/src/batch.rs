//! The cold-start steady states of many designs, several per Newton step.
//!
//! Each lane of `[f64; L]` holds one design's pseudo-transient solve, and
//! the lanes step in lockstep: one exact Jacobian fill, one compiled
//! static-pivot LU with Sherman–Morrison, and one trial right-hand side
//! for all of them. Every lane runs the scalar solve's operations in their
//! order ([`pathway_ode::lanes`]), and takes its decisions through its own
//! [`PseudoTransientSolve`], the step rule of the scalar loop. So each
//! design's state, residual, work counters and error are those of
//! [`crate::OdeUptakeEvaluator::steady_state`], bit for bit.
//!
//! Designs cost from 14 to 400 steps, so the lanes are scheduled:
//!
//! * a lane whose solve settles or exhausts its budget takes the batch's
//!   next design at once;
//! * once no design is waiting, and at most half the lanes are live, the
//!   live ones finish on the scalar path (one lane), where a step costs
//!   less than a round of mostly idle lanes;
//! * a lane whose structured solve fails (a static pivot, a multiplier or
//!   the Sherman–Morrison denominator) leaves, and its solve finishes on
//!   the scalar path, dense fallback included, from the state it had
//!   before that step.
//!
//! Four lanes run in an instance compiled for AVX2, chosen at run time on
//! a CPU that has it; two lanes are the baseline.

use pathway_linalg::elementary::KernelInstance;
use pathway_linalg::Vector;
use pathway_ode::{
    lanes, Advance, OdeError, PseudoTransient, PseudoTransientSolve, SparsePlusRankOneLanes,
    SteadyState,
};

use crate::calvin_lu::Kernel;
use crate::model::{CalvinCycleOde, RateConstants, STATE_BOUNDS};
use crate::POOL_COUNT;

/// One design's solve: its steady state, or why it has none.
pub(crate) type Outcome = Result<SteadyState, OdeError>;

/// The widest lane count this CPU runs: 4 in the AVX2 instance, else 2.
pub(crate) fn widest() -> usize {
    match KernelInstance::widest() {
        KernelInstance::Avx2 => 4,
        KernelInstance::Portable => 2,
    }
}

/// Whether this CPU runs `lanes` designs per step.
pub(crate) fn runs(lanes: usize) -> bool {
    lanes == 1 || lanes == 2 || (lanes == 4 && widest() == 4)
}

/// Solves every model from its cold start, `lanes` designs per step (a
/// width [`runs`] accepts; 1 is the scalar path), in the models' order.
pub(crate) fn steady_states(
    solver: &PseudoTransient,
    models: &[CalvinCycleOde],
    lanes: usize,
) -> Vec<Outcome> {
    assert!(runs(lanes), "this CPU does not run {lanes} lanes");
    let mut batch = Batch {
        solver,
        models,
        next: 0,
        outcomes: vec![None; models.len()],
    };
    let carried = match lanes {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runs` accepted 4 lanes only on a CPU with AVX2.
        4 => unsafe { batch.run_avx2() },
        2 => batch.run::<2>(),
        _ => Vec::new(),
    };
    for flight in carried {
        batch.finish_scalar(flight);
    }
    while let Some(flight) = batch.take() {
        batch.finish_scalar(flight);
    }
    batch
        .outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every design was solved"))
        .collect()
}

/// A solve under way, leaving the lanes for the scalar path: the state,
/// its right-hand side and the step rule's state before its next decision.
struct InFlight {
    design: usize,
    y: [f64; POOL_COUNT],
    f: [f64; POOL_COUNT],
    solve: PseudoTransientSolve,
}

/// The solve a lane holds, and its step rule's state before this round's
/// decision: what the lane hands on if it leaves.
#[derive(Clone, Copy)]
struct Lane {
    design: usize,
    solve: PseudoTransientSolve,
    before: PseudoTransientSolve,
}

/// The designs of one call and what has become of them.
struct Batch<'a> {
    solver: &'a PseudoTransient,
    models: &'a [CalvinCycleOde],
    /// The first design no lane has taken yet.
    next: usize,
    outcomes: Vec<Option<Outcome>>,
}

/// Lane `j` of every entry.
#[inline(always)]
fn column<const L: usize>(x: &[[f64; L]; POOL_COUNT], j: usize) -> [f64; POOL_COUNT] {
    let mut column = [0.0; POOL_COUNT];
    for (c, x) in column.iter_mut().zip(x) {
        *c = x[j];
    }
    column
}

impl Batch<'_> {
    /// The next design, begun from its cold start with one right-hand-side
    /// call. `None` once every design is taken.
    fn take(&mut self) -> Option<InFlight> {
        while self.next < self.models.len() {
            let design = self.next;
            self.next += 1;
            let model = &self.models[design];
            let y = model.initial_state();
            let mut f = Vector::zeros(POOL_COUNT);
            pathway_ode::OdeSystem::rhs(model, 0.0, &y, &mut f);
            match self.solver.begin(f.norm_inf()) {
                Ok(solve) => {
                    let array = |x: Vector| x.as_slice().try_into().expect("one entry per pool");
                    return Some(InFlight {
                        design,
                        y: array(y),
                        f: array(f),
                        solve,
                    });
                }
                Err(error) => self.outcomes[design] = Some(Err(error)),
            }
        }
        None
    }

    /// Finishes a solve on the scalar path.
    fn finish_scalar(&mut self, flight: InFlight) {
        let model = &self.models[flight.design];
        let outcome = flight.solve.run(
            model,
            Vector::from(flight.y.to_vec()),
            Vector::from(flight.f.to_vec()),
        );
        self.outcomes[flight.design] = Some(outcome);
    }

    /// Four lanes, in code compiled for AVX2; returns what is left for the
    /// scalar path.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(&mut self) -> Vec<InFlight> {
        self.run::<4>()
    }

    /// Steps `L` solves in lockstep, refilling each lane with the next
    /// design, until none is left and at most half the lanes are live.
    /// Returns the live solves, for the scalar path to finish.
    #[inline(always)]
    fn run<const L: usize>(&mut self) -> Vec<InFlight> {
        let Some(template) = self.models.first() else {
            return Vec::new();
        };
        let mut constants = RateConstants::<L>::zeros();
        let mut jacobian =
            SparsePlusRankOneLanes::<Kernel, L>::new(CalvinCycleOde::jacobian_pattern());
        let mut y = [[0.0; L]; POOL_COUNT];
        let mut f = [[0.0; L]; POOL_COUNT];
        let mut candidate = [[0.0; L]; POOL_COUNT];
        let mut f_trial = [[0.0; L]; POOL_COUNT];
        let mut delta = [[0.0; L]; POOL_COUNT];
        let mut lanes: [Option<Lane>; L] = [None; L];
        loop {
            // Each lane either takes a step this round or is left empty.
            let mut diagonal = [1.0; L];
            let mut norms = lanes::norms_inf(&y);
            for j in 0..L {
                loop {
                    if lanes[j].is_none() {
                        let Some(flight) = self.take() else {
                            break;
                        };
                        constants.set(j, &self.models[flight.design]);
                        for ((y, f), (&y0, &f0)) in
                            y.iter_mut().zip(&mut f).zip(flight.y.iter().zip(&flight.f))
                        {
                            (y[j], f[j]) = (y0, f0);
                        }
                        lanes[j] = Some(Lane {
                            design: flight.design,
                            solve: flight.solve,
                            before: flight.solve,
                        });
                        norms[j] = flight.y.iter().fold(0.0_f64, |norm, y| norm.max(y.abs()));
                    }
                    let lane = lanes[j].as_mut().expect("the lane was filled above");
                    lane.before = lane.solve;
                    let outcome = match lane.solve.advance(norms[j]) {
                        Advance::Step { diagonal: d, .. } => {
                            diagonal[j] = d;
                            break;
                        }
                        Advance::Settled { residual } => Ok(SteadyState {
                            state: Vector::from(column(&y, j).to_vec()),
                            residual,
                            stats: lane.solve.stats(),
                        }),
                        Advance::Exhausted { residual } => Err(OdeError::SteadyStateNotReached {
                            residual,
                            stats: lane.solve.stats(),
                        }),
                    };
                    self.outcomes[lane.design] = Some(outcome);
                    lanes[j] = None;
                }
            }
            let live = lanes.iter().flatten().count();
            let waiting = self.next < self.models.len();
            if live == 0 || (L > 1 && !waiting && live <= L / 2) {
                return (0..L)
                    .filter_map(|j| {
                        let lane = lanes[j]?;
                        Some(InFlight {
                            design: lane.design,
                            y: column(&y, j),
                            f: column(&f, j),
                            solve: lane.before,
                        })
                    })
                    .collect();
            }

            template.jacobian_lanes(&constants, &y, jacobian.parts_mut());
            let held = jacobian.solve(diagonal, &f, &mut delta);
            for (j, held) in held.into_iter().enumerate() {
                if held {
                    continue;
                }
                if let Some(lane) = lanes[j].take() {
                    self.finish_scalar(InFlight {
                        design: lane.design,
                        y: column(&y, j),
                        f: column(&f, j),
                        solve: lane.before,
                    });
                }
            }
            // `y + 1·δ`, projected as `OdeSystem::project` does.
            for ((candidate, y), delta) in candidate.iter_mut().zip(&y).zip(&delta) {
                for ((c, y), delta) in candidate.iter_mut().zip(y).zip(delta) {
                    *c = (y + 1.0 * delta).clamp(STATE_BOUNDS.0, STATE_BOUNDS.1);
                }
            }
            let finite_candidate = lanes::all_finite(&candidate);
            template.rhs_lanes(&constants, &candidate, &mut f_trial);
            let finite_trial = lanes::all_finite(&f_trial);
            let trial_norms = lanes::norms_inf(&f_trial);
            let mut accepted = [false; L];
            for (j, lane) in lanes.iter_mut().enumerate() {
                let Some(lane) = lane else { continue };
                let mut trial_norm = None;
                if finite_candidate[j] {
                    lane.solve.stats_mut().rhs_evaluations += 1;
                    if finite_trial[j] {
                        trial_norm = Some(trial_norms[j]);
                    }
                }
                accepted[j] = lane.solve.decide(trial_norm);
            }
            for (((y, f), candidate), f_trial) in
                y.iter_mut().zip(&mut f).zip(&candidate).zip(&f_trial)
            {
                for j in 0..L {
                    if accepted[j] {
                        (y[j], f[j]) = (candidate[j], f_trial[j]);
                    }
                }
            }
        }
    }
}
