//! Stopping rules for [`crate::engine::Driver`] runs.
//!
//! Rules are deliberately stateless values: every decision is a pure function
//! of the [`RunStatus`] the driver passes in (which includes the run's
//! hypervolume history). That keeps checkpoint/resume trivial — the driver
//! checkpoints its own history and the rules need no persistence of their
//! own.

/// A read-only view of the run that stopping rules decide on.
///
/// `hypervolume_history` holds one entry per generation, computed against
/// the driver's (frozen) reference point; entries are NaN when the front
/// had more than three objectives or was empty.
#[derive(Debug, Clone, Copy)]
pub struct RunStatus<'a> {
    /// Number of generations completed so far.
    pub generation: usize,
    /// Cumulative candidate evaluations spent so far.
    pub evaluations: usize,
    /// Hypervolume after each generation, oldest first.
    pub hypervolume_history: &'a [f64],
}

/// When a [`crate::engine::Driver`] run should stop.
///
/// Rules compose with [`StoppingRule::any_of`]: the run stops as soon as any
/// member rule fires.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{RunStatus, StoppingRule};
///
/// let rule = StoppingRule::any_of([
///     StoppingRule::MaxGenerations(100),
///     StoppingRule::MaxEvaluations(50_000),
/// ]);
/// let status = RunStatus { generation: 100, evaluations: 4_000, hypervolume_history: &[] };
/// assert!(rule.should_stop(&status));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum StoppingRule {
    /// Stop once this many generations have completed.
    MaxGenerations(usize),
    /// Stop once at least this many candidate evaluations have been spent.
    /// The check runs between generations, so a run may overshoot by up to
    /// one generation's worth of evaluations.
    MaxEvaluations(usize),
    /// Stop when the hypervolume gained over the trailing `window`
    /// generations falls below `epsilon`.
    ///
    /// The rule needs `window + 1` completed generations before it can fire
    /// (it compares the newest hypervolume against the one `window`
    /// generations earlier); a `window` of zero never fires. NaN entries —
    /// hypervolume not measurable for that generation, whether transiently
    /// (non-finite objectives early in a run) or structurally (more than
    /// three objectives) — keep the rule from firing: stagnation is only
    /// ever declared on *measured* non-improvement. Because of that, always
    /// compose this rule with a budget rule via [`StoppingRule::any_of`];
    /// [`crate::engine::Driver::run`] adds a safety net for purely
    /// stagnation-based compositions whose hypervolume never becomes
    /// measurable.
    HypervolumeStagnation {
        /// Number of trailing generations the improvement is measured over.
        window: usize,
        /// Minimum hypervolume gain expected over the window.
        epsilon: f64,
    },
    /// Stop as soon as any of the inner rules fires. An empty list never
    /// stops.
    AnyOf(Vec<StoppingRule>),
}

impl StoppingRule {
    /// Composes rules so the run stops when any of them fires.
    pub fn any_of<I: IntoIterator<Item = StoppingRule>>(rules: I) -> Self {
        StoppingRule::AnyOf(rules.into_iter().collect())
    }

    /// `true` if this rule is guaranteed to fire eventually on any run: a
    /// generation or evaluation budget is reachable. Stagnation alone is
    /// not bounded (hypervolume may never become measurable); the driver
    /// uses this to arm its unmeasurable-stagnation safety net.
    pub fn is_budget_bounded(&self) -> bool {
        match self {
            StoppingRule::MaxGenerations(_) | StoppingRule::MaxEvaluations(_) => true,
            StoppingRule::HypervolumeStagnation { .. } => false,
            StoppingRule::AnyOf(rules) => rules.iter().any(StoppingRule::is_budget_bounded),
        }
    }

    /// The largest stagnation window reachable in this rule, if any.
    pub fn max_stagnation_window(&self) -> Option<usize> {
        match self {
            StoppingRule::HypervolumeStagnation { window, .. } => Some(*window),
            StoppingRule::AnyOf(rules) => rules
                .iter()
                .filter_map(StoppingRule::max_stagnation_window)
                .max(),
            StoppingRule::MaxGenerations(_) | StoppingRule::MaxEvaluations(_) => None,
        }
    }

    /// `true` if the run should stop at `status`.
    pub fn should_stop(&self, status: &RunStatus<'_>) -> bool {
        match self {
            StoppingRule::MaxGenerations(limit) => status.generation >= *limit,
            StoppingRule::MaxEvaluations(limit) => status.evaluations >= *limit,
            StoppingRule::HypervolumeStagnation { window, epsilon } => {
                let history = status.hypervolume_history;
                if *window == 0 || history.len() <= *window {
                    return false;
                }
                let newest = history[history.len() - 1];
                let oldest = history[history.len() - 1 - window];
                if newest.is_nan() || oldest.is_nan() {
                    return false;
                }
                newest - oldest < *epsilon
            }
            StoppingRule::AnyOf(rules) => rules.iter().any(|rule| rule.should_stop(status)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status<'a>(generation: usize, evaluations: usize, history: &'a [f64]) -> RunStatus<'a> {
        RunStatus {
            generation,
            evaluations,
            hypervolume_history: history,
        }
    }

    #[test]
    fn max_generations_fires_at_the_limit() {
        let rule = StoppingRule::MaxGenerations(10);
        assert!(!rule.should_stop(&status(9, 0, &[])));
        assert!(rule.should_stop(&status(10, 0, &[])));
        assert!(rule.should_stop(&status(11, 0, &[])));
        assert!(StoppingRule::MaxGenerations(0).should_stop(&status(0, 0, &[])));
    }

    #[test]
    fn max_evaluations_fires_at_the_budget() {
        let rule = StoppingRule::MaxEvaluations(1_000);
        assert!(!rule.should_stop(&status(3, 999, &[])));
        assert!(rule.should_stop(&status(3, 1_000, &[])));
    }

    #[test]
    fn stagnation_needs_a_full_window_of_history() {
        let rule = StoppingRule::HypervolumeStagnation {
            window: 3,
            epsilon: 1e-3,
        };
        // Too little history: window + 1 = 4 entries are needed.
        assert!(!rule.should_stop(&status(3, 0, &[1.0, 1.0, 1.0])));
        // Exactly enough, flat: fires.
        assert!(rule.should_stop(&status(4, 0, &[1.0, 1.0, 1.0, 1.0])));
        // Improvement inside the window keeps it alive.
        assert!(!rule.should_stop(&status(4, 0, &[1.0, 1.0, 1.0, 1.5])));
        // Improvement older than the window does not count.
        assert!(rule.should_stop(&status(5, 0, &[0.0, 1.0, 1.0, 1.0, 1.0009])));
    }

    #[test]
    fn stagnation_treats_regressions_as_stalled() {
        let rule = StoppingRule::HypervolumeStagnation {
            window: 2,
            epsilon: 1e-6,
        };
        // Hypervolume fell over the window: stalled, not improving.
        assert!(rule.should_stop(&status(3, 0, &[2.0, 1.8, 1.5])));
    }

    #[test]
    fn stagnation_edge_windows_never_fire() {
        let zero = StoppingRule::HypervolumeStagnation {
            window: 0,
            epsilon: 1.0,
        };
        assert!(!zero.should_stop(&status(10, 0, &[1.0; 10])));
        // Stagnation is only declared on *measured* non-improvement: any
        // NaN endpoint keeps the rule quiet (the driver's safety net covers
        // purely stagnation-based runs whose hypervolume never resolves).
        let nan_guard = StoppingRule::HypervolumeStagnation {
            window: 1,
            epsilon: 1.0,
        };
        assert!(!nan_guard.should_stop(&status(2, 0, &[1.0, f64::NAN])));
        assert!(!nan_guard.should_stop(&status(2, 0, &[f64::NAN, 1.0])));
        assert!(!nan_guard.should_stop(&status(2, 0, &[f64::NAN, f64::NAN])));
    }

    #[test]
    fn rule_introspection_reports_budget_and_window() {
        assert!(StoppingRule::MaxGenerations(5).is_budget_bounded());
        assert!(StoppingRule::MaxEvaluations(5).is_budget_bounded());
        let stagnation = StoppingRule::HypervolumeStagnation {
            window: 7,
            epsilon: 0.1,
        };
        assert!(!stagnation.is_budget_bounded());
        assert_eq!(stagnation.max_stagnation_window(), Some(7));
        let composed = StoppingRule::any_of([StoppingRule::MaxGenerations(5), stagnation.clone()]);
        assert!(composed.is_budget_bounded());
        assert_eq!(composed.max_stagnation_window(), Some(7));
        assert!(!StoppingRule::any_of([stagnation]).is_budget_bounded());
        assert_eq!(
            StoppingRule::MaxGenerations(5).max_stagnation_window(),
            None
        );
    }

    #[test]
    fn any_of_is_a_disjunction() {
        let rule = StoppingRule::any_of([
            StoppingRule::MaxGenerations(100),
            StoppingRule::MaxEvaluations(500),
        ]);
        assert!(!rule.should_stop(&status(5, 100, &[])));
        assert!(rule.should_stop(&status(5, 500, &[])));
        assert!(rule.should_stop(&status(100, 0, &[])));
        assert!(!StoppingRule::any_of([]).should_stop(&status(usize::MAX, usize::MAX, &[])));
    }
}
