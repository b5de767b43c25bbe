/// Counters accumulated while integrating an ODE system.
///
/// These are useful both for diagnosing solver behaviour (how many
/// pseudo-transient trials were rejected?) and for the benchmark harness,
/// which reports right-hand-side evaluation counts per steady-state
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrationStats {
    /// Number of accepted steps.
    pub steps_accepted: usize,
    /// Number of rejected (retried) steps.
    pub steps_rejected: usize,
    /// Number of right-hand-side evaluations.
    pub rhs_evaluations: usize,
    /// Number of Jacobian evaluations.
    pub jacobian_evaluations: usize,
    /// Number of Newton iterations.
    pub newton_iterations: usize,
    /// Sparse-plus-rank-one Newton solves whose static pivots or
    /// Sherman–Morrison denominator degraded, so the step was solved densely
    /// instead.
    pub dense_fallbacks: usize,
}

impl IntegrationStats {
    /// Creates a zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of attempted steps (accepted + rejected).
    pub fn steps_attempted(&self) -> usize {
        self.steps_accepted + self.steps_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_attempted_counts_rejections() {
        let stats = IntegrationStats {
            steps_accepted: 3,
            steps_rejected: 1,
            ..Default::default()
        };
        assert_eq!(stats.steps_attempted(), 4);
    }
}
