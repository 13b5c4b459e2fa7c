//! Agent design-space configuration (the paper's §V knobs).

/// Tunable design parameters of an agent deployment.
///
/// These are the knobs the paper sweeps in its Section V cost-efficiency
/// study: few-shot prompting depth (Fig. 20), iteration budget (Fig. 19),
/// reflection depth and tree width (Fig. 21), and backend model quality
/// (Fig. 22).
///
/// # Example
///
/// ```
/// use agentsim_agents::AgentConfig;
///
/// let cfg = AgentConfig::default().with_max_iterations(10).with_fewshot(6);
/// assert_eq!(cfg.max_iterations, 10);
/// assert_eq!(cfg.fewshot, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Few-shot examples in the prompt.
    pub fewshot: u32,
    /// Maximum reasoning+tool iterations per trial.
    pub max_iterations: u32,
    /// Trials for reflective agents (1 trial = no reflection; each extra
    /// trial is preceded by a reflection step).
    pub max_trials: u32,
    /// Children sampled per LATS tree expansion (parallel scaling width).
    pub lats_children: u32,
    /// MCTS iterations budget for LATS.
    pub lats_iterations: u32,
    /// Replans allowed for LLMCompiler.
    pub max_replans: u32,
    /// Backend model quality in `(0, 1)` — see
    /// [`Cognition`](crate::cognition::Cognition) for presets.
    pub model_quality: f64,
}

impl AgentConfig {
    /// The paper's default configuration: 4-shot prompts, 7-step trials,
    /// 3 trials, 5-child LATS expansions, 8B-grade model quality.
    pub fn default_8b() -> Self {
        AgentConfig {
            fewshot: 4,
            max_iterations: 7,
            max_trials: 3,
            lats_children: 5,
            lats_iterations: 8,
            max_replans: 2,
            model_quality: crate::cognition::Cognition::QUALITY_8B,
        }
    }

    /// The 70B-backend configuration.
    pub fn default_70b() -> Self {
        AgentConfig {
            model_quality: crate::cognition::Cognition::QUALITY_70B,
            ..AgentConfig::default_8b()
        }
    }

    /// Sets the few-shot example count.
    pub fn with_fewshot(mut self, n: u32) -> Self {
        self.fewshot = n;
        self
    }

    /// Sets the per-trial iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_max_iterations(mut self, n: u32) -> Self {
        assert!(n > 0, "iteration budget must be at least 1");
        self.max_iterations = n;
        self
    }

    /// Sets the trial budget (1 = no reflection).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_max_trials(mut self, n: u32) -> Self {
        assert!(n > 0, "trial budget must be at least 1");
        self.max_trials = n;
        self
    }

    /// Sets the LATS expansion width.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_lats_children(mut self, n: u32) -> Self {
        assert!(n > 0, "LATS needs at least one child per expansion");
        self.lats_children = n;
        self
    }

    /// Sets the LATS MCTS iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_lats_iterations(mut self, n: u32) -> Self {
        assert!(n > 0, "LATS needs at least one iteration");
        self.lats_iterations = n;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any budget is zero or quality out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 || self.max_trials == 0 {
            return Err("budgets must be at least 1".into());
        }
        if self.lats_children == 0 || self.lats_iterations == 0 {
            return Err("LATS parameters must be at least 1".into());
        }
        if !(self.model_quality > 0.0 && self.model_quality < 1.0) {
            return Err(format!(
                "model quality {} out of (0, 1)",
                self.model_quality
            ));
        }
        Ok(())
    }
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig::default_8b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        AgentConfig::default_8b().validate().unwrap();
        AgentConfig::default_70b().validate().unwrap();
    }

    #[test]
    fn seventy_b_is_higher_quality() {
        assert!(AgentConfig::default_70b().model_quality > AgentConfig::default_8b().model_quality);
    }

    #[test]
    fn builders_set_fields() {
        let c = AgentConfig::default()
            .with_fewshot(2)
            .with_max_trials(5)
            .with_lats_children(16)
            .with_lats_iterations(12);
        assert_eq!(c.fewshot, 2);
        assert_eq!(c.max_trials, 5);
        assert_eq!(c.lats_children, 16);
        assert_eq!(c.lats_iterations, 12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_iterations_rejected() {
        let _ = AgentConfig::default().with_max_iterations(0);
    }
}
