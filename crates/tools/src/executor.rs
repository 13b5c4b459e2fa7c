//! Tool call execution with failure injection.

use std::fmt;

use agentsim_simkit::{SimDuration, SimRng};

use crate::catalog::ToolCatalog;
use crate::kind::ToolKind;

/// One tool invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolCall {
    /// Which tool to invoke.
    pub kind: ToolKind,
}

impl ToolCall {
    /// Creates a call to `kind`.
    pub fn new(kind: ToolKind) -> Self {
        ToolCall { kind }
    }
}

/// Outcome of a tool invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolResult {
    /// The tool invoked.
    pub kind: ToolKind,
    /// Wall-clock time the call took.
    pub latency: SimDuration,
    /// Tokens the observation adds to the agent's context.
    pub response_tokens: u32,
    /// Whether the call failed (agents typically retry or re-plan).
    pub failed: bool,
}

/// Failure-injection policy layered over the per-tool base rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePolicy {
    /// Multiplier on each tool's base failure rate (1.0 = calibrated).
    pub rate_multiplier: f64,
    /// Latency multiplier applied to failed calls (timeouts take longer).
    pub failure_latency_multiplier: f64,
}

impl FailurePolicy {
    /// No injected failures beyond the calibrated base rates.
    pub fn calibrated() -> Self {
        FailurePolicy {
            rate_multiplier: 1.0,
            failure_latency_multiplier: 2.5,
        }
    }

    /// Disables failures entirely (deterministic success).
    pub fn disabled() -> Self {
        FailurePolicy {
            rate_multiplier: 0.0,
            failure_latency_multiplier: 1.0,
        }
    }
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy::calibrated()
    }
}

/// Executes tool calls against the catalog's statistical models.
///
/// The executor is stateless between calls; concurrency is the caller's
/// concern (the serving driver schedules each result's completion event at
/// `now + result.latency`, so any number of calls may be in flight).
#[derive(Debug, Clone, Default)]
pub struct ToolExecutor {
    catalog: ToolCatalog,
    failures: FailurePolicy,
}

impl ToolExecutor {
    /// Creates an executor with the calibrated catalog and failure policy.
    pub fn new() -> Self {
        ToolExecutor::default()
    }

    /// Sets the failure policy, returning `self` for chaining.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failures = policy;
        self
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &ToolCatalog {
        &self.catalog
    }

    /// Executes a batch of calls issued at the same instant (e.g. a LATS
    /// expansion's parallel actions or an LLMCompiler plan).
    ///
    /// Latencies within a batch are *correlated*: calls to the same tool
    /// at the same moment share backend conditions, so the batch max is
    /// only modestly above the single-call latency rather than a fresh
    /// independent draw per call.
    pub fn execute_batch(&self, calls: &[ToolCall], rng: &mut SimRng) -> Vec<ToolResult> {
        use agentsim_simkit::dist::{LogNormal, Sample};
        if calls.len() <= 1 {
            return calls.iter().map(|c| self.execute(c, rng)).collect();
        }
        // One shared latency draw per tool kind in the batch...
        let mut shared: Vec<(crate::kind::ToolKind, SimDuration)> = Vec::new();
        let jitter = LogNormal::from_mean_cv(1.0, 0.15);
        calls
            .iter()
            .map(|call| {
                let spec = self.catalog.spec(call.kind);
                let base = match shared.iter().find(|(k, _)| *k == call.kind) {
                    Some((_, d)) => *d,
                    None => {
                        let d = spec.sample_latency(rng);
                        shared.push((call.kind, d));
                        d
                    }
                };
                // ...plus small per-call jitter.
                let failed = rng.chance(spec.base_failure_rate * self.failures.rate_multiplier);
                let mut latency = base.mul_f64(jitter.sample(rng));
                let response_tokens = if failed {
                    latency = latency.mul_f64(self.failures.failure_latency_multiplier);
                    16
                } else {
                    spec.sample_response_tokens(rng)
                };
                ToolResult {
                    kind: call.kind,
                    latency,
                    response_tokens,
                    failed,
                }
            })
            .collect()
    }

    /// Executes one call, sampling latency, response size and failure.
    pub fn execute(&self, call: &ToolCall, rng: &mut SimRng) -> ToolResult {
        let spec = self.catalog.spec(call.kind);
        let failed = rng.chance(spec.base_failure_rate * self.failures.rate_multiplier);
        let mut latency = spec.sample_latency(rng);
        let response_tokens = if failed {
            latency = latency.mul_f64(self.failures.failure_latency_multiplier);
            // A terse error message still lands in the context.
            16
        } else {
            spec.sample_response_tokens(rng)
        };
        ToolResult {
            kind: call.kind,
            latency,
            response_tokens,
            failed,
        }
    }
}

impl fmt::Display for ToolResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} tokens in {}{}",
            self.kind,
            self.response_tokens,
            self.latency,
            if self.failed { " (FAILED)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_is_deterministic_given_rng() {
        let exec = ToolExecutor::new();
        let call = ToolCall::new(ToolKind::WikipediaSearch);
        let a = exec.execute(&call, &mut SimRng::seed_from(5));
        let b = exec.execute(&call, &mut SimRng::seed_from(5));
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_failures_never_fail() {
        let exec = ToolExecutor::new().failure_policy(FailurePolicy::disabled());
        let mut rng = SimRng::seed_from(6);
        for _ in 0..2_000 {
            assert!(
                !exec
                    .execute(&ToolCall::new(ToolKind::WolframQuery), &mut rng)
                    .failed
            );
        }
    }

    #[test]
    fn amplified_failures_occur_and_cost_more() {
        let exec = ToolExecutor::new().failure_policy(FailurePolicy {
            rate_multiplier: 50.0, // 1% base -> 50%
            failure_latency_multiplier: 2.5,
        });
        let mut rng = SimRng::seed_from(7);
        let results: Vec<ToolResult> = (0..2_000)
            .map(|_| exec.execute(&ToolCall::new(ToolKind::WikipediaSearch), &mut rng))
            .collect();
        let failures = results.iter().filter(|r| r.failed).count();
        assert!(
            (800..1200).contains(&failures),
            "expected ~50% failures, got {failures}/2000"
        );
        let mean_latency = |failed: bool| {
            let v: Vec<f64> = results
                .iter()
                .filter(|r| r.failed == failed)
                .map(|r| r.latency.as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean_latency(true) > mean_latency(false) * 1.5,
            "failures should be slower"
        );
    }

    #[test]
    fn failed_calls_return_small_observations() {
        let exec = ToolExecutor::new().failure_policy(FailurePolicy {
            rate_multiplier: 100.0,
            failure_latency_multiplier: 1.0,
        });
        let mut rng = SimRng::seed_from(8);
        let r = (0..200)
            .map(|_| exec.execute(&ToolCall::new(ToolKind::WikipediaSearch), &mut rng))
            .find(|r| r.failed)
            .expect("some call fails");
        assert_eq!(r.response_tokens, 16);
    }

    #[test]
    fn batch_latencies_are_correlated() {
        // The max of an 8-call batch should sit far below the max of 8
        // independent draws, because calls issued together share backend
        // conditions.
        let exec = ToolExecutor::new().failure_policy(FailurePolicy::disabled());
        let calls = vec![ToolCall::new(ToolKind::WikipediaSearch); 8];
        let trials = 400;
        let mut rng_batch = SimRng::seed_from(21);
        let mut rng_indep = SimRng::seed_from(21);
        let mean_max = |results: Vec<f64>| results.iter().sum::<f64>() / results.len() as f64;
        let batch_maxes: Vec<f64> = (0..trials)
            .map(|_| {
                exec.execute_batch(&calls, &mut rng_batch)
                    .iter()
                    .map(|r| r.latency.as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        let indep_maxes: Vec<f64> = (0..trials)
            .map(|_| {
                calls
                    .iter()
                    .map(|c| exec.execute(c, &mut rng_indep).latency.as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(
            mean_max(batch_maxes) < 0.8 * mean_max(indep_maxes),
            "correlated batch max should be well below the independent max"
        );
    }

    #[test]
    fn batch_of_one_matches_single_execution() {
        let exec = ToolExecutor::new();
        let call = ToolCall::new(ToolKind::WolframQuery);
        let a = exec.execute_batch(std::slice::from_ref(&call), &mut SimRng::seed_from(5));
        let b = vec![exec.execute(&call, &mut SimRng::seed_from(5))];
        assert_eq!(a, b);
    }

    #[test]
    fn display_mentions_failure() {
        let r = ToolResult {
            kind: ToolKind::PythonExec,
            latency: SimDuration::from_millis(100),
            response_tokens: 10,
            failed: true,
        };
        assert!(r.to_string().contains("FAILED"));
    }
}
