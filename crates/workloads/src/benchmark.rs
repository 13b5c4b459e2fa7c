//! Benchmark identities and their Table II descriptions.

use std::fmt;

use agentsim_tools::ToolKind;

/// The paper's evaluation workloads (its Table II), plus the non-agentic
/// ShareGPT chatbot baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Multi-hop question answering over Wikipedia.
    HotpotQa,
    /// Online-shopping decision making over a local web store.
    WebShop,
    /// Competition mathematics with Wolfram/calculator tools.
    Math,
    /// Program synthesis with self-generated test execution.
    HumanEval,
    /// Single-turn chatbot conversations (non-agentic baseline).
    ShareGpt,
}

impl Benchmark {
    /// The four agentic benchmarks, in the paper's order.
    pub const AGENTIC: [Benchmark; 4] = [
        Benchmark::HotpotQa,
        Benchmark::WebShop,
        Benchmark::Math,
        Benchmark::HumanEval,
    ];

    /// All workloads including the chatbot baseline.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::HotpotQa,
        Benchmark::WebShop,
        Benchmark::Math,
        Benchmark::HumanEval,
        Benchmark::ShareGpt,
    ];

    /// Short description of the task (Table II).
    pub fn task_description(self) -> &'static str {
        match self {
            Benchmark::HotpotQa => "Multi-hop question answering",
            Benchmark::WebShop => "Online shopping",
            Benchmark::Math => "Math problem solving",
            Benchmark::HumanEval => "Programming",
            Benchmark::ShareGpt => "Single-turn chatbot dialogue",
        }
    }

    /// Tools available on this benchmark (Table II).
    pub fn tools(self) -> &'static [ToolKind] {
        match self {
            Benchmark::HotpotQa => &[ToolKind::WikipediaSearch, ToolKind::WikipediaLookup],
            Benchmark::WebShop => &[ToolKind::WebshopSearch, ToolKind::WebshopClick],
            Benchmark::Math => &[ToolKind::WolframQuery, ToolKind::PythonCalc],
            Benchmark::HumanEval => &[ToolKind::PythonExec],
            Benchmark::ShareGpt => &[],
        }
    }

    /// Mean user-query length in tokens.
    pub fn mean_user_tokens(self) -> f64 {
        match self {
            Benchmark::HotpotQa => 28.0,
            Benchmark::WebShop => 42.0,
            Benchmark::Math => 72.0,
            Benchmark::HumanEval => 150.0,
            Benchmark::ShareGpt => 230.0,
        }
    }

    /// Mean latent difficulty in `(0, 1)` — higher needs more reasoning.
    pub fn mean_difficulty(self) -> f64 {
        match self {
            Benchmark::HotpotQa => 0.55,
            Benchmark::WebShop => 0.60,
            Benchmark::Math => 0.65,
            Benchmark::HumanEval => 0.50,
            Benchmark::ShareGpt => 0.10,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Benchmark::HotpotQa => "HotpotQA",
            Benchmark::WebShop => "WebShop",
            Benchmark::Math => "MATH",
            Benchmark::HumanEval => "HumanEval",
            Benchmark::ShareGpt => "ShareGPT",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agentic_benchmarks_have_tools() {
        for b in Benchmark::AGENTIC {
            assert!(!b.tools().is_empty(), "{b} must expose tools");
        }
        assert!(Benchmark::ShareGpt.tools().is_empty());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Benchmark::HotpotQa.to_string(), "HotpotQA");
        assert_eq!(Benchmark::Math.to_string(), "MATH");
    }

    #[test]
    fn difficulties_are_probabilities() {
        for b in Benchmark::ALL {
            let d = b.mean_difficulty();
            assert!((0.0..1.0).contains(&d));
        }
    }
}
