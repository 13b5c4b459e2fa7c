//! Tool identities.

use std::fmt;

/// The tools exposed to agents across the paper's four benchmarks
/// (its Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToolKind {
    /// Wikipedia `search[query]` — HotpotQA.
    WikipediaSearch,
    /// Wikipedia `lookup[keyword]` — HotpotQA.
    WikipediaLookup,
    /// WebShop `search[...]` over the locally hosted shop — WebShop.
    WebshopSearch,
    /// WebShop `click[...]` page navigation — WebShop.
    WebshopClick,
    /// Wolfram Alpha API query — MATH.
    WolframQuery,
    /// Python-based calculator for simple arithmetic — MATH.
    PythonCalc,
    /// Python execution of self-generated test code — HumanEval.
    PythonExec,
}

impl ToolKind {
    /// All tool kinds, in a stable reporting order.
    pub const ALL: [ToolKind; 7] = [
        ToolKind::WikipediaSearch,
        ToolKind::WikipediaLookup,
        ToolKind::WebshopSearch,
        ToolKind::WebshopClick,
        ToolKind::WolframQuery,
        ToolKind::PythonCalc,
        ToolKind::PythonExec,
    ];
}

impl fmt::Display for ToolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ToolKind::WikipediaSearch => "wikipedia.search",
            ToolKind::WikipediaLookup => "wikipedia.lookup",
            ToolKind::WebshopSearch => "webshop.search",
            ToolKind::WebshopClick => "webshop.click",
            ToolKind::WolframQuery => "wolfram.query",
            ToolKind::PythonCalc => "python.calc",
            ToolKind::PythonExec => "python.exec",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_kind_once() {
        let mut names: Vec<String> = ToolKind::ALL.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
