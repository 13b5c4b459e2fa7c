//! Calibrated tool presets.

use crate::kind::ToolKind;
use crate::spec::ToolSpec;

/// The full set of tool specifications used by the reproduction.
///
/// Latency anchors come from the paper (§IV-A): Wikipedia ≈1.2 s/call,
/// WebShop ≈20 ms/call. Response sizes follow its Fig. 8 discussion —
/// knowledge/web tools return large observations (page content), while
/// calculators return short answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolCatalog {
    specs: Vec<ToolSpec>,
}

impl ToolCatalog {
    /// The calibrated default catalog.
    pub fn new() -> Self {
        let specs = vec![
            ToolSpec::new(ToolKind::WikipediaSearch, 1.2, 0.70, 300.0, 0.01),
            ToolSpec::new(ToolKind::WikipediaLookup, 1.0, 0.60, 130.0, 0.01),
            ToolSpec::new(ToolKind::WebshopSearch, 0.020, 0.30, 240.0, 0.002),
            ToolSpec::new(ToolKind::WebshopClick, 0.020, 0.30, 160.0, 0.002),
            ToolSpec::new(ToolKind::WolframQuery, 0.40, 0.35, 45.0, 0.01),
            ToolSpec::new(ToolKind::PythonCalc, 0.060, 0.30, 20.0, 0.001),
            ToolSpec::new(ToolKind::PythonExec, 0.35, 0.50, 90.0, 0.005),
        ];
        debug_assert_eq!(specs.len(), ToolKind::ALL.len());
        ToolCatalog { specs }
    }

    /// The specification for `kind`.
    pub fn spec(&self, kind: ToolKind) -> &ToolSpec {
        self.specs
            .iter()
            .find(|s| s.kind == kind)
            .expect("catalog covers every ToolKind")
    }

    /// Iterates over all specs.
    pub fn iter(&self) -> std::slice::Iter<'_, ToolSpec> {
        self.specs.iter()
    }
}

impl Default for ToolCatalog {
    fn default() -> Self {
        ToolCatalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_kinds() {
        let c = ToolCatalog::new();
        for kind in ToolKind::ALL {
            assert_eq!(c.spec(kind).kind, kind);
        }
    }

    #[test]
    fn wikipedia_much_slower_than_webshop() {
        // The paper's Fig. 5 contrast: 1.2 s vs 20 ms per call.
        let c = ToolCatalog::new();
        let wiki = c.spec(ToolKind::WikipediaSearch).mean_latency_s();
        let shop = c.spec(ToolKind::WebshopSearch).mean_latency_s();
        assert!(wiki / shop > 30.0, "wiki {wiki} s vs shop {shop} s");
    }
}
