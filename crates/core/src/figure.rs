//! Experiment results: tables, notes, and shape checks.

use std::fmt;

use agentsim_metrics::Table;

/// How much work an experiment does. Tests use [`Scale::quick`]; the
/// `figures` binary uses [`Scale::paper`] (matching the paper's 50-sample
/// methodology where applicable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Single-request samples per cell (agent x benchmark x config).
    pub samples: u64,
    /// Requests per open-loop serving run.
    pub serving_requests: u64,
    /// Root seed.
    pub seed: u64,
}

impl Scale {
    /// Small and fast — for unit/integration tests.
    pub fn quick() -> Self {
        Scale {
            samples: 10,
            serving_requests: 40,
            seed: 7,
        }
    }

    /// Paper-fidelity sample counts (50 tasks per configuration).
    pub fn paper() -> Self {
        Scale {
            samples: 50,
            serving_requests: 150,
            seed: 7,
        }
    }
}

/// A machine-checked qualitative claim from the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short name of the claim.
    pub name: String,
    /// Whether the reproduction satisfies it.
    pub passed: bool,
    /// Measured values backing the verdict.
    pub details: String,
}

impl Check {
    /// Builds a check from a claim name, a predicate and its evidence.
    pub fn new(name: &str, passed: bool, details: String) -> Self {
        Check {
            name: name.to_string(),
            passed,
            details,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.details
        )
    }
}

/// The output of one experiment: everything needed to compare against the
/// paper's figure/table.
#[derive(Debug, Clone, Default)]
pub struct FigureResult {
    /// Experiment id (`"fig04"`, `"table3"`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Captioned tables (usually one; multi-panel figures have several).
    pub tables: Vec<(String, Table)>,
    /// Prose observations (paper-vs-measured commentary).
    pub notes: Vec<String>,
    /// Shape checks.
    pub checks: Vec<Check>,
    /// Files written next to the result, as `(file name, contents)`.
    pub artifacts: Vec<(String, String)>,
}

impl FigureResult {
    /// Creates an empty result with identity.
    pub fn new(id: &str, title: &str) -> Self {
        FigureResult {
            id: id.to_string(),
            title: title.to_string(),
            ..FigureResult::default()
        }
    }

    /// Adds a captioned table.
    pub fn table(&mut self, caption: &str, table: Table) -> &mut Self {
        self.tables.push((caption.to_string(), table));
        self
    }

    /// Adds a prose note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Adds a shape check.
    pub fn check(&mut self, name: &str, passed: bool, details: String) -> &mut Self {
        self.checks.push(Check::new(name, passed, details));
        self
    }

    /// Adds files to write next to the result, and a last table listing
    /// each with its size and FNV-1a digest, so the committed table pins
    /// their bytes without committing the files.
    pub fn attach_artifacts(&mut self, files: Vec<(&str, String)>) -> &mut Self {
        let mut table = Table::with_columns(&["artifact", "bytes", "lines", "fnv1a"]);
        for (name, contents) in files {
            let fnv1a = contents.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            table.row(vec![
                name.to_string(),
                contents.len().to_string(),
                contents.lines().count().to_string(),
                format!("{fnv1a:016x}"),
            ]);
            self.artifacts.push((name.to_string(), contents));
        }
        self.table("Artifacts written next to this result", table)
    }

    /// Whether every shape check passed.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Names of failing checks (empty if all pass).
    pub fn failing_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name.as_str())
            .collect()
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        for (caption, table) in &self.tables {
            writeln!(f, "\n{caption}")?;
            write!(f, "{table}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "\nNotes:")?;
            for n in &self.notes {
                writeln!(f, "  - {n}")?;
            }
        }
        if !self.checks.is_empty() {
            writeln!(f, "\nShape checks:")?;
            for c in &self.checks {
                writeln!(f, "  {c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::paper().samples > Scale::quick().samples);
        assert!(Scale::paper().serving_requests > Scale::quick().serving_requests);
    }

    #[test]
    fn result_accumulates_and_reports() {
        let mut r = FigureResult::new("figXX", "demo");
        r.table("caption", Table::with_columns(&["a"]));
        r.note("observation");
        r.check("claim-1", true, "1 > 0".into());
        r.check("claim-2", false, "2 < 1".into());
        r.attach_artifacts(vec![("a.jsonl", "{}\n{}\n".to_string())]);
        assert!(!r.all_checks_pass());
        assert_eq!(r.failing_checks(), vec!["claim-2"]);
        let s = r.to_string();
        assert!(s.contains("figXX"));
        assert!(s.contains("[FAIL] claim-2"));
        assert!(s.contains("caption"));
        assert!(
            s.contains("a.jsonl") && !s.contains("{}"),
            "listed, not inlined"
        );
        assert!(s.contains("fee028cbd2c91d95"), "FNV-1a 64 of the contents");
        assert_eq!(r.artifacts, vec![("a.jsonl".into(), "{}\n{}\n".into())]);
    }
}
