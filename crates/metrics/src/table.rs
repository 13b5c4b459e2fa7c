//! Plain-text table rendering for figure/table reproduction output.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use agentsim_metrics::Table;
///
/// let mut t = Table::new(vec!["agent".into(), "llm calls".into()]);
/// t.row(vec!["CoT".into(), "1.0".into()]);
/// t.row(vec!["LATS".into(), "71.0".into()]);
/// let s = t.to_string();
/// assert!(s.contains("agent"));
/// assert!(s.contains("71.0"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience: builds the header from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Table::new(cols.iter().map(|c| c.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The header labels.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (for downstream plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::with_columns(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_round_trip_structure() {
        let mut t = Table::with_columns(&["x", "y"]);
        t.row(vec![1.to_string(), 2.to_string()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::with_columns(&["a"]).row(vec!["1".into(), "2".into()]);
    }
}
