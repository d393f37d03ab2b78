//! ASCII table rendering for the reproduction reports (the `repro`
//! binary prints rows shaped like the paper's tables).

/// A simple fixed-column ASCII table builder.
///
/// # Examples
///
/// ```
/// use ree_stats::TableBuilder;
/// let mut t = TableBuilder::new(vec!["TARGET", "RUNS"]);
/// t.row(vec!["ftm".into(), "100".into()]);
/// let text = t.render();
/// assert!(text.contains("TARGET"));
/// assert!(text.contains("ftm"));
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TableBuilder {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        TableBuilder {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let sep: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TableBuilder {
        /// Number of data rows.
        fn len(&self) -> usize {
            self.rows.len()
        }

        /// True if the table has no data rows.
        fn is_empty(&self) -> bool {
            self.rows.is_empty()
        }
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableBuilder::new(vec!["A", "LONG-HEADER"]).with_title("Table X");
        t.row(vec!["wide-cell-content".into(), "1".into()]);
        t.row(vec!["x".into()]);
        let text = t.render();
        assert!(text.starts_with("Table X\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    /// Formats `mean ± ci` with fixed precision.
    fn format_pm(mean: f64, ci: f64) -> String {
        format!("{mean:.2} ± {ci:.2}")
    }

    #[test]
    fn format_pm_rounds() {
        assert_eq!(format_pm(75.7133, 0.6543), "75.71 ± 0.65");
    }
}
