//! The paper's Table 2 row type and a small plain-text table renderer used
//! by the examples.

use std::fmt::Write as _;

/// One row of the paper's Table 2 (selected trade-off solutions).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRow {
    /// Selection criterion (`"Closest-to-ideal"`, `"Max CO2 Uptake"`, ...).
    pub selection: String,
    /// CO₂ uptake in µmol m⁻² s⁻¹.
    pub co2_uptake: f64,
    /// Nitrogen in mg/l.
    pub nitrogen: f64,
    /// Robustness yield in percent.
    pub yield_percent: f64,
}

impl SelectionRow {
    /// Renders the row as table cells.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.selection.clone(),
            format!("{:.3}", self.co2_uptake),
            format!("{:.3e}", self.nitrogen),
            format!("{:.0}", self.yield_percent),
        ]
    }
}

/// Renders rows of cells as an aligned plain-text table with a header.
///
/// # Example
///
/// ```
/// use pathway_core::render_table;
///
/// let table = render_table(
///     &["Algorithm", "Points"],
///     &[vec!["PMO2".to_string(), "755".to_string()]],
/// );
/// assert!(table.contains("PMO2"));
/// assert!(table.lines().count() >= 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(widths.len()) {
            let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_row_cells_are_formatted() {
        let row = SelectionRow {
            selection: "Max CO2 Uptake".into(),
            co2_uptake: 39.968,
            nitrogen: 2.641e5,
            yield_percent: 65.0,
        };
        let cells = row.cells();
        assert!(cells[1].starts_with("39.968"));
        assert!(cells[2].contains('e'));
        assert_eq!(cells[3], "65");
    }

    #[test]
    fn table_renderer_aligns_columns() {
        let table = render_table(
            &["Name", "Value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "2".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and separator present, all rows mention their first cell.
        assert!(lines[0].starts_with("Name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].starts_with("long-name"));
    }
}
