//! Figure data: named series over a swept parameter, rendered as the
//! tables the paper's plots are drawn from.

use std::fmt;

/// One line of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "Static", "Dynamic Forward", "Multiple MDX").
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

/// One reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure id ("Fig. 11").
    pub id: String,
    /// Title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// What shape the paper reports (printed alongside for comparison).
    pub paper_expectation: String,
}

impl Figure {
    /// CSV rendering (x, then one column per series).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(' ', "_"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name.replace(' ', "_"));
        }
        out.push('\n');
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push(',');
                match s.points.get(i) {
                    Some(&(_, y)) => out.push_str(&format!("{y:.3}")),
                    None => out.push_str("NA"),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        writeln!(f, "paper: {}", self.paper_expectation)?;
        let w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(8)
            .max(8);
        write!(f, "{:>w$}", self.x_label)?;
        for s in &self.series {
            write!(f, "  {:>12}", s.name)?;
        }
        writeln!(f)?;
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            write!(f, "{:>w$}", format!("{x}"))?;
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => write!(f, "  {:>12.3}", y)?,
                    None => write!(f, "  {:>12}", "NA")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "(y-axis: {})", self.y_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "Fig. T".into(),
            title: "test".into(),
            x_label: "n".into(),
            y_label: "ms".into(),
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)],
                },
                Series {
                    name: "B".into(),
                    points: vec![(1.0, 1.0), (2.0, 1.5), (3.0, 9.0)],
                },
            ],
            paper_expectation: "linear".into(),
        }
    }

    #[test]
    fn csv_has_all_columns() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,A,B");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("1,2.000,1.000"));
    }

    #[test]
    fn display_mentions_paper_expectation() {
        let s = fig().to_string();
        assert!(s.contains("paper: linear"));
        assert!(s.contains("Fig. T"));
    }
}
