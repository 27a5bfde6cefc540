//! Figure data containers with CSV and Markdown emission.
//!
//! Every experiment produces a [`Table`]: one x-axis, one or more labelled
//! series of `(x, mean, ci95)` points — exactly the shape of the paper's
//! plots. The figure binaries print the Markdown form and write the CSV
//! form under `results/`.

/// One measured point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x-axis value (number of nodes, distance, Byzantine count, …).
    pub x: f64,
    /// Mean over the experiment's repetitions.
    pub mean: f64,
    /// 95% confidence half-width.
    pub ci95: f64,
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label, e.g. `"Nectar: k = 10"`.
    pub label: String,
    /// Measured points in x order.
    pub points: Vec<Point>,
}

/// A full figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Stable identifier, e.g. `"fig3"`.
    pub id: String,
    /// Human title, e.g. `"Fig. 3: data sent per node on k-regular graphs"`.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Table {
    /// Renders the long-form CSV: `series,x,mean,ci95`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,mean,ci95\n");
        for s in &self.series {
            for p in &s.points {
                out.push_str(&format!("{},{},{},{}\n", s.label, p.x, p.mean, p.ci95));
            }
        }
        out
    }

    /// Renders a Markdown table with one column per series (rows aligned by
    /// x value).
    pub fn to_markdown(&self) -> String {
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.x)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are finite"));
        xs.dedup();
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.label));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("| {x} |"));
            for s in &self.series {
                match s.points.iter().find(|p| p.x == x) {
                    Some(p) => out.push_str(&format!(" {:.2} ± {:.2} |", p.mean, p.ci95)),
                    None => out.push_str(" – |"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        Table {
            id: "t".into(),
            title: "Test".into(),
            x_label: "n".into(),
            y_label: "KB".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![
                        Point { x: 1.0, mean: 2.0, ci95: 0.1 },
                        Point { x: 2.0, mean: 3.0, ci95: 0.2 },
                    ],
                },
                Series { label: "b".into(), points: vec![Point { x: 2.0, mean: 9.0, ci95: 0.0 }] },
            ],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,x,mean,ci95");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("a,1,"));
    }

    #[test]
    fn markdown_aligns_series_by_x() {
        let md = sample_table().to_markdown();
        assert!(md.contains("| n | a | b |"));
        // x = 1 exists only in series a; b shows a dash.
        assert!(md.contains("| 1 | 2.00 ± 0.10 | – |"));
        assert!(md.contains("| 2 | 3.00 ± 0.20 | 9.00 ± 0.00 |"));
    }
}
