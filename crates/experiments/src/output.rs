//! Structured experiment results: named scalar rows plus named series, with
//! JSON/CSV emission.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The output of one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Experiment name (e.g. `fig14`).
    pub name: String,
    /// One-line description of what the paper figure/table shows.
    pub description: String,
    /// Scalar summary rows (label → value), e.g. per-scheme mean throughput.
    pub rows: BTreeMap<String, f64>,
    /// Named series, e.g. a throughput time series or a CDF curve.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
    /// Whether the quick (scaled-down) variant was run.
    pub quick: bool,
}

impl ExperimentResult {
    /// Create an empty result.
    pub fn new(name: &str, description: &str, quick: bool) -> Self {
        ExperimentResult {
            name: name.to_string(),
            description: description.to_string(),
            rows: BTreeMap::new(),
            series: BTreeMap::new(),
            quick,
        }
    }

    /// Add a scalar row.
    pub fn row(&mut self, label: &str, value: f64) -> &mut Self {
        self.rows.insert(label.to_string(), value);
        self
    }

    /// Add a series.
    pub fn add_series(&mut self, label: &str, series: Vec<(f64, f64)>) -> &mut Self {
        self.series.insert(label.to_string(), series);
        self
    }

    /// Fetch a row value (convenience for tests and cross-experiment checks).
    pub fn get(&self, label: &str) -> Option<f64> {
        self.rows.get(label).copied()
    }

    /// Render the scalar rows as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.name, self.description);
        let width = self.rows.keys().map(|k| k.len()).max().unwrap_or(10);
        for (k, v) in &self.rows {
            out.push_str(&format!("{k:width$}  {v:12.3}\n"));
        }
        for (k, s) in &self.series {
            out.push_str(&format!("series {k}: {} points\n", s.len()));
        }
        out
    }

    /// Write the result as JSON under `dir/<name>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        fs::write(&path, serde_json::to_string_pretty(self).unwrap())?;
        Ok(path)
    }

    /// Write every series as a CSV file `dir/<name>_<series>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (label, series) in &self.series {
            let safe: String = label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{}_{}.csv", self.name, safe));
            let mut body = String::from("x,y\n");
            for (x, y) in series {
                body.push_str(&format!("{x},{y}\n"));
            }
            fs::write(&path, body)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The default output directory (`target/experiments`).
    pub fn default_output_dir() -> PathBuf {
        PathBuf::from("target").join("experiments")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_series_round_trip() {
        let mut r = ExperimentResult::new("figX", "test figure", true);
        r.row("cubic_throughput_mbps", 88.5);
        r.row("nimbus_throughput_mbps", 90.1);
        r.add_series("cdf", vec![(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(r.get("cubic_throughput_mbps"), Some(88.5));
        assert_eq!(r.get("missing"), None);
        let table = r.to_table();
        assert!(table.contains("cubic_throughput_mbps"));
        assert!(table.contains("series cdf: 2 points"));
        // JSON round trip, read back as a value tree.
        let back = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(
            back.field("name").unwrap(),
            &serde::Value::Str("figX".into())
        );
        let cdf = back.field("series").unwrap().field("cdf").unwrap();
        assert_eq!(cdf.as_seq().unwrap().len(), 2);
        let row = back.field("rows").unwrap().field("nimbus_throughput_mbps");
        assert_eq!(row.unwrap().as_f64().unwrap(), 90.1);
    }

    #[test]
    fn files_are_written() {
        let dir = std::env::temp_dir().join(format!("nimbus-exp-test-{}", std::process::id()));
        let mut r = ExperimentResult::new("figY", "io test", true);
        r.row("value", 1.0);
        r.add_series("line", vec![(0.0, 1.0), (2.0, 3.0)]);
        let json = r.write_json(&dir).unwrap();
        assert!(json.exists());
        let csvs = r.write_csv(&dir).unwrap();
        assert_eq!(csvs.len(), 1);
        let body = std::fs::read_to_string(&csvs[0]).unwrap();
        assert!(body.starts_with("x,y\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
