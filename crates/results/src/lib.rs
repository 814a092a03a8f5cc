//! Typed experiment results for the MP-DASH benchmark harness.
//!
//! Every `exp` experiment used to *print* its tables directly; this
//! crate splits that into compute → persist → render:
//!
//! * an experiment **computes** an [`ExperimentResult`] — an ordered
//!   list of [`Block`]s (tables, CDF summaries, metric series, scalar
//!   groups, prose);
//! * the result **persists** as a JSON artifact under `results/` (see
//!   [`write_artifact_to`]), deterministic byte-for-byte, so CI gates
//!   hash numbers instead of scraping stdout. Artifacts are write-only:
//!   nothing in the repo reads one back, so there is no reader here;
//! * [`ExperimentResult::render`] is a **pure function** of the result.
//!
//! The JSON value model itself lives in [`json`]; it exists because the
//! build environment has no registry access, so serde is replaced by a
//! small hand-rolled layer with a byte-stable writer.

pub mod json;

pub use json::{Json, JsonError};

use mpdash_sim::series::Cdf;
use mpdash_sim::{Series, SimDuration};

/// The quantile grid persisted for every CDF: extremes, quartiles, and
/// the tails the paper quotes (5th/95th).
pub const CDF_QUANTILES: [f64; 7] = [0.0, 0.05, 0.25, 0.50, 0.75, 0.95, 1.0];

/// A table: header plus string rows, rendered with padded columns.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TableData {
    /// Optional caption printed above the table.
    pub title: Option<String>,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows; each must match the header arity.
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TableData {
            title: None,
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Same table with a caption.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with padded, right-aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(c.chars().count());
                s.push(' ');
                for _ in 0..pad {
                    s.push(' ');
                }
                s.push_str(c);
                s.push_str(" |");
            }
            s.push('\n');
            s
        };
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        out.push_str(&fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            for _ in 0..w + 2 {
                sep.push('-');
            }
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// A named time series, persisted as `(seconds, value)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSeries {
    /// Series label, e.g. `wifi_mbps`.
    pub name: String,
    /// Unit of the values, e.g. `Mbps`.
    pub unit: String,
    /// `(time seconds, value)` points in time order.
    pub points: Vec<(f64, f64)>,
}

impl MetricSeries {
    /// Capture a simulator [`Series`] after windowed aggregation.
    pub fn from_points(
        name: impl Into<String>,
        unit: impl Into<String>,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> Self {
        MetricSeries {
            name: name.into(),
            unit: unit.into(),
            points: points.into_iter().collect(),
        }
    }

    /// Capture a raw byte-count [`Series`] as a throughput series in
    /// Mbps over `window` buckets.
    pub fn throughput(name: impl Into<String>, series: &Series, window: SimDuration) -> Self {
        MetricSeries::from_points(
            name,
            "Mbps",
            series
                .throughput_mbps(window)
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v)),
        )
    }
}

/// A summarized empirical distribution: count, mean, and a fixed
/// quantile grid — what the paper's Figure 9/10 CDFs persist.
#[derive(Clone, Debug, PartialEq)]
pub struct CdfSummary {
    /// Metric name, e.g. `cell_saving`.
    pub name: String,
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (NaN when empty; serializes as null).
    pub mean: f64,
    /// `(q, value)` pairs over [`CDF_QUANTILES`].
    pub quantiles: Vec<(f64, f64)>,
}

impl CdfSummary {
    /// Summarize a [`Cdf`] at the standard quantile grid.
    pub fn from_cdf(name: impl Into<String>, cdf: &mut Cdf) -> Self {
        CdfSummary {
            name: name.into(),
            count: cdf.len(),
            mean: cdf.mean().unwrap_or(f64::NAN),
            quantiles: cdf.quantiles(&CDF_QUANTILES),
        }
    }
}

/// A titled group of named scalar metrics — the machine-readable form
/// of "headline numbers" an experiment prints in prose.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarGroup {
    /// Group label.
    pub title: String,
    /// `(name, value)` pairs in declaration order.
    pub values: Vec<(String, f64)>,
}

impl ScalarGroup {
    /// An empty group.
    pub fn new(title: impl Into<String>) -> Self {
        ScalarGroup {
            title: title.into(),
            values: Vec::new(),
        }
    }

    /// Append one scalar; returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.push((name.into(), value));
        self
    }
}

/// One ordered element of an experiment report.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// Free prose, printed verbatim (one trailing newline added).
    Text(String),
    /// A rendered table.
    Table(TableData),
    /// A summarized distribution.
    Cdf(CdfSummary),
    /// A time series (persisted in full, rendered as a one-line note).
    Series(MetricSeries),
    /// Named scalar metrics.
    Scalars(ScalarGroup),
}

/// A full experiment result: what an `exp` run computes, persists
/// and renders.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentResult {
    /// Artifact stem: `results/<name>.json`.
    pub name: String,
    /// Banner title.
    pub title: String,
    /// Whether this was a reduced quick-mode run.
    pub quick: bool,
    /// Report blocks in print order.
    pub blocks: Vec<Block>,
}

impl ExperimentResult {
    /// An empty result.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentResult {
            name: name.into(),
            title: title.into(),
            quick: false,
            blocks: Vec::new(),
        }
    }

    /// Mark as a quick-mode run.
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Append prose.
    pub fn text(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Text(s.into()));
    }

    /// Append a table.
    pub fn table(&mut self, t: TableData) {
        self.blocks.push(Block::Table(t));
    }

    /// Append a CDF summary.
    pub fn cdf(&mut self, c: CdfSummary) {
        self.blocks.push(Block::Cdf(c));
    }

    /// Append a series.
    pub fn series(&mut self, s: MetricSeries) {
        self.blocks.push(Block::Series(s));
    }

    /// Append a scalar group.
    pub fn scalars(&mut self, g: ScalarGroup) {
        self.blocks.push(Block::Scalars(g));
    }

    /// Render the full printed report. Pure: depends only on `self`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("\n================================================================\n");
        out.push_str(&self.title);
        if self.quick {
            out.push_str(" [quick]");
        }
        out.push('\n');
        out.push_str("================================================================\n");
        for block in &self.blocks {
            match block {
                Block::Text(s) => {
                    out.push_str(s);
                    out.push('\n');
                }
                Block::Table(t) => {
                    out.push_str(&t.render());
                }
                Block::Cdf(c) => {
                    let mut t = TableData::new(&["percentile", &format!("{} ", c.name)]);
                    for &(q, v) in &c.quantiles {
                        t.row(&[format!("{:.0}th", q * 100.0), format!("{:.2}%", v * 100.0)]);
                    }
                    out.push_str(&format!(
                        "CDF {} — {} observations, mean {:.4}:\n",
                        c.name, c.count, c.mean
                    ));
                    out.push_str(&t.render());
                }
                Block::Series(s) => {
                    out.push_str(&format!(
                        "[series {}: {} points, {}]\n",
                        s.name,
                        s.points.len(),
                        s.unit
                    ));
                }
                Block::Scalars(g) => {
                    out.push_str(&g.title);
                    out.push('\n');
                    for (name, v) in &g.values {
                        out.push_str(&format!("  {name}: {v:.4}\n"));
                    }
                }
            }
        }
        out
    }

    /// Serialize to the artifact JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("mpdash-experiment/1")),
            ("name", Json::from(self.name.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("quick", Json::from(self.quick)),
            ("blocks", Json::arr(self.blocks.iter().map(block_to_json))),
        ])
    }
}

fn pairs_to_json(pairs: &[(f64, f64)]) -> Json {
    Json::arr(
        pairs
            .iter()
            .map(|&(a, b)| Json::arr([Json::Float(a), Json::Float(b)])),
    )
}

fn block_to_json(b: &Block) -> Json {
    match b {
        Block::Text(s) => Json::obj([
            ("type", Json::from("text")),
            ("text", Json::from(s.as_str())),
        ]),
        Block::Table(t) => Json::obj([
            ("type", Json::from("table")),
            (
                "title",
                t.title.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "header",
                Json::arr(t.header.iter().map(|h| Json::from(h.as_str()))),
            ),
            (
                "rows",
                Json::arr(
                    t.rows
                        .iter()
                        .map(|r| Json::arr(r.iter().map(|c| Json::from(c.as_str())))),
                ),
            ),
        ]),
        Block::Cdf(c) => Json::obj([
            ("type", Json::from("cdf")),
            ("name", Json::from(c.name.as_str())),
            ("count", Json::from(c.count)),
            ("mean", Json::Float(c.mean)),
            ("quantiles", pairs_to_json(&c.quantiles)),
        ]),
        Block::Series(s) => Json::obj([
            ("type", Json::from("series")),
            ("name", Json::from(s.name.as_str())),
            ("unit", Json::from(s.unit.as_str())),
            ("points", pairs_to_json(&s.points)),
        ]),
        Block::Scalars(g) => Json::obj([
            ("type", Json::from("scalars")),
            ("title", Json::from(g.title.as_str())),
            (
                "values",
                Json::Obj(
                    g.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Directory artifacts are written to: `MPDASH_RESULTS_DIR` if set,
/// otherwise `results/` under the current directory.
pub fn artifact_dir() -> std::path::PathBuf {
    std::env::var_os("MPDASH_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Write `result` as `<dir>/<name>.json` (creating the directory) and
/// return the path.
///
/// The write is atomic: the bytes land in a temporary file in the same
/// directory which is then renamed over the target, so a crash (or a
/// concurrent reader — experiments run in parallel batches) never
/// observes a truncated artifact. The temp name is keyed by process id
/// so concurrent writers of *different* experiments cannot collide.
pub fn write_artifact_to(
    dir: &std::path::Path,
    result: &ExperimentResult,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", result.name));
    let tmp = dir.join(format!(".{}.json.{}.tmp", result.name, std::process::id()));
    std::fs::write(&tmp, result.to_json().to_pretty())?;
    // Same directory, so the rename cannot cross a filesystem boundary.
    if let Err(e) = std::fs::rename(&tmp, &path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(path)
}

/// Percent formatting helper (two decimals, paper style).
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Megabyte formatting helper.
pub fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ExperimentResult {
        let mut r = ExperimentResult::new("demo", "Demo experiment").with_quick(true);
        r.text("intro prose");
        let mut t = TableData::new(&["config", "saving"]).with_title("savings:");
        t.row(&["Rate".into(), pct(0.515)]);
        t.row(&["Duration".into(), pct(0.402)]);
        r.table(t);
        let mut cdf = Cdf::new();
        for v in [0.1, 0.5, 0.9, 0.3] {
            cdf.push(v);
        }
        r.cdf(CdfSummary::from_cdf("cell_saving", &mut cdf));
        r.series(MetricSeries::from_points(
            "wifi_mbps",
            "Mbps",
            [(0.0, 3.8), (1.0, 3.7)],
        ));
        r.scalars(
            ScalarGroup::new("headline")
                .with("no_reduction_fraction", 0.8265)
                .with("median_saving", 0.59),
        );
        r
    }

    #[test]
    fn artifact_write_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("mpdash-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample_result();
        let path = write_artifact_to(&dir, &r).expect("artifact written");
        assert_eq!(path, dir.join("demo.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r.to_json().to_pretty());
        // Overwrite goes through the same rename; the directory must hold
        // exactly the finished artifact, never a leftover temp file.
        write_artifact_to(&dir, &r).expect("artifact rewritten");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["demo.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_contains_all_parts() {
        let r = sample_result();
        let out = r.render();
        assert!(out.contains("Demo experiment [quick]"));
        assert!(out.contains("intro prose"));
        assert!(out.contains("|     Rate | 51.50% |"), "{out}");
        assert!(out.contains("CDF cell_saving — 4 observations"));
        assert!(out.contains("[series wifi_mbps: 2 points, Mbps]"));
        assert!(out.contains("no_reduction_fraction: 0.8265"));
    }

    #[test]
    fn cdf_summary_covers_the_quantile_grid() {
        let mut cdf = Cdf::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            cdf.push(v);
        }
        let s = CdfSummary::from_cdf("x", &mut cdf);
        assert_eq!(s.count, 5);
        let grid: Vec<f64> = s.quantiles.iter().map(|&(q, _)| q).collect();
        assert_eq!(grid, CDF_QUANTILES);
        assert_eq!(s.quantiles[0], (0.0, 1.0));
        assert_eq!(s.quantiles[3], (0.5, 3.0));
        assert_eq!(s.quantiles[6], (1.0, 5.0));
        assert!((s.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_mean_is_written_as_null() {
        let mut r = ExperimentResult::new("e", "E");
        r.cdf(CdfSummary::from_cdf("empty", &mut Cdf::new()));
        let text = r.to_json().to_pretty();
        assert!(text.contains("\"count\": 0"), "{text}");
        assert!(text.contains("\"mean\": null"), "{text}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TableData::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | bbbb |"));
        assert!(s.contains("| 1 |    2 |"));
    }
}
