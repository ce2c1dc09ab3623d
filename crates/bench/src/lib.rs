//! Shared utilities for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every quantitative claim of the paper has an experiment binary whose
//! module doc names the section, lemma or corollary it measures (the
//! README's "Running the benches" lists them). This crate holds what they
//! share: step aggregation, tables, the perf gate over the committed
//! `BENCH_*.json` baselines and the [`sweep`] driver of the timed sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

use shmem::steps::StepStats;

/// Aggregate statistics of a set of per-process measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Number of samples aggregated.
    pub samples: usize,
    /// Mean of the samples.
    pub mean: f64,
    /// Maximum sample.
    pub max: u64,
}

impl Aggregate {
    /// Aggregates an iterator of samples.
    pub fn of<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut count = 0usize;
        let mut sum = 0u64;
        let mut max = 0u64;
        for sample in samples {
            count += 1;
            sum += sample;
            max = max.max(sample);
        }
        Aggregate {
            samples: count,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max,
        }
    }

    /// Aggregates the register-step totals of a set of per-process stats.
    pub fn of_register_steps(stats: &[StepStats]) -> Self {
        Self::of(stats.iter().map(StepStats::total))
    }

    /// Aggregates the test-and-set invocation counts of per-process stats.
    pub fn of_tas_invocations(stats: &[StepStats]) -> Self {
        Self::of(stats.iter().map(|s| s.tas_invocations))
    }
}

/// A plain-text table printed by the experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the table to standard output.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One row of a committed `BENCH_*.json` baseline, scanned without a JSON
/// parser: a flat list of key → raw-value pairs. The experiment writers emit
/// each row as a single `{...}` line of scalar fields, which is all this
/// reader supports — nested objects or arrays inside a row are out of scope.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineRow {
    entries: Vec<(String, String)>,
}

impl BaselineRow {
    /// The raw value of a key (quotes stripped for strings).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a key parsed as a number.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Whether this row matches every given `(key, value)` pair.
    pub fn matches(&self, criteria: &[(&str, &str)]) -> bool {
        criteria
            .iter()
            .all(|(key, value)| self.get(key) == Some(*value))
    }
}

/// Parses one single-line `{...}` object into a [`BaselineRow`].
fn parse_row_line(line: &str) -> Option<BaselineRow> {
    let line = line.trim().trim_end_matches(',');
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut entries = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('"') {
        let after_quote = &rest[start + 1..];
        let key_end = after_quote.find('"')?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..].trim_start();
        let value_part = after_key.strip_prefix(':')?.trim_start();
        let (value, remainder) = if let Some(quoted) = value_part.strip_prefix('"') {
            let value_end = quoted.find('"')?;
            (quoted[..value_end].to_string(), &quoted[value_end + 1..])
        } else {
            let value_end = value_part.find(',').unwrap_or(value_part.len());
            (
                value_part[..value_end].trim().to_string(),
                &value_part[value_end..],
            )
        };
        entries.push((key.to_string(), value));
        rest = remainder;
    }
    (!entries.is_empty()).then_some(BaselineRow { entries })
}

/// Extracts the per-configuration rows of a committed `BENCH_*.json`
/// baseline: every line of the file that is a single-line `{...}` object.
/// Top-level metadata lines (`"experiment": ...`) are skipped because they
/// are not objects.
pub fn parse_baseline_rows(json: &str) -> Vec<BaselineRow> {
    json.lines().filter_map(parse_row_line).collect()
}

/// The perf-gate tolerance: a configuration regresses when its *best*
/// fresh replay exceeds the committed baseline by more than this factor.
pub const GATE_TOLERANCE: f64 = 1.2;

/// The perf-gate verdict for one configuration: a regression is a fresh
/// *minimum* (best replayed execution) above
/// `max(committed_mean, committed_max) × GATE_TOLERANCE`.
///
/// The fresh minimum — not the mean — is what gets compared: on a loaded
/// or single-CPU host, scheduler interference inflates the mean and max of
/// a replay by well over 20% from run to run, but a *genuine* regression
/// (an extra atomic on the hot path, a reintroduced spin stall) shifts the
/// whole distribution, best case included. The committed max absorbs
/// configurations whose committed run was already noisy, and the tolerance
/// absorbs ordinary jitter on top.
pub fn gate_regresses(fresh_min: f64, committed_mean: f64, committed_max: f64) -> bool {
    fresh_min > committed_mean.max(committed_max) * GATE_TOLERANCE
}

/// Accumulates perf-gate comparisons and renders a pass/fail report.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    checked: usize,
    failures: Vec<String>,
}

impl GateReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Matches fresh samples against committed rows in both directions.
    /// Each sample is its values for the `keys` fields (in `keys` order)
    /// plus its best replayed ns/op. A sample is checked against the first
    /// committed row with the same key values; a sample with no such row,
    /// and a committed row that no sample matched, are both failures — a
    /// renamed configuration must not hide a regression, and a deleted one
    /// must not leave a stale baseline row behind.
    pub fn compare(
        committed: &[BaselineRow],
        keys: &[&str],
        samples: &[(Vec<String>, f64)],
    ) -> Self {
        let label = |values: &[&str]| {
            keys.iter()
                .zip(values)
                .map(|(key, value)| format!("{key} {value}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut report = GateReport::new();
        let mut matched = vec![false; committed.len()];
        for (values, fresh_min) in samples {
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            let criteria: Vec<(&str, &str)> =
                keys.iter().copied().zip(values.iter().copied()).collect();
            let found = committed.iter().position(|row| row.matches(&criteria));
            let baseline = found.and_then(|index| {
                matched[index] = true;
                let row = &committed[index];
                Some((row.number("mean_ns_per_op")?, row.number("max_ns_per_op")?))
            });
            match baseline {
                Some((mean, max)) => report.check(&label(&values), *fresh_min, mean, max),
                None => report.missing(&label(&values)),
            }
        }
        for (row, seen) in committed.iter().zip(matched) {
            if !seen {
                let values: Vec<&str> =
                    keys.iter().map(|key| row.get(key).unwrap_or("?")).collect();
                let label = label(&values);
                report
                    .failures
                    .push(format!("{label}: committed row has no fresh sample"));
            }
        }
        report
    }

    /// Records one comparison of a fresh *minimum* (best replayed
    /// execution) against a committed baseline row's `mean` and `max`
    /// values under the given label.
    fn check(&mut self, label: &str, fresh_min: f64, committed_mean: f64, committed_max: f64) {
        self.checked += 1;
        if gate_regresses(fresh_min, committed_mean, committed_max) {
            self.failures.push(format!(
                "{label}: best replay {fresh_min:.1} exceeds the gate \
                 max({committed_mean:.1}, {committed_max:.1}) × {GATE_TOLERANCE}"
            ));
        }
    }

    /// Records a configuration that could not be compared (missing from the
    /// committed baseline) — a gate failure, since silently skipping it
    /// would let regressions hide behind renamed rows.
    fn missing(&mut self, label: &str) {
        self.failures
            .push(format!("{label}: no committed baseline row"));
    }

    /// Number of comparisons performed.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// Whether every comparison passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure lines (empty when [`GateReport::passed`]).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The `--gate` mode of the experiment binaries: reads the committed
/// baseline at `path`, compares `samples` against it with
/// [`GateReport::compare`], prints the verdict and exits the process with
/// status 1 on failure.
pub fn enforce_gate(path: &str, keys: &[&str], samples: &[(Vec<String>, f64)]) {
    let committed = match std::fs::read_to_string(path) {
        Ok(json) => parse_baseline_rows(&json),
        Err(error) => {
            eprintln!("perf gate: cannot read {path}: {error}");
            std::process::exit(1);
        }
    };
    let report = GateReport::compare(&committed, keys, samples);
    if report.passed() {
        println!(
            "perf gate: {} configurations within tolerance of {path}",
            report.checked()
        );
    } else {
        eprintln!("perf gate FAILED against {path}:");
        for failure in report.failures() {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

/// Formats a float with one decimal place (shared by every experiment table).
pub fn fmt1(value: f64) -> String {
    format!("{value:.1}")
}

/// log₂ helper used for the reference columns of the step-complexity tables.
pub fn log2(value: usize) -> f64 {
    (value.max(1) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_computes_mean_and_max() {
        let agg = Aggregate::of([1u64, 2, 3, 10]);
        assert_eq!(agg.samples, 4);
        assert!((agg.mean - 4.0).abs() < 1e-9);
        assert_eq!(agg.max, 10);
        assert_eq!(Aggregate::of([]).samples, 0);
    }

    #[test]
    fn aggregate_reads_step_stats() {
        let stats = vec![
            StepStats {
                reads: 4,
                tas_invocations: 2,
                ..Default::default()
            },
            StepStats {
                writes: 8,
                tas_invocations: 6,
                ..Default::default()
            },
        ];
        assert_eq!(Aggregate::of_register_steps(&stats).max, 8);
        assert_eq!(Aggregate::of_tas_invocations(&stats).max, 6);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = Table::new("demo", &["k", "steps"]);
        table.row(vec!["2".into(), "10".into()]);
        table.row(vec!["1024".into(), "17.5".into()]);
        let rendered = table.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("1024"));
        assert!(rendered.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.row(vec!["only one".into()]);
    }

    #[test]
    fn helpers_format_numbers() {
        assert_eq!(fmt1(1.25), "1.2");
        assert!((log2(8) - 3.0).abs() < 1e-9);
        assert_eq!(log2(0), 0.0);
    }

    /// Rows shaped like `exp_lease_churn`'s and `exp_counters`' go through
    /// the shared writer and back through the gate's reader.
    #[test]
    fn baseline_rows_parse_from_the_writer_format() {
        use crate::sweep::{JsonRow, Timing};
        let timing = Timing {
            mean_ns_per_op: 161.24,
            min_ns_per_op: 150.0,
            max_ns_per_op: 199.06,
        };
        let lease = JsonRow::new()
            .text("variant", "recycler_hierarchical")
            .raw("threads", 16)
            .timing(&timing)
            .text("bound_kind", "tight");
        let counter = JsonRow::new()
            .text("backend", "network")
            .raw("threads", 4)
            .text("arrivals", "bursty")
            .timing(&timing)
            .fixed1("steps_per_op", 11.0);
        let lines = [lease.line(), counter.line()].into_iter();
        let header = JsonRow::new().raw("ops_per_worker", 500);
        let rows = parse_baseline_rows(&header.document("demo", "rows", lines));
        assert_eq!(rows.len(), 2, "the document's header lines are not rows");
        let lease_keys = [("variant", "recycler_hierarchical"), ("threads", "16")];
        let counter_keys = [
            ("backend", "network"),
            ("threads", "4"),
            ("arrivals", "bursty"),
        ];
        for (written, read, pairs) in [
            (&lease, &rows[0], &lease_keys[..]),
            (&counter, &rows[1], &counter_keys),
        ] {
            assert!(read.matches(pairs), "{read:?} does not read back {pairs:?}");
            let (keys, values): (Vec<&str>, Vec<&str>) = pairs.iter().copied().unzip();
            assert_eq!(written.keys(&keys), values);
            assert_eq!(read.number("mean_ns_per_op"), Some(161.2));
            assert_eq!(read.number("max_ns_per_op"), Some(199.1));
        }
        assert!(!rows[1].matches(&[("backend", "fetch_add")]));
        assert_eq!(rows[0].number("variant"), None, "strings are not numbers");
        assert!(parse_baseline_rows("not json at all").is_empty());
    }

    #[test]
    fn the_gate_threshold_scales_the_worse_of_mean_and_max() {
        // A stable committed run: the threshold is max × tolerance.
        assert!(!gate_regresses(125.0, 100.0, 105.0));
        assert!(gate_regresses(127.0, 100.0, 105.0));
        // A noisy committed run: the committed max dominates the mean.
        assert!(!gate_regresses(179.0, 100.0, 150.0));
        assert!(gate_regresses(181.0, 100.0, 150.0));
    }

    #[test]
    fn gate_reports_collect_failures_and_missing_rows() {
        let mut report = GateReport::new();
        report.check("ok-row", 100.0, 100.0, 110.0);
        assert!(report.passed());
        report.check("slow-row", 200.0, 100.0, 110.0);
        report.missing("gone-row");
        assert!(!report.passed());
        assert_eq!(report.checked(), 2);
        assert_eq!(report.failures().len(), 2);
        assert!(report.failures()[0].contains("slow-row"));
        assert!(report.failures()[1].contains("no committed baseline"));
    }

    #[test]
    fn gate_matching_fails_both_ways() {
        let committed = parse_baseline_rows(
            "{\"variant\": \"a\", \"threads\": 2, \"mean_ns_per_op\": 100.0, \"max_ns_per_op\": 110.0}\n\
             {\"variant\": \"b\", \"threads\": 2, \"mean_ns_per_op\": 100.0, \"max_ns_per_op\": 110.0}\n\
             {\"variant\": \"a\", \"threads\": 4, \"mean_ns_per_op\": 100.0, \"max_ns_per_op\": 110.0}\n",
        );
        let keys = ["variant", "threads"];
        let sample = |variant: &str, threads: usize, fresh_min: f64| {
            (vec![variant.to_string(), threads.to_string()], fresh_min)
        };
        // Every committed row is produced and within tolerance.
        let all = [
            sample("a", 2, 100.0),
            sample("b", 2, 130.0),
            sample("a", 4, 90.0),
        ];
        let report = GateReport::compare(&committed, &keys, &all);
        assert!(report.passed(), "{:?}", report.failures());
        assert_eq!(report.checked(), 3);

        // A fresh sample with no committed row, and a committed row with no
        // fresh sample, both fail; the matched rows are still checked.
        let drifted = [
            sample("a", 2, 100.0),
            sample("c", 2, 100.0),
            sample("a", 4, 90.0),
        ];
        let report = GateReport::compare(&committed, &keys, &drifted);
        assert!(!report.passed());
        assert_eq!(report.checked(), 2);
        assert_eq!(
            report.failures(),
            [
                "variant c, threads 2: no committed baseline row",
                "variant b, threads 2: committed row has no fresh sample",
            ]
        );

        // A regression on a matched row is reported as before.
        let slow = [
            sample("a", 2, 200.0),
            sample("b", 2, 100.0),
            sample("a", 4, 90.0),
        ];
        let report = GateReport::compare(&committed, &keys, &slow);
        assert_eq!(report.failures().len(), 1);
        assert!(report.failures()[0].starts_with("variant a, threads 2: best replay 200.0"));
    }
}
