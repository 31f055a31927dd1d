//! The versioned `BENCH_*.json` report model: datapoints, paper-expected ranges and
//! pass/fail verdicts.
//!
//! Every suite produces a list of [`Datapoint`]s; each datapoint carries its measured
//! metrics plus, where the paper pins down an expected magnitude, an [`Expected`] range
//! on one of those metrics. The verdict is computed at construction time, so a report is
//! self-describing: CI fails when any datapoint's verdict is `"fail"`. Every value is
//! deterministic, so [`diff`] compares two serialized reports exactly; `bench_diff` and
//! the golden-file test both print its output.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::Json;

/// Version of the JSON schema emitted by [`BenchReport::to_json`]. Bump only with a
/// matching update to the golden-file test and a re-blessed `baseline.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// How a datapoint compares to its paper-expected range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The checked metric lies inside the expected range.
    Pass,
    /// The checked metric lies outside the expected range.
    Fail,
    /// No expected range is attached (context/baseline datapoint).
    Info,
}

impl Verdict {
    /// The schema's string encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Info => "info",
        }
    }
}

/// A paper-expected inclusive range on one metric of a datapoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Which metric the range constrains.
    pub metric: &'static str,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

/// One measured datapoint of a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Datapoint {
    /// The suite that produced the datapoint.
    pub suite: &'static str,
    /// Unique name within the suite (e.g. `addition/32b/SIMDRAM:16`).
    pub name: String,
    /// Ordered metric name → value pairs.
    pub metrics: Vec<(&'static str, f64)>,
    /// Optional paper-expected range on one of the metrics.
    pub expected: Option<Expected>,
    /// Verdict of the datapoint against its expected range.
    pub verdict: Verdict,
}

impl Datapoint {
    /// Builds a context datapoint with no expected range (verdict `info`).
    pub fn info(suite: &'static str, name: String, metrics: Vec<(&'static str, f64)>) -> Self {
        Datapoint {
            suite,
            name,
            metrics,
            expected: None,
            verdict: Verdict::Info,
        }
    }

    /// Builds a checked datapoint: the verdict is `pass` iff `expected.metric` is
    /// present in `metrics` and its value lies inside the inclusive range.
    pub fn checked(
        suite: &'static str,
        name: String,
        metrics: Vec<(&'static str, f64)>,
        expected: Expected,
    ) -> Self {
        let verdict = match metrics.iter().find(|(k, _)| *k == expected.metric) {
            Some(&(_, value)) if value >= expected.min && value <= expected.max => Verdict::Pass,
            _ => Verdict::Fail,
        };
        Datapoint {
            suite,
            name,
            metrics,
            expected: Some(expected),
            verdict,
        }
    }

    /// The value of a metric, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for &(name, value) in &self.metrics {
            metrics.set(name, Json::Num(value));
        }
        let mut dp = Json::obj();
        dp.set("suite", Json::Str(self.suite.to_string()));
        dp.set("name", Json::Str(self.name.clone()));
        dp.set("metrics", metrics);
        match &self.expected {
            Some(expected) => {
                let mut e = Json::obj();
                e.set("metric", Json::Str(expected.metric.to_string()));
                e.set("min", Json::Num(expected.min));
                e.set("max", Json::Num(expected.max));
                dp.set("expected", e);
            }
            None => dp.set("expected", Json::Null),
        }
        dp.set("verdict", Json::Str(self.verdict.as_str().to_string()));
        dp
    }
}

/// A complete evaluation report: the datapoints of every suite that ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Names of the suites that ran, in execution order.
    pub suites: Vec<&'static str>,
    /// All datapoints, grouped by suite in execution order.
    pub datapoints: Vec<Datapoint>,
}

impl BenchReport {
    /// Datapoints whose verdict is [`Verdict::Fail`].
    pub fn failures(&self) -> Vec<&Datapoint> {
        self.datapoints
            .iter()
            .filter(|d| d.verdict == Verdict::Fail)
            .collect()
    }

    /// Number of datapoints with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.datapoints
            .iter()
            .filter(|d| d.verdict == verdict)
            .count()
    }

    /// Serializes the report to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema_version", Json::Num(SCHEMA_VERSION as f64));
        root.set("tool", Json::Str("simdram-bench".to_string()));
        root.set(
            "suites",
            Json::Arr(
                self.suites
                    .iter()
                    .map(|s| Json::Str(s.to_string()))
                    .collect(),
            ),
        );
        root.set(
            "datapoints",
            Json::Arr(self.datapoints.iter().map(Datapoint::to_json).collect()),
        );
        let mut summary = Json::obj();
        summary.set("total", Json::Num(self.datapoints.len() as f64));
        summary.set("pass", Json::Num(self.count(Verdict::Pass) as f64));
        summary.set("fail", Json::Num(self.count(Verdict::Fail) as f64));
        summary.set("info", Json::Num(self.count(Verdict::Info) as f64));
        root.set("summary", summary);
        root
    }
}

/// One value that differs between two serialized reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// Where the value sits: object members joined by `.`, datapoints addressed as
    /// `datapoints[<suite>/<name>]`, other array items by index
    /// (e.g. `datapoints[kernels/knn].metrics.speedup_vs_cpu`).
    pub path: String,
    /// The old report's value as serialized, `None` when the path is new.
    pub old: Option<String>,
    /// The new report's value as serialized, `None` when the path is missing.
    pub new: Option<String>,
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: &Option<String>| v.as_deref().unwrap_or("(absent)").to_string();
        let (old, new) = (show(&self.old), show(&self.new));
        write!(f, "{}: {old} -> {new}", self.path)
    }
}

/// Every value that differs between two serialized reports — changed, missing from
/// `new` or new in it — in `old`'s document order, then `new`'s additions. Values are
/// compared as serialized, so any change to a number, however small, is reported.
pub fn diff(old: &Json, new: &Json) -> Vec<Change> {
    let (mut old_values, mut new_values) = (Vec::new(), Vec::new());
    flatten(old, String::new(), &mut old_values);
    flatten(new, String::new(), &mut new_values);
    let old_paths: BTreeSet<&str> = old_values.iter().map(|(p, _)| p.as_str()).collect();
    let new_index: BTreeMap<&str, &str> = new_values
        .iter()
        .map(|(p, v)| (p.as_str(), v.as_str()))
        .collect();
    let mut changes = Vec::new();
    for (path, value) in &old_values {
        match new_index.get(path.as_str()) {
            Some(fresh) if *fresh == value => {}
            fresh => changes.push(Change {
                path: path.clone(),
                old: Some(value.clone()),
                new: fresh.map(|v| v.to_string()),
            }),
        }
    }
    for (path, value) in &new_values {
        if !old_paths.contains(path.as_str()) {
            changes.push(Change {
                path: path.clone(),
                old: None,
                new: Some(value.clone()),
            });
        }
    }
    changes
}

/// Appends every leaf (scalar, or empty object/array) under `value` as
/// `(path, serialized value)`.
fn flatten(value: &Json, path: String, out: &mut Vec<(String, String)>) {
    match value {
        Json::Obj(members) if !members.is_empty() => {
            for (key, member) in members {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(member, child, out);
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (index, item) in items.iter().enumerate() {
                let key = match (
                    item.get("suite").and_then(Json::as_str),
                    item.get("name").and_then(Json::as_str),
                ) {
                    (Some(suite), Some(name)) => format!("{suite}/{name}"),
                    _ => index.to_string(),
                };
                flatten(item, format!("{path}[{key}]"), out);
            }
        }
        leaf => out.push((path, leaf.to_pretty_string().trim_end().to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(metric: &'static str, min: f64, max: f64) -> Expected {
        Expected { metric, min, max }
    }

    #[test]
    fn checked_datapoints_compute_their_verdict() {
        let inside =
            Datapoint::checked("s", "a".into(), vec![("x", 5.0)], expected("x", 1.0, 10.0));
        assert_eq!(inside.verdict, Verdict::Pass);
        let outside =
            Datapoint::checked("s", "b".into(), vec![("x", 50.0)], expected("x", 1.0, 10.0));
        assert_eq!(outside.verdict, Verdict::Fail);
        // A range on a missing metric can never pass.
        let missing =
            Datapoint::checked("s", "c".into(), vec![("y", 5.0)], expected("x", 0.0, 1.0));
        assert_eq!(missing.verdict, Verdict::Fail);
        assert_eq!(inside.metric("x"), Some(5.0));
        assert_eq!(inside.metric("nope"), None);
    }

    #[test]
    fn report_serializes_schema_fields_and_summary() {
        let report = BenchReport {
            suites: vec!["s"],
            datapoints: vec![
                Datapoint::checked("s", "a".into(), vec![("x", 5.0)], expected("x", 1.0, 10.0)),
                Datapoint::info("s", "b".into(), vec![("y", 2.0)]),
            ],
        };
        let json = report.to_json();
        assert_eq!(json.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(json.get("tool").unwrap().as_str(), Some("simdram-bench"));
        let summary = json.get("summary").unwrap();
        assert_eq!(summary.get("total").unwrap().as_f64(), Some(2.0));
        assert_eq!(summary.get("pass").unwrap().as_f64(), Some(1.0));
        assert_eq!(summary.get("fail").unwrap().as_f64(), Some(0.0));
        assert_eq!(summary.get("info").unwrap().as_f64(), Some(1.0));
        // Round-trips through the writer/parser.
        let text = json.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap().to_pretty_string(), text);
        assert!(report.failures().is_empty());
    }

    fn two_point_report() -> BenchReport {
        BenchReport {
            suites: vec!["s"],
            datapoints: vec![
                Datapoint::checked("s", "a".into(), vec![("x", 5.0)], expected("x", 1.0, 10.0)),
                Datapoint::info("s", "b".into(), vec![("y", 2.0)]),
            ],
        }
    }

    fn diff_lines(old: &BenchReport, new: &BenchReport) -> Vec<String> {
        diff(&old.to_json(), &new.to_json())
            .iter()
            .map(Change::to_string)
            .collect()
    }

    #[test]
    fn identical_reports_have_no_diff() {
        let json = two_point_report().to_json();
        let reparsed = Json::parse(&json.to_pretty_string()).unwrap();
        assert!(diff(&json, &reparsed).is_empty());
    }

    #[test]
    fn diff_reports_a_one_ulp_change_as_old_to_new() {
        let old = two_point_report();
        let mut new = two_point_report();
        new.datapoints[1].metrics[0].1 = f64::from_bits(2.0f64.to_bits() + 1);
        assert_eq!(
            diff_lines(&old, &new),
            vec!["datapoints[s/b].metrics.y: 2 -> 2.0000000000000004"]
        );
    }

    #[test]
    fn diff_reports_missing_and_new_values_whatever_the_verdict() {
        let old = two_point_report();
        let mut new = two_point_report();
        // The checked datapoint loses its metric (and so its pass verdict); the info
        // datapoint disappears; a new metric and a new datapoint appear.
        new.datapoints[0] =
            Datapoint::checked("s", "a".into(), vec![("z", 1.0)], expected("x", 1.0, 10.0));
        new.datapoints.pop();
        new.datapoints
            .push(Datapoint::info("s", "c".into(), vec![("w", 3.0)]));
        assert_eq!(
            diff_lines(&old, &new),
            vec![
                "datapoints[s/a].metrics.x: 5 -> (absent)",
                "datapoints[s/a].verdict: \"pass\" -> \"fail\"",
                "datapoints[s/b].suite: \"s\" -> (absent)",
                "datapoints[s/b].name: \"b\" -> (absent)",
                "datapoints[s/b].metrics.y: 2 -> (absent)",
                "datapoints[s/b].expected: null -> (absent)",
                "datapoints[s/b].verdict: \"info\" -> (absent)",
                "summary.pass: 1 -> 0",
                "summary.fail: 0 -> 1",
                "datapoints[s/a].metrics.z: (absent) -> 1",
                "datapoints[s/c].suite: (absent) -> \"s\"",
                "datapoints[s/c].name: (absent) -> \"c\"",
                "datapoints[s/c].metrics.w: (absent) -> 3",
                "datapoints[s/c].expected: (absent) -> null",
                "datapoints[s/c].verdict: (absent) -> \"info\"",
            ]
        );
    }
}
