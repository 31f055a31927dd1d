//! Golden-file test for the whole `simdram-bench --suite all` JSON report.
//!
//! Guards three properties of the evaluation pipeline:
//!
//! 1. **Round-trip stability** — the report survives `parse(write(report))`
//!    byte-identically, so `bench_diff` always reads exactly what was written.
//! 2. **Schema stability** — the schema version and the datapoint field set cannot
//!    change silently.
//! 3. **Value stability** — every value is deterministic (seeded Monte Carlo, analytic
//!    models, no host time), so the serialized report must match the committed
//!    `crates/bench/baseline.json` byte for byte. On a mismatch the failure lists every
//!    moved value as `old -> new` and every `SIMDRAM_*` variable set in the process.
//!
//! After an *intentional* model change, re-bless the baseline with
//! `SIMDRAM_BLESS=1 cargo test -p simdram-bench --test golden_schema` (refused while
//! any other `SIMDRAM_*` variable is set) and commit the diff alongside the change that
//! caused it.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use simdram_bench::json::Json;
use simdram_bench::report::{diff, Change, SCHEMA_VERSION};
use simdram_bench::suites::{run_suites, Suite};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baseline.json")
}

/// The `--suite all` report, generated once per test process.
fn report_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| run_suites(&Suite::ALL).to_json().to_pretty_string())
}

#[test]
fn report_round_trips_byte_identically() {
    let text = report_text();
    let parsed = Json::parse(text).expect("generated report parses");
    assert_eq!(parsed.to_pretty_string(), text);
}

#[test]
fn schema_version_and_field_set_are_stable() {
    let json = Json::parse(report_text()).unwrap();
    assert_eq!(
        json.get("schema_version").and_then(Json::as_f64),
        Some(SCHEMA_VERSION as f64)
    );

    let top_level: BTreeSet<&str> = json
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        top_level,
        BTreeSet::from(["schema_version", "tool", "suites", "datapoints", "summary"])
    );

    let datapoints = json.get("datapoints").and_then(Json::as_arr).unwrap();
    assert!(!datapoints.is_empty());
    let mut keys = BTreeSet::new();
    for dp in datapoints {
        let fields: BTreeSet<&str> = dp
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            fields,
            BTreeSet::from(["suite", "name", "metrics", "expected", "verdict"]),
            "datapoint field set drifted"
        );
        // `report::diff` addresses datapoints by suite/name.
        let name = |field| dp.get(field).and_then(Json::as_str).unwrap();
        let key = format!("{}/{}", name("suite"), name("name"));
        assert!(keys.insert(key.clone()), "duplicate datapoint {key}");
    }

    let summary: BTreeSet<&str> = json
        .get("summary")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(summary, BTreeSet::from(["total", "pass", "fail", "info"]));
}

/// Every `SIMDRAM_*` override set in this process, as `NAME=value`.
fn overrides() -> Vec<String> {
    std::env::vars()
        .filter(|(name, _)| name.starts_with("SIMDRAM_") && name != "SIMDRAM_BLESS")
        .map(|(name, value)| format!("{name}={value}"))
        .collect()
}

#[test]
fn report_matches_the_committed_golden_file() {
    let text = report_text();
    let path = golden_path();
    if std::env::var_os("SIMDRAM_BLESS").is_some() {
        let overrides = overrides();
        assert!(
            overrides.is_empty(),
            "refusing to bless a report made under {overrides:?}"
        );
        std::fs::write(&path, text).expect("bless golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if text == golden {
        return;
    }
    let golden_json =
        Json::parse(&golden).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
    let changes = diff(&golden_json, &Json::parse(text).unwrap());
    let overrides = overrides();
    panic!(
        "the --suite all report differs from {} in {} value(s) (old -> new):\n{}\n\
         SIMDRAM_* variables set in this process: {}\n\
         If the change is intentional, re-bless with \
         SIMDRAM_BLESS=1 cargo test -p simdram-bench --test golden_schema and commit.",
        path.display(),
        changes.len(),
        changes
            .iter()
            .map(Change::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
        if overrides.is_empty() {
            "none".to_string()
        } else {
            overrides.join(" ")
        }
    );
}
