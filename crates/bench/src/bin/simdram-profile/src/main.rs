//! `simdram-profile`: host-time benchmark of the SIMDRAM simulator.
//!
//! ```text
//! simdram-profile --workload <kernels|kernels_bankstate|serve|sharded_scan|all>
//!                 [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--chrome-trace FILE]
//! ```
//!
//! Prints every end-to-end metric (or, with `--trace 1`, every per-layer metric) by name
//! with its unit, then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 if any op failed, 2 on a usage error and
//! 64 when a `SIMDRAM_*` variable is set. See README.md for the metrics and workloads.

#![forbid(unsafe_code)]

mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use simdram_bench::json::Json;

use crate::run::{Outcome, Settings};
use crate::workloads::{Scale, NAMES};

const USAGE: &str =
    "usage: simdram-profile --workload <kernels|kernels_bankstate|serve|sharded_scan|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--chrome-trace FILE]";

/// Exit code of a run refused because a `SIMDRAM_*` override is set (EX_USAGE).
const EXIT_ENV: u8 = 64;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
        chrome_trace: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = number(&value)?,
            "--seconds" => parsed.seconds = number(&value)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => parsed.out = Some(value.into()),
            "--chrome-trace" => parsed.chrome_trace = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload != "all" && !NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if parsed.chrome_trace.is_some() && (!parsed.trace || parsed.workload == "all") {
        return Err("--chrome-trace needs --trace 1 and a single workload".into());
    }
    Ok(parsed)
}

/// The first `SIMDRAM_*` variable set. The library's test constructors read these as
/// configuration overrides (CI sets them), so a run under one would not measure the
/// configuration the benchmark declares.
fn simdram_override(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Option<String> {
    vars.into_iter()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .find(|key| key.starts_with("SIMDRAM_"))
}

/// The result object, on one line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    let mut result = Json::obj();
    result.set("correct", Json::Bool(correct));
    result.set("attempted", Json::Num(attempted as f64));
    result.set("failed", Json::Num(failed as f64));
    result.set("metrics", Json::Obj(metrics));
    // The pretty writer puts every value on its own line and escapes newlines inside
    // strings, so trimming and joining the lines only drops layout whitespace.
    result.to_pretty_string().lines().map(str::trim).collect()
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", Json::Num(value));
    m.set("unit", Json::Str(unit.to_string()));
    m
}

fn print_outcome(name: &str, args: &Args, outcome: &Outcome) {
    println!(
        "== {name} (seed {}): {} iterations measured, {} ops attempted, {} failed",
        args.seed, outcome.samples, outcome.attempted, outcome.failed
    );
    for (metric, value) in &outcome.metrics {
        let bound = metric
            .bound
            .map(|b| format!(", bound {}%", b * 100.0))
            .unwrap_or_default();
        println!(
            "  {:<32} {:>16.6} {:<10} ({} is better{bound})",
            metric.name,
            value,
            metric.unit,
            metric.better.name()
        );
    }
    for problem in &outcome.problems {
        eprintln!("{name}: {problem}");
    }
}

fn write_file(path: &PathBuf, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints the result line last on standard output, and to `--out` when given.
fn emit(args: &Args, line: &str) -> Result<(), String> {
    if let Some(path) = &args.out {
        write_file(path, &format!("{line}\n"))?;
    }
    println!("{line}");
    Ok(())
}

fn run_one(args: &Args) -> Result<bool, String> {
    let settings = Settings {
        seconds: args.seconds as f64,
        min_iterations: 100,
        setups: 5,
        setup_seconds: 1.0,
        trace: args.trace,
    };
    let outcome = workloads::run_named(&args.workload, args.seed, Scale::Full, &settings)
        .expect("workload names are validated while parsing")
        .map_err(|e| format!("{}: {e}", args.workload))?;
    print_outcome(&args.workload, args, &outcome);
    if let (Some(path), Some(rec)) = (&args.chrome_trace, &outcome.traced) {
        write_file(path, &rec.chrome_trace().to_pretty_string())?;
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(m, v)| (m.name.to_string(), metric_json(*v, m.unit)))
        .collect();
    let line = result_line(
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics,
    );
    emit(args, &line)?;
    Ok(outcome.correct())
}

/// Runs every workload in a child process of its own, so set-up time and peak memory
/// are per workload, and combines their results under `<workload>/<metric>` names.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        let Ok(result) = Json::parse(last) else {
            return Err(format!(
                "{name} printed no result (exit status {})",
                output.status
            ));
        };
        correct &= output.status.success() && result.get("correct") == Some(&Json::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (metric, value) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            metrics.push((format!("{name}/{metric}"), value.clone()));
        }
    }
    emit(args, &result_line(correct, attempted, failed, metrics))?;
    Ok(correct)
}

fn main() -> ExitCode {
    if let Some(var) = simdram_override(std::env::vars_os()) {
        eprintln!("simdram-profile: {var} is set; unset every SIMDRAM_* variable to measure the declared configuration");
        return ExitCode::from(EXIT_ENV);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("simdram-profile: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("simdram-profile: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, END_TO_END, PER_LAYER};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_invocation() {
        let parsed = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        let parsed = parsed.expect("valid");
        assert_eq!(
            (parsed.workload.as_str(), parsed.seed, parsed.seconds),
            ("serve", 7, 3)
        );
        assert!(parsed.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "kernels", "--seed"]).is_err());
        assert!(args(&[
            "--workload",
            "all",
            "--trace",
            "1",
            "--chrome-trace",
            "t.json"
        ])
        .is_err());
    }

    #[test]
    fn any_simdram_variable_is_named() {
        let vars = |keys: &[&str]| -> Vec<(OsString, OsString)> {
            keys.iter()
                .map(|k| (OsString::from(k), OsString::from("x")))
                .collect()
        };
        assert_eq!(simdram_override(vars(&["PATH", "HOME"])), None);
        assert_eq!(
            simdram_override(vars(&["PATH", "SIMDRAM_FUNC"])).as_deref(),
            Some("SIMDRAM_FUNC")
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let metrics = vec![("iter_ms_p50".to_string(), metric_json(1.25, "ms"))];
        let line = result_line(true, 3, 0, metrics);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let value = parsed.get("metrics").and_then(|m| m.get("iter_ms_p50"));
        assert_eq!(value.and_then(|v| v.get("value")), Some(&Json::Num(1.25)));
    }

    /// `BENCHMARK.json` at the repository root declares exactly the metrics and
    /// workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let check = |key: &str, table: &[Metric]| {
            let declared = json.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    d.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    d.get("better").and_then(Json::as_str),
                    Some(m.better.name())
                );
                assert_eq!(d.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, NAMES);
    }
}
