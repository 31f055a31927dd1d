//! `bench_diff` — the exact report differ.
//!
//! ```text
//! cargo run --release -p simdram-bench --bin bench_diff -- \
//!     crates/bench/baseline.json BENCH_23.json
//! ```
//!
//! Every value of a `simdram-bench` report is deterministic (seeded Monte Carlo,
//! analytic models, no host time), so two reports of the same code are identical. This
//! prints every value that differs between the two reports — changed, missing or new —
//! as `path: old -> new`, and exits non-zero if there is any. It uses the same
//! comparison ([`simdram_bench::report::diff`]) as the golden-file test. See README §
//! "Evaluation pipeline" for re-blessing the baseline after an intentional change.

use std::process::ExitCode;

use simdram_bench::json::Json;
use simdram_bench::report::diff;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: bench_diff OLD.json NEW.json");
        return ExitCode::from(64);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let changes = diff(&old, &new);
    for change in &changes {
        println!("{change}");
    }
    if changes.is_empty() {
        println!("bench_diff: {new_path} is identical to {old_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_diff: {} value(s) differ from {old_path}; see README \"Evaluation \
             pipeline\" to re-bless the baseline after an intentional change",
            changes.len()
        );
        ExitCode::FAILURE
    }
}
