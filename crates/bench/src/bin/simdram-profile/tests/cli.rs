//! The command line's refusals, checked on the built program.

use std::process::{Command, Output};

fn profile(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simdram-profile"))
        .args(args)
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("the program starts")
}

#[test]
fn refuses_to_run_under_a_simdram_override() {
    let out = profile(
        &["--workload", "kernels", "--seconds", "1"],
        &[("SIMDRAM_EXEC", "threaded")],
    );
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SIMDRAM_EXEC"));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}

#[test]
fn rejects_unknown_workloads_without_a_result() {
    let out = profile(&["--workload", "nope"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
