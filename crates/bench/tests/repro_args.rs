//! `repro --scale` takes a finite number >= 0 whose largest dataset a
//! network file can hold, and `repro --queries` a count of at least 1;
//! anything else is a usage error (exit 2, usage on stderr) before a
//! dataset is generated. So is an experiment name it does not know, the
//! retired ones included.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed tables");
}

#[test]
fn infinite_scale_is_a_usage_error() {
    assert_usage_error(&["table3", "--scale", "inf"]);
}

#[test]
fn scale_past_the_vertex_cap_is_a_usage_error() {
    assert_usage_error(&["table3", "--scale", "1e9"]);
}

#[test]
fn nan_scale_is_a_usage_error() {
    assert_usage_error(&["table3", "--scale", "nan"]);
}

#[test]
fn negative_scale_is_a_usage_error() {
    assert_usage_error(&["table3", "--scale", "-1"]);
}

/// Zero queries would print the clock's overhead as a per-query time.
#[test]
fn zero_queries_is_a_usage_error() {
    assert_usage_error(&["table3", "--queries", "0"]);
}

/// Scale 0 stays valid: every preset floors its counts, so it still
/// generates a (tiny) network and the tables render over it.
#[test]
fn zero_scale_runs() {
    let out = repro(&["table3", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3"));
}

/// DAG reduction is no longer an experiment: its name is unknown.
#[test]
fn retired_reduction_is_a_usage_error() {
    assert_usage_error(&["reduction"]);
}
