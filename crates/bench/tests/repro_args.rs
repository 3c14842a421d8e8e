//! `repro --scale` takes a finite number >= 0 whose largest dataset a
//! network file can hold; anything else is a usage error (exit 2, usage on
//! stderr) before a dataset is generated.

use std::process::Command;

fn repro(scale: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table3", "--scale", scale])
        .output()
        .expect("repro runs")
}

fn assert_usage_error(scale: &str) {
    let out = repro(scale);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--scale {scale}: {stderr}");
    assert!(stderr.contains("usage: repro"), "--scale {scale}: {stderr}");
    assert!(out.stdout.is_empty(), "--scale {scale} printed tables");
}

#[test]
fn infinite_scale_is_a_usage_error() {
    assert_usage_error("inf");
}

#[test]
fn scale_past_the_vertex_cap_is_a_usage_error() {
    assert_usage_error("1e9");
}

#[test]
fn nan_scale_is_a_usage_error() {
    assert_usage_error("nan");
}

#[test]
fn negative_scale_is_a_usage_error() {
    assert_usage_error("-1");
}

/// Scale 0 stays valid: CI's chaos step and the chaos test run at it.
#[test]
fn zero_scale_runs() {
    let out = repro("0");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3"));
}
