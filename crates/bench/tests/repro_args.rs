//! `repro --scale` takes a finite number >= 0 whose largest dataset a
//! network file can hold, and `repro --queries` a count of at least 1;
//! anything else is a usage error (exit 2, usage on stderr) before a
//! dataset is generated.

use std::process::Command;

fn repro(flag: &str, value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table3", flag, value])
        .output()
        .expect("repro runs")
}

fn assert_usage_error(flag: &str, value: &str) {
    let out = repro(flag, value);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{flag} {value}: {stderr}");
    assert!(out.stdout.is_empty(), "{flag} {value} printed tables");
}

#[test]
fn infinite_scale_is_a_usage_error() {
    assert_usage_error("--scale", "inf");
}

#[test]
fn scale_past_the_vertex_cap_is_a_usage_error() {
    assert_usage_error("--scale", "1e9");
}

#[test]
fn nan_scale_is_a_usage_error() {
    assert_usage_error("--scale", "nan");
}

#[test]
fn negative_scale_is_a_usage_error() {
    assert_usage_error("--scale", "-1");
}

/// Zero queries would print the clock's overhead as a per-query time.
#[test]
fn zero_queries_is_a_usage_error() {
    assert_usage_error("--queries", "0");
}

/// Scale 0 stays valid: every preset floors its counts, so it still
/// generates a (tiny) network and the tables render over it.
#[test]
fn zero_scale_runs() {
    let out = repro("--scale", "0");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3"));
}
