//! Integration tests for the `gates` command line: its only inputs are
//! `--iters N` and gate names, and anything else is refused with the
//! usage line and exit 2 before a single measurement runs.

use std::process::Command;

/// Runs `gates` with `args`, asserts exit 2 with the usage line, and
/// returns stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gates")).args(args).output().expect("gates runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: gates"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} measured before refusing");
    stderr
}

#[test]
fn gates_rejects_malformed_iters() {
    // Zero timed runs has no best-of-N; a non-number must not silently
    // fall back to the default.
    for bad in ["0", "abc", "-1"] {
        let stderr = refused(&["--iters", bad]);
        assert!(stderr.contains(&format!("--iters expects a positive integer, got `{bad}`")));
    }
    assert!(refused(&["gc", "--iters"]).contains("--iters needs a value"));
    assert!(refused(&["--iters", "2", "--iters", "3"]).contains("duplicate flag --iters"));
}

#[test]
fn gates_rejects_unknown_flags_and_gates() {
    // The old per-binary dialect is gone: no record to write or read.
    for flag in ["--check", "--out", "--baseline", "--turbo"] {
        assert!(refused(&[flag]).contains(&format!("unknown flag {flag}")));
    }
    assert!(refused(&["gc", "heap"]).contains("unknown gate `heap`"));
    assert!(refused(&["lazy", "lazy"]).contains("duplicate gate `lazy`"));
}
