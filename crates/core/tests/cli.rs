//! Integration tests for the `jvolve_run` command-line tool. (The update
//! preparation CLI lives in `crates/upt` as `upt_run`, tested there.)

use std::process::Command;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jvolve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const V1: &str = "class Counter {
  static field n: int;
  static method main(): void {
    var i: int = 0;
    while (i < 3) { Counter.n = Counter.n + 1; Sys.printInt(Counter.n); i = i + 1; }
  }
}";

const V2: &str = "class Counter {
  static field n: int;
  static field audit: int;
  static method main(): void {
    var i: int = 0;
    while (i < 3) { Counter.n = Counter.n + 1; Sys.printInt(Counter.n); i = i + 1; }
  }
}";

#[test]
fn jvolve_run_executes_and_updates() {
    let old = write_temp("run_v1.mj", V1);
    let new = write_temp("run_v2.mj", V2);
    let trace = write_temp("trace.json", "");
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            old.to_str().unwrap(),
            "--main",
            "Counter.main",
            "--update",
            new.to_str().unwrap(),
            "--after",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("jvolve_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains('3'), "program output present: {stdout}");
    assert!(stderr.contains("updated"), "update applied: {stderr}");

    // The phase-event trace was written and tells the whole story.
    let kinds = read_trace_events(&trace, "eager");
    assert_eq!(kinds.first().map(String::as_str), Some("phase_entered"), "{kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("committed"), "{kinds:?}");
}

/// Parses a trace file, asserting the v2 schema envelope and the expected
/// migration mode, and returns the event kinds in order.
fn read_trace_events(path: &std::path::Path, expect_mode: &str) -> Vec<String> {
    let trace_json = std::fs::read_to_string(path).expect("trace file written");
    let parsed = jvolve_json::Json::parse(&trace_json).expect("trace is valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(jvolve::TRACE_SCHEMA),
        "trace carries the schema tag"
    );
    assert_eq!(parsed.get("mode").and_then(|v| v.as_str()), Some(expect_mode));
    trace_events(path)
        .iter()
        .filter_map(|e| e.get("event").and_then(|v| v.as_str()).map(str::to_string))
        .collect()
}

/// The event objects of a trace file.
fn trace_events(path: &std::path::Path) -> Vec<jvolve_json::Json> {
    let trace_json = std::fs::read_to_string(path).expect("trace file written");
    let parsed = jvolve_json::Json::parse(&trace_json).expect("trace is valid JSON");
    parsed.get("events").and_then(|v| v.as_arr()).expect("trace has an event array").to_vec()
}

// The lazy workload keeps live instances of the changed class so the
// trace exercises the whole epoch: the flip, copy steps, and the copy's
// report as the update's collection.
const LAZY_V1: &str = "class Node { field v: int; }
class Counter {
  static field keep: Node;
  static field n: int;
  static method main(): void {
    Counter.keep = new Node();
    var i: int = 0;
    while (i < 3) { Counter.n = Counter.n + 1; Sys.printInt(Counter.n); i = i + 1; }
  }
}";

const LAZY_V2: &str = "class Node { field v: int; field extra: int; }
class Counter {
  static field keep: Node;
  static field n: int;
  static method main(): void {
    Counter.keep = new Node();
    var i: int = 0;
    while (i < 3) { Counter.n = Counter.n + 1; Sys.printInt(Counter.n); i = i + 1; }
  }
}";

#[test]
fn jvolve_run_lazy_updates_and_traces_the_epoch() {
    let old = write_temp("lazy_v1.mj", LAZY_V1);
    let new = write_temp("lazy_v2.mj", LAZY_V2);
    let trace = write_temp("lazy_trace.json", "");
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            old.to_str().unwrap(),
            "--main",
            "Counter.main",
            "--update",
            new.to_str().unwrap(),
            "--after",
            "1",
            "--lazy",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("jvolve_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stderr.contains("updated"), "update applied: {stderr}");

    let kinds = read_trace_events(&trace, "lazy");
    assert!(kinds.iter().any(|k| k == "lazy_epoch_begun"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "lazy_copy_step"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "gc_completed"), "the copy is reported: {kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("committed"), "{kinds:?}");

    // `Node`'s default transformer is a pure field copy, so the copy
    // converts every `Node` where it evacuates it and logs nothing.
    let sum = |event: &str, field: &str| -> usize {
        trace_events(&trace)
            .iter()
            .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some(event))
            .map(|e| e.get(field).and_then(|v| v.as_f64()).expect("numeric field") as usize)
            .sum()
    };
    let planned = sum("transformers_run", "objects_planned");
    assert!(planned > 0, "{kinds:?}");
    assert_eq!(sum("transformers_run", "objects_transformed"), planned, "{kinds:?}");
    assert_eq!(sum("lazy_copy_step", "logged"), 0, "a planned Node was logged: {kinds:?}");
    let copied = sum("gc_completed", "copied_words");
    assert!(copied > 0, "{kinds:?}");
    // Every copied cell is a `Node`, which has no reference field.
    let unscanned = sum("gc_completed", "unscanned_words");
    assert_eq!(unscanned, copied, "{kinds:?}");
    assert!(
        stderr.contains(&format!(
            "{planned} of them by copy plan, {copied} words copied, {unscanned} of them unscanned"
        )),
        "{stderr}"
    );
}

#[test]
fn jvolve_run_lazy_batch_requires_lazy() {
    let old = write_temp("lb_v1.mj", V1);
    let new = write_temp("lb_v2.mj", V2);
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            old.to_str().unwrap(),
            "--main",
            "Counter.main",
            "--update",
            new.to_str().unwrap(),
            "--after",
            "1",
            "--lazy-batch",
            "8",
        ])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lazy-batch requires --lazy"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn jvolve_run_lazy_batch_tunes_the_epoch() {
    let old = write_temp("lbt_v1.mj", LAZY_V1);
    let new = write_temp("lbt_v2.mj", LAZY_V2);
    let trace = write_temp("lbt_trace.json", "");
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            old.to_str().unwrap(),
            "--main",
            "Counter.main",
            "--update",
            new.to_str().unwrap(),
            "--after",
            "1",
            "--lazy",
            "--lazy-batch",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("jvolve_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stderr.contains("updated"), "update applied: {stderr}");
    let kinds = read_trace_events(&trace, "lazy");
    assert_eq!(kinds.last().map(String::as_str), Some("committed"), "{kinds:?}");
}

#[test]
fn jvolve_run_rejects_unknown_flags() {
    let old = write_temp("strict_v1.mj", V1);
    // The others are retired flags, the collector-worker count, the
    // dispatch-cache switch and the tier-promotion threshold (each spelled
    // in two pieces so a search of the tree for it finds nothing): they
    // are as unknown as any other name.
    let retired = ["--gc", "-threads"].concat();
    let caches = ["--no-inline", "-caches"].concat();
    let threshold = ["--jit", "-threshold"].concat();
    for extra in [
        &["--turbo"][..],
        &[retired.as_str(), "2"],
        &[caches.as_str()],
        &[threshold.as_str(), "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
            .args([old.to_str().unwrap(), "--main", "Counter.main"])
            .args(extra)
            .output()
            .expect("jvolve_run runs");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {}", extra[0])), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn jvolve_run_rejects_conflicting_and_malformed_flags() {
    let old = write_temp("strict2_v1.mj", V1);
    let path = old.to_str().unwrap();

    // --lazy makes no sense without an update to apply.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--lazy"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--lazy requires --update"));

    // Malformed numbers are rejected, not silently defaulted.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--slices", "many"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--slices expects a number"));

    // A flag given twice is ambiguous.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--slices", "5", "--slices", "6"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate flag --slices"));

    // A value-taking flag at the end of the line is missing its value.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--main"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--main needs a value"));
}

#[test]
fn jvolve_run_jit_flags_follow_the_strict_contract() {
    let old = write_temp("jit_v1.mj", V1);
    let path = old.to_str().unwrap();

    // Happy path: the template JIT off.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--main", "Counter.main", "--no-jit"])
        .output()
        .expect("jvolve_run runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains('3'));

    // A duplicate bool flag.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--main", "Counter.main", "--no-jit", "--no-jit"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate flag --no-jit"));
}

#[test]
fn jvolve_run_applies_a_prepared_bundle() {
    // Emit a UPT bundle, then hand it to jvolve_run whole — no --prefix,
    // no --transformers: the bundle carries both.
    let old = write_temp("bundle_v1.mj", V1);
    let v1 = jvolve_lang::compile(V1).unwrap();
    let v2 = jvolve_lang::compile(V2).unwrap();
    let update = jvolve::Update::prepare(&v1, &v2, "vB_").unwrap();
    let dir = std::env::temp_dir()
        .join(format!("jvolve-cli-{}", std::process::id()))
        .join("bundle");
    let _ = std::fs::remove_dir_all(&dir);
    jvolve::bundle::emit(&dir, &update).unwrap();

    let trace = write_temp("bundle_trace.json", "");
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            old.to_str().unwrap(),
            "--main",
            "Counter.main",
            "--update-bundle",
            dir.to_str().unwrap(),
            "--after",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("jvolve_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stderr.contains("updated"), "update applied: {stderr}");
    let kinds = read_trace_events(&trace, "eager");
    assert_eq!(kinds.last().map(String::as_str), Some("committed"), "{kinds:?}");
}

#[test]
fn jvolve_run_update_bundle_conflicts_are_rejected() {
    let old = write_temp("bc_v1.mj", V1);
    let new = write_temp("bc_v2.mj", V2);
    let path = old.to_str().unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([
            path,
            "--update",
            new.to_str().unwrap(),
            "--update-bundle",
            "some/dir",
            "--after",
            "1",
        ])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--update-bundle conflicts with --update"));

    // The bundle carries its own prefix and transformers.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--update-bundle", "some/dir", "--prefix", "vX_"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--prefix conflicts with --update-bundle"));

    // A missing bundle directory is a runtime failure, not a crash.
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([path, "--main", "Counter.main", "--update-bundle", "/nonexistent/bundle"])
        .output()
        .expect("jvolve_run runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/bundle"));
}

#[test]
fn jvolve_run_reports_missing_main() {
    let old = write_temp("nomain.mj", "class X { }");
    let out = Command::new(env!("CARGO_BIN_EXE_jvolve_run"))
        .args([old.to_str().unwrap(), "--main", "X.main"])
        .output()
        .expect("jvolve_run runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}
