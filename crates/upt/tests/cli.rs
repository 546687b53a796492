//! Integration tests for the `upt_run` command-line tool.

use std::process::Command;

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jvolve-upt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = temp_dir().join(name);
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
fn upt_run_diffs_and_writes_artifacts() {
    let old = write_temp("v1.mj", V1);
    let new = write_temp("v2.mj", V2);
    let spec = write_temp("spec.json", "");
    let tf = write_temp("transformers.mj", "");

    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args([
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
            "--prefix",
            "vX_",
            "--spec",
            spec.to_str().unwrap(),
            "--transformers",
            tf.to_str().unwrap(),
        ])
        .output()
        .expect("upt_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("Counter: ClassUpdate"), "{stdout}");
    assert!(stdout.contains("E&C) systems could apply this update: no"), "{stdout}");
    assert!(stdout.contains("restricted methods:"), "{stdout}");

    let spec_json = std::fs::read_to_string(&spec).unwrap();
    let parsed = jvolve::UpdateSpec::from_json(&spec_json).expect("valid spec file");
    assert_eq!(parsed.version_prefix, "vX_");
    let tf_src = std::fs::read_to_string(&tf).unwrap();
    assert!(tf_src.contains("jvolve_object_Counter"), "{tf_src}");
    assert!(tf_src.contains("Counter.n = vX_Counter.n;"), "{tf_src}");
}

#[test]
fn upt_run_emits_a_loadable_bundle() {
    let old = write_temp("b_v1.mj", V1);
    let new = write_temp("b_v2.mj", V2);
    let bundle = temp_dir().join("bundle");
    let _ = std::fs::remove_dir_all(&bundle);

    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args([
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
            "--prefix",
            "vB_",
            "--emit",
            bundle.to_str().unwrap(),
        ])
        .output()
        .expect("upt_run runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let update = jvolve_upt::load_bundle(&bundle).expect("bundle loads and re-verifies");
    assert_eq!(update.spec.version_prefix, "vB_");
    assert!(update.transformers_source().contains("jvolve_object_Counter"));
}

#[test]
fn upt_run_applies_per_class_overrides() {
    let old = write_temp("o_v1.mj", V1);
    let new = write_temp("o_v2.mj", V2);
    let ovr = write_temp(
        "counter_override.mj",
        "  static method jvolve_class_Counter(): void {
         Counter.n = vO_Counter.n;
         Counter.audit = 42;
       }
       static method jvolve_object_Counter(to: Counter, from: vO_Counter): void { }\n",
    );
    let tf = write_temp("o_transformers.mj", "");

    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args([
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
            "--prefix",
            "vO_",
            "--override",
            &format!("Counter={}", ovr.to_str().unwrap()),
            "--transformers",
            tf.to_str().unwrap(),
        ])
        .output()
        .expect("upt_run runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("transformer overrides applied: Counter"), "{stdout}");
    let tf_src = std::fs::read_to_string(&tf).unwrap();
    assert!(tf_src.contains("Counter.audit = 42;"), "{tf_src}");
}

#[test]
fn upt_run_semantic_failures_exit_1() {
    // Identical versions: nothing to update.
    let old = write_temp("same1.mj", V1);
    let new = write_temp("same2.mj", V1);
    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args(["--old", old.to_str().unwrap(), "--new", new.to_str().unwrap()])
        .output()
        .expect("upt_run runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("changes nothing"));

    // An override for a class without a class update is rejected.
    let new2 = write_temp("sem_v2.mj", V2);
    let ovr = write_temp("ghost.mj", "  // nothing\n");
    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args([
            "--old",
            old.to_str().unwrap(),
            "--new",
            new2.to_str().unwrap(),
            "--override",
            &format!("Ghost={}", ovr.to_str().unwrap()),
        ])
        .output()
        .expect("upt_run runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("Ghost has no class update"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A syntactically broken override fails preparation, not mid-update.
    let broken = write_temp("broken.mj", "  static method jvolve_object_Counter(\n");
    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args([
            "--old",
            old.to_str().unwrap(),
            "--new",
            new2.to_str().unwrap(),
            "--override",
            &format!("Counter={}", broken.to_str().unwrap()),
        ])
        .output()
        .expect("upt_run runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad transformers"));

    // Unreadable inputs are reported, not panicked on.
    let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
        .args(["--old", "/nonexistent/v1.mj", "--new", new2.to_str().unwrap()])
        .output()
        .expect("upt_run runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/v1.mj"));
}

#[test]
fn upt_run_rejects_malformed_command_lines() {
    let old = write_temp("strict_v1.mj", V1);
    let new = write_temp("strict_v2.mj", V2);
    let (old, new) = (old.to_str().unwrap(), new.to_str().unwrap());

    // (args, expected stderr needle) — every case must exit 2 and print
    // the usage line.
    let cases: &[(&[&str], &str)] = &[
        (&[], "--old is required"),
        (&["--old", old], "--new is required"),
        (&["--old", old, "--new", new, "--turbo"], "unknown flag --turbo"),
        (&["--old", old, "--new", new, "--prefix"], "--prefix needs a value"),
        (&["--old", old, "--old", old, "--new", new], "duplicate flag --old"),
        (&["--old", old, "--new", new, "--prefix", "--emit"], "--prefix needs a value, got flag"),
        (&["--old", old, "--new", new, "stray.mj"], "unexpected argument stray.mj"),
        (&["--old", old, "--new", new, "--override", "Counter"], "--override needs Class=file.mj"),
        (&["--old", old, "--new", new, "--override", "=x.mj"], "--override needs Class=file.mj"),
        (
            &["--old", old, "--new", new, "--override", "A=a.mj", "--override", "A=b.mj"],
            "duplicate --override for class A",
        ),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_upt_run"))
            .args(*args)
            .output()
            .expect("upt_run runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
