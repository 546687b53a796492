//! Plan ≡ interpreted oracle: lowering pure field-copy object
//! transformers to native copy plans (`jvolve::plan`, applied inside the
//! update-GC copy and the lazy read barrier) must be observationally
//! identical to running every transformer as a compiled method in an
//! interpreter frame, the way the paper does.
//!
//! Each update is applied twice to identically driven VMs — once with the
//! product defaults, once with `ApplyOptions::interpret_all_transformers`
//! — and the two runs must agree on the update's outcome, the post-commit
//! heap and registry fingerprints, the number of objects transformed, and
//! the order-sensitive trace the *user* transformers leave (a planned
//! class runs no code, so it has nothing to order). Covered: all 42
//! consecutive release pairs of the four guest apps plus the §2.3 List
//! example, committed eagerly and lazily — including emailserver 1.3.2,
//! whose `User` transformer (the paper's Figure 3) has a loop, a `new`
//! and calls and so must keep interpreting — and a fixture where an
//! interpreted transformer reads through planned neighbours.

mod common;

use jvolve::{apply, ApplyOptions, Update, UpdateStats};
use jvolve_apps::harness::{
    app_vm_config, apply_prepared_interleaved, bench_apply_options, boot_with,
};
use jvolve_apps::{Emailserver, Ftpserver, GuestApp, Kvstore, Webserver};
use jvolve_vm::{Value, Vm, VmConfig};

/// Figure 3's `User` transformer, instrumented: every run folds the
/// user's name into a rolling hash held in a static of the transformer
/// class, so the *order* the Users were transformed in is observable.
fn traced_figure3() -> String {
    let figure3 = jvolve_apps::emailserver::FIGURE3_USER_METHODS;
    let traced = figure3.replacen(
        "to.username = from.username;",
        "to.username = from.username;
    JvolveTransformers.trace = JvolveTransformers.trace * 31
        + Str.charAt(from.username, 0) + Str.len(from.username);",
        1,
    );
    assert_ne!(
        traced, figure3,
        "Figure 3 no longer starts by copying the username"
    );
    format!("  static field trace: int;\n{traced}")
}

/// Everything the two transformer modes must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    outcome: String,
    heap: u64,
    registry: String,
    transformed: usize,
    trace: i64,
}

fn mode_opts(base: ApplyOptions, interpret_all_transformers: bool) -> ApplyOptions {
    ApplyOptions {
        interpret_all_transformers,
        ..base
    }
}

/// Boots `app` at release `from`, probes it, applies `update`, probes it
/// again. The guest does not run while a lazy epoch copies (the copy steps
/// do all the migrating), so transformer order is deterministic.
fn run_app(
    app: &dyn GuestApp,
    from: usize,
    update: &Update,
    config: VmConfig,
    interpret: bool,
) -> (Observed, Option<UpdateStats>) {
    let mut vm = boot_with(app, from, config);
    for seq in 0..3 {
        app.probe(&mut vm, seq, 20_000)
            .unwrap_or_else(|e| panic!("{}: probe before update failed: {e:?}", app.name()));
    }
    let opts = mode_opts(bench_apply_options(), interpret);
    let (outcome, stats) = apply_prepared_interleaved(&mut vm, update, &opts, None, |_| {});
    if outcome.supported() {
        for seq in 3..6 {
            app.probe(&mut vm, seq, 20_000)
                .unwrap_or_else(|e| panic!("{}: probe after update failed: {e:?}", app.name()));
        }
    }
    let retired = format!("{}JvolveTransformers", update.spec.version_prefix);
    let traced = update.transformers_source().contains("static field trace");
    let trace = match (outcome.supported() && traced).then(|| vm.read_static(&retired, "trace")) {
        Some(Value::Int(t)) => t,
        Some(other) => panic!("trace is {other:?}"),
        None => 0,
    };
    let observed = Observed {
        outcome: outcome.to_string(),
        heap: vm.heap_fingerprint(),
        registry: vm.registry().version_fingerprint(),
        transformed: stats.as_ref().map_or(0, |s| s.objects_transformed),
        trace,
    };
    (observed, stats)
}

#[test]
fn plans_match_interpreted_transformers_on_every_guest_app_pair() {
    let apps: [&dyn GuestApp; 4] = [&Webserver, &Emailserver, &Ftpserver, &Kvstore];
    let figure3 = traced_figure3();
    let (mut pairs, mut planned_objects, mut interpreted_users) = (0, 0, 0);
    for app in apps {
        let versions = app.versions();
        for from in 0..versions.len() - 1 {
            pairs += 1;
            let update = common::upt_prepare_with(app, from, &figure3);
            let figure3_pair = app.name() == "emailserver" && versions[from + 1].label == "1.3.2";
            for lazy_migration in [false, true] {
                let label = format!(
                    "{} update to {} ({})",
                    app.name(),
                    versions[from + 1].label,
                    if lazy_migration { "lazy" } else { "eager" },
                );
                let config = VmConfig { lazy_migration, ..app_vm_config() };
                let (plan, plan_stats) = run_app(app, from, &update, config.clone(), false);
                let (interp, interp_stats) = run_app(app, from, &update, config, true);
                assert_eq!(plan, interp, "{label}: plan and interpreted runs diverge");

                let (Some(plan_stats), Some(interp_stats)) = (plan_stats, interp_stats) else {
                    continue; // an always-on-stack release: both runs timed out alike
                };
                assert_eq!(interp_stats.objects_planned, 0, "{label}");
                if figure3_pair {
                    // The Users interpret in both modes.
                    assert_ne!(plan.trace, 0, "{label}: Figure 3 transformer left no trace");
                    let users = plan_stats.objects_transformed - plan_stats.objects_planned;
                    assert!(users > 0, "{label}: User must not be planned");
                    interpreted_users += users;
                } else {
                    // Every other transformer is a generated default.
                    assert_eq!(
                        plan_stats.objects_planned, plan_stats.objects_transformed,
                        "{label}: a generated default transformer was not planned"
                    );
                }
                planned_objects += plan_stats.objects_planned;
            }
        }
    }
    assert_eq!(pairs, 42);
    assert!(
        planned_objects > 0 && interpreted_users > 0,
        "the oracle exercised both paths"
    );
}

/// Runs the §2.3 List example: boot v1, let `main` build the list and
/// start spinning, apply the v1→v2 update mid-run, run to completion.
fn run_list(config: VmConfig, interpret: bool) -> (Observed, UpdateStats, Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/mj");
    let compile = |file: &str| {
        let source = std::fs::read_to_string(dir.join(file)).expect("read example");
        jvolve_lang::compile(&source).expect("example compiles")
    };
    let (v1, v2) = (compile("list_v1.mj"), compile("list_v2.mj"));
    let update = jvolve_upt::prepare_classes(&v1, &v2, &jvolve_upt::UptOptions::with_prefix("v2_"))
        .expect("UPT prepares the list example")
        .update;
    let mut vm = Vm::new(config);
    vm.load_classes(&v1).expect("v1 loads");
    vm.spawn("Program", "main").expect("main spawns");
    vm.run_slices(20);
    let stats = apply(
        &mut vm,
        &update,
        &mode_opts(ApplyOptions::default(), interpret),
    )
    .expect("list update applies");
    assert!(vm.run_to_completion(1_000_000), "main finishes");
    let observed = Observed {
        outcome: "applied".into(),
        heap: vm.heap_fingerprint(),
        registry: vm.registry().version_fingerprint(),
        transformed: stats.objects_transformed,
        trace: 0,
    };
    (observed, stats, vm.output().to_vec())
}

#[test]
fn plans_match_interpreted_transformers_on_the_list_example() {
    for lazy_migration in [false, true] {
        let config = VmConfig { lazy_migration, ..VmConfig::small() };
        let (plan, plan_stats, plan_out) = run_list(config.clone(), false);
        let (interp, interp_stats, interp_out) = run_list(config, true);
        assert_eq!(plan, interp, "lazy={lazy_migration}");
        assert_eq!(plan_out, interp_out);
        assert_eq!(plan_out, ["0", "3"], "three live nodes gained x = 0");
        assert_eq!(
            (plan_stats.objects_transformed, plan_stats.objects_planned),
            (3, 3)
        );
        assert_eq!(
            (
                interp_stats.objects_transformed,
                interp_stats.objects_planned
            ),
            (3, 0)
        );
    }
}

// ---- an interpreted transformer among planned neighbours ---------------

/// `Owner`s hold `Account`s (shared two to one) and `Tag`s. The update
/// changes all three classes; only `Owner` gets a hand-written
/// transformer, which forces its account, reads a field *through* it and
/// through its tag, and folds what it saw into an order-sensitive trace.
const MIXED_V1: &str = "
class Account { field id: int; field balance: int; ctor(i: int) { this.id = i; this.balance = 100 + i; } }
class Tag { field label: String; ctor(s: String) { this.label = s; } }
class Owner {
  field id: int; field account: Account; field tag: Tag;
  ctor(i: int, a: Account, t: Tag) { this.id = i; this.account = a; this.tag = t; }
}
class App {
  static field owners: Owner[];
  static field trace: int;
  static method build(n: int): void {
    var accounts: Account[] = new Account[n / 2];
    var i: int = 0;
    while (i < accounts.length) { accounts[i] = new Account(i); i = i + 1; }
    var owners: Owner[] = new Owner[n];
    i = 0;
    while (i < n) {
      owners[i] = new Owner(i, accounts[i / 2], new Tag(Str.fromInt(i)));
      i = i + 1;
    }
    App.owners = owners;
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < App.owners.length) {
      var o: Owner = App.owners[i];
      sum = sum * 31 + o.id + o.account.balance + Str.len(o.tag.label);
      i = i + 1;
    }
    return sum;
  }
}";

fn mixed_v2() -> String {
    MIXED_V1
        .replace(
            "class Account { field id: int;",
            "class Account { field opened: int; field id: int;",
        )
        .replace(
            "class Tag { field label: String;",
            "class Tag { field label: String; field hits: int;",
        )
        .replace(
            "field id: int; field account: Account; field tag: Tag;",
            "field id: int; field account: Account; field tag: Tag; field seen: int;",
        )
}

const MIXED_OWNER_METHODS: &str = "
  static method jvolve_class_Owner(): void { }
  static method jvolve_object_Owner(to: Owner, from: v2_Owner): void {
    to.id = from.id;
    to.account = from.account;
    to.tag = from.tag;
    Dsu.forceTransform(from.account);
    Dsu.forceTransform(from.tag);
    to.seen = from.account.balance + Str.len(from.tag.label);
    App.trace = App.trace * 31 + from.id + to.seen;
  }
";

fn run_mixed(config: VmConfig, interpret: bool) -> (Observed, UpdateStats, i64) {
    const OWNERS: i64 = 60;
    let v1 = jvolve_lang::compile(MIXED_V1).expect("v1 compiles");
    let v2 = jvolve_lang::compile(&mixed_v2()).expect("v2 compiles");
    let mut opts = jvolve_upt::UptOptions::with_prefix("v2_");
    opts.overrides
        .insert("Owner".to_string(), MIXED_OWNER_METHODS.to_string());
    let update = jvolve_upt::prepare_classes(&v1, &v2, &opts)
        .expect("UPT prepares")
        .update;

    let mut vm = Vm::new(config);
    vm.load_classes(&v1).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(OWNERS)])
        .expect("build runs");
    let stats = apply(
        &mut vm,
        &update,
        &mode_opts(ApplyOptions::default(), interpret),
    )
    .expect("mixed update applies");
    let int = |v: Option<Value>| match v {
        Some(Value::Int(n)) => n,
        other => panic!("expected an int, got {other:?}"),
    };
    let checksum = int(vm
        .call_static_sync("App", "checksum", &[])
        .expect("checksum runs"));
    let observed = Observed {
        outcome: "applied".into(),
        heap: vm.heap_fingerprint(),
        registry: vm.registry().version_fingerprint(),
        transformed: stats.objects_transformed,
        trace: int(Some(vm.read_static("App", "trace"))),
    };
    (observed, stats, checksum)
}

#[test]
fn an_interpreted_transformer_sees_planned_neighbours_as_if_force_transformed() {
    for lazy_migration in [false, true] {
        let label = format!("lazy={lazy_migration}");
        let config = VmConfig { lazy_migration, ..VmConfig::small() };
        let (plan, plan_stats, plan_sum) = run_mixed(config.clone(), false);
        let (interp, interp_stats, interp_sum) = run_mixed(config, true);
        assert_eq!(plan, interp, "{label}");
        assert_eq!(plan_sum, interp_sum, "{label}");
        assert_ne!(plan.trace, 1, "{label}: the Owner transformer ran");
        // 60 owners interpret; their 60 tags and the 30 accounts they
        // share plan.
        assert_eq!(plan_stats.objects_transformed, 60 + 60 + 30, "{label}");
        assert_eq!(plan_stats.objects_planned, 60 + 30, "{label}");
        assert_eq!(interp_stats.objects_planned, 0, "{label}");
    }
}
