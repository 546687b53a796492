//! Shared machinery: boot a guest app at a version, drive it, and attempt
//! live updates between consecutive versions — the paper's §4 methodology
//! ("we ran Jetty under full load; after 30 seconds we tried to apply the
//! update to the next version"). [`attempt_update`] prepares the next
//! release and runs it through [`UpdateController::run`], the loop every
//! embedder shares.

use jvolve::{ApplyOptions, Update, UpdateController, UpdateError, UpdatePhase, UpdateStats};
use jvolve_classfile::ClassFile;
use jvolve_vm::{Vm, VmConfig};

use crate::common::{AppInstance, GuestApp};
use crate::emailserver;
use crate::workload::wait_for_listener;

/// VM configuration used by the app harness: a mid-sized heap and a small
/// quantum so thread interleaving is realistic.
pub fn app_vm_config() -> VmConfig {
    VmConfig { semispace_words: 512 * 1024, quantum: 300, ..VmConfig::default() }
}

/// Boots `app` at version index `from` and waits until it listens.
///
/// # Panics
///
/// Panics if the app fails to load or never starts listening (fixture
/// bug, caught by tests).
pub fn boot(app: &dyn GuestApp, from: usize) -> Vm {
    boot_with(app, from, app_vm_config())
}

/// [`boot`] with an explicit VM configuration.
pub fn boot_with(app: &dyn GuestApp, from: usize, config: VmConfig) -> Vm {
    let versions = app.versions();
    let version = &versions[from];
    boot_classes(app, &version.compile(), config)
}

/// Boots an [`AppInstance`] from already-compiled classes (the fleet's
/// shard boot and redeploy path, which carries class files rather than a
/// version index).
///
/// # Panics
///
/// Panics if the app fails to load or never starts listening (fixture
/// bug, caught by tests).
pub fn boot_classes(app: &dyn AppInstance, classes: &[ClassFile], config: VmConfig) -> Vm {
    let mut vm = Vm::new(config);
    vm.load_classes(classes)
        .unwrap_or_else(|e| panic!("{} fails to load: {e}", app.name()));
    vm.spawn(app.main_class(), "main")
        .unwrap_or_else(|e| panic!("{} has no main: {e}", app.name()));
    assert!(
        wait_for_listener(&mut vm, app.port(), 50_000),
        "{} never started listening",
        app.name()
    );
    vm
}

/// The custom transformer source the developer supplies for a release, if
/// any (the paper's Figure 3 customization for JavaEmailServer 1.3.2).
/// The per-class method pair is assembled into a full `JvolveTransformers`
/// class with the same assembler the UPT uses, so the hand path and the
/// per-class override path share one representation.
pub fn custom_transformer(app: &dyn GuestApp, to_label: &str) -> Option<String> {
    if app.name() == "emailserver" && to_label == "1.3.2" {
        Some(jvolve::transform::assemble_transformers_source([emailserver::FIGURE3_USER_METHODS]))
    } else {
        None
    }
}

/// Prepares the update taking version `from` to `from + 1` of `app`,
/// with the release's custom transformer attached when one exists.
///
/// # Panics
///
/// Panics if preparation fails (fixture bug).
pub fn prepare_next(app: &dyn GuestApp, from: usize) -> Update {
    let versions = app.versions();
    let old = versions[from].compile();
    let new = versions[from + 1].compile();
    let mut update = Update::prepare(&old, &new, versions[from + 1].prefix)
        .unwrap_or_else(|e| {
            panic!("{}: preparing {}->{} failed: {e}", app.name(), from, from + 1)
        });
    if let Some(source) = custom_transformer(app, versions[from + 1].label) {
        update.set_transformers_source(source);
    }
    update
}

/// Attempts the live update `from → from + 1` on a running VM through
/// [`UpdateController::run`], which calls `pump` whenever the guest may
/// run: while the update waits for a safe point and, under
/// `VmConfig::lazy_migration`, while the lazy epoch drains. The pump may
/// drive the VM's workload — issue requests, run extra slices — so the app
/// keeps serving mid-update, exactly the paper's §4 setup of updating
/// Jetty under full load. [`UpdateOutcome::from`](jvolve::UpdateOutcome)
/// turns the result into the §4 summary's row.
pub fn attempt_update(
    vm: &mut Vm,
    app: &dyn GuestApp,
    from: usize,
    opts: &ApplyOptions,
    pump: impl FnMut(&mut Vm, UpdatePhase),
) -> Result<UpdateStats, UpdateError> {
    UpdateController::new(&prepare_next(app, from), opts.clone()).run(vm, pump)
}

/// Default apply options for the app benchmarks: a timeout that is long
/// enough for barriers to fire under load but short enough to prove the
/// always-on-stack failures quickly (the paper's 15 s, in slices).
pub fn bench_apply_options() -> ApplyOptions {
    ApplyOptions { timeout_slices: 3_000, ..ApplyOptions::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webserver::Webserver;

    #[test]
    fn webserver_boots_and_serves() {
        let mut vm = boot(&Webserver, 0);
        let resp = crate::workload::one_shot(&mut vm, 8080, "GET /index.html", 20_000).unwrap();
        assert_eq!(resp.0, "200 <html>welcome</html>");
    }

    #[test]
    fn custom_transformer_only_for_132() {
        assert!(custom_transformer(&crate::Emailserver, "1.3.2").is_some());
        assert!(custom_transformer(&crate::Emailserver, "1.3.1").is_none());
        assert!(custom_transformer(&Webserver, "5.1.2").is_none());
    }
}
