//! The benchmark's whole view of the system under test.
//!
//! This is the **only** file that names `jvolve_*` items; everything else
//! in the package talks to the VM, the update controller, the UPT, the
//! compiler and the guest apps through the plain-Rust wrappers below.
//! The surface it pins (listed in `README.md`) is the API a later PR must
//! keep, or the benchmark stops building. Nothing here times anything:
//! layers are measured from outside, by the workloads timing these calls
//! and differencing the counters [`Guest::counters`] copies out.

use jvolve::{ApplyOptions, StepProgress, Update, UpdateController, UpdatePhase};
use jvolve_apps::{GuestApp, Kvstore, Webserver};
use jvolve_classfile::ClassFile;
use jvolve_upt::{prepare_classes, UptOptions};
use jvolve_vm::heap::NoRemap;
use jvolve_vm::{GcRef, SliceOutcome, Value, Vm, VmConfig};

pub use jvolve_json::Json;

/// The app-harness quantum (`jvolve_apps::harness::app_vm_config`): small
/// enough that request handling interleaves across server threads.
pub const APP_QUANTUM: usize = 300;
/// The app-harness semispace (512 Ki words = 4 MiB).
pub const APP_SEMISPACE_WORDS: usize = 512 * 1024;

/// A versioned guest application with a release stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// The Jetty stand-in, 5.1.0 – 5.1.10, port 8080.
    Webserver,
    /// The 21-release key-value store, port 8090.
    Kvstore,
}

/// One release of an [`App`].
pub struct Release {
    /// Human label, e.g. `5.1.6`.
    pub label: &'static str,
    /// Rename prefix its update gives the old classes, e.g. `v516_`.
    pub prefix: &'static str,
    /// MJ source.
    pub source: String,
}

impl App {
    /// Port the server listens on.
    pub fn port(self) -> u16 {
        match self {
            App::Webserver => jvolve_apps::webserver::PORT,
            App::Kvstore => jvolve_apps::kvstore::PORT,
        }
    }

    /// Class whose static `main` starts the server.
    pub fn main_class(self) -> &'static str {
        match self {
            App::Webserver => "WebServer",
            App::Kvstore => "KvServer",
        }
    }

    /// All releases, oldest first (`GuestApp::versions`).
    pub fn releases(self) -> Vec<Release> {
        let versions = match self {
            App::Webserver => Webserver.versions(),
            App::Kvstore => Kvstore.versions(),
        };
        versions
            .into_iter()
            .map(|v| Release {
                label: v.label,
                prefix: v.prefix,
                source: v.source,
            })
            .collect()
    }
}

/// A compiled MJ program.
pub struct Program(Vec<ClassFile>);

/// Compiles MJ source (`jvolve_lang::compile`).
pub fn compile(source: &str) -> Result<Program, String> {
    jvolve_lang::compile(source)
        .map(Program)
        .map_err(|e| e.to_string())
}

/// An update prepared by the UPT, ready for an [`Updater`].
pub struct Prepared(Update);

/// Diffs two program versions and generates default transformers
/// (`jvolve_upt::prepare_classes`).
pub fn prepare(old: &Program, new: &Program, prefix: &str) -> Result<Prepared, String> {
    prepare_classes(&old.0, &new.0, &UptOptions::with_prefix(prefix))
        .map(|release| Prepared(release.update))
        .map_err(|e| e.to_string())
}

/// The only `VmConfig` fields a workload sets; every other field but
/// `gc_threads` (see [`Guest::new`]) stays at `VmConfig::default()`, so
/// product defaults such as the tier thresholds move the end-to-end
/// numbers instead of being pinned away.
#[derive(Clone, Copy, Debug)]
pub struct GuestConfig {
    /// Words per semispace.
    pub semispace_words: usize,
    /// Interpreter steps per scheduler slice.
    pub quantum: usize,
    /// Commit updates with the lazy-migration protocol.
    pub lazy_migration: bool,
}

/// What ended a scheduler slice, as far as the harness cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slice {
    /// A guest thread ran.
    Ran,
    /// No thread was runnable.
    Idle,
    /// A guest thread trapped (always a failure here).
    Trapped,
}

/// A copy of the public counters (`VmStats` + `Heap::used_words`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub slices: u64,
    pub steps: u64,
    pub gcs: u64,
    pub base_compiles: u64,
    pub opt_compiles: u64,
    pub jit_compiles: u64,
    pub deopts: u64,
    pub fused_steps: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub used_words: u64,
}

impl Counters {
    /// Field-wise `self - earlier`, saturating (`used_words` keeps the
    /// later value).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            slices: self.slices.saturating_sub(earlier.slices),
            steps: self.steps.saturating_sub(earlier.steps),
            gcs: self.gcs.saturating_sub(earlier.gcs),
            base_compiles: self.base_compiles.saturating_sub(earlier.base_compiles),
            opt_compiles: self.opt_compiles.saturating_sub(earlier.opt_compiles),
            jit_compiles: self.jit_compiles.saturating_sub(earlier.jit_compiles),
            deopts: self.deopts.saturating_sub(earlier.deopts),
            fused_steps: self.fused_steps.saturating_sub(earlier.fused_steps),
            ic_hits: self.ic_hits.saturating_sub(earlier.ic_hits),
            ic_misses: self.ic_misses.saturating_sub(earlier.ic_misses),
            used_words: self.used_words,
        }
    }

    /// Field-wise accumulate (`used_words` keeps the maximum).
    pub fn add(&mut self, d: &Counters) {
        self.slices += d.slices;
        self.steps += d.steps;
        self.gcs += d.gcs;
        self.base_compiles += d.base_compiles;
        self.opt_compiles += d.opt_compiles;
        self.jit_compiles += d.jit_compiles;
        self.deopts += d.deopts;
        self.fused_steps += d.fused_steps;
        self.ic_hits += d.ic_hits;
        self.ic_misses += d.ic_misses;
        self.used_words = self.used_words.max(d.used_words);
    }
}

/// A handle to a guest heap object returned by a guest call.
#[derive(Clone, Copy, Debug)]
pub struct ObjRef(GcRef);

/// One VM running one guest program.
pub struct Guest {
    vm: Vm,
}

impl Guest {
    /// `Vm::new`: an empty VM with the builtin classes, collecting on
    /// the calling thread.
    ///
    /// `gc_threads` is the one field pinned away from its default, for
    /// two reasons measured on this 2-core host. With two workers every
    /// collection spawns and joins OS threads inside the pause: in three
    /// alternating pairs of runs the kv pause read 0.35–0.36 ms against
    /// 0.17–0.21 ms with one worker, the `heap_eager_0` pause 5.7–5.9 ms
    /// against 4.0–4.2 ms. And (ROADMAP item 0) the parallel collector
    /// leaves its workers' chunk tails unparsed, so the linear heap walk
    /// of the next lazy epoch panics in `Heap::walk_size`:
    /// `kv_stream_lazy` lost every chain after its first collection.
    pub fn new(config: GuestConfig) -> Guest {
        Guest {
            vm: Vm::new(VmConfig {
                semispace_words: config.semispace_words,
                quantum: config.quantum,
                lazy_migration: config.lazy_migration,
                gc_threads: 1,
                ..VmConfig::default()
            }),
        }
    }

    /// `Vm::load_classes`.
    pub fn load_classes(&mut self, program: &Program) -> Result<(), String> {
        self.vm
            .load_classes(&program.0)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `Vm::spawn`: starts a guest thread in a static no-argument method.
    pub fn spawn(&mut self, class: &str, method: &str) -> Result<(), String> {
        self.vm
            .spawn(class, method)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `Vm::step_slice`.
    #[inline]
    pub fn step_slice(&mut self) -> Slice {
        match self.vm.step_slice().event {
            SliceOutcome::Idle => Slice::Idle,
            SliceOutcome::Trapped(_) => Slice::Trapped,
            _ => Slice::Ran,
        }
    }

    /// `VmStats::gcs` alone (read after every slice, so kept cheap).
    #[inline]
    pub fn gcs(&self) -> u64 {
        self.vm.stats().gcs
    }

    /// Copies `Vm::stats` and `Heap::used_words`.
    pub fn counters(&self) -> Counters {
        let s = self.vm.stats();
        Counters {
            slices: s.slices,
            steps: s.steps,
            gcs: s.gcs,
            base_compiles: s.base_compiles,
            opt_compiles: s.opt_compiles,
            jit_compiles: s.jit_compiles,
            deopts: s.deopts,
            fused_steps: s.fused_steps,
            ic_hits: s.ic_hits,
            ic_misses: s.ic_misses,
            used_words: self.vm.heap().used_words() as u64,
        }
    }

    /// `Net::has_listener`.
    pub fn has_listener(&mut self, port: u16) -> bool {
        self.vm.net_mut().has_listener(port)
    }

    /// `Net::client_connect` + `Net::client_send`: one single-line request
    /// on a fresh connection. `None` when nothing listens.
    #[inline]
    pub fn send_request(&mut self, port: u16, line: &str) -> Option<usize> {
        let net = self.vm.net_mut();
        let conn = net.client_connect(port)?;
        net.client_send(conn, line);
        Some(conn)
    }

    /// `Net::client_recv` (+ `Net::client_close` once the reply is in).
    #[inline]
    pub fn poll_reply(&mut self, conn: usize) -> Option<String> {
        let net = self.vm.net_mut();
        let reply = net.client_recv(conn)?;
        net.client_close(conn);
        Some(reply)
    }

    /// `Net::client_close` on a connection whose reply never came.
    pub fn abandon(&mut self, conn: usize) {
        self.vm.net_mut().client_close(conn);
    }

    /// `Vm::call_static_sync` on an all-`int` signature returning `int`.
    pub fn call_int(&mut self, class: &str, method: &str, args: &[i64]) -> Result<i64, String> {
        match self.call(class, method, args)? {
            Some(Value::Int(v)) => Ok(v),
            other => Err(format!(
                "{class}.{method} returned {other:?}, expected an int"
            )),
        }
    }

    /// `Vm::call_static_sync` on an all-`int` signature returning `void`.
    pub fn call_void(&mut self, class: &str, method: &str, args: &[i64]) -> Result<(), String> {
        self.call(class, method, args).map(|_| ())
    }

    /// `Vm::call_static_sync` on an all-`int` signature returning an object.
    pub fn call_obj(&mut self, class: &str, method: &str, args: &[i64]) -> Result<ObjRef, String> {
        match self.call(class, method, args)? {
            Some(Value::Ref(r)) => Ok(ObjRef(r)),
            other => Err(format!(
                "{class}.{method} returned {other:?}, expected an object"
            )),
        }
    }

    fn call(&mut self, class: &str, method: &str, args: &[i64]) -> Result<Option<Value>, String> {
        let args: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
        self.vm
            .call_static_sync(class, method, &args)
            .map_err(|e| e.to_string())
    }

    /// `Vm::read_field` of an `int` field. `None` when the field is not an
    /// int (an unknown field panics in the VM; callers run under
    /// `catch_unwind`).
    pub fn read_int_field(&self, obj: ObjRef, field: &str) -> Option<i64> {
        match self.vm.read_field(obj.0, field) {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// An ordinary full collection: `Vm::collect_full(&NoRemap)`.
    pub fn plain_gc(&mut self) -> Result<(), String> {
        self.vm
            .collect_full(&NoRemap)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `Vm::lazy_epoch_active`.
    pub fn lazy_epoch_active(&self) -> bool {
        self.vm.lazy_epoch_active()
    }
}

/// `UpdateController::phase`, read *before* a step to attribute its time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Pending,
    WaitingForSafePoint,
    Installing,
    TransformingHeap,
    LazyMigrating,
    Committed,
    Aborted,
}

impl Phase {
    /// Span name of a controller step taken in this phase.
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::Pending => "controller.step[pending]",
            Phase::WaitingForSafePoint => "controller.step[waiting-for-safe-point]",
            Phase::Installing => "controller.step[installing]",
            Phase::TransformingHeap => "controller.step[transforming-heap]",
            Phase::LazyMigrating => "controller.step[lazy-migrating]",
            Phase::Committed => "controller.step[committed]",
            Phase::Aborted => "controller.step[aborted]",
        }
    }
}

fn phase_of(p: UpdatePhase) -> Phase {
    match p {
        UpdatePhase::Pending => Phase::Pending,
        UpdatePhase::WaitingForSafePoint => Phase::WaitingForSafePoint,
        UpdatePhase::Installing => Phase::Installing,
        UpdatePhase::TransformingHeap => Phase::TransformingHeap,
        UpdatePhase::LazyMigrating => Phase::LazyMigrating,
        UpdatePhase::Committed => Phase::Committed,
        UpdatePhase::Aborted => Phase::Aborted,
    }
}

/// What one [`Updater::step`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// More steps needed; the payload is the phase now current.
    Pending(Phase),
    Committed,
    Aborted,
}

/// A copy of the public `UpdateStats` of one update, times in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateNumbers {
    pub slices_waited: u64,
    pub barriers_installed: u64,
    pub osr_replacements: u64,
    pub classes_loaded: u64,
    pub bodies_swapped: u64,
    pub methods_invalidated: u64,
    pub objects_transformed: u64,
    pub gc_copied_words: u64,
    pub classload_ns: u64,
    pub gc_ns: u64,
    pub transform_ns: u64,
    pub arm_ns: u64,
    pub lazy_ns: u64,
    pub lazy_scan_ns: u64,
    pub lazy_collapse_ns: u64,
}

/// One `UpdateController` over a prepared update, with the default
/// `ApplyOptions`.
pub struct Updater<'u> {
    controller: UpdateController<'u>,
}

impl<'u> Updater<'u> {
    /// `UpdateController::new`; nothing touches the VM until the first step.
    pub fn new(update: &'u Prepared) -> Updater<'u> {
        Updater {
            controller: UpdateController::new(&update.0, ApplyOptions::default()),
        }
    }

    /// `UpdateController::phase`.
    pub fn phase(&self) -> Phase {
        phase_of(self.controller.phase())
    }

    /// `UpdateController::step`.
    pub fn step(&mut self, guest: &mut Guest) -> Progress {
        match self.controller.step(&mut guest.vm) {
            StepProgress::Pending(p) => Progress::Pending(phase_of(p)),
            StepProgress::Committed => Progress::Committed,
            StepProgress::Aborted => Progress::Aborted,
        }
    }

    /// Copies `UpdateController::stats`.
    pub fn numbers(&self) -> UpdateNumbers {
        let s = self.controller.stats();
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        UpdateNumbers {
            slices_waited: s.slices_waited,
            barriers_installed: s.barriers_installed as u64,
            osr_replacements: s.osr_replacements as u64,
            classes_loaded: s.classes_loaded as u64,
            bodies_swapped: s.bodies_swapped as u64,
            methods_invalidated: s.methods_invalidated as u64,
            objects_transformed: s.objects_transformed as u64,
            gc_copied_words: s.gc_copied_words as u64,
            classload_ns: ns(s.classload_time),
            gc_ns: ns(s.gc_time),
            transform_ns: ns(s.transform_time),
            arm_ns: ns(s.arm_time),
            lazy_ns: ns(s.lazy_time),
            lazy_scan_ns: ns(s.lazy_scan_time),
            lazy_collapse_ns: ns(s.lazy_collapse_time),
        }
    }
}
