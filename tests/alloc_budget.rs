//! Host-allocation budget of the serving path.
//!
//! Guest strings are read in place (`Heap::str_view`) and built inside the
//! guest heap, so a steady-state request should reach the host allocator
//! only where its reply crosses into `vm::net`. This test counts every
//! host allocation made inside `Vm::step_slice` while webserver 5.1.6 and
//! kvstore 1.20 serve 10 000 requests each, and pins the count: a string
//! op that goes back to copying its operands out of the heap shows up
//! here without any timing.

mod testkit;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jvolve_apps::harness::{app_vm_config, boot_with};
use jvolve_apps::{GuestApp, Kvstore, Webserver};
use jvolve_vm::Vm;
use testkit::Rng;

thread_local! {
    /// Set while this thread is inside `Vm::step_slice`.
    static IN_SLICE: Cell<bool> = const { Cell::new(false) };
    /// Allocations and reallocations this thread made while `IN_SLICE`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = IN_SLICE.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every request is forwarded unchanged to `System`; counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counted_slice(vm: &mut Vm) {
    IN_SLICE.with(|on| on.set(true));
    vm.step_slice();
    IN_SLICE.with(|on| on.set(false));
}

/// Serves `requests` single-line requests, `in_flight` at a time (closed
/// loop, one connection each, the way `benchmark/` drives the apps), and
/// returns the host allocations made inside `Vm::step_slice`. Every reply
/// is handed to `check`.
fn serve(
    vm: &mut Vm,
    port: u16,
    in_flight: usize,
    requests: usize,
    mut next: impl FnMut() -> String,
    mut check: impl FnMut(&str, &str),
) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let mut pending: Vec<(usize, String)> = Vec::new();
    let (mut sent, mut done) = (0, 0);
    while done < requests {
        while pending.len() < in_flight && sent < requests {
            let line = next();
            let conn = vm.net_mut().client_connect(port).expect("listening");
            vm.net_mut().client_send(conn, line.as_str());
            pending.push((conn, line));
            sent += 1;
        }
        counted_slice(vm);
        pending.retain(|(conn, line)| match vm.net_mut().client_recv(*conn) {
            Some(reply) => {
                vm.net_mut().client_close(*conn);
                check(line, &reply);
                done += 1;
                false
            }
            None => true,
        });
    }
    ALLOCS.with(Cell::get) - before
}

/// Boots the release of `app` labelled `label`.
fn boot_release(app: &dyn GuestApp, label: &str) -> Vm {
    let index = app.versions().iter().position(|v| v.label == label).expect("known release");
    boot_with(app, index, app_vm_config())
}

const WARM_UP: usize = 20_000;
const MEASURED: usize = 10_000;
/// What legitimately remains per request: the reply `String` and the
/// connection's `VecDeque` slot it is queued in, plus slack for the
/// amortised growth of long-lived host vectors.
const BUDGET_PER_REQUEST: u64 = 4;
/// The totals over `MEASURED` requests for the seeds below: two per
/// request (27.5 and 62.8 per request before strings were read in place)
/// plus the few an ordinary collection or a logged line makes.
/// Deterministic — one host thread, seeded traffic, serial collector. A
/// guest call allocates nothing (frames are records over the thread's one
/// value stack). The kvstore read 20 031 while the opt tier existed:
/// opt compiles of methods that crossed its threshold only after warm-up
/// fell inside the window. 20 000 is exactly two per request, so no
/// compile does now. The webserver's window holds one collection, which
/// allocates its root list (one allocation since the static slots stopped
/// needing a list of their own, and since an ordinary collection stopped
/// resolving a remap table).
const WEB_ALLOCS: u64 = 20_003;
const KV_ALLOCS: u64 = 20_000;

#[test]
fn webserver_requests_stay_inside_the_host_allocation_budget() {
    const PATHS: [(&str, &str); 4] = [
        ("GET /index.html", "200 <html>welcome</html>"),
        ("GET /about.html", "200 <html>about us</html>"),
        ("GET /data.json", "200 ok:true"),
        ("GET /missing.html", "404 /missing.html"),
    ];
    let mut vm = boot_release(&Webserver, "5.1.6");
    let mut rng = Rng::new(1);
    let mut next = || rng.pick(&PATHS).0.to_string();
    let check = |line: &str, reply: &str| {
        let want = PATHS.iter().find(|(l, _)| *l == line).expect("generated").1;
        assert_eq!(reply, want, "{line}");
    };
    serve(&mut vm, jvolve_apps::webserver::PORT, 8, WARM_UP, &mut next, check);
    let allocs = serve(&mut vm, jvolve_apps::webserver::PORT, 8, MEASURED, &mut next, check);
    assert_eq!(allocs, WEB_ALLOCS, "host allocations inside step_slice over {MEASURED} requests");
    assert!(allocs <= BUDGET_PER_REQUEST * MEASURED as u64);
}

#[test]
fn kvstore_requests_stay_inside_the_host_allocation_budget() {
    let mut vm = boot_release(&Kvstore, "1.20");
    let mut rng = Rng::new(1);
    let mut next = || {
        let key = rng.below(48);
        match rng.below(100) {
            0..=41 => format!("SET k{key:02} v{}", rng.below(100_000)),
            42..=89 => format!("GET k{key:02}"),
            90..=97 => format!("DEL k{key:02}"),
            _ => "STATS".to_string(),
        }
    };
    let check = |line: &str, reply: &str| {
        let ok = match &line[..3] {
            "SET" => reply == "OK stored",
            "GET" => reply == "NIL" || reply.starts_with("VAL v"),
            "DEL" => reply == "NIL" || reply == "OK deleted",
            _ => reply.starts_with("OK sets="),
        };
        assert!(ok, "{line} -> {reply}");
    };
    serve(&mut vm, jvolve_apps::kvstore::PORT, 4, WARM_UP, &mut next, check);
    let allocs = serve(&mut vm, jvolve_apps::kvstore::PORT, 4, MEASURED, &mut next, check);
    assert_eq!(allocs, KV_ALLOCS, "host allocations inside step_slice over {MEASURED} requests");
    assert!(allocs <= BUDGET_PER_REQUEST * MEASURED as u64);
}
