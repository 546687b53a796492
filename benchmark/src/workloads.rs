//! The six workloads. Sizes are constants — identical on every commit —
//! except the number of repetitions, which `--seconds` bounds from above
//! and a fixed minimum bounds from below. `README.md` says why each
//! constant has the value it has.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::gen::{KvTraffic, Rng, Traffic, WebTraffic};
use crate::layers::{
    compile, prepare, App, Guest, GuestConfig, Prepared, Program, APP_QUANTUM, APP_SEMISPACE_WORDS,
};
use crate::report::Outcome;
use crate::serve::{apply_update, wait_for_listener, Client, ServePhase, UpdateSample};
use crate::trace::Tracer;

/// A workload: runs to completion, or says why nothing could be measured.
pub type Workload = fn(&mut Ctx) -> Result<(), String>;

/// The workloads by name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("web_steady", web_steady),
    ("kv_stream_eager", |ctx| kv_stream(ctx, false)),
    ("kv_stream_lazy", |ctx| kv_stream(ctx, true)),
    ("heap_eager_0", |ctx| heap(ctx, 0, false)),
    ("heap_eager_100", |ctx| heap(ctx, HEAP_OBJECTS, false)),
    ("heap_lazy_100", |ctx| heap(ctx, HEAP_OBJECTS, true)),
];

/// The workload called `name`.
pub fn lookup(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
}

/// One run: its inputs, its recorder, its measurements.
pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: how long the timed part may run.
    pub seconds: f64,
    pub tracer: Tracer,
    pub out: Outcome,
    /// When the timed part began.
    timed_from_ns: u64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(traced),
            out: Outcome::default(),
            timed_from_ns: 0,
        }
    }

    /// Starts the timed part's clock (set-up is over).
    fn start_timed(&mut self) {
        self.timed_from_ns = self.tracer.now();
    }

    /// Whether the timed part still has budget left.
    fn in_budget(&self) -> bool {
        ((self.tracer.now() - self.timed_from_ns) as f64) < self.seconds * 1e9
    }

    /// Runs one repetition as one operation: an error or a panic inside
    /// it fails that operation, never the run.
    fn guarded<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Ctx) -> Result<T, String>,
    ) -> Option<T> {
        self.out.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| f(self)));
        let error = match result {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_string(),
        };
        eprintln!("benchmark: {what} failed: {error}");
        self.out.failed += 1;
        self.tracer.abandon_window();
        None
    }

    /// Books a client's requests once it is done.
    fn absorb(&mut self, client: &Client) {
        self.out.attempted += client.completed;
        self.out.failed += client.failed + client.trapped;
    }

    /// Books a finished update, the `kind`-th of its repetition.
    fn book_update(&mut self, kind: usize, mut sample: UpdateSample) {
        sample.kind = kind;
        self.out.attempted += 1;
        if !sample.committed {
            self.out.failed += 1;
        }
        self.out.updates.push(sample);
    }
}

const SET_UP_WINDOW: &str = "window[setup]";
/// Failed repetitions after which a workload stops repeating.
const MAX_FAILURES: usize = 3;

/// Whether a repeated part that has run `done` times runs again: always
/// up to `min`, then while the `--seconds` budget lasts.
fn more(ctx: &Ctx, done: usize, min: usize) -> bool {
    done < min || ctx.in_budget()
}

/// Compiles every source, timing the lot as one `lang.compile` call.
fn compile_all(ctx: &mut Ctx, sources: &[&str]) -> Result<Vec<Program>, String> {
    let (programs, ns) = ctx.tracer.timed("lang.compile", || {
        sources
            .iter()
            .map(|s| compile(s))
            .collect::<Result<Vec<_>, _>>()
    });
    ctx.out.compile_ms.push(ns as f64 / 1e6);
    programs
}

/// Prepares `old → new`, timed as one `upt.prepare` call.
fn prepare_timed(
    ctx: &mut Ctx,
    old: &Program,
    new: &Program,
    prefix: &str,
) -> Result<Prepared, String> {
    let (update, ns) = ctx
        .tracer
        .timed("upt.prepare", || prepare(old, new, prefix));
    ctx.out.prepare_ms.push(ns as f64 / 1e6);
    update
}

/// A fresh VM with `program` loaded (`vm.load_classes` covers both).
fn boot(ctx: &mut Ctx, program: &Program, config: GuestConfig) -> Result<Guest, String> {
    let (guest, ns) = ctx.tracer.timed("vm.load_classes", || {
        let mut guest = Guest::new(config);
        guest.load_classes(program).map(|()| guest)
    });
    ctx.out.load_classes_ms.push(ns as f64 / 1e6);
    guest
}

/// Boots `app` from `program`, waits for its listener and serves `warm`
/// requests so caches fill and the tiers settle before anything is timed.
fn boot_server(
    ctx: &mut Ctx,
    app: App,
    program: &Program,
    lazy: bool,
    clients: usize,
    traffic: &mut dyn Traffic,
    warm: u64,
) -> Result<(Guest, Client), String> {
    let config = GuestConfig {
        semispace_words: APP_SEMISPACE_WORDS,
        quantum: APP_QUANTUM,
        lazy_migration: lazy,
    };
    let mut guest = boot(ctx, program, config)?;
    guest.spawn(app.main_class(), "main")?;
    wait_for_listener(&mut guest, app.port())?;
    let mut client = Client::new(app.port(), clients);
    client.serve(&mut guest, &mut ctx.tracer, traffic, warm);
    if client.wedged || client.failed + client.trapped > 0 {
        return Err(format!(
            "{} failed {} warm-up requests",
            app.main_class(),
            client.failed
        ));
    }
    Ok((guest, client))
}

/// One serving window of `phase` through `client`.
fn serve_window(
    tracer: &mut Tracer,
    phase: &mut ServePhase,
    guest: &mut Guest,
    client: &mut Client,
    traffic: &mut dyn Traffic,
) {
    let n = phase.window_requests;
    phase.window(tracer, guest, |tracer, guest, latencies| {
        let idle = client.idle_slices;
        client.latencies_ns.clear(); // replies that came in between windows
        client.serve(guest, tracer, traffic, n);
        latencies.append(&mut client.latencies_ns);
        client.idle_slices - idle
    });
}

// ---- web_steady -----------------------------------------------------------

/// Requests in flight (Figure 5 drives Jetty at saturation; 8 keeps all
/// four pool threads busy with a request queued behind each).
const WEB_CLIENTS: usize = 8;
/// Requests per sub-window (~0.1 s at this commit).
const WEB_WINDOW: u64 = 25_000;
/// Warm-up requests before a VM's windows are timed (tiers settle
/// within ~5 k).
const WEB_WARM: u64 = 20_000;
/// Warm-up of each VM that is only there to be updated.
const WEB_UPDATE_WARM: u64 = 4_000;
/// One round, on fresh VMs throughout: set up 5.1.6 from scratch and
/// serve steady windows on it; boot 5.1.5, update it under load, re-warm
/// and serve post-update windows; update further fresh 5.1.5 VMs. Rounds
/// spread every metric's samples over the whole run, so a burst of host
/// noise cannot swallow one metric whole, and fresh VMs keep the
/// process small: `vm::net` never frees a connection (~290 B each), and
/// past a few hundred MB this host serves new pages several times
/// slower, which showed as a 35 % throughput cliff late in a long-lived
/// VM's run.
const WEB_ROUND_STEADY_WINDOWS: usize = 3;
const WEB_ROUND_POST_WINDOWS: usize = 2;
const WEB_ROUND_UPDATES: usize = 2;
/// Rounds every run executes.
const WEB_MIN_ROUNDS: usize = 5;
/// Index of 5.1.5 / 5.1.6 in the release stream.
const WEB_OLD: usize = 5;
const WEB_NEW: usize = 6;

struct WebBuild {
    old: Program,
    update: Prepared,
}

/// A serving VM with its client and the traffic it draws from.
struct Server {
    guest: Guest,
    client: Client,
    traffic: WebTraffic,
}

impl Server {
    /// Answers what is in flight and books the client's requests.
    fn retire(mut self, ctx: &mut Ctx) {
        self.client.drain(&mut self.guest, &mut ctx.tracer);
        ctx.absorb(&self.client);
        if self.client.wedged {
            ctx.out.failed += 1; // the server died: worth more than its requests
        }
    }
}

fn web_set_up(ctx: &mut Ctx) -> Result<(WebBuild, Server), String> {
    ctx.tracer.open_window(SET_UP_WINDOW, true);
    let t0 = ctx.tracer.now();
    let releases = App::Webserver.releases();
    if (releases[WEB_OLD].label, releases[WEB_NEW].label) != ("5.1.5", "5.1.6") {
        return Err("the webserver release stream moved: 5.1.5 / 5.1.6 expected".to_string());
    }
    let mut programs = compile_all(ctx, &[&releases[WEB_OLD].source, &releases[WEB_NEW].source])?;
    let (new, old) = (
        programs.pop().expect("two programs"),
        programs.pop().expect("two programs"),
    );
    let update = prepare_timed(ctx, &old, &new, releases[WEB_NEW].prefix)?;
    let mut traffic = WebTraffic::new(ctx.seed, 1);
    let (guest, client) = boot_server(
        ctx,
        App::Webserver,
        &new,
        false,
        WEB_CLIENTS,
        &mut traffic,
        WEB_WARM,
    )?;
    ctx.out.setup_s.push((ctx.tracer.now() - t0) as f64 / 1e9);
    ctx.tracer.close_window();
    Ok((
        WebBuild { old, update },
        Server {
            guest,
            client,
            traffic,
        },
    ))
}

/// Boots 5.1.5, warms it briefly and updates it to 5.1.6 under load.
/// Every such VM gets the same traffic, so each is the same update at
/// the same virtual moment.
fn web_updated_vm(ctx: &mut Ctx, build: &WebBuild) -> Result<Server, String> {
    let mut traffic = WebTraffic::new(ctx.seed, 2);
    let (mut guest, mut client) = boot_server(
        ctx,
        App::Webserver,
        &build.old,
        false,
        WEB_CLIENTS,
        &mut traffic,
        WEB_UPDATE_WARM,
    )?;
    let sample = apply_update(
        &mut guest,
        &mut ctx.tracer,
        &build.update,
        |g, tr, slice| client.pump(g, tr, &mut traffic, slice),
    );
    let committed = sample.committed;
    ctx.book_update(0, sample);
    if !committed {
        ctx.absorb(&client);
        return Err("5.1.5 → 5.1.6 did not commit".to_string());
    }
    Ok(Server {
        guest,
        client,
        traffic,
    })
}

/// Figure 5. 5.1.6 from scratch under a seeded four-path mix (`rps`,
/// `req_p50_us`, taken on VMs no update ever touches); VMs booted at
/// 5.1.5, updated to 5.1.6 under the same load (`pause_ms`,
/// `update_ms`) and, re-warmed, measured again (`post_update_rps`).
fn web_steady(ctx: &mut Ctx) -> Result<(), String> {
    ctx.out.pre = ServePhase::new(WEB_WINDOW, WEB_ROUND_STEADY_WINDOWS);
    ctx.out.post = ServePhase::new(WEB_WINDOW, WEB_ROUND_POST_WINDOWS);
    ctx.out.first_rep_updates = WEB_ROUND_UPDATES;
    ctx.start_timed();
    let (mut rounds, mut failures) = (0, 0);
    while failures < MAX_FAILURES && more(ctx, rounds, WEB_MIN_ROUNDS) {
        rounds += 1;
        let done = ctx.guarded("round", |ctx| {
            let (build, mut steady) = web_set_up(ctx)?;
            for _ in 0..WEB_ROUND_STEADY_WINDOWS {
                let Server {
                    guest,
                    client,
                    traffic,
                } = &mut steady;
                serve_window(&mut ctx.tracer, &mut ctx.out.pre, guest, client, traffic);
            }
            steady.retire(ctx);

            let mut updated = web_updated_vm(ctx, &build)?;
            if ctx.out.updates.len() == 1 {
                ctx.out.at_commit = updated.guest.counters();
            }
            let Server {
                guest,
                client,
                traffic,
            } = &mut updated;
            client.serve(guest, &mut ctx.tracer, traffic, WEB_WARM);
            for _ in 0..WEB_ROUND_POST_WINDOWS {
                serve_window(&mut ctx.tracer, &mut ctx.out.post, guest, client, traffic);
            }
            updated.retire(ctx);

            for _ in 1..WEB_ROUND_UPDATES {
                web_updated_vm(ctx, &build)?.retire(ctx);
            }
            Ok(())
        });
        failures += usize::from(done.is_none());
    }
    Ok(())
}

// ---- kv_stream_* ----------------------------------------------------------

/// Requests in flight: the store has one accept loop, so more than a
/// few only lengthens the backlog.
const KV_CLIENTS: usize = 4;
/// Requests between two updates; one sub-window.
const KV_SEGMENT: u64 = 12_000;
/// Warm-up of each fresh 1.0 server.
const KV_WARM: u64 = 5_000;
/// Segments served after the chain's last update: one to re-warm, then
/// `KV_POST_SEGMENTS` timed ones.
const KV_POST_SEGMENTS: usize = 2;
/// Chains every run applies (20 updates each, so ≥ 100 updates).
const KV_MIN_CHAINS: usize = 5;
/// Complete set-ups per run (`setup_s` is their median; three left it
/// spread 26 % over ten seeds).
const KV_SET_UPS: usize = 7;

struct KvBuild {
    first: Program,
    updates: Vec<Prepared>,
}

fn kv_set_up(ctx: &mut Ctx, lazy: bool) -> Result<KvBuild, String> {
    ctx.tracer.open_window(SET_UP_WINDOW, true);
    let t0 = ctx.tracer.now();
    let releases = App::Kvstore.releases();
    let sources: Vec<&str> = releases.iter().map(|r| r.source.as_str()).collect();
    let programs = compile_all(ctx, &sources)?;
    let mut updates = Vec::with_capacity(programs.len() - 1);
    for (pair, release) in programs.windows(2).zip(&releases[1..]) {
        updates.push(prepare_timed(ctx, &pair[0], &pair[1], release.prefix)?);
    }
    let mut warm = KvTraffic::new(ctx.seed, 0);
    boot_server(
        ctx,
        App::Kvstore,
        &programs[0],
        lazy,
        KV_CLIENTS,
        &mut warm,
        KV_WARM,
    )?;
    ctx.out.setup_s.push((ctx.tracer.now() - t0) as f64 / 1e9);
    ctx.tracer.close_window();
    let first = programs.into_iter().next().expect("21 releases");
    Ok(KvBuild { first, updates })
}

/// The kvstore release stream: 1.0 → 1.20 on one serving VM, all 20
/// UPT-prepared updates, verified traffic flowing throughout; then a
/// fresh VM and the same chain again.
fn kv_stream(ctx: &mut Ctx, lazy: bool) -> Result<(), String> {
    let mut built = None;
    for _ in 0..KV_SET_UPS {
        built = ctx.guarded("set-up", |ctx| kv_set_up(ctx, lazy)).or(built);
    }
    let build = built.ok_or("no set-up succeeded")?;
    let chain_len = build.updates.len();
    ctx.start_timed();

    ctx.out.pre = ServePhase::new(KV_SEGMENT, chain_len);
    ctx.out.post = ServePhase::new(KV_SEGMENT, KV_POST_SEGMENTS);
    ctx.out.first_rep_updates = chain_len;
    let (mut chains, mut failures) = (0, 0);
    while failures < MAX_FAILURES && more(ctx, chains, KV_MIN_CHAINS) {
        chains += 1;
        let done = ctx.guarded("release chain", |ctx| {
            // The same traffic for every chain: each is the same 20
            // updates at the same virtual moments.
            let mut traffic = KvTraffic::new(ctx.seed, 1);
            let (mut guest, mut client) = boot_server(
                ctx,
                App::Kvstore,
                &build.first,
                lazy,
                KV_CLIENTS,
                &mut traffic,
                KV_WARM,
            )?;
            for (kind, update) in build.updates.iter().enumerate() {
                serve_window(
                    &mut ctx.tracer,
                    &mut ctx.out.pre,
                    &mut guest,
                    &mut client,
                    &mut traffic,
                );
                let sample = apply_update(&mut guest, &mut ctx.tracer, update, |g, tr, slice| {
                    client.pump(g, tr, &mut traffic, slice)
                });
                let committed = sample.committed;
                ctx.book_update(kind, sample);
                if !committed || client.wedged {
                    ctx.absorb(&client);
                    return Err("the chain broke".to_string());
                }
            }
            if ctx.out.updates.len() == chain_len {
                ctx.out.at_commit = guest.counters();
            }
            client.serve(&mut guest, &mut ctx.tracer, &mut traffic, KV_SEGMENT);
            for _ in 0..KV_POST_SEGMENTS {
                serve_window(
                    &mut ctx.tracer,
                    &mut ctx.out.post,
                    &mut guest,
                    &mut client,
                    &mut traffic,
                );
            }
            client.drain(&mut guest, &mut ctx.tracer);
            ctx.absorb(&client);
            Ok(())
        });
        failures += usize::from(done.is_none());
    }
    Ok(())
}

// ---- heap_* -----------------------------------------------------------------

/// Live objects (§4.1's population, scaled to a ~0.15 s pause at 100 %).
const HEAP_OBJECTS: i64 = 220_000;
/// Words per semispace. A lazy epoch at 100 % leaves the old copy and
/// the new version of every object (15 words) beside the original
/// population (1.77 M words): 5.07 M words, with no collection to reclaim
/// them until the commit. 8 Mi words leaves it room.
const HEAP_SEMISPACE_WORDS: usize = 8 * 1024 * 1024;
/// Garbage allocated after the build, in chunks: 2.5 semispaces, so at
/// least two collections run and every page of both semispaces has been
/// touched before anything is timed. A long-running VM has touched its
/// whole heap; a fresh one would pay first-touch page faults inside the
/// pause (the 100 % update-GC and the lazy drain reach 1.8–3.3 M words
/// the build never touched), and what a fault costs on this host changes
/// from one quarter of an hour to the next.
const HEAP_FILL_CHUNKS: i64 = 40;
const HEAP_FILL_CHUNK_WORDS: i64 = (HEAP_SEMISPACE_WORDS / 16) as i64;
/// Field reads per mutator request, and requests per sub-window.
const HEAP_SPIN_ITERS: i64 = 2_000;
const HEAP_SPINS: u64 = 60;
/// The mutator's requests start inside the first this-many objects: a
/// hot set of ~0.4 MB that stays in the core's own cache, so `rps` on a
/// heap workload measures the interpreter and not the shared cache.
const HEAP_HOT_OBJECTS: u64 = 4_096;
/// Host memory streamed through before each timed collection: 512 MiB,
/// one word per cache line. The paper's heaps (160 MB–1.2 GB) were far
/// larger than any cache; this population (14 MB) sits in the host's
/// shared 260 MB last-level cache whenever the neighbours leave it
/// there, and the same update-GC read 4.4 ms or 7.0 ms for minutes at a
/// time depending on that. After the sweep it is in DRAM every time:
/// over the same ten minutes the pause read 4.3–5.4 ms without a sweep,
/// 5.7–6.7 ms after 256 MiB, 6.4–6.9 ms after 512 MiB and 6.5–6.8 ms
/// after 1 GiB.
const EVICT_WORDS: usize = 64 * 1024 * 1024;
/// Repetitions every run executes.
const HEAP_MIN_REPS: usize = 10;
/// One object in this many is read back after the update.
const HEAP_SAMPLE_EVERY: i64 = 1_000;

const HEAP_DRIVER: &str = "
class Driver {
  static field changes: Change[];
  static field others: NoChange[];
  static method build(nc: int, nn: int, salt: int): void {
    var cs: Change[] = new Change[nc];
    var os: NoChange[] = new NoChange[nn];
    Driver.changes = cs;
    Driver.others = os;
    var i: int = 0;
    while (i < nc) { cs[i] = new Change(i + salt); i = i + 1; }
    i = 0;
    while (i < nn) { os[i] = new NoChange(nc + i + salt); i = i + 1; }
  }
  static method fill(chunks: int, words: int): void {
    var i: int = 0;
    while (i < chunks) { var a: int[] = new int[words]; i = i + 1; }
  }
  static method spin(start: int, iters: int): int {
    var nc: int = Driver.changes.length;
    var n: int = nc + Driver.others.length;
    var s: int = 0;
    var i: int = 0;
    var j: int = start;
    while (i < iters) {
      if (j >= n) { j = j - n; }
      if (j < nc) {
        var o: Change = Driver.changes[j];
        s = s + o.a + o.b + o.c;
      } else {
        var p: NoChange = Driver.others[j - nc];
        s = s + p.a + p.b + p.c;
      }
      i = i + 1;
      j = j + 1;
    }
    return s;
  }
  static method changeAt(i: int): Change { return Driver.changes[i]; }
  static method otherAt(i: int): NoChange { return Driver.others[i]; }
  static method churn(): void {
    while (true) { Driver.spin(0, 1000); }
  }
}";

/// The §4.1 classes; the update adds `w` to `Change`.
fn heap_source(updated: bool) -> String {
    let w = if updated { " field w: int;" } else { "" };
    format!(
        "
class Change {{
  field a: int; field b: int; field c: int;{w}
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) {{ this.a = i; this.b = 2 * i; this.c = 3 * i; }}
}}
class NoChange {{
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) {{ this.a = i; this.b = 2 * i; this.c = 3 * i; }}
}}{HEAP_DRIVER}"
    )
}

/// The buffer [`EVICT_WORDS`] describes.
struct Evictor(Vec<u64>);

impl Evictor {
    fn new() -> Evictor {
        let mut evictor = Evictor(vec![0; EVICT_WORDS]);
        evictor.sweep(); // first touch: the pages exist from here on
        evictor
    }

    /// Writes one word in every cache line of the buffer.
    fn sweep(&mut self) {
        for line in self.0.chunks_exact_mut(8) {
            line[0] = line[0].wrapping_add(1);
        }
        std::hint::black_box(&mut self.0);
    }
}

/// What `Driver.spin(start, iters)` must return: object `j` holds
/// `a + b + c = 6 (j + salt)`.
fn spin_checksum(start: i64, iters: i64, objects: i64, salt: i64) -> i64 {
    (0..iters).map(|k| 6 * ((start + k) % objects + salt)).sum()
}

/// One sub-window of mutator requests: each a `Driver.spin` call over a
/// seeded stretch of the population, checked against the host's sum.
fn spin_window(
    ctx: &mut Ctx,
    post: bool,
    guest: &mut Guest,
    rng: &mut Rng,
    salt: i64,
) -> Result<(), String> {
    let mut wrong = 0u64;
    let phase = if post {
        &mut ctx.out.post
    } else {
        &mut ctx.out.pre
    };
    phase.window(&mut ctx.tracer, guest, |tracer, guest, latencies| {
        for _ in 0..HEAP_SPINS {
            let start = rng.below(HEAP_HOT_OBJECTS) as i64;
            let (sum, ns) = tracer.timed("vm.call_static_sync", || {
                guest.call_int("Driver", "spin", &[start, HEAP_SPIN_ITERS])
            });
            if sum != Ok(spin_checksum(start, HEAP_SPIN_ITERS, HEAP_OBJECTS, salt)) {
                wrong += 1;
            }
            latencies.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        0
    });
    ctx.out.attempted += HEAP_SPINS;
    ctx.out.failed += wrong;
    if wrong > 0 {
        return Err(format!("{wrong} spin requests returned a wrong sum"));
    }
    Ok(())
}

/// Reads one object in [`HEAP_SAMPLE_EVERY`] back after the update: it
/// keeps `a, b, c`, and a `Change` has gained `w == 0`.
fn check_sample(guest: &mut Guest, rng: &mut Rng, changed: i64, salt: i64) -> Result<(), String> {
    for _ in 0..HEAP_OBJECTS / HEAP_SAMPLE_EVERY {
        let j = rng.below(HEAP_OBJECTS as u64) as i64;
        let obj = if j < changed {
            guest.call_obj("Driver", "changeAt", &[j])?
        } else {
            guest.call_obj("Driver", "otherAt", &[j - changed])?
        };
        let v = j + salt;
        let mut want = vec![("a", v), ("b", 2 * v), ("c", 3 * v)];
        if j < changed {
            want.push(("w", 0));
        }
        for (field, value) in want {
            if guest.read_int_field(obj, field) != Some(value) {
                return Err(format!("object {j}: field {field} is not {value}"));
            }
        }
    }
    Ok(())
}

/// Table 1. A population of `Change`/`NoChange` objects built by the
/// guest, `changed` of them `Change`; one update adds a field to
/// `Change`. A fresh VM per repetition.
fn heap(ctx: &mut Ctx, changed: i64, lazy: bool) -> Result<(), String> {
    ctx.out.pre = ServePhase::new(HEAP_SPINS, HEAP_MIN_REPS);
    ctx.out.post = ServePhase::new(HEAP_SPINS, HEAP_MIN_REPS);
    ctx.out.first_rep_updates = 1;
    let salt = (ctx.seed % 1_000_000) as i64;
    let mut evictor = Evictor::new();
    ctx.start_timed();
    let (mut reps, mut failures) = (0, 0);
    while failures < MAX_FAILURES && more(ctx, reps, HEAP_MIN_REPS) {
        reps += 1;
        let done = ctx.guarded("repetition", |ctx| {
            // Every repetition draws the same stretches and samples.
            let mut rng = Rng::new(ctx.seed, 1);

            ctx.tracer.open_window(SET_UP_WINDOW, true);
            let t0 = ctx.tracer.now();
            let mut programs = compile_all(ctx, &[&heap_source(false), &heap_source(true)])?;
            let (v2, v1) = (programs.pop().expect("two"), programs.pop().expect("two"));
            let update = prepare_timed(ctx, &v1, &v2, "v1_")?;
            let config = GuestConfig {
                semispace_words: HEAP_SEMISPACE_WORDS,
                quantum: APP_QUANTUM,
                lazy_migration: lazy,
            };
            let mut guest = boot(ctx, &v1, config)?;
            let (built, ns) = ctx.tracer.timed("vm.call_static_sync", || {
                guest.call_void("Driver", "build", &[changed, HEAP_OBJECTS - changed, salt])
            });
            built?;
            guest.call_void("Driver", "fill", &[HEAP_FILL_CHUNKS, HEAP_FILL_CHUNK_WORDS])?;
            ctx.out
                .alloc_ns_per_object
                .push(ns as f64 / HEAP_OBJECTS as f64);
            ctx.out.setup_s.push((ctx.tracer.now() - t0) as f64 / 1e9);
            ctx.tracer.close_window();

            // The paper's "DSU GC vs ordinary GC" comparison point.
            evictor.sweep();
            ctx.tracer.open_window("window[gc]", true);
            let (collected, ns) = ctx.tracer.timed("heap.plain_gc", || guest.plain_gc());
            ctx.tracer.close_window();
            collected?;
            ctx.out.plain_gc_ns.push(ns);
            ctx.out.live_words = guest.counters().used_words;

            spin_window(ctx, false, &mut guest, &mut rng, salt)?;

            let mut churning = false;
            let mut spawn_error = None;
            evictor.sweep();
            let sample = apply_update(&mut guest, &mut ctx.tracer, &update, |g, tr, slice| {
                if !slice {
                    return 0; // no guest threads: the safe point is immediate
                }
                if !churning {
                    churning = true;
                    spawn_error = g.spawn("Driver", "churn").err();
                }
                tr.timed("vm.step_slice", || g.step_slice()).1
            });
            let (committed, transformed) = (sample.committed, sample.numbers.objects_transformed);
            ctx.book_update(0, sample);
            if ctx.out.updates.len() == 1 {
                ctx.out.at_commit = guest.counters();
            }
            if let Some(e) = spawn_error {
                return Err(format!("Driver.churn did not start: {e}"));
            }
            if !committed {
                return Err("the update did not commit".to_string());
            }
            if transformed != changed as u64 {
                return Err(format!(
                    "{transformed} objects transformed, expected {changed}"
                ));
            }
            if guest.lazy_epoch_active() {
                return Err("the lazy epoch is still active after the commit".to_string());
            }
            check_sample(&mut guest, &mut rng, changed, salt)?;

            spin_window(ctx, true, &mut guest, &mut rng, salt)
        });
        failures += usize::from(done.is_none());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = crate::layers::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_arr())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn spin_checksum_wraps_around_the_population() {
        // Objects 8, 9, 0, 1 of a ten-object population, salt 5.
        assert_eq!(spin_checksum(8, 4, 10, 5), 6 * (13 + 14 + 5 + 6));
    }

    #[test]
    fn a_failing_repetition_fails_one_operation_not_the_run() {
        let mut ctx = Ctx::new(1, 1.0, false);
        assert_eq!(ctx.guarded("ok", |_| Ok(7)), Some(7));
        assert_eq!(ctx.guarded::<()>("error", |_| Err("no".to_string())), None);
        assert_eq!(ctx.guarded::<()>("panic", |_| panic!("boom")), None);
        assert_eq!((ctx.out.attempted, ctx.out.failed), (3, 2));
    }
}
