//! Differential testing.
//!
//! * The jit off and on: unfused code, and fused code with the frameless
//!   leaf calls, must compute what the host model computes on randomly
//!   generated guest programs — the same result or the same trap — and
//!   the jit must retire the unfused step count and leave the unfused
//!   heap and trap state behind.
//! * An update is deterministic: two VMs booted alike and given the same
//!   update agree address for address — same cells at the same heap
//!   addresses, registry fingerprint, transformer execution order
//!   (= update-log order; allocation order while nothing has been
//!   collected), event stream, and `UpdateStats` (minus wall-clock
//!   fields).
//! * The template JIT (superinstruction fusion) must be
//!   observationally invisible: jit-on and jit-off runs agree on every
//!   non-profiling observable — including step and slice counts, since
//!   fused ops retire exactly the base instruction count — across
//!   applied, rolled-back, and lazily-committed updates.

mod testkit;

use std::fmt::Write as _;

use testkit::Rng;

use jvolve_repro::dsu::{ApplyOptions, MemorySink, Update, UpdateController, UpdateEvent};
use jvolve_repro::vm::thread::ThreadState;
use jvolve_repro::vm::{ClassId, GcRef, MethodId, Value, Vm, VmConfig, VmError};

/// A tiny expression language over two variables and helper calls,
/// rendered to MJ. The arithmetic helpers nest calls and branches; the
/// rest are call- and branch-free bodies — what the template JIT fuses
/// and the leaf-call fast path runs without a frame — that between them
/// execute every simple op, in its trapping form too: `/` and `%` by zero, field
/// access through a null box, array access out of bounds, `.length` of
/// null. The host model mirrors the guest-visible state they mutate.
#[derive(Debug, Clone)]
enum Expr {
    A,
    B,
    Lit(i8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// `h1(x, y) = x * 2 - y`
    H1(Box<Expr>, Box<Expr>),
    /// `h2(x) = h1(x, 3) + 1` (a nested call)
    H2(Box<Expr>),
    /// `abs(x)` with a branch
    Abs(Box<Expr>),
    /// `x / (y % 11)`: traps on a zero divisor.
    Div(Box<Expr>, Box<Expr>),
    /// `x % (y % 13)`: traps on a zero divisor.
    Rem(Box<Expr>, Box<Expr>),
    /// `box.v += x; box.v` through a box that is null when `x % 11 == 0`.
    Field(Box<Expr>),
    /// The same through the never-null box, read back through a virtual
    /// getter.
    FieldOk(Box<Expr>),
    /// `arr[wrap(x, 9)]` on the 8-element array: index 8 traps.
    AGet(Box<Expr>),
    /// `arr[wrap(x, 9) - 1]`: index -1 traps.
    AGetLo(Box<Expr>),
    /// `arr[wrap(x, 9)] = y; arr.length + y`.
    APut(Box<Expr>, Box<Expr>),
    /// `arrs[wrap(x, 13)].length` on a 12-slot `int[][]` holding a null
    /// (slot 5) and a shorter array (slot 7): slot 12 traps on the
    /// reference-array load, slot 5 on the length.
    ALen(Box<Expr>),
    /// `T.s += x; T.s` (statics).
    Bump(Box<Expr>),
    /// `==` on two of four strings (equal texts in two cells, a third
    /// text, null), as 0/1.
    StrEq(Box<Expr>, Box<Expr>),
    /// `==` and `!=` on two of three references (two objects, null), as
    /// `2 * same + differ`.
    RefEq(Box<Expr>, Box<Expr>),
    /// Two boolean formulas over every int comparison, `!`, unary `-` and
    /// `==` on bools, as `2 * rel + rel2`.
    Rel(Box<Expr>, Box<Expr>),
    /// `succ(id(inc(x))) + seven()`: bodies that fuse to a single
    /// superinstruction each (`x + 9`).
    Leafy(Box<Expr>),
}

/// The trap a guest evaluation ends in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trap {
    DivZero,
    Null,
    Bounds,
}

impl Trap {
    fn of(e: &VmError) -> Trap {
        match e {
            VmError::DivisionByZero => Trap::DivZero,
            VmError::NullPointer { .. } => Trap::Null,
            VmError::IndexOutOfBounds { .. } => Trap::Bounds,
            other => panic!("unexpected trap {other}"),
        }
    }
}

/// Host mirror of the guest state the helpers mutate.
#[derive(Default)]
struct Model {
    s: i64,
    box_v: i64,
    arr: [i64; 8],
}

/// `T.wrap`: `x` reduced into `0..m`.
fn wrap(x: i64, m: i64) -> usize {
    ((x % m + m) % m) as usize
}

impl Expr {
    fn render(&self) -> String {
        let call1 = |f: &str, x: &Expr| format!("T.{f}({})", x.render());
        let call2 = |f: &str, x: &Expr, y: &Expr| format!("T.{f}({}, {})", x.render(), y.render());
        match self {
            Expr::A => "a".into(),
            Expr::B => "b".into(),
            Expr::Lit(v) => format!("({v})"),
            Expr::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            Expr::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            Expr::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            Expr::H1(x, y) => call2("h1", x, y),
            Expr::H2(x) => call1("h2", x),
            Expr::Abs(x) => call1("abs", x),
            Expr::Div(x, y) => call2("div", x, y),
            Expr::Rem(x, y) => call2("rem", x, y),
            Expr::Field(x) => call1("fld", x),
            Expr::FieldOk(x) => call1("fldok", x),
            Expr::AGet(x) => call1("aget", x),
            Expr::AGetLo(x) => call1("agetlo", x),
            Expr::APut(x, y) => call2("aput", x, y),
            Expr::ALen(x) => call1("alen", x),
            Expr::Bump(x) => call1("bump", x),
            Expr::StrEq(x, y) => call2("streq", x, y),
            Expr::RefEq(x, y) => call2("refeq", x, y),
            Expr::Rel(x, y) => call2("relop", x, y),
            Expr::Leafy(x) => call1("leafy", x),
        }
    }

    /// Evaluates left to right, arguments before the call, as the guest
    /// does — so the first trap is the guest's first trap.
    fn eval(&self, a: i64, b: i64, m: &mut Model) -> Result<i64, Trap> {
        let ev = |e: &Expr, m: &mut Model| e.eval(a, b, m);
        Ok(match self {
            Expr::A => a,
            Expr::B => b,
            Expr::Lit(v) => i64::from(*v),
            Expr::Add(x, y) => ev(x, m)?.wrapping_add(ev(y, m)?),
            Expr::Sub(x, y) => ev(x, m)?.wrapping_sub(ev(y, m)?),
            Expr::Mul(x, y) => ev(x, m)?.wrapping_mul(ev(y, m)?),
            Expr::H1(x, y) => ev(x, m)?.wrapping_mul(2).wrapping_sub(ev(y, m)?),
            Expr::H2(x) => ev(x, m)?.wrapping_mul(2).wrapping_sub(3).wrapping_add(1),
            Expr::Abs(x) => ev(x, m)?.wrapping_abs(),
            Expr::Div(x, y) => {
                let (x, d) = (ev(x, m)?, ev(y, m)? % 11);
                if d == 0 {
                    return Err(Trap::DivZero);
                }
                x.wrapping_div(d)
            }
            Expr::Rem(x, y) => {
                let (x, d) = (ev(x, m)?, ev(y, m)? % 13);
                if d == 0 {
                    return Err(Trap::DivZero);
                }
                x.wrapping_rem(d)
            }
            Expr::Field(x) | Expr::FieldOk(x) => {
                let x = ev(x, m)?;
                if matches!(self, Expr::Field(_)) && x % 11 == 0 {
                    return Err(Trap::Null);
                }
                m.box_v = m.box_v.wrapping_add(x);
                m.box_v
            }
            Expr::AGet(x) => {
                let i = wrap(ev(x, m)?, 9);
                *m.arr.get(i).ok_or(Trap::Bounds)?
            }
            Expr::AGetLo(x) => {
                let i = wrap(ev(x, m)?, 9).checked_sub(1).ok_or(Trap::Bounds)?;
                m.arr[i]
            }
            Expr::APut(x, y) => {
                let (x, y) = (ev(x, m)?, ev(y, m)?);
                *m.arr.get_mut(wrap(x, 9)).ok_or(Trap::Bounds)? = y;
                8i64.wrapping_add(y)
            }
            Expr::ALen(x) => match wrap(ev(x, m)?, 13) {
                12 => return Err(Trap::Bounds),
                5 => return Err(Trap::Null),
                7 => 3,
                _ => 8,
            },
            Expr::Bump(x) => {
                let x = ev(x, m)?;
                m.s = m.s.wrapping_add(x);
                m.s
            }
            Expr::StrEq(x, y) => {
                let texts = [Some("ab"), Some("ab"), Some("cd"), None];
                i64::from(texts[wrap(ev(x, m)?, 4)] == texts[wrap(ev(y, m)?, 4)])
            }
            Expr::RefEq(x, y) => {
                // Three distinct referents (the third is null), so
                // identity is index equality.
                let same = wrap(ev(x, m)?, 3) == wrap(ev(y, m)?, 3);
                2 * i64::from(same) + i64::from(!same)
            }
            Expr::Rel(x, y) => {
                let (x, y) = (ev(x, m)?, ev(y, m)?);
                let rel = ((x < y) == (x <= 3)) == (y < 0); // the guest spells it !(y >= 0)
                let rel2 = ((x == y) == (x != y.wrapping_neg())) == (x > y);
                2 * i64::from(rel) + i64::from(rel2)
            }
            Expr::Leafy(x) => ev(x, m)?.wrapping_add(9),
        })
    }
}

/// Random expression with a bounded depth; leaves get likelier as the
/// budget shrinks, matching the old recursive-strategy shape. Two in five
/// inner nodes can trap (about one evaluation in ten each), so some
/// programs die rounds in, after the calls have warmed, and some run through.
fn expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => Expr::A,
            1 => Expr::B,
            _ => Expr::Lit(rng.i8()),
        };
    }
    let d = depth - 1;
    let kind = rng.below(20);
    let mut sub = || Box::new(expr(rng, d));
    match kind {
        0 => Expr::Add(sub(), sub()),
        1 => Expr::Sub(sub(), sub()),
        2 => Expr::Mul(sub(), sub()),
        3 => Expr::H1(sub(), sub()),
        4 => Expr::H2(sub()),
        5 => Expr::Abs(sub()),
        6 => Expr::FieldOk(sub()),
        7 => Expr::Bump(sub()),
        8 => Expr::StrEq(sub(), sub()),
        9 => Expr::RefEq(sub(), sub()),
        10 => Expr::Rel(sub(), sub()),
        11 => Expr::Leafy(sub()),
        12 | 13 => Expr::Div(sub(), sub()),
        14 => Expr::Rem(sub(), sub()),
        15 => Expr::Field(sub()),
        16 => Expr::AGet(sub()),
        17 => Expr::AGetLo(sub()),
        18 => Expr::APut(sub(), sub()),
        _ => Expr::ALen(sub()),
    }
}

/// Guest calls of `T.f` per program; with the jit on, [`run_tier`] runs
/// every round in fused code with the leaf helpers executed frameless.
const ROUNDS: i64 = 32;

fn program_for(e: &Expr, a: i64, b: i64) -> String {
    format!(
        "class Box {{ field v: int; method get(): int {{ return this.v; }} }}
         class T {{
           static field s: int; static field n: int; static field out: int;
           static field bx: Box; static field arr: int[]; static field arrs: int[][];
           static field strs: String[]; static field objs: Box[];
           static method setup(): void {{
             T.bx = new Box();
             T.arr = new int[8];
             T.arrs = new int[12][];
             var i: int = 0;
             while (i < 12) {{ T.arrs[i] = T.arr; i = i + 1; }}
             T.arrs[5] = null; T.arrs[7] = new int[3];
             T.strs = new String[4];
             T.strs[0] = \"ab\"; T.strs[1] = \"a\" + \"b\"; T.strs[2] = \"cd\";
             T.objs = new Box[3]; T.objs[0] = T.bx; T.objs[1] = new Box();
           }}

           static method h1(x: int, y: int): int {{ return x * 2 - y; }}
           static method div(x: int, y: int): int {{ return x / (y % 11); }}
           static method rem(x: int, y: int): int {{ return x % (y % 13); }}
           static method wrap(x: int, m: int): int {{ return (x % m + m) % m; }}
           static method thru(b: Box, x: int): int {{ b.v = b.v + x; return b.v; }}
           static method at(i: int, q: int[]): int {{ return q[i]; }}
           static method put(q: int[], i: int, y: int): int {{ q[i] = y; return q.length + y; }}
           static method len(i: int): int {{ return T.arrs[i].length; }}
           static method bump(x: int): int {{ T.s = T.s + x; return T.s; }}
           static method str(i: int): String {{ return T.strs[i]; }}
           static method obj(i: int): Box {{ return T.objs[i]; }}
           static method seq(p: String, q: String): bool {{ return p == q; }}
           static method same(p: Box, q: Box): bool {{ return p == q; }}
           static method differ(p: Box, q: Box): bool {{ return p != q; }}
           static method rel(x: int, y: int): bool {{
             return ((x < y) == (x <= 3)) == (!(y >= 0));
           }}
           static method rel2(x: int, y: int): bool {{
             return ((x == y) == (x != -y)) == (x > y);
           }}
           static method inc(x: int): int {{ var t: int = x; t + 0; t = t + 1; return t; }}
           static method id(x: int): int {{ return x; }}
           static method succ(x: int): int {{ return x + 1; }}
           static method seven(): int {{ return 7; }}
           static method note(x: int): void {{ T.n = x; }}

           static method h2(x: int): int {{ return T.h1(x, 3) + 1; }}
           static method abs(x: int): int {{ if (x < 0) {{ return -x; }} return x; }}
           static method b2i(c: bool): int {{ if (c) {{ return 1; }} return 0; }}
           static method pick(x: int): Box {{ if (x % 11 == 0) {{ return null; }} return T.bx; }}
           static method fld(x: int): int {{ return T.thru(T.pick(x), x); }}
           static method fldok(x: int): int {{ var p: Box = T.bx; T.thru(p, x); return p.get(); }}
           static method aget(x: int): int {{ return T.at(T.wrap(x, 9), T.arr); }}
           static method agetlo(x: int): int {{ return T.at(T.wrap(x, 9) - 1, T.arr); }}
           static method aput(x: int, y: int): int {{ return T.put(T.arr, T.wrap(x, 9), y); }}
           static method alen(x: int): int {{ return T.len(T.wrap(x, 13)); }}
           static method streq(x: int, y: int): int {{
             return T.b2i(T.seq(T.str(T.wrap(x, 4)), T.str(T.wrap(y, 4))));
           }}
           static method refeq(x: int, y: int): int {{
             var p: Box = T.obj(T.wrap(x, 3));
             var q: Box = T.obj(T.wrap(y, 3));
             return 2 * T.b2i(T.same(p, q)) + T.b2i(T.differ(p, q));
           }}
           static method relop(x: int, y: int): int {{
             return 2 * T.b2i(T.rel(x, y)) + T.b2i(T.rel2(x, y));
           }}
           static method leafy(x: int): int {{ return T.succ(T.id(T.inc(x))) + T.seven(); }}

           static method f(a: int, b: int): int {{ return {}; }}
           static method main(): void {{
             T.setup();
             var i: int = 0;
             while (i < {ROUNDS}) {{
               T.note(i);
               T.out = T.out * 31 + T.f({a} + i, {b}) + T.n;
               i = i + 1;
             }}
           }}
         }}",
        e.render()
    )
}

/// What the host model says `T.main` does: the final `T.out`, or the trap
/// that kills the thread and the round it strikes in.
fn model_run(e: &Expr, a: i64, b: i64) -> Result<i64, (Trap, i64)> {
    let mut m = Model::default();
    let mut out = 0i64;
    for i in 0..ROUNDS {
        let f = e.eval(a.wrapping_add(i), b, &mut m).map_err(|trap| (trap, i))?;
        out = out.wrapping_mul(31).wrapping_add(f).wrapping_add(i);
    }
    Ok(out)
}

/// One guest run of `T.main` with the jit off (base) or on.
struct TierRun {
    /// `T.out` of a finished thread, or the trap that killed it.
    end: Result<i64, VmError>,
    steps: u64,
    fused_steps: u64,
    /// After the thread ended; a trapped thread's frames are still roots.
    fingerprint: u64,
}

fn run_tier(src: &str, jit: bool) -> TierRun {
    let mut vm = Vm::new(VmConfig { enable_jit: jit, ..VmConfig::small() });
    vm.load_source(src).expect("program loads");
    let tid = vm.spawn("T", "main").expect("main spawns");
    assert!(vm.run_to_completion(100_000), "main ends");
    let end = match &vm.thread(tid).expect("thread exists").state {
        ThreadState::Finished => Ok(vm.read_static("T", "out").as_int()),
        ThreadState::Trapped(e) => Err(e.clone()),
        other => panic!("main neither finished nor trapped: {other:?}"),
    };
    let stats = vm.stats();
    TierRun {
        end,
        steps: stats.steps,
        fused_steps: stats.fused_steps,
        fingerprint: vm.heap_fingerprint(),
    }
}

#[test]
fn tiers_match_base_and_host() {
    let (mut finished, mut trapped_warm) = (0, 0);
    for seed in 0..96 {
        let mut rng = Rng::new(seed);
        let e = expr(&mut rng, 5);
        let a = rng.i64_in(-1000, 1000);
        let b = rng.i64_in(-1000, 1000);
        let src = program_for(&e, a, b);
        let expected = model_run(&e, a, b);
        let base = run_tier(&src, false);
        let jit = run_tier(&src, true);

        // Result or trap variant: both tiers against the host model.
        for (tier, run) in [("base", &base), ("jit+leaf", &jit)] {
            let got = run.end.as_ref().copied().map_err(Trap::of);
            let want = expected.map_err(|(trap, _round)| trap);
            assert_eq!(got, want, "seed {seed}: {tier} vs host model\n{src}");
            // ...and the very same trap (context, index, length) as base.
            assert_eq!(run.end, base.end, "seed {seed}: {tier} vs base\n{src}");
        }
        // Fusion and the frameless leaf calls retire exactly the base
        // step count and leave exactly the base trap state behind: the
        // dead thread's frames, with the leaf callee's arguments where
        // its frame would have held them.
        assert_eq!(jit.steps, base.steps, "seed {seed}: jit+leaf steps\n{src}");
        assert_eq!(jit.fingerprint, base.fingerprint, "seed {seed}: jit+leaf heap\n{src}");
        // `main`'s loop OSRs into fused code on its fourth trip.
        let rounds = expected.map_or_else(|(_trap, round)| round, |_| ROUNDS);
        if rounds >= 8 {
            assert!(jit.fused_steps > 0, "seed {seed}: no superinstruction retired\n{src}");
            assert_eq!(base.fused_steps, 0, "seed {seed}: jit off never fuses");
        }
        finished += usize::from(expected.is_ok());
        trapped_warm += usize::from(matches!(expected, Err((_, round)) if round >= 4));
    }
    // The generator keeps both populations alive: programs that run
    // through, and programs that trap in warmed-up (fused, leaf) code.
    assert!(finished >= 5, "only {finished} of 96 programs ran through");
    assert!(trapped_warm >= 10, "only {trapped_warm} of 96 programs trapped after warm-up");
}

// ---- update determinism -------------------------------------------------

/// v1 workload: a ring of `Node`s densely cross-linked through `peer`
/// (every node is shared by several others) plus the backing array, all
/// reachable from statics — the array and three nodes of the ring, so a
/// collection starts from several roots into one shared graph.
/// `App.trace` accumulates an order-sensitive hash the object
/// transformers feed.
const GC_ORACLE_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field nodes: Node[];
  static field a: Node;
  static field b: Node;
  static field c: Node;
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    i = 0;
    while (i < n) {
      arr[i].next = arr[(i + 1) % n];
      arr[i].peer = arr[(i * 7 + 3) % n];
      i = i + 1;
    }
    App.nodes = arr;
    App.a = arr[n / 4];
    App.b = arr[n / 2];
    App.c = arr[(3 * n) / 4];
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) {
      sum = sum * 31 + App.nodes[i].id + App.nodes[i].peer.id + App.nodes[i].next.id;
      i = i + 1;
    }
    return sum;
  }
}";

/// v2: `Node` gains a `gen` field the transformer stamps.
const GC_ORACLE_V2: &str = "
class Node {
  field id: int;
  field gen: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; this.gen = 0; }
}
class App {
  static field nodes: Node[];
  static field a: Node;
  static field b: Node;
  static field c: Node;
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    i = 0;
    while (i < n) {
      arr[i].next = arr[(i + 1) % n];
      arr[i].peer = arr[(i * 7 + 3) % n];
      i = i + 1;
    }
    App.nodes = arr;
    App.a = arr[n / 4];
    App.b = arr[n / 2];
    App.c = arr[(3 * n) / 4];
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) {
      sum = sum * 31 + App.nodes[i].id + App.nodes[i].peer.id + App.nodes[i].next.id;
      i = i + 1;
    }
    return sum;
  }
}";

/// Unchanged by the update and appended to both versions: a thread that
/// parks five frames deep, every frame holding one reference in a local
/// (`L<k>`, the argument) and one as a pending operand (`S<k>`, the first
/// argument of a `keep` call whose second is still being computed), each
/// of its own class — so the address order of the cells the update-GC
/// copies first spells out the order it enumerated the thread's roots in.
const DEEP_STACK: &str = "
class L0 { } class L1 { } class L2 { } class L3 { }
class S0 { } class S1 { } class S2 { } class S3 { }
class Deep {
  static method main(): void { Deep.f0(new L0()); }
  static method f0(l: L0): int { return Deep.keep0(new S0(), Deep.f1(new L1())); }
  static method f1(l: L1): int { return Deep.keep1(new S1(), Deep.f2(new L2())); }
  static method f2(l: L2): int { return Deep.keep2(new S2(), Deep.f3(new L3())); }
  static method f3(l: L3): int {
    var node: Node = App.a;
    return Deep.keep3(new S3(), Deep.park(node));
  }
  static method park(n: Node): int { Sys.sleep(1000000); return 0; }
  static method keep0(s: S0, v: int): int { return v; }
  static method keep1(s: S1, v: int): int { return v; }
  static method keep2(s: S2, v: int): int { return v; }
  static method keep3(s: S3, v: int): int { return v; }
}";

/// The first 16 cells of the active semispace after [`run_gc_oracle`]'s
/// update, as `(address, class id)`: a copying collection lays cells out
/// in root order, so these read `L0 S0 L1 S1 L2 S2 L3` (classes 8–15),
/// `f3`'s `node` as its (old copy, new object) pair, `S3`, then the
/// statics' ring. Recorded with per-frame `locals`/`stack` vectors; a
/// frame layout that enumerates roots in any other order fails here.
const ROOT_ORDER_HEAD: [(u32, u32); 16] = [
    (2097153, 8),
    (2097154, 12),
    (2097155, 9),
    (2097156, 13),
    (2097157, 10),
    (2097158, 14),
    (2097159, 11),
    (2097160, 6),
    (2097164, 17),
    (2097169, 15),
    (2097571, 6),
    (2097575, 17),
    (2097580, 6),
    (2097584, 17),
    (2097589, 6),
    (2097593, 17),
];

/// Order-sensitive transformer: `App.trace` becomes a rolling hash of the
/// transformer *execution order* — any divergence from the update log's
/// from-space-address order changes it.
const GC_ORACLE_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    to.peer = from.peer;
    to.gen = 1;
    App.trace = App.trace * 31 + from.id + 1;
  }
}";

/// A deterministic dump of the registry (same scheme as the controller's
/// rollback tests): classes, methods, and the JTOC, with map-backed
/// tables sorted.
fn registry_fingerprint(vm: &Vm) -> String {
    let reg = vm.registry();
    let mut out = String::new();
    for class in reg.classes() {
        writeln!(out, "class {} name={} super={:?}", class.id, class.name, class.super_id)
            .unwrap();
        writeln!(out, "  layout={:?} ref_map={:?} tib={:?}", class.layout, class.ref_map, class.tib)
            .unwrap();
        let mut vslots: Vec<_> = class.vslots.iter().collect();
        vslots.sort();
        let mut statics: Vec<_> = class.statics.iter().collect();
        statics.sort_by_key(|(name, _)| name.as_str());
        writeln!(out, "  vslots={vslots:?} statics={statics:?}").unwrap();
    }
    for i in 0..reg.method_count() {
        let m = reg.method(MethodId(i as u32));
        writeln!(out, "method {} class={} name={}", m.id, m.class, m.name).unwrap();
    }
    for slot in 0..reg.jtoc_len() {
        writeln!(out, "jtoc[{slot}]={} ref={}", reg.jtoc_get(slot as u32), reg.jtoc_is_ref(slot as u32))
            .unwrap();
    }
    out
}

/// Everything two runs of the same update must agree on. No wall-clock:
/// `UpdateStats` Duration fields and `PhaseExited` events (which carry
/// elapsed time) are excluded; everything else must be bit-identical,
/// heap addresses included.
#[derive(Debug, PartialEq, Eq)]
struct OracleOutcome {
    used_words: usize,
    /// Every object in the active semispace, in address order.
    objects: Vec<(GcRef, ClassId)>,
    heap_fingerprint: u64,
    registry_fingerprint: String,
    /// Rolling hash of transformer execution order (= update-log order).
    trace: i64,
    checksum: i64,
    stats: (u64, usize, usize, usize, usize, usize, usize, usize, usize, usize),
    events: Vec<String>,
}

fn run_gc_oracle(nodes: i64) -> OracleOutcome {
    let mut vm = Vm::new(VmConfig::default());
    let old = jvolve_repro::lang::compile(&format!("{GC_ORACLE_V1}{DEEP_STACK}"))
        .expect("v1 compiles");
    let new = jvolve_repro::lang::compile(&format!("{GC_ORACLE_V2}{DEEP_STACK}"))
        .expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(nodes)]).expect("build runs");
    // Park the deep thread before the update, so the update-GC's first
    // roots are its frames.
    let deep = vm.spawn("Deep", "main").expect("Deep.main spawns");
    vm.run_until(1_000, |vm, _| {
        matches!(vm.thread(deep).expect("deep thread").state, ThreadState::Blocked(_))
    });
    assert_eq!(vm.thread(deep).expect("deep thread").frames.len(), 6, "main, f0..f3, park");

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_ORACLE_TRANSFORMERS);

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let stats = controller.run_to_completion(&mut vm).expect("update applies");

    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("checksum runs")
        .expect("returns")
        .as_int();
    let snapshot = vm.registry_mut().layout_snapshot();
    let mut objects = Vec::new();
    vm.heap().for_each_object(&snapshot, |r, class| objects.push((r, class)));
    OracleOutcome {
        used_words: vm.heap().used_words(),
        objects,
        heap_fingerprint: vm.heap_fingerprint(),
        registry_fingerprint: registry_fingerprint(&vm),
        trace,
        checksum,
        stats: (
            stats.slices_waited,
            stats.barriers_installed,
            stats.osr_replacements,
            stats.active_migrations,
            stats.classes_loaded,
            stats.bodies_swapped,
            stats.methods_invalidated,
            stats.objects_transformed,
            stats.gc_copied_cells,
            stats.gc_copied_words,
        ),
        events: events
            .events
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::PhaseExited { .. }))
            .map(|e| match e {
                // Commit/abort events carry wall-clock; keep the fact
                // that they fired, drop the timing.
                UpdateEvent::Committed { .. } => "Committed".to_string(),
                UpdateEvent::Aborted { .. } => "Aborted".to_string(),
                other => format!("{other:?}"),
            })
            .collect(),
    }
}

/// What the oracle transformers leave in `App.trace` after running over
/// nodes with these ids, in this order.
fn trace_of(ids: impl Iterator<Item = i64>) -> i64 {
    ids.fold(1, |t, id| t.wrapping_mul(31).wrapping_add(id + 1))
}

/// The determinism gate: the same workload + update under
/// `VmConfig::default()`, twice, must agree in every non-wall-clock
/// observable down to heap addresses, and the transformers must have run
/// in update-log order — allocation order here, where nothing is
/// collected before the update.
#[test]
fn same_update_twice_agrees_address_for_address() {
    const NODES: i64 = 400;
    let first = run_gc_oracle(NODES);
    assert_eq!(first.stats.7, NODES as usize, "every node transformed");
    assert!(first.objects.len() >= NODES as usize, "the heap walk saw the nodes");
    assert_eq!(first.trace, trace_of(0..NODES), "transformers ran in update-log order");
    assert_eq!(first, run_gc_oracle(NODES));
    let head: Vec<(u32, u32)> = first.objects.iter().take(16).map(|(r, c)| (r.0, c.0)).collect();
    assert_eq!(head, ROOT_ORDER_HEAD, "the update-GC enumerated roots in a different order");
}

// ---- template-JIT on/off oracle ----------------------------------------

/// Everything the jit oracle compares across `enable_jit` settings. VM
/// stats deliberately exclude the counters that differ by construction
/// (`jit_compiles`, `fused_steps`) but
/// include `steps` and `slices`: fused superinstructions must retire
/// *exactly* the base instruction count at exactly the same yield points,
/// so even the scheduler's interleaving is bit-identical.
#[derive(Debug, PartialEq, Eq)]
struct JitOracleOutcome {
    heap_fingerprint: u64,
    registry_fingerprint: String,
    trace: i64,
    checksum: i64,
    /// (slices, steps, gcs, base_compiles).
    vm_stats: (u64, u64, u64, u64),
    events: Vec<String>,
}

/// Makes `update` fail at the very end of its install step — after the
/// renames, strips, batch load, body swaps, invalidation and OSR — so the
/// controller replays a full rollback ledger: the VM gets a class no
/// payload knows about, and the transformer batch is made to define it
/// too. The source still compiles and type-checks (a source that does
/// not is rejected in `Pending`, before anything is installed); only the
/// load collides.
fn rig_install_failure(vm: &mut Vm, update: &mut Update) {
    const BYSTANDER: &str = "class Bystander { }";
    let bystander = jvolve_repro::lang::compile(BYSTANDER).expect("bystander compiles");
    vm.load_classes(&bystander).expect("bystander loads");
    let source = format!("{}{BYSTANDER}", update.transformers_source());
    update.set_transformers_source(source);
}

/// Runs the ring workload with the template JIT on (every method fused at
/// its first compile) or off, applies an update — eagerly, lazily, or inducing a mid-install failure
/// and rollback — then keeps executing through the same (invalidated and
/// re-resolved) code. Returns the cross-mode observables plus the raw
/// stats so callers can assert the jit tier actually engaged.
fn run_jit_oracle(
    enable_jit: bool,
    rollback: bool,
    lazy: bool,
) -> (JitOracleOutcome, jvolve_repro::vm::VmStats) {
    const NODES: i64 = 300;
    let mut vm = Vm::new(VmConfig {
        enable_jit,
        lazy_migration: lazy,
        ..VmConfig::small()
    });
    let old = jvolve_repro::lang::compile(GC_ORACLE_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_ORACLE_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(NODES)]).expect("build runs");
    // Warm up, so the fused code holds pre-update operands.
    for _ in 0..3 {
        vm.call_static_sync("App", "checksum", &[]).expect("warm checksum runs");
    }

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_ORACLE_TRANSFORMERS);
    if rollback {
        rig_install_failure(&mut vm, &mut update);
    }

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let result = controller.run_to_completion(&mut vm);
    assert_eq!(result.is_err(), rollback, "rollback={rollback}: {result:?}");

    // Post-update execution through the invalidated call sites and (in
    // jit mode) the recompiled fused bodies.
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("post-update checksum runs")
        .expect("returns")
        .as_int();
    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let s = vm.stats().clone();
    let outcome = JitOracleOutcome {
        heap_fingerprint: vm.heap_fingerprint(),
        registry_fingerprint: registry_fingerprint(&vm),
        trace,
        checksum,
        vm_stats: (s.slices, s.steps, s.gcs, s.base_compiles),
        events: events
            .events
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::PhaseExited { .. }))
            .map(|e| match e {
                UpdateEvent::Committed { .. } => "Committed".to_string(),
                UpdateEvent::Aborted { .. } => "Aborted".to_string(),
                // Keeps the from-space size, drops the arm's wall time.
                UpdateEvent::LazyEpochBegun { from_words, .. } => {
                    format!("LazyEpochBegun {{ from_words: {from_words} }}")
                }
                other => format!("{other:?}"),
            })
            .collect(),
    };
    (outcome, s)
}

/// The jit-on/off oracle: identical heap and registry fingerprints,
/// transformer trace, guest results, step/slice counts, and normalized
/// event streams across an applied update AND a rolled-back one, in both
/// eager and lazy commit modes — while the jit run provably compiled,
/// fused, and executed superinstructions.
#[test]
fn jit_tier_is_observationally_invisible() {
    for (rollback, lazy) in [(false, false), (true, false), (false, true), (true, true)] {
        let (off, off_stats) = run_jit_oracle(false, rollback, lazy);
        let (on, on_stats) = run_jit_oracle(true, rollback, lazy);
        assert_eq!(off, on, "rollback={rollback} lazy={lazy}: jit modes diverged");
        assert_eq!(off_stats.jit_compiles, 0, "jit off never jit-compiles");
        assert!(
            on_stats.jit_compiles > 0,
            "rollback={rollback} lazy={lazy}: the jit tier never engaged"
        );
        assert!(
            on_stats.fused_steps > 0,
            "rollback={rollback} lazy={lazy}: no superinstruction ever retired"
        );
        if rollback {
            assert_eq!(on.trace, 1, "no transformer ran before the rollback");
            assert!(on.events.iter().any(|e| e == "Aborted"), "{:?}", on.events);
            assert!(
                on.events.iter().any(|e| e.starts_with("OsrApplied")),
                "the install must have run to its last step before failing: {:?}",
                on.events
            );
        } else {
            assert!(on.trace != 1, "transformers fed the trace");
        }
    }
}

// ---- recursive transformer ordering (paper §4.2) -----------------------

/// Chain workload for the recursion stress: `Node(i).next = Node(i+1)`.
const GC_CHAIN_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  ctor(i: int, n: Node) { this.id = i; this.next = n; }
}
class App {
  static field head: Node;
  static field trace: int;
  static method build(n: int): void {
    var head: Node = null;
    var i: int = n - 1;
    while (i >= 0) { head = new Node(i, head); i = i - 1; }
    App.head = head;
    App.trace = 1;
  }
}";

const GC_CHAIN_V2: &str = "
class Node {
  field id: int;
  field depth: int;
  field next: Node;
  ctor(i: int, n: Node) { this.id = i; this.next = n; this.depth = 0; }
}
class App {
  static field head: Node;
  static field trace: int;
  static method build(n: int): void {
    var head: Node = null;
    var i: int = n - 1;
    while (i >= 0) { head = new Node(i, head); i = i - 1; }
    App.head = head;
    App.trace = 1;
  }
}";

/// \"Transform `o` before I read it\" (paper §3.4/§4.2): each transformer
/// forces its referent first, so resolution recurses to the chain tail
/// and unwinds back. The trace records *completion* order.
const GC_CHAIN_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    if (from.next != null) {
      Dsu.forceTransform(from.next);
      to.depth = from.next.depth + 1;
    }
    App.trace = App.trace * 31 + from.id + 1;
  }
}";

/// Runs the chain update and returns (trace transcript hash, head depth).
fn run_chain_oracle(nodes: i64) -> (i64, i64) {
    let mut vm = Vm::new(VmConfig::small());
    let old = jvolve_repro::lang::compile(GC_CHAIN_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_CHAIN_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(nodes)]).expect("build runs");

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_CHAIN_TRANSFORMERS);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("update applies");
    assert_eq!(stats.objects_transformed, nodes as usize);

    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let Value::Ref(head) = vm.read_static("App", "head") else { panic!("head is null") };
    let Value::Int(depth) = vm.read_field(head, "depth") else { panic!("depth unset") };
    (trace, depth)
}

/// Recursive "transform before read" requests resolve in update-log
/// order: the chain is allocated tail first, so the completion-order
/// transcript lists the ids descending, and every depth is computed from
/// an already-transformed referent.
#[test]
fn recursive_transformer_ordering_follows_the_update_log() {
    const NODES: i64 = 40;
    let (trace, depth) = run_chain_oracle(NODES);
    assert_eq!(trace, trace_of((0..NODES).rev()), "transcript diverged");
    assert_eq!(depth, NODES - 1, "depth propagated from the chain tail");
}
