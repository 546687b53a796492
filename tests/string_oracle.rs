//! Reference oracle for guest string operations.
//!
//! The interpreter reads string operands in place (`Heap::str_view`) and
//! builds results inside the guest heap (`alloc_concat`, `alloc_substr`).
//! Every `Str.*` native, `==` and `+`, executed by guest code, must equal
//! the same operation on Rust `str`s — over random strings that include
//! the empty string, multi-byte UTF-8 and byte lengths straddling the
//! heap's word boundaries; with the jit tier (and with it the frameless
//! leaf-call instantiation of the op table that `==` lives in) on and
//! off; and in the middle of a lazy-migration epoch, where operands are
//! loaded through the read barrier.

mod testkit;

use testkit::Rng;

use jvolve_repro::dsu::{ApplyOptions, StepProgress, Update, UpdateController};
use jvolve_repro::vm::{GcRef, Value, Vm, VmConfig, VmError};

/// One static wrapper per operation; `eqHot` calls the leaf `eq` from a
/// loop, so with the jit tier on all but its first call run in
/// `exec_leaf`. `Box` exists to be updated: `boxed*` read their operands
/// out of objects that are stale mid-epoch.
const V1: &str = "
class Box {
  field s: String;
  ctor(s: String) { this.s = s; }
}
class S {
  static field boxes: Box[];
  static field out: String[];
  static method eq(a: String, b: String): bool { return a == b; }
  static method eqHot(a: String, b: String): int {
    var n: int = 0;
    var i: int = 0;
    while (i < 3) { if (S.eq(a, b)) { n = n + 1; } i = i + 1; }
    return n;
  }
  static method ne(a: String, b: String): bool { return a != b; }
  static method cat(a: String, b: String): String { return a + b; }
  static method len(a: String): int { return Str.len(a); }
  static method substr(a: String, f: int, t: int): String { return Str.substr(a, f, t); }
  static method indexOf(a: String, b: String): int { return Str.indexOf(a, b); }
  static method split(a: String, b: String): String[] { return Str.split(a, b); }
  static method fromInt(i: int): String { return Str.fromInt(i); }
  static method toInt(a: String): int { return Str.toInt(a); }
  static method charAt(a: String, i: int): int { return Str.charAt(a, i); }
  static method contains(a: String, b: String): bool { return Str.contains(a, b); }
  static method startsWith(a: String, b: String): bool { return Str.startsWith(a, b); }
  static method trim(a: String): String { return Str.trim(a); }
  static method box(n: int): void { S.boxes = new Box[n]; }
  static method fill(i: int, a: String): void { S.boxes[i] = new Box(a); }
  static method boxedEq(i: int, j: int): bool { return S.boxes[i].s == S.boxes[j].s; }
  static method boxedCat(i: int, j: int): String { return S.boxes[i].s + S.boxes[j].s; }
  static method reserve(n: int): void { S.out = new String[n]; }
  static method put(i: int, a: String): void { S.out[i] = a; }
  static method churnCat(a: String, b: String, n: int): String {
    var r: String = a;
    var i: int = 0;
    while (i < n) { r = a + b; i = i + 1; }
    return r;
  }
  static method churnNatives(a: String, n: int): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < n) {
      var parts: String[] = Str.split(a, \" \");
      var last: String = Str.trim(Str.substr(a, 1, Str.len(a)));
      sum = sum + parts.length + Str.len(parts[parts.length - 1]) + Str.len(last)
          + Str.len(Str.fromInt(i));
      i = i + 1;
    }
    return sum;
  }
}";

/// `V1` with a field added to `Box`, so every `Box` is stale mid-epoch.
fn v2() -> String {
    V1.replace("field s: String;", "field s: String;\n  field n: int;")
}

const ALPHABET: [char; 12] = ['a', 'b', 'k', '0', '7', '-', ' ', '\t', 'é', 'ß', '€', '𝄞'];
/// Byte lengths on both sides of the first two payload-word boundaries.
const EDGE_LENS: [usize; 9] = [0, 1, 7, 8, 9, 15, 16, 17, 24];

/// A random string of exactly `len` bytes.
fn text_of_len(rng: &mut Rng, len: usize) -> String {
    let mut s = String::new();
    while s.len() < len {
        let c = *rng.pick(&ALPHABET);
        s.push(if s.len() + c.len_utf8() <= len { c } else { 'x' });
    }
    s
}

fn text(rng: &mut Rng) -> String {
    let len = if rng.bool() { *rng.pick(&EDGE_LENS) } else { rng.below(40) };
    text_of_len(rng, len)
}

/// A needle that occurs in `hay` about half the time.
fn needle(rng: &mut Rng, hay: &str) -> String {
    if rng.bool() || hay.is_empty() {
        let len = rng.below(4);
        return text_of_len(rng, len);
    }
    let bounds: Vec<usize> = (0..=hay.len()).filter(|&i| hay.is_char_boundary(i)).collect();
    let from = rng.below(bounds.len());
    let to = rng.range(from, bounds.len());
    hay[bounds[from]..bounds[to]].to_string()
}

fn new_vm(enable_jit: bool) -> Vm {
    // The default 16 MiB semispaces: host-held operands are not GC roots,
    // so these VMs must never collect (asserted by every caller).
    let mut vm = Vm::new(VmConfig { enable_jit, ..VmConfig::default() });
    vm.load_source(V1).expect("oracle program loads");
    vm
}

fn guest_str(vm: &mut Vm, s: &str) -> Value {
    vm.alloc_string_value(s).expect("fits")
}

fn call(vm: &mut Vm, method: &str, args: &[Value]) -> Result<Option<Value>, VmError> {
    vm.call_static_sync("S", method, args)
}

fn call_str(vm: &mut Vm, method: &str, args: &[Value]) -> String {
    let v = call(vm, method, args).expect("runs").expect("returns");
    vm.display_value(v)
}

fn call_int(vm: &mut Vm, method: &str, args: &[Value]) -> i64 {
    call(vm, method, args).expect("runs").expect("returns").as_int()
}

fn call_bool(vm: &mut Vm, method: &str, args: &[Value]) -> bool {
    call(vm, method, args).expect("runs").expect("returns").as_bool()
}

fn string_array(vm: &Vm, v: Value) -> Vec<String> {
    let Value::Ref(arr) = v else { panic!("not an array: {v:?}") };
    (0..vm.heap().len_of(arr) as usize)
        .map(|i| vm.heap().read_string(GcRef(vm.heap().get(arr, i) as u32)))
        .collect()
}

/// One round: every operation on a fresh random operand pair, guest
/// result against the Rust `str` reference.
fn check_round(vm: &mut Vm, rng: &mut Rng, ctx: &str) {
    let sa = text(rng);
    let sb = match rng.below(4) {
        0 => sa.clone(),
        1 => needle(rng, &sa),
        _ => text(rng),
    };
    let ctx = format!("{ctx} a={sa:?} b={sb:?}");
    let (a, b) = (guest_str(vm, &sa), guest_str(vm, &sb));

    assert_eq!(call_bool(vm, "eq", &[a, b]), sa == sb, "== {ctx}");
    assert_eq!(call_bool(vm, "ne", &[a, b]), sa != sb, "!= {ctx}");
    assert_eq!(call_int(vm, "eqHot", &[a, b]), if sa == sb { 3 } else { 0 }, "hot == {ctx}");
    assert!(call_bool(vm, "eq", &[a, a]), "identity {ctx}");
    assert!(!call_bool(vm, "eq", &[a, Value::Null]), "null rhs {ctx}");
    assert!(!call_bool(vm, "eq", &[Value::Null, b]), "null lhs {ctx}");
    assert!(call_bool(vm, "eq", &[Value::Null, Value::Null]), "null == null");

    assert_eq!(call_str(vm, "cat", &[a, b]), format!("{sa}{sb}"), "+ {ctx}");
    assert_eq!(call_int(vm, "len", &[a]), sa.len() as i64, "len {ctx}");
    assert_eq!(
        call_int(vm, "indexOf", &[a, b]),
        sa.find(&sb).map_or(-1, |i| i as i64),
        "indexOf {ctx}"
    );
    assert_eq!(call_bool(vm, "contains", &[a, b]), sa.contains(&sb), "contains {ctx}");
    assert_eq!(call_bool(vm, "startsWith", &[a, b]), sa.starts_with(&sb), "startsWith {ctx}");
    assert_eq!(call_str(vm, "trim", &[a]), sa.trim(), "trim {ctx}");

    let parts = call(vm, "split", &[a, b]).expect("runs").expect("returns");
    let want: Vec<&str> = if sb.is_empty() { vec![sa.as_str()] } else { sa.split(&sb).collect() };
    assert_eq!(string_array(vm, parts), want, "split {ctx}");

    let (from, to) = (rng.below(sa.len() + 2), rng.below(sa.len() + 2));
    let got = call(vm, "substr", &[a, Value::Int(from as i64), Value::Int(to as i64)]);
    let want = if from > to || to > sa.len() {
        Err(VmError::IndexOutOfBounds { index: to as i64, len: sa.len() as u32 })
    } else if let Some(&index) = [from, to].iter().find(|&&i| !sa.is_char_boundary(i)) {
        Err(VmError::NotCharBoundary { index })
    } else {
        Ok(sa[from..to].to_string())
    };
    assert_eq!(
        got.map(|v| vm.display_value(v.expect("returns"))),
        want,
        "substr {from}..{to} {ctx}"
    );

    if !sa.is_empty() {
        let i = rng.below(sa.len());
        assert_eq!(
            call_int(vm, "charAt", &[a, Value::Int(i as i64)]),
            i64::from(sa.as_bytes()[i]),
            "charAt {i} {ctx}"
        );
    }

    let n = match rng.below(6) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => rng.i64_in(-1000, 1000),
        _ => rng.i64(),
    };
    assert_eq!(call_str(vm, "fromInt", &[Value::Int(n)]), n.to_string(), "fromInt");
    let numeral = match rng.below(3) {
        0 => format!(" {n}\t"),
        1 => n.to_string(),
        _ => sa.clone(),
    };
    let arg = guest_str(vm, &numeral);
    assert_eq!(
        call_int(vm, "toInt", &[arg]),
        numeral.trim().parse::<i64>().unwrap_or(0),
        "toInt {numeral:?}"
    );
}

#[test]
fn guest_string_ops_match_the_rust_reference() {
    for enable_jit in [true, false] {
        let mut vm = new_vm(enable_jit);
        for seed in 0..6 {
            let mut rng = Rng::new(seed);
            for round in 0..60 {
                check_round(&mut vm, &mut rng, &format!("jit={enable_jit} seed={seed} #{round}"));
            }
        }
        assert_eq!(vm.stats().gcs, 0, "operands were never moved under the host");
        if enable_jit {
            assert!(vm.stats().ic_hits > 0, "the leaf-call path ran");
        }
    }
}

#[test]
fn negative_substr_offsets_are_out_of_bounds() {
    let mut vm = new_vm(true);
    let a = guest_str(&mut vm, "abc");
    for (from, to) in [(-1, 2), (0, -1), (-3, -2), (i64::MIN, i64::MAX)] {
        assert_eq!(
            call(&mut vm, "substr", &[a, Value::Int(from), Value::Int(to)]),
            Err(VmError::IndexOutOfBounds { index: to, len: 3 }),
            "{from}..{to}"
        );
    }
}

/// Mid-epoch the leaf path is off and field loads go through the read
/// barrier: the same oracle must hold, and strings reached through stale
/// objects compare and concatenate like any other.
#[test]
fn guest_string_ops_match_the_reference_mid_lazy_epoch() {
    for enable_jit in [true, false] {
        let mut vm = Vm::new(VmConfig {
            enable_jit,
            lazy_migration: true,
            ..VmConfig::default()
        });
        let old = jvolve_repro::lang::compile(V1).expect("v1 compiles");
        let new = jvolve_repro::lang::compile(&v2()).expect("v2 compiles");
        vm.load_classes(&old).expect("v1 loads");

        let mut rng = Rng::new(99);
        let boxed: Vec<String> = EDGE_LENS.iter().map(|&n| text_of_len(&mut rng, n)).collect();
        call(&mut vm, "box", &[Value::Int(2 * boxed.len() as i64)]).expect("runs");
        for (i, s) in boxed.iter().chain(boxed.iter()).enumerate() {
            let arg = guest_str(&mut vm, s);
            call(&mut vm, "fill", &[Value::Int(i as i64), arg]).expect("runs");
        }

        let update = Update::prepare(&old, &new, "v1_").expect("update prepares");
        let mut controller = UpdateController::new(&update, ApplyOptions::default());
        while !vm.lazy_epoch_active() {
            match controller.step(&mut vm) {
                StepProgress::Pending(_) => {}
                other => panic!("no lazy epoch: {other:?} {:?}", controller.error()),
            }
        }

        let n = boxed.len();
        for i in 0..n {
            // `i` and `i + n` hold equal texts in distinct cells.
            let (x, y, z) = (
                Value::Int(i as i64),
                Value::Int((i + n) as i64),
                Value::Int(((i + 1) % n) as i64),
            );
            assert!(call_bool(&mut vm, "boxedEq", &[x, y]), "boxed == at {i}");
            assert_eq!(
                call_bool(&mut vm, "boxedEq", &[x, z]),
                boxed[i] == boxed[(i + 1) % n],
                "boxed == across {i}"
            );
            assert_eq!(
                call_str(&mut vm, "boxedCat", &[z, y]),
                format!("{}{}", boxed[(i + 1) % n], boxed[i]),
                "boxed + at {i}"
            );
        }
        for round in 0..60 {
            check_round(&mut vm, &mut rng, &format!("mid-epoch jit={enable_jit} #{round}"));
        }
        assert!(vm.lazy_epoch_active(), "every round above ran inside the epoch");
        assert_eq!(vm.stats().gcs, 0, "operands were never moved under the host");

        loop {
            match controller.step(&mut vm) {
                StepProgress::Pending(_) => {}
                StepProgress::Committed => break,
                StepProgress::Aborted => panic!("update aborted: {:?}", controller.error()),
            }
        }
        assert!(call_bool(&mut vm, "boxedEq", &[Value::Int(1), Value::Int(1 + n as i64)]));
    }
}

/// A heap whose strings were all built by `+`, `Str.substr`, `Str.trim`
/// and `Str.split` fingerprints the same as one holding the same texts
/// allocated from host `&str`s.
#[test]
fn derived_strings_fingerprint_like_allocated_ones() {
    const SLOTS: usize = 400;
    for seed in 0..4 {
        let mut rng = Rng::new(1000 + seed);
        let (mut built, mut plain) = (new_vm(true), new_vm(true));
        for vm in [&mut built, &mut plain] {
            call(vm, "reserve", &[Value::Int(SLOTS as i64)]).expect("runs");
        }
        let mut texts: Vec<String> = Vec::new();
        let keep = |built: &mut Vm, v: Value, texts: &mut Vec<String>| {
            if texts.len() < SLOTS {
                let at = Value::Int(texts.len() as i64);
                texts.push(built.display_value(v));
                call(built, "put", &[at, v]).expect("runs");
            }
        };
        while texts.len() < SLOTS {
            let (sa, sb) = (text(&mut rng), text(&mut rng));
            let (a, b) = (guest_str(&mut built, &sa), guest_str(&mut built, &sb));
            let cat = call(&mut built, "cat", &[a, b]).expect("runs").expect("returns");
            keep(&mut built, cat, &mut texts);
            let trimmed = call(&mut built, "trim", &[cat]).expect("runs").expect("returns");
            keep(&mut built, trimmed, &mut texts);
            let bounds: Vec<usize> = (0..=sa.len()).filter(|&i| sa.is_char_boundary(i)).collect();
            let from = rng.below(bounds.len());
            let to = rng.range(from, bounds.len());
            let cut = [a, Value::Int(bounds[from] as i64), Value::Int(bounds[to] as i64)];
            let sub = call(&mut built, "substr", &cut).expect("runs").expect("returns");
            keep(&mut built, sub, &mut texts);
            let sep = guest_str(&mut built, " ");
            let parts = call(&mut built, "split", &[cat, sep]).expect("runs").expect("returns");
            let Value::Ref(arr) = parts else { panic!("split returned {parts:?}") };
            let first = Value::Ref(GcRef(built.heap().get(arr, 0) as u32));
            keep(&mut built, first, &mut texts);
        }
        for (i, t) in texts.iter().enumerate() {
            let arg = guest_str(&mut plain, t);
            call(&mut plain, "put", &[Value::Int(i as i64), arg]).expect("runs");
        }
        assert_eq!(built.stats().gcs + plain.stats().gcs, 0);
        assert_eq!(built.heap_fingerprint(), plain.heap_fingerprint(), "seed {seed}");
    }
}

/// Allocating string ops that run out of heap retry after the collection
/// moved their operands: the retried op must read the moved cells.
#[test]
fn string_allocation_retries_after_its_operands_moved() {
    for enable_jit in [true, false] {
        for seed in 0..4 {
            let mut rng = Rng::new(2000 + seed);
            let mut vm = Vm::new(VmConfig {
                semispace_words: 256,
                enable_jit,
                ..VmConfig::default()
            });
            vm.load_source(V1).expect("oracle program loads");
            let (sa, sb) = (text_of_len(&mut rng, 17), text(&mut rng));
            let (a, b) = (guest_str(&mut vm, &sa), guest_str(&mut vm, &sb));
            assert_eq!(vm.stats().gcs, 0, "both operands allocated before any collection");

            let joined = call_str(&mut vm, "churnCat", &[a, b, Value::Int(500)]);
            assert_eq!(joined, format!("{sa}{sb}"), "jit={enable_jit} seed={seed}");
            let cat_gcs = vm.stats().gcs;
            assert!(cat_gcs > 0, "`+` ran out of heap and retried");

            const ROUNDS: i64 = 300;
            let spaced = format!("x{sa} {sb} ");
            let arg = guest_str(&mut vm, &spaced);
            let sum = call_int(&mut vm, "churnNatives", &[arg, Value::Int(ROUNDS)]);
            let parts: Vec<&str> = spaced.split(' ').collect();
            let per_round = parts.len() + parts[parts.len() - 1].len() + spaced[1..].trim().len();
            let digits: usize = (0..ROUNDS).map(|i| i.to_string().len()).sum();
            assert_eq!(
                sum,
                per_round as i64 * ROUNDS + digits as i64,
                "jit={enable_jit} seed={seed}"
            );
            assert!(vm.stats().gcs > cat_gcs, "the natives ran out of heap and retried");
        }
    }
}
