//! Property tests for the copying collector over random object graphs.
//!
//! Graphs mix plain objects, ref arrays, prim arrays, and strings, with
//! arbitrary edges (including cycles and self-loops). Invariants:
//!
//! * an ordinary collection preserves the reachable graph *shape* exactly
//!   (kinds, classes, lengths, primitive payloads, string contents, and
//!   the edge structure up to isomorphism);
//! * an update collection pairs every reachable instance of the remapped
//!   class with a zeroed new-layout object on the update log;
//! * collection is deterministic: two identical heaps collected with the
//!   same snapshot and remap table produce identical update logs, in the
//!   same order, and identical copy counts;
//! * a collection leaves the active semispace parsable cell by cell:
//!   exactly the copied cells, ending exactly at the allocation cursor;
//! * the lazy epoch's bounded walks — the converting discovery scan and
//!   the forwarding collapse — leave the same heap however they are
//!   batched.

use std::collections::BTreeMap;

use jvolve_vm::heap::{
    ClassLayouts, CopyPlan, GcRemap, Heap, HeapKind, LayoutSnapshot, RemapTable,
};
use jvolve_vm::{ClassId, GcRef};

// ---- deterministic rng (SplitMix64) -----------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

// ---- test layouts ------------------------------------------------------

/// Class 0: 1 prim + 2 ref fields. Class 1: 1 ref + 1 prim field.
/// Class 9: the remap target for class 0 (one extra prim field).
struct Layouts;
impl ClassLayouts for Layouts {
    fn object_size(&self, class: ClassId) -> usize {
        match class.0 {
            0 => 3,
            1 => 2,
            _ => 4,
        }
    }
    fn ref_map(&self, class: ClassId) -> &[bool] {
        match class.0 {
            0 => &[false, true, true],
            1 => &[true, false],
            _ => &[false, true, true, false],
        }
    }
}

struct Remap09;
impl GcRemap for Remap09 {
    fn remap(&self, class: ClassId) -> Option<ClassId> {
        (class.0 == 0).then_some(ClassId(9))
    }
}

fn snapshot() -> LayoutSnapshot {
    LayoutSnapshot::from_layouts(&Layouts, &[ClassId(0), ClassId(1), ClassId(9)])
}

// ---- random graph construction ----------------------------------------

/// What each generated node is; the payload parameterizes the cell.
#[derive(Clone, Copy)]
enum NodeKind {
    Obj0,
    Obj1,
    RefArray(usize),
    PrimArray(usize),
    Str(usize),
}

struct Graph {
    nodes: Vec<GcRef>,
    roots: Vec<GcRef>,
}

/// Builds the same heap for the same seed: node kinds, primitive fill,
/// edge wiring, and root choice all come from the seeded generator.
fn build_graph(heap: &mut Heap, seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    let n = rng.range(1, 40);
    let kinds: Vec<NodeKind> = (0..n)
        .map(|_| match rng.below(5) {
            0 => NodeKind::Obj0,
            1 => NodeKind::Obj1,
            2 => NodeKind::RefArray(rng.below(6)),
            3 => NodeKind::PrimArray(rng.below(6)),
            _ => NodeKind::Str(rng.below(24)),
        })
        .collect();

    let nodes: Vec<GcRef> = kinds
        .iter()
        .map(|k| match *k {
            NodeKind::Obj0 => {
                let r = heap.alloc_object(ClassId(0), 3).expect("fits");
                heap.set(r, 0, rng.next_u64() | 1);
                r
            }
            NodeKind::Obj1 => {
                let r = heap.alloc_object(ClassId(1), 2).expect("fits");
                heap.set(r, 1, rng.next_u64() | 1);
                r
            }
            NodeKind::RefArray(len) => heap.alloc_array(true, len).expect("fits"),
            NodeKind::PrimArray(len) => {
                let r = heap.alloc_array(false, len).expect("fits");
                for i in 0..len {
                    heap.set(r, i, rng.next_u64());
                }
                r
            }
            NodeKind::Str(len) => {
                let s: String =
                    (0..len).map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8)).collect();
                heap.alloc_string(&s).expect("fits")
            }
        })
        .collect();

    // Wire ref slots: each slot is null or a random node (self-loops and
    // cycles come for free).
    for (i, k) in kinds.iter().enumerate() {
        let slots: Vec<usize> = match *k {
            NodeKind::Obj0 => vec![1, 2],
            NodeKind::Obj1 => vec![0],
            NodeKind::RefArray(len) => (0..len).collect(),
            _ => vec![],
        };
        for slot in slots {
            if rng.below(4) != 0 {
                let target = nodes[rng.below(n)];
                heap.set(nodes[i], slot, u64::from(target.0));
            }
        }
    }

    let mut roots: Vec<GcRef> =
        (0..rng.range(1, 6)).map(|_| nodes[rng.below(n)]).collect();
    roots.dedup();
    Graph { nodes, roots }
}

// ---- graph-shape signature ---------------------------------------------

/// One node of the canonical reachable-graph signature. References are
/// visit indices (BFS order from the roots), so two isomorphic graphs at
/// different addresses produce equal signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sig {
    Object { class: u32, prims: Vec<u64>, refs: Vec<Option<usize>> },
    RefArray { elems: Vec<Option<usize>> },
    PrimArray { elems: Vec<u64> },
    Str(String),
}

fn signature(heap: &Heap, roots: &[GcRef]) -> (Vec<Sig>, Vec<usize>) {
    let mut index: BTreeMap<u32, usize> = BTreeMap::new();
    let mut order: Vec<GcRef> = Vec::new();
    let mut head = 0;
    let visit = |r: GcRef, order: &mut Vec<GcRef>, index: &mut BTreeMap<u32, usize>| {
        *index.entry(r.0).or_insert_with(|| {
            order.push(r);
            order.len() - 1
        })
    };
    let root_ids: Vec<usize> =
        roots.iter().map(|&r| visit(r, &mut order, &mut index)).collect();
    while head < order.len() {
        let r = order[head];
        head += 1;
        let slots: Vec<usize> = match heap.kind(r) {
            HeapKind::Object => {
                let class = heap.class_of(r);
                Layouts
                    .ref_map(class)
                    .iter()
                    .enumerate()
                    .filter(|(_, &is_ref)| is_ref)
                    .map(|(i, _)| i)
                    .collect()
            }
            HeapKind::RefArray => (0..heap.len_of(r) as usize).collect(),
            _ => vec![],
        };
        for slot in slots {
            let w = heap.get(r, slot);
            if w != 0 {
                visit(GcRef(w as u32), &mut order, &mut index);
            }
        }
    }

    let sigs = order
        .iter()
        .map(|&r| match heap.kind(r) {
            HeapKind::Object => {
                let class = heap.class_of(r);
                let map = Layouts.ref_map(class);
                let mut prims = Vec::new();
                let mut refs = Vec::new();
                for (i, &is_ref) in map.iter().enumerate() {
                    let w = heap.get(r, i);
                    if is_ref {
                        refs.push((w != 0).then(|| index[&(w as u32)]));
                    } else {
                        prims.push(w);
                    }
                }
                Sig::Object { class: class.0, prims, refs }
            }
            HeapKind::RefArray => Sig::RefArray {
                elems: (0..heap.len_of(r) as usize)
                    .map(|i| {
                        let w = heap.get(r, i);
                        (w != 0).then(|| index[&(w as u32)])
                    })
                    .collect(),
            },
            HeapKind::PrimArray => Sig::PrimArray {
                elems: (0..heap.len_of(r) as usize).map(|i| heap.get(r, i)).collect(),
            },
            HeapKind::Str => Sig::Str(heap.read_string(r)),
        })
        .collect();
    (sigs, root_ids)
}

// ---- properties --------------------------------------------------------

/// Ordinary collections (no remap) preserve the reachable graph exactly.
#[test]
fn random_graphs_survive_collection_with_identical_shape() {
    let snap = snapshot();
    for seed in 0..96 {
        let mut heap = Heap::new(64 * 1024);
        let g = build_graph(&mut heap, seed);
        let before = signature(&heap, &g.roots);

        heap.collect(&g.roots, &snap, None).expect("collect");
        let new_roots: Vec<GcRef> = g.roots.iter().map(|&r| heap.resolve(r)).collect();
        let after = signature(&heap, &new_roots);

        assert_eq!(before, after, "seed {seed}: reachable graph shape changed");
    }
}

/// Update collections log exactly the reachable instances of the remapped
/// class, each paired with a zeroed new-layout object; everything else
/// keeps its shape.
#[test]
fn random_graphs_survive_update_collection_with_correct_pairing() {
    let snap = snapshot();
    let table = RemapTable::from_policy(&Remap09, 10);
    for seed in 0..96 {
        let mut heap = Heap::new(64 * 1024);
        let g = build_graph(&mut heap, seed);
        let (before, _) = signature(&heap, &g.roots);
        let expected_remapped = before
            .iter()
            .filter(|s| matches!(s, Sig::Object { class: 0, .. }))
            .count();

        let out = heap.collect(&g.roots, &snap, Some(&table)).expect("collect");
        assert_eq!(
            out.update_log.len(),
            expected_remapped,
            "seed {seed}: one log entry per reachable remapped instance"
        );
        for &(old_copy, new_obj) in &out.update_log {
            assert_eq!(heap.class_of(old_copy), ClassId(0), "seed {seed}");
            assert_eq!(heap.class_of(new_obj), ClassId(9), "seed {seed}");
            // The old copy keeps its payload (slot 0 was filled with an
            // odd word at build time); the new object starts zeroed.
            assert_ne!(heap.get(old_copy, 0), 0, "seed {seed}: payload preserved");
            for slot in [0, 3] {
                assert_eq!(heap.get(new_obj, slot), 0, "seed {seed}: new object zeroed");
            }
        }

        // No old-class object remains reachable from the new roots.
        let new_roots: Vec<GcRef> = g.roots.iter().map(|&r| heap.resolve(r)).collect();
        let (after, _) = signature(&heap, &new_roots);
        assert!(
            !after.iter().any(|s| matches!(s, Sig::Object { class: 0, .. })),
            "seed {seed}: remapped class still reachable"
        );
    }
}

/// Two identical heaps collected identically produce the same update log
/// in the same order (transformers must run in a reproducible order).
#[test]
fn identical_collections_are_deterministic() {
    let snap = snapshot();
    let table = RemapTable::from_policy(&Remap09, 10);
    for seed in 0..48 {
        let mut h1 = Heap::new(64 * 1024);
        let g1 = build_graph(&mut h1, seed);
        let mut h2 = Heap::new(64 * 1024);
        let g2 = build_graph(&mut h2, seed);
        assert_eq!(
            g1.nodes.iter().map(|r| r.0).collect::<Vec<_>>(),
            g2.nodes.iter().map(|r| r.0).collect::<Vec<_>>(),
            "seed {seed}: identical builds"
        );

        let o1 = h1.collect(&g1.roots, &snap, Some(&table)).expect("collect");
        let o2 = h2.collect(&g2.roots, &snap, Some(&table)).expect("collect");

        let log1: Vec<(u32, u32)> =
            o1.update_log.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let log2: Vec<(u32, u32)> =
            o2.update_log.iter().map(|&(a, b)| (a.0, b.0)).collect();
        assert_eq!(log1, log2, "seed {seed}: update-log order must be deterministic");
        assert_eq!(o1.copied_cells, o2.copied_cells, "seed {seed}");
        assert_eq!(o1.copied_words, o2.copied_words, "seed {seed}");
    }
}

/// Forwards a random subset of the graph's class-0 objects to fresh
/// duplicates (payload and edges copied raw), the way lazy first-touch
/// migration does. Returns the forwarded originals.
fn forward_some_objects(heap: &mut Heap, g: &Graph, rng: &mut Rng) -> Vec<GcRef> {
    let mut forwarded = Vec::new();
    for &r in &g.nodes {
        if !heap.is_forwarded(r)
            && heap.kind(r) == HeapKind::Object
            && heap.class_of(r) == ClassId(0)
            && rng.below(2) == 0
        {
            let dup = heap.alloc_object(ClassId(0), 3).expect("fits");
            for slot in 0..3 {
                let w = heap.get(r, slot);
                heap.set(dup, slot, w);
            }
            heap.install_forward(r, dup, &snapshot());
            forwarded.push(r);
        }
    }
    forwarded
}

/// Every class of [`Layouts`] remapped, none with a plan: the discovery
/// scan then queues every unforwarded, untagged plain object it meets and
/// converts none.
fn queue_everything() -> RemapTable {
    RemapTable::from_pairs([(ClassId(0), ClassId(9)), (ClassId(1), ClassId(9))], 10)
}

/// Runs the discovery scan from the active semispace's base up to
/// `limit` in batches, each on the budget `budget()` picks, returning
/// `(worklist, cells_stepped, converted)`. No batch may charge more than
/// its budget plus one conversion.
fn scan_in_batches(
    heap: &mut Heap,
    limit: usize,
    mut budget: impl FnMut() -> usize,
    remap: &RemapTable,
) -> (Vec<GcRef>, usize, usize) {
    let snap = snapshot();
    let mut worklist = Vec::new();
    let (mut addr, mut total_cells, mut total_converted) = (heap.active_base(), 0, 0);
    while addr < limit {
        let max_cells = budget();
        let (next, cells, converted) =
            heap.convert_stale(addr, limit, max_cells, &snap, remap, &mut worklist);
        assert!(next > addr, "scan must make progress");
        assert!(
            cells + converted <= max_cells.saturating_add(1),
            "charged {cells} cells + {converted} conversions on a budget of {max_cells}"
        );
        addr = next;
        total_cells += cells;
        total_converted += converted;
    }
    assert_eq!(addr, limit, "the batches stop at the watermark");
    (worklist, total_cells, total_converted)
}

/// The batched SATB scan visits exactly the unforwarded plain objects
/// below the watermark, in address order, for every batch size — and the
/// forwarded cells and above-watermark allocations are stepped over, not
/// visited.
#[test]
fn batched_scan_visits_unforwarded_objects_below_the_watermark() {
    let remap = queue_everything();
    for seed in 0..48 {
        let mut heap = Heap::new(64 * 1024);
        let mut rng = Rng::new(seed ^ 0x5CA7_5CA7_5CA7_5CA7);
        let g = build_graph(&mut heap, seed);
        // The watermark precedes the duplicates: everything the forwarding
        // step allocates lands above it, like mid-epoch allocation.
        let watermark = heap.alloc_cursor();
        forward_some_objects(&mut heap, &g, &mut rng);

        let expected: Vec<GcRef> = g
            .nodes
            .iter()
            .copied()
            .filter(|&r| !heap.is_forwarded(r) && heap.kind(r) == HeapKind::Object)
            .collect();

        // One unbounded walk and several batch sizes must agree exactly.
        for max_cells in [usize::MAX, 1, 3, 7] {
            let (seen, total_cells, converted) =
                scan_in_batches(&mut heap, watermark, || max_cells, &remap);
            assert_eq!(converted, 0, "seed {seed}: nothing has a plan");
            assert_eq!(
                seen, expected,
                "seed {seed}, batch {max_cells}: scan visited the wrong objects"
            );
            assert_eq!(
                total_cells,
                g.nodes.len(),
                "seed {seed}, batch {max_cells}: every cell below the watermark stepped once"
            );
        }
    }
}

/// Class 0's plan onto class 9: its three fields keep their slots, the
/// fourth new field stays zero.
fn planned_remap() -> RemapTable {
    let mut table = queue_everything();
    let plan = CopyPlan::new(4, &[(0, 0), (1, 1), (2, 2)]).expect("valid plan");
    table.set_plan(ClassId(0), plan, &Layouts);
    table
}

/// The converting scan is one pass however it is batched: over random
/// graphs with class 0 planned onto class 9 and class 1 queued, scans at
/// random budgets leave the same heap, word for word, and the same
/// worklist as one unbounded pass, and no batch charges more than its
/// budget plus one conversion. Each heap is sized so that for some seeds
/// the semispace fills part way through: a conversion it refuses falls
/// back to the worklist, which stays in ascending address order. Objects
/// the mutator already migrated (forwarded) and old-layout copies
/// (header tag set) are neither converted nor queued.
#[test]
fn batched_converting_scan_matches_one_pass_word_for_word() {
    let remap = planned_remap();
    let (mut total_converted, mut total_refused) = (0, 0);
    for seed in 0..64 {
        let build = |semispace: usize| -> (Heap, Graph, usize) {
            let mut rng = Rng::new(seed ^ 0xC0DE_C0DE_C0DE_C0DE);
            let mut heap = Heap::new(semispace);
            let g = build_graph(&mut heap, seed);
            let watermark = heap.alloc_cursor();
            forward_some_objects(&mut heap, &g, &mut rng);
            if let Some(&r) = g.nodes.iter().find(|&&r| {
                !heap.is_forwarded(r) && heap.kind(r) == HeapKind::Object && rng.below(3) == 0
            }) {
                heap.set_header_tag(r, 1);
            }
            (heap, g, watermark)
        };
        // Room for everything, then a semispace that runs out part way.
        let (probe, _, _) = build(64 * 1024);
        let used = probe.used_words();
        let mut rng = Rng::new(seed);
        let semispace = (used + rng.below(5 * 12)).max(16);

        let (mut h1, g, watermark) = build(semispace);
        let (one_pass, cells, converted) =
            scan_in_batches(&mut h1, watermark, || usize::MAX, &remap);

        let (mut h2, _, _) = build(semispace);
        let (worklist, batched_cells, batched_converted) =
            scan_in_batches(&mut h2, watermark, || 1 + rng.below(6), &remap);
        assert_eq!((batched_cells, batched_converted), (cells, converted), "seed {seed}");
        assert_eq!(worklist, one_pass, "seed {seed}: batching changed the worklist");
        assert!(
            heap_words(&h1) == heap_words(&h2),
            "seed {seed}: the batched scan left different heap words than one pass"
        );

        // What each stale object became, read off the single-pass heap.
        assert!(
            one_pass.windows(2).all(|w| w[0].0 < w[1].0),
            "seed {seed}: worklist out of address order"
        );
        let mut seen_converted = 0;
        for &r in &g.nodes {
            let queued = one_pass.contains(&r);
            if h1.is_forwarded(r) {
                let new_obj = h1.resolve(r);
                if h1.class_of(new_obj) == ClassId(9) {
                    seen_converted += 1;
                    assert!(!queued, "seed {seed}: {r} converted and queued");
                    for slot in 0..3 {
                        assert_eq!(h1.get(new_obj, slot), h1.get(r, slot), "seed {seed}: {r}");
                    }
                    assert_eq!(h1.get(new_obj, 3), 0, "seed {seed}: defaulted field");
                }
                continue;
            }
            let stale = h1.kind(r) == HeapKind::Object && h1.header_tag(r) == 0;
            assert_eq!(queued, stale, "seed {seed}: {r} queued = {queued}");
        }
        assert_eq!(seen_converted, converted, "seed {seed}");
        let refused = one_pass.iter().filter(|&&r| h1.class_of(r) == ClassId(0)).count();
        if refused > 0 {
            assert!(h1.free_words() < 5, "seed {seed}: refused a conversion with room left");
        }
        (total_converted, total_refused) = (total_converted + converted, total_refused + refused);
    }
    assert!(
        total_converted > 0 && total_refused > 0,
        "{total_converted} converted, {total_refused} refused: both paths must run"
    );
}

/// Every word of both semispaces, in address order.
fn heap_words(heap: &Heap) -> Vec<u64> {
    (0..2 * heap.semispace_words()).map(|i| heap.get(GcRef(0), i)).collect()
}

/// A batched forwarding collapse is equivalent to a single unbounded
/// sweep: the same heap, word for word, and afterwards no reference
/// reachable from the (resolved) roots crosses a forwarding word. Each
/// graph also holds reference arrays longer than any batch, full of
/// forwarded referents, so batches end inside arrays; no batch may charge
/// more than its budget.
#[test]
fn batched_sweep_collapses_every_forward_like_one_pass() {
    let snap = snapshot();
    for seed in 0..48 {
        // Two identically-built-and-forwarded heaps: one swept in one
        // pass, one in randomly-sized batches.
        let build = |heap: &mut Heap| -> Graph {
            let mut rng = Rng::new(seed ^ 0xF0F0_F0F0_F0F0_F0F0);
            let mut g = build_graph(heap, seed);
            for _ in 0..2 {
                let len = rng.range(6, 24);
                let arr = heap.alloc_array(true, len).expect("fits");
                for i in 0..len {
                    if rng.below(4) != 0 {
                        let target = g.nodes[rng.below(g.nodes.len())];
                        heap.set(arr, i, u64::from(target.0));
                    }
                }
                g.nodes.push(arr);
                g.roots.push(arr);
            }
            forward_some_objects(heap, &g, &mut rng);
            g
        };

        let mut h1 = Heap::new(64 * 1024);
        let g1 = build(&mut h1);
        let limit = h1.alloc_cursor();
        let (end, end_slot, _, single_rewritten) =
            h1.sweep_forwards(h1.active_base(), 0, limit, usize::MAX, &snap);
        assert_eq!((end, end_slot), (limit, 0), "seed {seed}: one pass sweeps everything");

        let mut h2 = Heap::new(64 * 1024);
        let g2 = build(&mut h2);
        let mut rng = Rng::new(seed ^ 0xBA7C_4BA7_C4BA_7C4B);
        let (mut addr, mut slot) = (h2.active_base(), 0);
        let mut batched_rewritten = 0;
        let mut inside_arrays = 0;
        while addr < limit {
            let budget = 1 + rng.below(5);
            let (next, next_slot, cells, rewritten) =
                h2.sweep_forwards(addr, slot, limit, budget, &snap);
            assert!((next, next_slot) > (addr, slot), "seed {seed}: sweep must make progress");
            assert!(cells <= budget, "seed {seed}: charged {cells} cells on a budget of {budget}");
            inside_arrays += usize::from(next_slot > 0);
            (addr, slot) = (next, next_slot);
            batched_rewritten += rewritten;
        }
        assert_eq!((addr, slot), (limit, 0), "seed {seed}: the batches stop at the horizon");
        assert!(inside_arrays > 0, "seed {seed}: no batch ended inside an array");
        assert_eq!(
            batched_rewritten, single_rewritten,
            "seed {seed}: batching changed the rewrite count"
        );
        assert!(
            heap_words(&h1) == heap_words(&h2),
            "seed {seed}: the batched sweep left different heap words than the single pass"
        );

        for (heap, g) in [(&h1, &g1), (&h2, &g2)] {
            // Every surviving cell's reference slots resolve to themselves:
            // plain objects via the full walk (which includes the
            // duplicates), ref arrays from the node list (ref arrays are
            // never forwarded here).
            let mut checked = Vec::new();
            heap.for_each_object(&snap, |r, class| {
                for (slot, &is_ref) in Layouts.ref_map(class).iter().enumerate() {
                    if is_ref {
                        checked.push((r, slot));
                    }
                }
            });
            for &r in g
                .nodes
                .iter()
                .filter(|&&r| !heap.is_forwarded(r) && heap.kind(r) == HeapKind::RefArray)
            {
                for slot in 0..heap.len_of(r) as usize {
                    checked.push((r, slot));
                }
            }
            for (r, slot) in checked {
                let w = heap.get(r, slot);
                if w != 0 {
                    assert_eq!(
                        heap.resolve(GcRef(w as u32)),
                        GcRef(w as u32),
                        "seed {seed}: {r} slot {slot} still crosses a forward"
                    );
                }
            }
        }

        // Both sweeps leave isomorphic reachable graphs.
        let roots1: Vec<GcRef> = g1.roots.iter().map(|&r| h1.resolve(r)).collect();
        let roots2: Vec<GcRef> = g2.roots.iter().map(|&r| h2.resolve(r)).collect();
        assert_eq!(
            signature(&h1, &roots1),
            signature(&h2, &roots2),
            "seed {seed}: batched sweep diverged from the single pass"
        );
    }
}

/// A collection into a to-space full of stale cells (forwarding pointers
/// included) leaves the active semispace parsable cell by cell: the linear
/// walks of a lazy epoch — the SATB scan, the collapse sweep — step over
/// exactly the cells the collection copied and stop exactly at
/// `alloc_cursor()`.
///
/// The first collection flips the spaces, so the second one copies back
/// over the original graph and the first one's forwarding words.
#[test]
fn collection_into_stale_to_space_leaves_it_parsable_cell_by_cell() {
    let snap = snapshot();
    for seed in 0..48 {
        let mut heap = Heap::new(64 * 1024);
        let g = build_graph(&mut heap, seed);
        heap.collect(&g.roots, &snap, None).expect("first collect");
        let roots: Vec<GcRef> = g.roots.iter().map(|&r| heap.resolve(r)).collect();
        let out = heap.collect(&roots, &snap, None).expect("second collect");
        let roots: Vec<GcRef> = roots.iter().map(|&r| heap.resolve(r)).collect();

        let live_objects = signature(&heap, &roots)
            .0
            .iter()
            .filter(|sig| matches!(sig, Sig::Object { .. }))
            .count();
        let mut walked = Vec::new();
        let (end, cells, _) = heap.convert_stale(
            heap.active_base(),
            heap.alloc_cursor(),
            usize::MAX,
            &snap,
            &queue_everything(),
            &mut walked,
        );
        assert_eq!(end, heap.alloc_cursor(), "seed {seed}: walk overran the cursor");
        assert_eq!(walked.len(), live_objects, "seed {seed}: the walk parsed stale words");
        assert_eq!(cells, out.copied_cells, "seed {seed}: one walked cell per copied cell");
    }
}
