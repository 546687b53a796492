//! Property tests for the copying collector over random object graphs.
//!
//! Graphs mix plain objects, ref arrays, prim arrays, and strings, with
//! arbitrary edges (including cycles and self-loops); over half the nodes
//! are cells that hold no reference (strings, prim arrays, objects whose
//! reference fields stay null), which the scan skips in runs. After every
//! collection and copy step [`Heap::check_heap`] holds. Invariants:
//!
//! * an ordinary collection preserves the reachable graph *shape* exactly
//!   (kinds, classes, lengths, primitive payloads, string contents, and
//!   the edge structure up to isomorphism);
//! * an update collection (the same copy through a remap) pairs every
//!   reachable instance of the remapped class with a zeroed new-layout
//!   object on the update log;
//! * collection is deterministic: two identical heaps collected with the
//!   same snapshot and remap table produce identical update logs, in the
//!   same order, and identical copy counts;
//! * a collection leaves the active semispace parsable cell by cell:
//!   exactly the copied cells, ending exactly at the allocation cursor;
//! * the copy stepped at any budget, as a lazy epoch runs it, leaves the
//!   same heap, word for word, as the copy finished in one pass, and a
//!   mutator allocating beside it always leaves it room to finish.

use std::collections::BTreeMap;

use jvolve_vm::heap::{
    ClassLayouts, CopyPlan, GcOutcome, GcRemap, Heap, HeapKind, LayoutSnapshot, RemapTable,
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
    /// An object of class 0 or 1 whose reference fields stay null.
    NullObj(u32),
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
        .map(|_| match rng.below(7) {
            0 => NodeKind::Obj0,
            1 => NodeKind::Obj1,
            2 => NodeKind::RefArray(rng.below(6)),
            3 => NodeKind::PrimArray(rng.below(6)),
            4 => NodeKind::NullObj(rng.below(2) as u32),
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
            NodeKind::NullObj(class) => {
                let size = Layouts.object_size(ClassId(class));
                let r = heap.alloc_object(ClassId(class), size).expect("fits");
                // The primitive field: slot 0 of class 0, slot 1 of class 1.
                heap.set(r, class as usize, rng.next_u64() | 1);
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

/// Panics, naming the seed, unless [`Heap::check_heap`] holds.
fn check(heap: &Heap, snap: &LayoutSnapshot, seed: u64) {
    heap.check_heap(snap).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
}

/// An update collection: [`Heap::collect`]'s flip, root evacuation and
/// one-pass finish, through `remap`. Returns what it copied and its update
/// log, lowest from-space address first (the order transformers run in).
fn update_collect(
    heap: &mut Heap,
    roots: &[GcRef],
    snap: &LayoutSnapshot,
    remap: &RemapTable,
) -> (GcOutcome, Vec<(GcRef, GcRef)>) {
    heap.flip(usize::MAX, snap, remap);
    let mut log = Vec::new();
    for &root in roots {
        heap.evacuate(root, snap, remap, &mut log).expect("roots fit");
    }
    heap.finish_copy(snap, remap, &mut log).expect("collect");
    let out = heap.end_copy();
    log.sort_by_key(|&(from, _, _)| from);
    (out, log.into_iter().map(|(_, old, new)| (old, new)).collect())
}

/// Ordinary collections (no remap) preserve the reachable graph exactly.
#[test]
fn random_graphs_survive_collection_with_identical_shape() {
    let snap = snapshot();
    for seed in 0..96 {
        let mut heap = Heap::new(64 * 1024);
        let g = build_graph(&mut heap, seed);
        let before = signature(&heap, &g.roots);

        heap.collect(&g.roots, &snap).expect("collect");
        check(&heap, &snap, seed);
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

        let (_, log) = update_collect(&mut heap, &g.roots, &snap, &table);
        check(&heap, &snap, seed);
        assert_eq!(
            log.len(),
            expected_remapped,
            "seed {seed}: one log entry per reachable remapped instance"
        );
        for &(old_copy, new_obj) in &log {
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

        let (o1, l1) = update_collect(&mut h1, &g1.roots, &snap, &table);
        let (o2, l2) = update_collect(&mut h2, &g2.roots, &snap, &table);
        check(&h1, &snap, seed);
        check(&h2, &snap, seed);

        let log1: Vec<(u32, u32)> = l1.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let log2: Vec<(u32, u32)> = l2.iter().map(|&(a, b)| (a.0, b.0)).collect();
        assert_eq!(log1, log2, "seed {seed}: update-log order must be deterministic");
        assert_eq!(o1.copied_cells, o2.copied_cells, "seed {seed}");
        assert_eq!(o1.copied_words, o2.copied_words, "seed {seed}");
    }
}

/// Class 0 remapped onto class 9 with a copy plan (its three fields keep
/// their slots, the fourth new field stays zero), so its instances are
/// converted where they are copied; class 1 remapped onto class 9 with
/// none, so its instances are duplicated and logged.
fn planned_and_logged_remap() -> RemapTable {
    let mut table =
        RemapTable::from_pairs([(ClassId(0), ClassId(9)), (ClassId(1), ClassId(9))], 10);
    let plan = CopyPlan::new(4, &[(0, 0), (1, 1), (2, 2)]).expect("valid plan");
    table.set_plan(ClassId(0), plan, &Layouts);
    table
}

/// Every word of both semispaces, in address order.
fn heap_words(heap: &Heap) -> Vec<u64> {
    (0..2 * heap.semispace_words()).map(|i| heap.get(GcRef(0), i)).collect()
}

/// The copy is one copy, however it is stepped. Over random graphs — each
/// with a reference array longer than any budget, rooted, whose first
/// element is a primitive array as long, and a remap that plans class 0
/// and logs class 1 — a flip that evacuates the roots followed by copy
/// steps of random budgets (2–64 units, the least that passes an array
/// element and its referent's evacuation) and random log allowances leaves
/// both semispaces word for word as the unbounded [`Heap::finish_copy`]
/// does: the same to-space, the same forwarding words, the same update log
/// once sorted by original address, the same copy counts. No step charges more than its budget or logs more than its
/// allowance, and the copy's invariants hold after every step.
#[test]
fn stepped_copy_matches_one_pass_collect_word_for_word() {
    let snap = snapshot();
    let remap = planned_and_logged_remap();
    let (mut steps, mut unfilled, mut unscanned) = (0, 0, 0);
    for seed in 0..64 {
        let build = |heap: &mut Heap| -> Graph {
            let mut g = build_graph(heap, seed);
            let mut rng = Rng::new(seed ^ 0xA77A_7A77_A77A_7A77);
            let len = rng.range(65, 100);
            let arr = heap.alloc_array(true, len).expect("fits");
            for i in 0..len {
                if rng.below(4) != 0 {
                    let target = g.nodes[rng.below(g.nodes.len())];
                    heap.set(arr, i, u64::from(target.0));
                }
            }
            // Evacuated by the scan, unfilled when the flip's threshold is
            // under its length: the scan must fill it, never skip it.
            let prims = heap.alloc_array(false, len).expect("fits");
            for i in 0..len {
                heap.set(prims, i, rng.next_u64());
            }
            heap.set(arr, 0, u64::from(prims.0));
            g.nodes.push(arr);
            g.roots.push(arr);
            g
        };
        let mut one_pass = Heap::new(64 * 1024);
        let g = build(&mut one_pass);
        let (out, one_pass_log) = update_collect(&mut one_pass, &g.roots, &snap, &remap);
        check(&one_pass, &snap, seed);

        let mut rng = Rng::new(seed ^ 0x57E9_57E9_57E9_57E9);
        let mut stepped = Heap::new(64 * 1024);
        let g = build(&mut stepped);
        stepped.flip(rng.range(1, 65), &snap, &remap);
        let mut log = Vec::new();
        for &root in &g.roots {
            let to = stepped.evacuate(root, &snap, &remap, &mut log).expect("roots fit");
            unfilled += usize::from(stepped.header_tag(to) != 0);
        }
        check(&stepped, &snap, seed);
        while !stepped.copy_done() {
            let (budget, allowance, logged) = (rng.range(2, 65), rng.range(1, 8), log.len());
            let charged =
                stepped.copy_step(budget, allowance, &snap, &remap, &mut log).expect("fits");
            assert!(
                (1..=budget).contains(&charged),
                "seed {seed}: a step charged {charged} on a budget of {budget}"
            );
            assert!(log.len() - logged <= allowance, "seed {seed}: a step overran its log");
            check(&stepped, &snap, seed);
            steps += 1;
        }
        let totals = stepped.end_copy();
        check(&stepped, &snap, seed);
        // Arrays the steps evacuated unfilled are scanned, where the
        // one-pass finish copies them whole and skips the primitive ones.
        assert!(
            totals.unscanned_words <= out.unscanned_words,
            "seed {seed}: the steps skipped a cell that the one-pass finish scanned"
        );
        unscanned += totals.unscanned_words;
        log.sort_by_key(|&(from, _, _)| from);
        let log: Vec<(GcRef, GcRef)> = log.into_iter().map(|(_, old, new)| (old, new)).collect();
        assert_eq!(log, one_pass_log, "seed {seed}: the update log differs");
        assert_eq!(
            (totals.copied_cells, totals.copied_words, totals.planned),
            (out.copied_cells, out.copied_words, out.planned),
            "seed {seed}: the copy counts differ"
        );
        assert!(
            heap_words(&stepped) == heap_words(&one_pass),
            "seed {seed}: the stepped copy left different heap words than the one-pass finish"
        );
    }
    assert!(unfilled > 0, "no root array was evacuated unfilled");
    assert!(unscanned > 0, "no step skipped a run");
    assert!(steps > 64 * 4, "{steps} steps: the budgets hardly split the copies");
}

/// The copy's reserve is exact on a heap that is all live and all
/// remapped: 40 chained class-0 objects (160 from-space words), each
/// duplicated into 4 + 5 words, leave the mutator all but 360 words.
#[test]
fn the_mutator_gets_all_of_to_space_but_the_copys_reserve() {
    let (snap, remap) = (snapshot(), RemapTable::from_policy(&Remap09, 10));
    let mut heap = Heap::new(1024);
    let mut head = GcRef(0);
    for _ in 0..40 {
        let o = heap.alloc_object(ClassId(0), 3).expect("fits");
        heap.set(o, 1, u64::from(head.0));
        head = o;
    }
    heap.flip(usize::MAX, &snap, &remap);
    let mut log = Vec::new();
    heap.evacuate(head, &snap, &remap, &mut log).expect("fits");
    let mut garbage = 0;
    while heap.alloc_array(false, 1).is_some() {
        garbage += 2;
    }
    assert_eq!(garbage, 1024 - 360, "the mutator got more or less than the copy left it");
    heap.copy_step(usize::MAX, usize::MAX, &snap, &remap, &mut log).expect("the copy fits");
    check(&heap, &snap, 0);
    assert!(heap.copy_done() && log.len() == 40 && heap.free_words() == 0);
}

/// A mutator that allocates garbage between copy steps until to-space
/// refuses it never leaves the copy without room: over random graphs, on
/// a semispace a few times the live heap, the copy then finishes in one
/// unbounded step and evacuates what the copy finished in one pass does.
#[test]
fn a_copy_finishes_beside_a_mutator_that_fills_to_space() {
    let snap = snapshot();
    let remap = planned_and_logged_remap();
    let mut refused = 0;
    for seed in 0..64 {
        let mut one_pass = Heap::new(4096);
        let g = build_graph(&mut one_pass, seed);
        let (out, one_pass_log) = update_collect(&mut one_pass, &g.roots, &snap, &remap);
        check(&one_pass, &snap, seed);

        let mut rng = Rng::new(seed ^ 0x6A2B_A6E0_6A2B_A6E0);
        let mut stepped = Heap::new(4096);
        let g = build_graph(&mut stepped, seed);
        stepped.flip(rng.range(1, 17), &snap, &remap);
        let mut log = Vec::new();
        for &root in &g.roots {
            stepped.evacuate(root, &snap, &remap, &mut log).expect("roots fit");
        }
        while !stepped.copy_done() {
            if stepped.alloc_array(false, rng.below(16)).is_none() {
                refused += 1;
                break;
            }
            if rng.below(8) == 0 {
                let budget = rng.range(2, 9);
                stepped.copy_step(budget, usize::MAX, &snap, &remap, &mut log).expect("fits");
                check(&stepped, &snap, seed);
            }
        }
        stepped.copy_step(usize::MAX, usize::MAX, &snap, &remap, &mut log).unwrap_or_else(|e| {
            panic!("seed {seed}: the mutator left the copy no room to finish: {e}")
        });
        assert!(stepped.copy_done(), "seed {seed}: an unbounded step left the copy unfinished");
        check(&stepped, &snap, seed);
        let totals = stepped.end_copy();
        check(&stepped, &snap, seed);
        assert_eq!(
            (totals.copied_cells, totals.copied_words, totals.planned, log.len()),
            (out.copied_cells, out.copied_words, out.planned, one_pass_log.len()),
            "seed {seed}: the copy counts differ"
        );
    }
    assert!(refused > 32, "only {refused} of 64 mutators ever filled to-space");
}

/// A collection into a to-space full of stale cells (forwarding words
/// included) leaves the active semispace parsable cell by cell: a walk
/// over it meets exactly the live objects and stops exactly at the
/// allocation cursor.
///
/// The first collection flips the spaces, so the second one copies back
/// over the original graph and the first one's forwarding words.
#[test]
fn collection_into_stale_to_space_leaves_it_parsable_cell_by_cell() {
    let snap = snapshot();
    for seed in 0..48 {
        let mut heap = Heap::new(64 * 1024);
        let g = build_graph(&mut heap, seed);
        heap.collect(&g.roots, &snap).expect("first collect");
        check(&heap, &snap, seed);
        let roots: Vec<GcRef> = g.roots.iter().map(|&r| heap.resolve(r)).collect();
        let out = heap.collect(&roots, &snap).expect("second collect");
        check(&heap, &snap, seed);
        let roots: Vec<GcRef> = roots.iter().map(|&r| heap.resolve(r)).collect();

        let live_objects = signature(&heap, &roots)
            .0
            .iter()
            .filter(|sig| matches!(sig, Sig::Object { .. }))
            .count();
        let mut walked = 0;
        heap.for_each_object(&snap, |_, _| walked += 1);
        assert_eq!(walked, live_objects, "seed {seed}: the walk parsed stale words");
        assert_eq!(heap.used_words(), out.copied_words, "seed {seed}: the cursor moved");
    }
}
