//! The semi-space copying heap and its DSU-aware collector.
//!
//! This reproduces the substrate of paper §3.4: a Cheney-style semi-space
//! copying collector extended so that objects whose class signature changed
//! are *duplicated* during the copy — an old-layout copy plus a zeroed
//! new-layout object — with the pair recorded in an **update log** for the
//! transformers the VM runs over it. Old-copy reference fields
//! are forwarded like any other object's, so transformers dereferencing
//! `from` fields observe *transformed* referents, exactly the paper's
//! programming model.
//!
//! # Memory layout
//!
//! The heap is a flat `Vec<u64>`; word 0 is reserved so address 0 can mean
//! `null`. Two equal semispaces follow. Every heap cell starts with a
//! header word:
//!
//! ```text
//! bit 0      forwarded flag; if set, bits 1-32 hold the to-space address
//!            the cell was copied to (only ever seen in from-space)
//! bits 1-2   kind: 0 = object, 1 = reference array, 2 = primitive array,
//!            3 = string (packed UTF-8 bytes)
//! bits 3-31  tag: zero except on the two objects of an update-log pair
//!            whose transformer has not finished, where it is the log
//!            index + 1 ([`Heap::header_tag`]; copied verbatim by every
//!            collection), and on an array an incremental copy reserved
//!            but has not filled yet, where it is the index + 1 of its
//!            entry in the copy's unfilled table
//! bits 32-63 class id (objects) or element/byte length (arrays/strings)
//! ```
//!
//! Objects are `1 + size_words(class)` words; arrays `1 + len`; strings
//! `1 + ceil(bytes/8)`.
//!
//! # String cells
//!
//! A string's UTF-8 bytes are packed into its payload words in order, byte
//! *i* at bits `8·(i mod 8)` of word `i / 8` — on a little-endian host
//! (asserted at compile time) exactly the bytes of those words in memory.
//! Two invariants hold for every string cell from allocation on:
//!
//! * **validity** — the first `len` payload bytes are valid UTF-8. The
//!   allocators take a `&str`, two existing cells, or a range of one cut
//!   at checked char boundaries; collections copy cells verbatim; and
//!   [`Heap::set`] refuses string cells. So [`Heap::str_view`] hands out a
//!   `&str` over the bytes in place without validating them again (debug
//!   builds do, on every view).
//! * **zero padding** — the bytes of the last payload word past `len` are
//!   zero, so equal strings are equal word for word.
//!
//! # The flattened hot path
//!
//! The collector does not consult the class registry directly. Instead the
//! caller hands it a [`LayoutSnapshot`] — a dense table indexed by
//! [`ClassId`] holding each class's size and a packed u64 ref bitset —
//! built once per collection (and cached by the registry between class
//! loads). The scan loop indexes the snapshot once per cell and walks ref
//! fields with `trailing_zeros`, so a wide class with few references costs
//! one iteration per reference, not one per field. The DSU remap policy is
//! likewise resolved up front into a dense [`RemapTable`]; a copy through
//! an empty table finishes with the remap probe compiled out.
//!
//! # Planned copies
//!
//! A remapped class whose object transformer is a pure field copy carries
//! a [`CopyPlan`] in the table. Its instances are not duplicated: the
//! collector allocates only the new-layout object, fills it from the
//! from-space original per the plan, and lets the ordinary scan forward
//! the reference fields it copied. No old copy, no update-log entry, and
//! no transformer frame exist for such an object.
//!
//! # Cells without references are not scanned
//!
//! The Cheney scan visits a cell only to rewrite its from-space
//! references, so a cell that holds none needs no visit. `copy_cell`
//! knows that as it copies: strings and primitive arrays, objects (plain,
//! planned or old copies) whose reference slots came out all null —
//! checked on the words just written, through the snapshot entry already
//! loaded for the size — and the zeroed new object of a logged pair. It
//! records each such cell in the heap's list of skip runs, extending the
//! last run when the cell starts where that run ends. The scan jumps from
//! a run's start to its end without reading the cells. Reference arrays,
//! arrays evacuated unfilled (the scan must fill them) and cells the
//! mutator allocates mid-copy are never in a run.
//!
//! Skipping such a cell copies nothing and rewrites nothing, so to-space
//! comes out word for word as a scan of every cell leaves it. During an
//! incremental copy the mutator only ever holds to-space references, so a
//! store into a skipped cell never writes a from-space address.
//! [`Heap::check_heap`] checks every cell behind the scan pointer, and
//! every run ahead of it, for from-space references. On §4.1's population
//! (three reference fields, always null) every object is skipped: the
//! update-GC no longer re-reads the 220 000 objects it has just written.
//!
//! # One copy, finished in one pass or stepped
//!
//! Every collection is one copy. [`Heap::flip`] makes the other semispace
//! active, and from then on evacuation and mutator allocation alike bump
//! its cursor. [`Heap::evacuate`] copies a from-space referent through the
//! `copy_cell` arms (remap, plan, duplicate-and-log); the Cheney scan walks
//! to-space to the cursor; [`Heap::end_copy`] frees from-space. No
//! forwarding word exists outside from-space, so one hop reaches the live
//! cell. [`Heap::finish_copy`] runs the scan in one unbounded pass
//! ([`Heap::collect`], an eager update); a lazy epoch runs it Baker-style,
//! a budget per [`Heap::copy_step`], with the mutator between steps.
//!
//! Mutator allocation shares to-space with the copy, so it is refused
//! while it would leave less free than the copy may still take: every
//! from-space word not yet evacuated, at the remap's largest growth. A
//! collection can then always finish the copy, however fast the mutator
//! allocates.
//!
//! An array longer than the copy's budget is evacuated **unfilled**: its
//! to-space cell is reserved, the original forwards to it, and its header
//! tag names its entry in the unfilled table; the scan fills it in
//! budget-sized pieces. Until then an element at or past the fill cursor
//! is read and written in the from-space original, whose payload is
//! intact ([`Heap::element_at`]). So no step, not even the one that
//! evacuates the roots, copies more than a budget of an array.

use crate::error::VmError;
use crate::ids::ClassId;
use crate::value::GcRef;

// String payloads are read and copied as the bytes of their words in
// memory order, which is the stored (little-endian) order only here.
const _: () = assert!(cfg!(target_endian = "little"), "string cells assume a little-endian host");

/// The bytes of `words` in memory order.
fn bytes_of(words: &[u64]) -> &[u8] {
    // SAFETY: same memory, same lifetime; `u8` has alignment 1 and every
    // byte of an initialised `u64` is an initialised `u8`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// The bytes of `words` in memory order, writable.
fn bytes_of_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as `bytes_of`, under the exclusive borrow; any eight bytes
    // are a valid `u64`, so no write through the view can invalidate one.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

/// What kind of heap cell a header describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapKind {
    /// Plain object with class-determined layout.
    Object,
    /// Array of references.
    RefArray,
    /// Array of primitives (ints/bools).
    PrimArray,
    /// Immutable string: packed UTF-8 payload.
    Str,
}

/// Per-class layout information the collector needs.
///
/// The class registry implements this; [`LayoutSnapshot::from_layouts`]
/// flattens an implementation into the dense table the collector consumes,
/// which lets heap unit tests run without a registry.
pub trait ClassLayouts {
    /// Number of field words of instances of `class` (header excluded).
    fn object_size(&self, class: ClassId) -> usize;
    /// Which field words hold references.
    fn ref_map(&self, class: ClassId) -> &[bool];
}

/// The DSU remapping policy consulted during a collection (paper §3.4).
///
/// Returning `Some(new_class)` for a class makes the collector duplicate
/// each instance (old copy + new-layout object) and log the pair. The
/// policy is resolved once per collection into a [`RemapTable`]; the
/// collector never calls it per object.
pub trait GcRemap {
    /// The updated class an instance of `class` must be converted to.
    fn remap(&self, class: ClassId) -> Option<ClassId>;
}

/// The identity policy: an ordinary, non-updating collection.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRemap;

impl GcRemap for NoRemap {
    fn remap(&self, _class: ClassId) -> Option<ClassId> {
        None
    }
}

/// A snapshot entry: object size in words plus the offset of the class's
/// ref bitset in the shared pool. `size_words == u32::MAX` marks a class
/// id the snapshot has no layout for.
#[derive(Debug, Clone, Copy)]
struct SnapEntry {
    size_words: u32,
    bits_start: u32,
}

impl SnapEntry {
    const UNKNOWN: SnapEntry = SnapEntry { size_words: u32::MAX, bits_start: 0 };
    /// The layout of a cell with no reference field.
    const NO_REFS: SnapEntry = SnapEntry { size_words: 0, bits_start: 0 };

    #[inline]
    fn ref_words(&self) -> usize {
        (self.size_words as usize).div_ceil(64)
    }
}

/// A dense, immutable snapshot of every loaded class's layout, indexed by
/// [`ClassId`].
///
/// Per class: the instance size in words and a packed bitset (one bit per
/// field word, u64 granules in a shared pool) marking reference fields.
/// [`Heap::collect`] reads layouts exclusively from a snapshot — one index
/// per scanned cell, `trailing_zeros` per reference field — instead of
/// making a virtual `ClassLayouts` call per field, which was the hottest
/// dispatch in the VM.
///
/// The registry builds and caches one of these, invalidating on class load
/// and rename; tests can assemble one by hand with [`LayoutSnapshot::set`].
#[derive(Debug, Clone, Default)]
pub struct LayoutSnapshot {
    entries: Vec<SnapEntry>,
    bits: Vec<u64>,
}

impl LayoutSnapshot {
    /// Creates an empty snapshot (no classes).
    pub fn new() -> Self {
        LayoutSnapshot::default()
    }

    /// Records `class`'s layout: one bool per field word, `true` for
    /// reference fields. The instance size is `ref_map.len()`.
    pub fn set(&mut self, class: ClassId, ref_map: &[bool]) {
        let idx = class.index();
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, SnapEntry::UNKNOWN);
        }
        let bits_start = self.bits.len() as u32;
        self.bits.resize(self.bits.len() + ref_map.len().div_ceil(64), 0);
        for (i, &is_ref) in ref_map.iter().enumerate() {
            if is_ref {
                self.bits[bits_start as usize + i / 64] |= 1u64 << (i % 64);
            }
        }
        self.entries[idx] = SnapEntry { size_words: ref_map.len() as u32, bits_start };
    }

    /// Flattens a [`ClassLayouts`] implementation over the given classes.
    pub fn from_layouts(layouts: &dyn ClassLayouts, classes: &[ClassId]) -> Self {
        let mut snap = LayoutSnapshot::new();
        for &class in classes {
            let refs = layouts.ref_map(class);
            assert_eq!(
                refs.len(),
                layouts.object_size(class),
                "ref map not parallel to layout for {class}"
            );
            snap.set(class, refs);
        }
        snap
    }

    /// Number of class-id slots (known or not) the snapshot covers.
    pub fn num_classes(&self) -> usize {
        self.entries.len()
    }

    /// Instance size in field words.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not in the snapshot.
    #[inline]
    pub fn size_words(&self, class: ClassId) -> usize {
        self.entry(class).size_words as usize
    }

    #[inline]
    fn entry(&self, class: ClassId) -> SnapEntry {
        let e = self.entries.get(class.index()).copied().unwrap_or(SnapEntry::UNKNOWN);
        assert_ne!(e.size_words, u32::MAX, "class {class} missing from layout snapshot");
        e
    }
}

/// A pure field-copy object transformer lowered to slot moves: for every
/// field word of the *new* layout, the field word of the old layout it is
/// copied from, or nothing (the field keeps its zero/null default).
///
/// This is the relational form of the paper's default transformer — new
/// slot *f* ← old slot *g* iff the two fields have the same name and type
/// — but a plan is built from whatever `to.f = from.g` list the compiled
/// transformer contains (see `jvolve::plan`), never from an update
/// bundle's say-so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyPlan {
    /// Indexed by new slot; [`CopyPlan::ZERO`] marks a defaulted field.
    sources: Vec<u32>,
}

impl CopyPlan {
    /// Source marker of a new-layout field no old field is copied into.
    pub const ZERO: u32 = u32::MAX;

    /// Builds the plan for a new layout of `new_size` field words from
    /// `(old_slot, new_slot)` moves. Returns `None` if a destination is
    /// out of range or named twice.
    pub fn new(new_size: usize, moves: &[(u32, u32)]) -> Option<CopyPlan> {
        let mut sources = vec![CopyPlan::ZERO; new_size];
        for &(old_slot, new_slot) in moves {
            let dst = sources.get_mut(new_slot as usize)?;
            if *dst != CopyPlan::ZERO || old_slot == CopyPlan::ZERO {
                return None;
            }
            *dst = old_slot;
        }
        Some(CopyPlan { sources })
    }

    /// Per new slot, the old slot it is filled from ([`CopyPlan::ZERO`]
    /// for none).
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

/// One class's entry in a [`RemapTable`].
#[derive(Debug, Clone)]
struct RemapEntry {
    new_class: ClassId,
    plan: Option<CopyPlan>,
}

/// A [`GcRemap`] policy resolved into a dense per-class table, built once
/// per update collection so the copy path costs one indexed load per
/// object instead of a virtual call. Remapped classes whose transformer
/// lowered to a [`CopyPlan`] carry it here ([`RemapTable::set_plan`]).
#[derive(Debug, Clone, Default)]
pub struct RemapTable {
    map: Vec<Option<RemapEntry>>,
}

impl RemapTable {
    /// The table mapping each `(old, new)` pair of `pairs`, over class ids
    /// below `num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if an old class id is not below `num_classes`.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (ClassId, ClassId)>,
        num_classes: usize,
    ) -> Self {
        let mut map = vec![None; num_classes];
        for (old_class, new_class) in pairs {
            map[old_class.index()] = Some(RemapEntry { new_class, plan: None });
        }
        RemapTable { map }
    }

    /// Resolves `policy` for every class id below `num_classes`.
    pub fn from_policy(policy: &dyn GcRemap, num_classes: usize) -> Self {
        RemapTable {
            map: (0..num_classes)
                .map(|i| {
                    policy
                        .remap(ClassId(i as u32))
                        .map(|new_class| RemapEntry { new_class, plan: None })
                })
                .collect(),
        }
    }

    /// Whether no class is remapped (an ordinary collection).
    pub fn is_empty(&self) -> bool {
        self.map.iter().all(Option::is_none)
    }

    /// The updated class instances of `class` are converted to, if any.
    #[inline]
    pub fn get(&self, class: ClassId) -> Option<ClassId> {
        self.entry(class).map(|e| e.new_class)
    }

    #[inline]
    fn entry(&self, class: ClassId) -> Option<&RemapEntry> {
        self.map.get(class.index())?.as_ref()
    }

    /// The copy plan of remapped class `old_class`, if it has one.
    pub fn plan(&self, old_class: ClassId) -> Option<&CopyPlan> {
        self.entry(old_class)?.plan.as_ref()
    }

    /// The most to-space words a copy through this table takes per
    /// from-space word, as a fraction `(to, from)` of at least 1: a remapped
    /// instance takes its new object, plus its old copy unless planned.
    fn max_growth(&self, snapshot: &LayoutSnapshot) -> (u64, u64) {
        let words = |class: ClassId| 1 + snapshot.size_words(class) as u64;
        let mut growth = (1, 1);
        for (old_class, entry) in self.map.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let from = words(ClassId(old_class as u32));
            let to = words(entry.new_class) + if entry.plan.is_some() { 0 } else { from };
            if to * growth.1 > growth.0 * from {
                growth = (to, from);
            }
        }
        growth
    }

    /// Attaches `plan` to remapped class `old_class`: its instances are
    /// then converted in place of being duplicated and logged.
    ///
    /// # Panics
    ///
    /// Panics unless `old_class` is remapped, the plan covers exactly the
    /// new layout, every source lies inside the old layout, and each move
    /// connects two reference fields or two primitive fields — the
    /// collector scans the new object with the new class's reference
    /// map, so a primitive word moved into a reference slot would be
    /// chased as a pointer.
    pub fn set_plan(&mut self, old_class: ClassId, plan: CopyPlan, layouts: &dyn ClassLayouts) {
        let entry = self.map[old_class.index()].as_mut().expect("plan for an unmapped class");
        let (old_refs, new_refs) = (layouts.ref_map(old_class), layouts.ref_map(entry.new_class));
        assert_eq!(plan.sources.len(), new_refs.len(), "plan does not cover {}", entry.new_class);
        for (&new_is_ref, &old_slot) in new_refs.iter().zip(&plan.sources) {
            if old_slot != CopyPlan::ZERO {
                // (Indexing also checks the source lies inside the old layout.)
                assert_eq!(
                    old_refs[old_slot as usize], new_is_ref,
                    "plan moves {old_class} slot {old_slot} across the reference/primitive divide"
                );
            }
        }
        entry.plan = Some(plan);
    }
}

/// What a copy evacuated.
#[derive(Debug, Clone, Default)]
pub struct GcOutcome {
    /// Objects (cells) copied.
    pub copied_cells: usize,
    /// Words copied (headers included).
    pub copied_words: usize,
    /// Objects converted to their new layout by a [`CopyPlan`] during the
    /// copy (one new-layout cell each; never on the update log).
    pub planned: usize,
    /// Copied words (headers included) the scan skipped because the copy
    /// left their cells holding no reference (see the module docs).
    pub unscanned_words: usize,
}

impl GcOutcome {
    fn add_counts(&mut self, other: &GcOutcome) {
        self.copied_cells += other.copied_cells;
        self.copied_words += other.copied_words;
        self.planned += other.planned;
        self.unscanned_words += other.unscanned_words;
    }
}

/// One object a copy duplicated, for the update log: the from-space
/// address of the original (the VM runs transformers lowest address
/// first), the old-layout copy, and the zeroed new-layout object.
pub type LoggedPair = (u32, GcRef, GcRef);

/// An array an incremental copy evacuated unfilled.
#[derive(Debug, Clone, Copy)]
struct Unfilled {
    /// Its reserved to-space cell.
    to: u32,
    /// The from-space original, whose payload the scan copies from.
    from: u32,
}

/// The state of a copy between [`Heap::flip`] and [`Heap::end_copy`].
#[derive(Debug, Default)]
struct CopyState {
    /// The next to-space cell the Cheney scan visits.
    scan: usize,
    /// The first payload word (field or element) of the cell at `scan`
    /// still to process: a step that runs out of budget inside a cell
    /// stops there.
    slot: usize,
    /// The first skip run (`Heap::runs`) the scan has not jumped.
    run: usize,
    /// The most to-space words the whole copy can take: the from-space
    /// words in use at the flip, scaled by the remap's largest growth.
    /// What of it the copy has not yet taken is held back from mutator
    /// allocation, so the copy can always finish.
    need: usize,
    /// Arrays longer than this many words are evacuated unfilled.
    unfill_over: usize,
    /// Arrays evacuated unfilled, in evacuation (= to-space) order; an
    /// unfilled cell's header tag is its index + 1.
    unfilled: Vec<Unfilled>,
    /// Everything evacuated so far.
    totals: GcOutcome,
}

/// The allowance of one [`Heap::copy_step`] (unlimited in
/// [`Heap::finish_copy`]).
#[derive(Debug)]
struct Budget {
    /// Units the step may charge.
    limit: usize,
    /// Units charged so far.
    charged: usize,
    /// The update-log length at which the step stops.
    max_log: usize,
    /// The payload word of the cell at the scan pointer to resume at; set
    /// where the step stops.
    slot: usize,
}

impl Budget {
    /// Whether the step may not take `units` more units.
    #[inline(always)]
    fn spent(&self, logged: usize, units: usize) -> bool {
        self.charged + units > self.limit || logged >= self.max_log
    }
}

/// The semi-space heap.
#[derive(Debug)]
pub struct Heap {
    words: Vec<u64>,
    semi: usize,
    /// `false`: active space is A (`[1, semi]`); `true`: space B.
    active_b: bool,
    alloc: usize,
    collections: u64,
    /// The from-space of an incremental copy: the `from_len` words from
    /// `from_base` that were in use at the flip. `from_len` is zero when no
    /// copy is running, so the range test on a loaded word is false.
    from_base: usize,
    from_len: usize,
    copy: CopyState,
    /// The to-space cells the running or last copy left holding no
    /// reference, as ascending `(start, end)` address runs the scan jumps
    /// whole. `collect` and `flip` clear it and keep its capacity.
    runs: Vec<(u32, u32)>,
}

const KIND_SHIFT: u64 = 1;
const KIND_MASK: u64 = 0b110;
/// The low header bits (forwarded flag + kind) of a live string cell.
const STR_KIND_BITS: u64 = 3 << KIND_SHIFT;
const TAG_SHIFT: u64 = 3;
const META_SHIFT: u64 = 32;
/// Largest value the spare header bits 3..31 can hold.
const MAX_HEADER_TAG: u32 = (1 << (META_SHIFT - TAG_SHIFT)) - 1;
const TAG_MASK: u64 = (MAX_HEADER_TAG as u64) << TAG_SHIFT;

/// The address a forwarding word points at.
#[inline]
fn forward_target(h: u64) -> usize {
    (h >> 1) as u32 as usize
}

fn header(kind: HeapKind, meta: u32) -> u64 {
    let k = match kind {
        HeapKind::Object => 0u64,
        HeapKind::RefArray => 1,
        HeapKind::PrimArray => 2,
        HeapKind::Str => 3,
    };
    (u64::from(meta) << META_SHIFT) | (k << KIND_SHIFT)
}

fn header_kind(h: u64) -> HeapKind {
    match (h & KIND_MASK) >> KIND_SHIFT {
        0 => HeapKind::Object,
        1 => HeapKind::RefArray,
        2 => HeapKind::PrimArray,
        _ => HeapKind::Str,
    }
}

fn header_meta(h: u64) -> u32 {
    (h >> META_SHIFT) as u32
}

/// Size in words (header included) of the live cell whose header is `h`.
#[inline]
fn cell_size_of(h: u64, snapshot: &LayoutSnapshot) -> usize {
    let meta = header_meta(h) as usize;
    match header_kind(h) {
        HeapKind::Object => 1 + snapshot.size_words(ClassId(meta as u32)),
        HeapKind::RefArray | HeapKind::PrimArray => 1 + meta,
        HeapKind::Str => 1 + meta.div_ceil(8),
    }
}

impl Heap {
    /// Creates a heap with two semispaces of `semispace_words` each.
    pub fn new(semispace_words: usize) -> Self {
        assert!(semispace_words >= 16, "heap too small to be useful");
        Heap {
            words: vec![0; 1 + 2 * semispace_words],
            semi: semispace_words,
            active_b: false,
            alloc: 1,
            collections: 0,
            from_base: 0,
            from_len: 0,
            copy: CopyState::default(),
            runs: Vec::new(),
        }
    }

    fn base(&self, space_b: bool) -> usize {
        if space_b {
            1 + self.semi
        } else {
            1
        }
    }

    fn limit(&self, space_b: bool) -> usize {
        self.base(space_b) + self.semi
    }

    /// Words currently allocated in the active semispace.
    pub fn used_words(&self) -> usize {
        self.alloc - self.base(self.active_b)
    }

    /// Words still free in the active semispace.
    pub fn free_words(&self) -> usize {
        self.limit(self.active_b) - self.alloc
    }

    /// Words per semispace.
    pub fn semispace_words(&self) -> usize {
        self.semi
    }

    /// Number of collections performed so far.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    fn alloc_raw(&mut self, n: usize) -> Option<usize> {
        // Mid-copy, the to-space the copy may still take is not the
        // mutator's: a full heap must leave the copy room to finish.
        let reserve = self.copy.need.saturating_sub(self.copy.totals.copied_words);
        if self.alloc + n + reserve > self.limit(self.active_b) {
            return None;
        }
        let addr = self.alloc;
        self.alloc += n;
        // Zero the cell: the space may hold stale data from before the
        // previous collection.
        self.words[addr..addr + n].fill(0);
        Some(addr)
    }

    /// Allocates an object of `class` with `size` zeroed field words.
    pub fn alloc_object(&mut self, class: ClassId, size: usize) -> Option<GcRef> {
        let addr = self.alloc_raw(1 + size)?;
        self.words[addr] = header(HeapKind::Object, class.0);
        Some(GcRef(addr as u32))
    }

    /// Allocates an array of `len` elements; `is_ref` selects the kind.
    pub fn alloc_array(&mut self, is_ref: bool, len: usize) -> Option<GcRef> {
        let addr = self.alloc_raw(1 + len)?;
        let kind = if is_ref { HeapKind::RefArray } else { HeapKind::PrimArray };
        self.words[addr] = header(kind, len as u32);
        Some(GcRef(addr as u32))
    }

    /// Allocates a zeroed string cell of `len` bytes and returns its
    /// address; the caller fills the first `len` payload bytes.
    fn alloc_str_cell(&mut self, len: usize) -> Option<usize> {
        let meta = u32::try_from(len).ok()?;
        let addr = self.alloc_raw(1 + len.div_ceil(8))?;
        self.words[addr] = header(HeapKind::Str, meta);
        Some(addr)
    }

    /// Allocates a string cell holding `s`.
    pub fn alloc_string(&mut self, s: &str) -> Option<GcRef> {
        let addr = self.alloc_str_cell(s.len())?;
        bytes_of_mut(&mut self.words[addr + 1..])[..s.len()].copy_from_slice(s.as_bytes());
        Some(GcRef(addr as u32))
    }

    /// Allocates the concatenation of the strings at `a` and `b`, copying
    /// their bytes inside the heap.
    ///
    /// # Panics
    ///
    /// Panics if either cell is not a string.
    pub fn alloc_concat(&mut self, a: GcRef, b: GcRef) -> Option<GcRef> {
        let (a_at, a_len) = self.str_span(a);
        let (b_at, b_len) = self.str_span(b);
        let addr = self.alloc_str_cell(a_len + b_len)?;
        let bytes = bytes_of_mut(&mut self.words);
        let at = (addr + 1) * 8;
        bytes.copy_within(a_at..a_at + a_len, at);
        bytes.copy_within(b_at..b_at + b_len, at + a_len);
        Some(GcRef(addr as u32))
    }

    /// Allocates the substring `from..to` (byte offsets) of the string at
    /// `r`, copying inside the heap; `Ok(None)` when the heap is full.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] unless `from <= to <= len`, and
    /// [`VmError::NotCharBoundary`] if either offset splits a UTF-8
    /// sequence — the new cell would break the validity invariant
    /// [`Heap::str_view`] rests on.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a string.
    pub fn alloc_substr(
        &mut self,
        r: GcRef,
        from: usize,
        to: usize,
    ) -> Result<Option<GcRef>, VmError> {
        let s = self.str_view(r);
        if from > to || to > s.len() {
            return Err(VmError::IndexOutOfBounds { index: to as i64, len: s.len() as u32 });
        }
        if let Some(&index) = [from, to].iter().find(|&&i| !s.is_char_boundary(i)) {
            return Err(VmError::NotCharBoundary { index });
        }
        let (at, _) = self.str_span(r);
        let Some(addr) = self.alloc_str_cell(to - from) else { return Ok(None) };
        bytes_of_mut(&mut self.words).copy_within(at + from..at + to, (addr + 1) * 8);
        Ok(Some(GcRef(addr as u32)))
    }

    /// The kind of the cell at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` points at a forwarded cell (only occurs mid-GC or
    /// mid-lazy-epoch before [`Heap::resolve`]).
    pub fn kind(&self, r: GcRef) -> HeapKind {
        let h = self.words[r.addr()];
        assert_eq!(h & 1, 0, "kind() on forwarded cell {r}");
        header_kind(h)
    }

    /// The class of the object at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not an object.
    pub fn class_of(&self, r: GcRef) -> ClassId {
        let h = self.words[r.addr()];
        assert_eq!(h & 1, 0, "class_of() on forwarded cell {r}");
        assert_eq!(header_kind(h), HeapKind::Object, "class_of() on non-object");
        ClassId(header_meta(h))
    }

    /// Length of the array (or byte length of the string) at `r`.
    pub fn len_of(&self, r: GcRef) -> u32 {
        let h = self.words[r.addr()];
        assert_eq!(h & 1, 0, "len_of() on forwarded cell {r}");
        header_meta(h)
    }

    /// Reads field/element word `offset` of the cell at `r`.
    pub fn get(&self, r: GcRef, offset: usize) -> u64 {
        self.words[r.addr() + 1 + offset]
    }

    /// Writes field/element word `offset` of the cell at `r`, which the
    /// caller keeps inside the cell (the heap does not know object sizes;
    /// the interpreter's offsets come from verified bytecode resolved
    /// against the class layout).
    ///
    /// # Panics
    ///
    /// Panics if the cell is a string: strings are immutable, and their
    /// bytes must stay valid UTF-8 for [`Heap::str_view`].
    pub fn set(&mut self, r: GcRef, offset: usize, word: u64) {
        let h = self.words[r.addr()];
        assert_ne!(h & (KIND_MASK | 1), STR_KIND_BITS, "set() on string cell {r}");
        self.words[r.addr() + 1 + offset] = word;
    }

    /// Byte offset (into the heap's words viewed as bytes) and byte length
    /// of the payload of the string cell at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is forwarded or not a string.
    #[inline]
    fn str_span(&self, r: GcRef) -> (usize, usize) {
        let h = self.words[r.addr()];
        assert_eq!(h & (KIND_MASK | 1), STR_KIND_BITS, "string read of non-string cell {r}");
        ((r.addr() + 1) * 8, header_meta(h) as usize)
    }

    /// The string at `r`, borrowed from the heap: its payload bytes in
    /// place, no copy. Every `&mut self` method may move or overwrite
    /// cells, so the borrow checker already forbids holding a view across
    /// an allocation or a collection.
    ///
    /// # Panics
    ///
    /// Panics if the cell is forwarded or not a string.
    #[inline]
    pub fn str_view(&self, r: GcRef) -> &str {
        let (at, len) = self.str_span(r);
        let bytes = &bytes_of(&self.words)[at..at + len];
        debug_assert!(std::str::from_utf8(bytes).is_ok(), "string cell {r} is not UTF-8");
        // SAFETY: the first `len` payload bytes of a string cell are valid
        // UTF-8 (the string-cell invariant in the module docs): cells are
        // filled only by `alloc_string` (from a `&str`), `alloc_concat`
        // (two valid strings end to end), `alloc_substr` (cut at checked
        // char boundaries) and the collector's verbatim cell copies. The
        // only other writer of heap words, `set`, refuses a string cell
        // and is never aimed past the end of its own cell (its contract).
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Copies the string cell at `r` out of the heap (host-side
    /// convenience; the interpreter reads strings through
    /// [`Heap::str_view`]).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a string.
    pub fn read_string(&self, r: GcRef) -> String {
        self.str_view(r).to_owned()
    }

    /// The tag in the spare header bits of the live cell at `r`: zero,
    /// except on the old copy and the new object of an update-log pair
    /// whose transformer has not finished, where the VM keeps the log
    /// index + 1. Collections copy headers verbatim, so the tag follows
    /// the cell and no address-keyed side table needs rebuilding.
    pub fn header_tag(&self, r: GcRef) -> u32 {
        let h = self.words[r.addr()];
        debug_assert_eq!(h & 1, 0, "header_tag() on forwarded cell {r}");
        ((h & TAG_MASK) >> TAG_SHIFT) as u32
    }

    /// Sets the header tag of the live cell at `r` (see
    /// [`Heap::header_tag`]).
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit the 29 spare bits.
    pub fn set_header_tag(&mut self, r: GcRef, tag: u32) {
        assert!(tag <= MAX_HEADER_TAG, "header tag {tag} overflows the spare header bits");
        let h = &mut self.words[r.addr()];
        debug_assert_eq!(*h & 1, 0, "set_header_tag() on forwarded cell {r}");
        *h = (*h & !TAG_MASK) | (u64::from(tag) << TAG_SHIFT);
    }

    /// Walks every cell in the active semispace in ascending address
    /// order, invoking `f` on each plain object with its class. (Forwarding
    /// words only ever exist in from-space, so every cell here parses.)
    pub fn for_each_object(&self, snapshot: &LayoutSnapshot, mut f: impl FnMut(GcRef, ClassId)) {
        let mut addr = self.base(self.active_b);
        while addr < self.alloc {
            let h = self.words[addr];
            if header_kind(h) == HeapKind::Object {
                f(GcRef(addr as u32), ClassId(header_meta(h)));
            }
            addr += cell_size_of(h, snapshot);
        }
    }

    /// The live cell `r` names: its forwarding target if a collection
    /// copied it, `r` itself otherwise. Every forward points into to-space,
    /// so this is one hop; after [`Heap::collect`] callers rewrite their
    /// roots with it.
    pub fn resolve(&self, r: GcRef) -> GcRef {
        let h = self.words[r.addr()];
        if h & 1 == 1 {
            GcRef(forward_target(h) as u32)
        } else {
            r
        }
    }

    // ---- the copy: flip, evacuate, scan, end ----------------------------------

    /// Starts a copy through `remap`: makes the other semispace active, so
    /// every later allocation and evacuation bumps its cursor, and records
    /// the words in use in the old one as from-space. Arrays longer than
    /// `unfill_over` words are evacuated unfilled. Copies nothing; the
    /// caller evacuates its roots with [`Heap::evacuate`].
    ///
    /// From here until the copy ends, mutator allocation fails while it
    /// would leave less free to-space than the copy may still need — every
    /// from-space word not yet evacuated, at the remap's largest growth —
    /// so a collection can always finish the copy.
    ///
    /// # Panics
    ///
    /// Panics if a copy is already running.
    pub fn flip(&mut self, unfill_over: usize, snapshot: &LayoutSnapshot, remap: &RemapTable) {
        assert!(!self.copying(), "an incremental copy is already running");
        self.from_base = self.base(self.active_b);
        self.from_len = self.alloc - self.from_base;
        self.active_b = !self.active_b;
        self.alloc = self.base(self.active_b);
        let (to, from) = remap.max_growth(snapshot);
        // (Past a semispace, the mutator gets nothing either way.)
        let need = (self.from_len as u128 * u128::from(to)).div_ceil(u128::from(from));
        let need = need.min(self.semi as u128) as usize;
        self.copy = CopyState { scan: self.alloc, need, unfill_over, ..CopyState::default() };
        self.runs.clear();
        self.collections += 1;
    }

    /// Whether a copy is running (from-space still holds cells to
    /// evacuate).
    pub fn copying(&self) -> bool {
        self.from_len != 0
    }

    /// Whether `word`, read from a reference slot, is a from-space address:
    /// the read barrier's range test. Always false outside a copy (and for
    /// null, which lies below both semispaces).
    #[inline(always)]
    pub fn in_from_space(&self, word: u64) -> bool {
        (word as usize).wrapping_sub(self.from_base) < self.from_len
    }

    /// Words in use in from-space at the flip: what a copy that is never
    /// finished keeps reserved (zero outside a copy).
    pub fn from_space_words(&self) -> usize {
        self.from_len
    }

    /// Evacuates the from-space cell `r` — or returns where it already went
    /// — through the collector's own copy arms: a remapped object with a
    /// plan is converted, one without is duplicated and the pair pushed on
    /// `log`, anything else is copied (an array longer than the copy's
    /// budget unfilled). The read barrier's slow path, and how roots are
    /// evacuated at the flip.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] if to-space is full; nothing is forwarded.
    pub fn evacuate(
        &mut self,
        r: GcRef,
        snapshot: &LayoutSnapshot,
        remap: &RemapTable,
        log: &mut Vec<LoggedPair>,
    ) -> Result<GcRef, VmError> {
        debug_assert!(self.in_from_space(u64::from(r.0)), "evacuate({r}) outside from-space");
        let mut to_alloc = self.alloc;
        let to_limit = self.limit(self.active_b);
        let mut outcome = GcOutcome::default();
        let result = self.copy_cell::<true>(
            r,
            &mut to_alloc,
            to_limit,
            self.copy.unfill_over,
            snapshot,
            Some(remap),
            &mut outcome,
            log,
        );
        self.alloc = to_alloc;
        self.copy.totals.add_counts(&outcome);
        result
    }

    /// Advances the Cheney scan by at most `budget` units — one per cell
    /// scanned, one per array element scanned or filled, one per cell the
    /// scan evacuates, one per skip run jumped — and returns the units
    /// charged. It stops early once
    /// `log` has grown by `max_logged` pairs or the scan meets the
    /// allocation cursor. A step may stop inside a cell — an object between
    /// two of its fields, an array between two elements — and the next
    /// resumes there, so no step charges more than its budget, however
    /// long the array. An array element and the evacuation of its referent
    /// are charged together, so a budget must be at least 2. Pairs the
    /// step duplicates go on `log`, in scan order.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] if to-space is full; the step can be
    /// retried (every slot it rewrote already holds a to-space address).
    ///
    /// # Panics
    ///
    /// Panics unless a copy is running and `budget` is at least 2.
    pub fn copy_step(
        &mut self,
        budget: usize,
        max_logged: usize,
        snapshot: &LayoutSnapshot,
        remap: &RemapTable,
        log: &mut Vec<LoggedPair>,
    ) -> Result<usize, VmError> {
        assert!(self.copying(), "copy_step outside an incremental copy");
        assert!(budget >= 2, "a copy step's budget of {budget} cannot pass an array element");
        let mut b = Budget {
            limit: budget,
            charged: 0,
            max_log: log.len().saturating_add(max_logged),
            slot: self.copy.slot,
        };
        let result = self.scan_copy::<true, true>(snapshot, Some(remap), log, &mut b);
        self.copy.slot = b.slot;
        result.map(|()| b.charged)
    }

    /// Runs the scan to the end in one unbounded pass — how a copy finished
    /// inside a pause runs ([`Heap::collect`], an eager update) — logging
    /// the pairs it duplicates on `log`. The pass evacuates every non-null
    /// reference slot unchecked, so nothing but the roots' evacuation may
    /// come between the flip and it: no copy step, no mutator allocation,
    /// no unfilled array. An empty `remap` compiles the remap probe out.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] if to-space overflows; the copy stays
    /// unfinished.
    pub fn finish_copy(
        &mut self,
        snapshot: &LayoutSnapshot,
        remap: &RemapTable,
        log: &mut Vec<LoggedPair>,
    ) -> Result<(), VmError> {
        debug_assert!(
            self.copy.scan == self.base(self.active_b) && self.copy.unfilled.is_empty(),
            "finish_copy after a copy step or an unfilled evacuation"
        );
        let mut b = Budget { limit: usize::MAX, charged: 0, max_log: usize::MAX, slot: 0 };
        if remap.is_empty() {
            self.scan_copy::<false, false>(snapshot, None, log, &mut b)
        } else {
            self.scan_copy::<true, false>(snapshot, Some(remap), log, &mut b)
        }
    }

    /// [`Heap::scan_to`] from the copy's scan pointer, recording where it
    /// stopped and what it evacuated.
    #[inline(always)]
    fn scan_copy<const HAS_REMAP: bool, const BOUNDED: bool>(
        &mut self,
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
        log: &mut Vec<LoggedPair>,
        budget: &mut Budget,
    ) -> Result<(), VmError> {
        let (mut scan, mut run, mut to_alloc) = (self.copy.scan, self.copy.run, self.alloc);
        let (to_limit, unfill_over) = (self.limit(self.active_b), self.copy.unfill_over);
        let mut outcome = GcOutcome::default();
        let result = self.scan_to::<HAS_REMAP, BOUNDED>(
            &mut scan,
            &mut run,
            &mut to_alloc,
            to_limit,
            unfill_over,
            snapshot,
            remap,
            &mut outcome,
            log,
            budget,
        );
        (self.copy.scan, self.copy.run) = (scan, run);
        self.alloc = to_alloc;
        self.copy.totals.add_counts(&outcome);
        result
    }

    /// What the running copy has evacuated so far.
    pub fn copied(&self) -> &GcOutcome {
        &self.copy.totals
    }

    /// Whether the scan has met the allocation cursor: every live cell is
    /// in to-space and scanned, and every unfilled array filled.
    pub fn copy_done(&self) -> bool {
        self.copy.scan == self.alloc
    }

    /// Ends a finished copy — from-space is free from here on — and
    /// returns what it evacuated.
    ///
    /// # Panics
    ///
    /// Panics unless [`Heap::copy_done`].
    pub fn end_copy(&mut self) -> GcOutcome {
        assert!(self.copy_done(), "end_copy before the scan met the cursor");
        self.from_len = 0;
        std::mem::take(&mut self.copy).totals
    }

    /// The word address of element `idx` of the array at `arr`, and
    /// whether it is a reference array; or the array's length if `idx` is
    /// out of bounds. An array an incremental
    /// copy has not filled yet answers from its from-space original at or
    /// past the fill cursor.
    #[inline]
    pub(crate) fn element_at(&self, arr: GcRef, idx: i64) -> Result<(usize, bool), u32> {
        let h = self.words[arr.addr()];
        debug_assert_eq!(h & 1, 0, "element of forwarded cell {arr}");
        let len = header_meta(h);
        if idx < 0 || idx >= i64::from(len) {
            return Err(len);
        }
        let (idx, is_ref) = (idx as usize, h & KIND_MASK == 1 << KIND_SHIFT);
        if h & TAG_MASK == 0 {
            return Ok((arr.addr() + 1 + idx, is_ref));
        }
        Ok((self.unfilled_element(arr, h, idx), is_ref))
    }

    #[cold]
    fn unfilled_element(&self, arr: GcRef, h: u64, idx: usize) -> usize {
        let entry = self.copy.unfilled[((h & TAG_MASK) >> TAG_SHIFT) as usize - 1];
        let filled = if arr.addr() == self.copy.scan { self.copy.slot } else { 0 };
        let cell = if idx < filled { arr.addr() } else { entry.from as usize };
        cell + 1 + idx
    }

    /// The heap word at `addr` (an [`Heap::element_at`] address).
    #[inline]
    pub(crate) fn word(&self, addr: usize) -> u64 {
        self.words[addr]
    }

    /// Writes the heap word at `addr` (an [`Heap::element_at`] address).
    #[inline]
    pub(crate) fn set_word(&mut self, addr: usize, word: u64) {
        self.words[addr] = word;
    }

    /// Checks the heap's invariants, outside an incremental copy or during
    /// one:
    ///
    /// * the active semispace parses cell by cell — no forwarding word, no
    ///   class missing from `snapshot` — and its last cell ends exactly at
    ///   the allocation cursor;
    /// * every reference slot holds null, the address of a cell of the
    ///   active semispace or, during a copy, a from-space address;
    /// * during a copy, no cell the scan has passed — nor the scanned part
    ///   of the cell it stopped in, nor a cell in a skip run it has yet to
    ///   jump — holds a from-space reference, the next run to jump starts
    ///   at or past the scan pointer, every array behind the scan is filled
    ///   and untagged, and every array still unfilled is forwarded to by
    ///   its original and tagged with its entry.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_heap(&self, snapshot: &LayoutSnapshot) -> Result<(), String> {
        let mut cells = Vec::new();
        let mut addr = self.base(self.active_b);
        while addr < self.alloc {
            let h = self.words[addr];
            if h & 1 == 1 {
                return Err(format!("forwarded cell @{addr} in the active semispace"));
            }
            let class = ClassId(header_meta(h));
            if header_kind(h) == HeapKind::Object
                && snapshot.entries.get(class.index()).is_none_or(|e| e.size_words == u32::MAX)
            {
                return Err(format!("object @{addr} of class {class}, missing from the snapshot"));
            }
            cells.push(addr);
            addr += cell_size_of(h, snapshot);
        }
        if addr != self.alloc {
            return Err(format!("the last cell ends @{addr}, past the cursor @{}", self.alloc));
        }
        let (scan, slot) =
            if self.copying() { (self.copy.scan, self.copy.slot) } else { (usize::MAX, 0) };
        // The runs the scan has yet to jump (none outside a copy).
        let ahead = if self.copying() { self.runs.get(self.copy.run..) } else { None };
        let mut runs = ahead.unwrap_or_default().iter().peekable();
        for &addr in &cells {
            let h = self.words[addr];
            let size = cell_size_of(h, snapshot);
            while runs.next_if(|&&(_, end)| end as usize <= addr).is_some() {}
            let in_run = runs.peek().is_some_and(|&&(start, _)| start as usize <= addr);
            // Payload words the scan is done with, and those that hold
            // this cell's references (not an unfilled array's past its
            // fill cursor: they are stale).
            let scanned = if addr < scan || in_run {
                size - 1
            } else if addr == scan {
                slot
            } else {
                0
            };
            let unfilled = header_kind(h) != HeapKind::Object && h & TAG_MASK != 0;
            let valid = if !unfilled { size - 1 } else if addr == scan { slot } else { 0 };
            let is_ref = |i: usize| match header_kind(h) {
                HeapKind::Object => {
                    let e = snapshot.entry(ClassId(header_meta(h)));
                    (snapshot.bits[e.bits_start as usize + i / 64] >> (i % 64)) & 1 == 1
                }
                HeapKind::RefArray => true,
                HeapKind::PrimArray | HeapKind::Str => false,
            };
            for i in (0..valid).filter(|&i| is_ref(i)) {
                let word = self.words[addr + 1 + i];
                if self.in_from_space(word) {
                    if i < scanned {
                        return Err(format!(
                            "scanned cell @{addr} slot {i} holds from-space @{word}"
                        ));
                    }
                } else if word != 0 && cells.binary_search(&(word as usize)).is_err() {
                    return Err(format!("cell @{addr} slot {i} holds @{word}, not a live cell"));
                }
            }
        }
        if !self.copying() {
            return Ok(());
        }
        if self.runs.get(self.copy.run).is_some_and(|&(start, _)| (start as usize) < scan) {
            return Err(format!("the next skip run starts behind the scan pointer @{scan}"));
        }
        for (i, u) in self.copy.unfilled.iter().enumerate() {
            let (to, from) = (u.to as usize, u.from as usize);
            let tag = (self.words[to] & TAG_MASK) >> TAG_SHIFT;
            if to < scan {
                if tag != 0 {
                    return Err(format!("array @{to} behind the scan is still unfilled"));
                }
                continue;
            }
            if tag != i as u64 + 1 {
                return Err(format!("unfilled array @{to} does not carry its entry {i}"));
            }
            if self.words[from] != ((to as u64) << 1) | 1 {
                return Err(format!("unfilled array @{to}: original @{from} does not forward to it"));
            }
        }
        Ok(())
    }

    /// An ordinary full collection: [`Heap::flip`], the evacuation of
    /// `roots`, [`Heap::finish_copy`] and [`Heap::end_copy`], through no
    /// remap; the caller then rewrites each root via [`Heap::resolve`].
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] if to-space overflows, which a copy that
    /// duplicates nothing never does.
    pub fn collect(
        &mut self,
        roots: &[GcRef],
        snapshot: &LayoutSnapshot,
    ) -> Result<GcOutcome, VmError> {
        let none = RemapTable::default();
        self.flip(usize::MAX, snapshot, &none);
        for &root in roots {
            self.evacuate(root, snapshot, &none, &mut Vec::new())?;
        }
        self.finish_copy(snapshot, &none, &mut Vec::new())?;
        Ok(self.end_copy())
    }

    /// The Cheney scan from `*scan` towards the allocation cursor — the one
    /// scan loop of the one-pass finish and the copy steps. A skip run
    /// starting at the scan pointer is jumped whole (one unit of a bounded
    /// budget) and its words counted as unscanned; any other cell is
    /// scanned by [`Heap::scan_cell`], which reads its header and snapshot
    /// entry once and enumerates its reference fields from the bitset.
    /// Returns when the scan meets the cursor or, `BOUNDED`, when the step
    /// must stop.
    /// `*run` is the first run not yet jumped; runs are in address order,
    /// so it and every later one start at or past the scan pointer.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn scan_to<const HAS_REMAP: bool, const BOUNDED: bool>(
        &mut self,
        scan: &mut usize,
        run: &mut usize,
        to_alloc: &mut usize,
        to_limit: usize,
        unfill_over: usize,
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
        outcome: &mut GcOutcome,
        log: &mut Vec<LoggedPair>,
        budget: &mut Budget,
    ) -> Result<(), VmError> {
        while *scan < *to_alloc {
            if let Some(&(start, end)) = self.runs.get(*run).filter(|r| r.0 as usize == *scan) {
                if BOUNDED {
                    if budget.spent(log.len(), 1) {
                        return Ok(());
                    }
                    budget.charged += 1;
                }
                outcome.unscanned_words += (end - start) as usize;
                (*scan, *run) = (end as usize, *run + 1);
                continue;
            }
            match self.scan_cell::<HAS_REMAP, BOUNDED>(
                *scan,
                to_alloc,
                to_limit,
                unfill_over,
                snapshot,
                remap,
                outcome,
                log,
                budget,
            )? {
                Some(size) => (*scan, budget.slot) = (*scan + size, 0),
                None => return Ok(()),
            }
        }
        Ok(())
    }

    /// Scans the to-space cell at `scan` — the one per-cell body of the
    /// scan: every reference slot that still holds a from-space
    /// address is evacuated through [`Heap::copy_cell`] and rewritten, and
    /// the cell's size is returned.
    ///
    /// `BOUNDED` is the incremental copy. It resumes at `budget.slot`,
    /// charges `budget` (see [`Heap::copy_step`]) and, when the budget
    /// or the step's log allowance runs out, returns `None` with
    /// `budget.slot` set to the payload word to resume at. It also leaves
    /// alone slots the mutator already pointed into to-space, and fills an
    /// unfilled array from its from-space original.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn scan_cell<const HAS_REMAP: bool, const BOUNDED: bool>(
        &mut self,
        scan: usize,
        to_alloc: &mut usize,
        to_limit: usize,
        unfill_over: usize,
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
        outcome: &mut GcOutcome,
        log: &mut Vec<LoggedPair>,
        budget: &mut Budget,
    ) -> Result<Option<usize>, VmError> {
        let h = self.words[scan];
        let meta = header_meta(h) as usize;
        let first = if BOUNDED { budget.slot } else { 0 };
        // Charges `$units` units, or stops the step at payload word `$slot`
        // if it may not take them.
        macro_rules! charge {
            ($slot:expr, $units:expr) => {
                if BOUNDED {
                    if budget.spent(log.len(), $units) {
                        budget.slot = $slot;
                        return Ok(None);
                    }
                    budget.charged += $units;
                }
            };
        }
        // Evacuates the referent `$val`, yielding its to-space address.
        macro_rules! evacuate {
            ($val:expr) => {
                u64::from(
                    self.copy_cell::<HAS_REMAP>(
                        GcRef($val as u32),
                        to_alloc,
                        to_limit,
                        unfill_over,
                        snapshot,
                        remap,
                        outcome,
                        log,
                    )?
                    .0,
                )
            };
        }
        let (size, end) = match header_kind(h) {
            HeapKind::Object => {
                let e = snapshot.entry(ClassId(meta as u32));
                for wi in first / 64..e.ref_words() {
                    let mut bits = snapshot.bits[e.bits_start as usize + wi];
                    if BOUNDED && wi == first / 64 {
                        bits &= !0u64 << (first % 64);
                    }
                    while bits != 0 {
                        let field = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let at = scan + 1 + field;
                        let val = self.words[at];
                        if BOUNDED {
                            if !self.in_from_space(val) {
                                continue;
                            }
                            if self.words[val as usize] & 1 == 0 {
                                charge!(field, 1);
                            }
                        } else if val == 0 {
                            continue;
                        }
                        self.words[at] = evacuate!(val);
                    }
                }
                (1 + e.size_words as usize, e.size_words as usize)
            }
            HeapKind::RefArray => {
                let src = if BOUNDED { self.fill_source(scan, h) } else { scan };
                for i in first..meta {
                    let val = self.words[src + 1 + i];
                    if BOUNDED {
                        // The element, and the evacuation of its referent
                        // if nothing has evacuated it yet.
                        let from = self.in_from_space(val);
                        charge!(i, 1 + usize::from(from && self.words[val as usize] & 1 == 0));
                        self.words[scan + 1 + i] = if from { evacuate!(val) } else { val };
                    } else if val != 0 {
                        self.words[scan + 1 + i] = evacuate!(val);
                    }
                }
                (1 + meta, meta)
            }
            HeapKind::PrimArray => {
                if BOUNDED && h & TAG_MASK != 0 {
                    // Filled in budget-sized pieces, one unit per element.
                    let src = self.fill_source(scan, h);
                    let room = budget.limit - budget.charged;
                    let stop = meta.min(first.saturating_add(room));
                    self.words.copy_within(src + 1 + first..src + 1 + stop, scan + 1 + first);
                    budget.charged += stop - first;
                    if stop < meta {
                        budget.slot = stop;
                        return Ok(None);
                    }
                }
                (1 + meta, meta)
            }
            HeapKind::Str => (1 + meta.div_ceil(8), 0),
        };
        // The cell itself is one unit; a filled array loses its tag.
        charge!(end, 1);
        if BOUNDED && h & TAG_MASK != 0 && header_kind(h) != HeapKind::Object {
            self.words[scan] = h & !TAG_MASK;
        }
        Ok(Some(size))
    }

    /// Where the scan reads the payload of the to-space array at `scan`
    /// (header `h`) from: its from-space original while it is unfilled.
    fn fill_source(&self, scan: usize, h: u64) -> usize {
        match (h & TAG_MASK) >> TAG_SHIFT {
            0 => scan,
            tag => self.copy.unfilled[tag as usize - 1].from as usize,
        }
    }

    /// Copies one from-space cell to to-space, or returns where a
    /// forwarding word says it already went. An array longer than
    /// `unfill_over` words is reserved unfilled (see the module docs).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn copy_cell<const HAS_REMAP: bool>(
        &mut self,
        r: GcRef,
        to_alloc: &mut usize,
        to_limit: usize,
        unfill_over: usize,
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
        outcome: &mut GcOutcome,
        log: &mut Vec<LoggedPair>,
    ) -> Result<GcRef, VmError> {
        let addr = r.addr();
        let h = self.words[addr];
        if h & 1 == 1 {
            return Ok(GcRef(forward_target(h) as u32));
        }

        if HAS_REMAP && header_kind(h) == HeapKind::Object {
            let class = ClassId(header_meta(h));
            if let Some(entry) = remap.and_then(|table| table.entry(class)) {
                let new_class = entry.new_class;
                let new_e = snapshot.entry(new_class);
                let new_size = 1 + new_e.size_words as usize;
                if let Some(plan) = &entry.plan {
                    // Pure field copy: build the new-layout object straight
                    // from the original. The scan forwards the references
                    // it copied, exactly as it would an old copy's.
                    let new_obj = self.alloc_to(new_size, to_alloc, to_limit)?;
                    self.words[new_obj] = header(HeapKind::Object, new_class.0);
                    for (i, &src) in plan.sources.iter().enumerate() {
                        self.words[new_obj + 1 + i] = match src {
                            CopyPlan::ZERO => 0,
                            src => self.words[addr + 1 + src as usize],
                        };
                    }
                    if self.refs_null(new_obj, new_e, snapshot) {
                        self.note_leaf(new_obj, new_size);
                    }
                    self.words[addr] = ((new_obj as u64) << 1) | 1;
                    outcome.copied_cells += 1;
                    outcome.copied_words += new_size;
                    outcome.planned += 1;
                    return Ok(GcRef(new_obj as u32));
                }

                // Paper §3.4: duplicate the object. Allocate an old-layout
                // copy (scanned normally so its fields get forwarded) and a
                // zeroed new-layout object the transformer will populate.
                let old_e = snapshot.entry(class);
                let old_size = 1 + old_e.size_words as usize;
                let old_copy = self.alloc_to(old_size, to_alloc, to_limit)?;
                self.words.copy_within(addr..addr + old_size, old_copy);

                let new_obj = self.alloc_to(new_size, to_alloc, to_limit)?;
                self.words[new_obj..new_obj + new_size].fill(0);
                self.words[new_obj] = header(HeapKind::Object, new_class.0);
                if self.refs_null(old_copy, old_e, snapshot) {
                    self.note_leaf(old_copy, old_size);
                }
                self.note_leaf(new_obj, new_size);

                self.words[addr] = ((new_obj as u64) << 1) | 1;
                outcome.copied_cells += 2;
                outcome.copied_words += old_size + new_size;
                log.push((addr as u32, GcRef(old_copy as u32), GcRef(new_obj as u32)));
                return Ok(GcRef(new_obj as u32));
            }
        }

        // The size and, for an object, the snapshot entry that says which
        // of the words about to be copied are references.
        let meta = header_meta(h) as usize;
        let (size, e) = match header_kind(h) {
            HeapKind::Object => {
                let e = snapshot.entry(ClassId(meta as u32));
                (1 + e.size_words as usize, e)
            }
            HeapKind::RefArray | HeapKind::PrimArray => (1 + meta, SnapEntry::NO_REFS),
            HeapKind::Str => (1 + meta.div_ceil(8), SnapEntry::NO_REFS),
        };
        let mut leaf = header_kind(h) != HeapKind::RefArray;
        let dst = self.alloc_to(size, to_alloc, to_limit)?;
        // Nearly all cells are a few words; fixed-size copies compile to
        // straight-line moves, where `copy_within` pays a memmove call.
        match size {
            2 => {
                self.words[dst] = self.words[addr];
                self.words[dst + 1] = self.words[addr + 1];
            }
            3 => {
                self.words[dst] = self.words[addr];
                self.words[dst + 1] = self.words[addr + 1];
                self.words[dst + 2] = self.words[addr + 2];
            }
            4 => {
                self.words[dst] = self.words[addr];
                self.words[dst + 1] = self.words[addr + 1];
                self.words[dst + 2] = self.words[addr + 2];
                self.words[dst + 3] = self.words[addr + 3];
            }
            _ if size <= 8 => {
                for i in 0..size {
                    self.words[dst + i] = self.words[addr + i];
                }
            }
            _ if size > unfill_over
                && matches!(header_kind(h), HeapKind::RefArray | HeapKind::PrimArray) =>
            {
                // Too long to copy in one step: reserve the cell, tag it with
                // its unfilled entry, and let the scan fill it piecewise.
                self.copy.unfilled.push(Unfilled { to: dst as u32, from: addr as u32 });
                let tag = self.copy.unfilled.len() as u64;
                assert!(tag <= u64::from(MAX_HEADER_TAG), "too many unfilled arrays");
                self.words[dst] = h | (tag << TAG_SHIFT);
                leaf = false;
            }
            _ => self.words.copy_within(addr..addr + size, dst),
        }
        if leaf && self.refs_null(dst, e, snapshot) {
            self.note_leaf(dst, size);
        }
        self.words[addr] = ((dst as u64) << 1) | 1;
        outcome.copied_cells += 1;
        outcome.copied_words += size;
        Ok(GcRef(dst as u32))
    }

    #[inline]
    fn alloc_to(
        &mut self,
        n: usize,
        to_alloc: &mut usize,
        to_limit: usize,
    ) -> Result<usize, VmError> {
        if *to_alloc + n > to_limit {
            return Err(VmError::OutOfMemory { requested: n });
        }
        let addr = *to_alloc;
        *to_alloc += n;
        Ok(addr)
    }

    /// Whether every reference field of the cell at `cell`, laid out as
    /// snapshot entry `e` says, is null.
    #[inline(always)]
    fn refs_null(&self, cell: usize, e: SnapEntry, snapshot: &LayoutSnapshot) -> bool {
        let bits = &snapshot.bits[e.bits_start as usize..][..e.ref_words()];
        bits.iter().enumerate().all(|(wi, &word)| {
            let mut word = word;
            while word != 0 {
                let field = wi * 64 + word.trailing_zeros() as usize;
                if self.words[cell + 1 + field] != 0 {
                    return false;
                }
                word &= word - 1;
            }
            true
        })
    }

    /// Records the `size`-word to-space cell at `cell`, just copied and
    /// holding no reference, as a cell the scan jumps.
    #[inline(always)]
    fn note_leaf(&mut self, cell: usize, size: usize) {
        match self.runs.last_mut() {
            Some(run) if run.1 as usize == cell => run.1 += size as u32,
            _ => self.push_run(cell, size),
        }
    }

    /// Starts a new skip run at `cell`. Out of line, so the push's growth
    /// path is not inlined into every copy arm.
    #[inline(never)]
    fn push_run(&mut self, cell: usize, size: usize) {
        self.runs.push((cell as u32, (cell + size) as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test layouts: class 0 has 2 fields (second is a ref); class 1 has
    /// 3 fields (first is a ref); class 9 (the "updated" version of class
    /// 0) has 3 fields (second is a ref).
    struct TestLayouts;

    impl ClassLayouts for TestLayouts {
        fn object_size(&self, class: ClassId) -> usize {
            match class.0 {
                0 => 2,
                1 => 3,
                9 => 3,
                _ => panic!("unknown class {class}"),
            }
        }
        fn ref_map(&self, class: ClassId) -> &[bool] {
            match class.0 {
                0 => &[false, true],
                1 => &[true, false, false],
                9 => &[false, true, false],
                _ => panic!("unknown class {class}"),
            }
        }
    }

    fn snap() -> LayoutSnapshot {
        LayoutSnapshot::from_layouts(&TestLayouts, &[ClassId(0), ClassId(1), ClassId(9)])
    }

    struct RemapZeroToNine;
    impl GcRemap for RemapZeroToNine {
        fn remap(&self, class: ClassId) -> Option<ClassId> {
            (class.0 == 0).then_some(ClassId(9))
        }
    }

    fn remap09() -> RemapTable {
        RemapTable::from_policy(&RemapZeroToNine, 10)
    }

    /// [`Heap::collect`], then [`Heap::check_heap`].
    fn collect_checked(heap: &mut Heap, roots: &[GcRef], snapshot: &LayoutSnapshot) -> GcOutcome {
        let out = heap.collect(roots, snapshot).unwrap();
        heap.check_heap(snapshot).unwrap();
        out
    }

    /// An update collection: `collect`'s flip, roots and one-pass finish
    /// through `remap`. Returns what it copied and the pairs it logged,
    /// lowest from-space address first (the order transformers run in).
    fn update_collect(
        heap: &mut Heap,
        roots: &[GcRef],
        snapshot: &LayoutSnapshot,
        remap: &RemapTable,
    ) -> Result<(GcOutcome, Vec<(GcRef, GcRef)>), VmError> {
        heap.flip(usize::MAX, snapshot, remap);
        let mut log = Vec::new();
        for &root in roots {
            heap.evacuate(root, snapshot, remap, &mut log)?;
        }
        heap.finish_copy(snapshot, remap, &mut log)?;
        let out = heap.end_copy();
        heap.check_heap(snapshot).unwrap();
        log.sort_by_key(|&(from, _, _)| from);
        Ok((out, log.into_iter().map(|(_, old, new)| (old, new)).collect()))
    }

    #[test]
    fn alloc_and_access() {
        let mut heap = Heap::new(1024);
        let o = heap.alloc_object(ClassId(0), 2).unwrap();
        heap.set(o, 0, 42);
        assert_eq!(heap.get(o, 0), 42);
        assert_eq!(heap.class_of(o), ClassId(0));
        assert_eq!(heap.kind(o), HeapKind::Object);
    }

    #[test]
    fn string_roundtrip() {
        let mut heap = Heap::new(1024);
        for s in ["", "a", "hello world", "héllo wörld — ünïcode"] {
            let r = heap.alloc_string(s).unwrap();
            assert_eq!(heap.read_string(r), s);
        }
    }

    /// The payload words of the string cell at `r`.
    fn str_words(heap: &Heap, r: GcRef) -> Vec<u64> {
        (0..(heap.len_of(r) as usize).div_ceil(8)).map(|i| heap.get(r, i)).collect()
    }

    #[test]
    fn derived_strings_equal_allocated_ones_word_for_word() {
        // Stale non-zero words under every fresh cell: padding must be
        // written, not inherited.
        let mut heap = Heap::new(4096);
        heap.words.fill(u64::MAX);
        let text = "0123456789abcdefé€𝄞-tail of the text";
        let cell = heap.alloc_string(text).unwrap();
        assert_eq!(heap.str_view(cell), text);
        let bounds: Vec<usize> = (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
        for &from in &bounds {
            for &to in bounds.iter().filter(|&&to| to >= from) {
                let sub = heap.alloc_substr(cell, from, to).unwrap().unwrap();
                let plain = heap.alloc_string(&text[from..to]).unwrap();
                assert_eq!(heap.str_view(sub), &text[from..to]);
                assert_eq!(str_words(&heap, sub), str_words(&heap, plain), "{from}..{to}");
                let last = str_words(&heap, plain).last().copied().unwrap_or(0);
                let used = (to - from) % 8;
                assert!(used == 0 || last >> (8 * used) == 0, "padding of {from}..{to} is zero");
            }
            let (head, tail) = text.split_at(from);
            let (a, b) = (heap.alloc_string(head).unwrap(), heap.alloc_string(tail).unwrap());
            let joined = heap.alloc_concat(a, b).unwrap();
            assert_eq!(str_words(&heap, joined), str_words(&heap, cell), "split at {from}");
            heap.alloc = cell.addr() + 1 + text.len().div_ceil(8);
        }
    }

    #[test]
    fn substr_rejects_bad_ranges_and_split_characters() {
        let mut heap = Heap::new(64);
        let s = heap.alloc_string("aé€").unwrap();
        let used = heap.used_words();
        assert_eq!(heap.alloc_substr(s, 2, 1), Err(VmError::IndexOutOfBounds { index: 1, len: 6 }));
        assert_eq!(heap.alloc_substr(s, 0, 7), Err(VmError::IndexOutOfBounds { index: 7, len: 6 }));
        assert_eq!(heap.alloc_substr(s, 0, 2), Err(VmError::NotCharBoundary { index: 2 }));
        assert_eq!(heap.alloc_substr(s, 4, 6), Err(VmError::NotCharBoundary { index: 4 }));
        assert_eq!(heap.used_words(), used, "a rejected cut allocates nothing");
        let cut = heap.alloc_substr(s, 1, 3).unwrap().unwrap();
        assert_eq!(heap.str_view(cut), "é");
    }

    #[test]
    fn full_heap_fails_string_allocation_without_a_partial_cell() {
        let mut heap = Heap::new(16);
        let forty = "0123456789abcdef0123456789abcdef01234567";
        let (a, b) = (heap.alloc_string(forty).unwrap(), heap.alloc_string(forty).unwrap());
        let used = heap.used_words();
        assert_eq!(heap.alloc_concat(a, b), None);
        assert_eq!(heap.alloc_substr(a, 0, 40), Ok(None));
        assert_eq!(heap.used_words(), used);
    }

    #[test]
    #[should_panic(expected = "set() on string cell")]
    fn strings_are_immutable() {
        let mut heap = Heap::new(64);
        let s = heap.alloc_string("immutable").unwrap();
        heap.set(s, 0, u64::MAX);
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut heap = Heap::new(16);
        assert!(heap.alloc_array(false, 100).is_none());
        assert!(heap.alloc_array(false, 8).is_some());
    }

    #[test]
    fn snapshot_matches_trait_layouts() {
        let s = snap();
        for class in [ClassId(0), ClassId(1), ClassId(9)] {
            assert_eq!(s.size_words(class), TestLayouts.object_size(class));
        }
        assert_eq!(s.num_classes(), 10);
    }

    #[test]
    #[should_panic(expected = "missing from layout snapshot")]
    fn snapshot_panics_on_unknown_class() {
        snap().size_words(ClassId(5));
    }

    #[test]
    fn empty_remap_table_is_empty() {
        assert!(RemapTable::from_policy(&NoRemap, 10).is_empty());
        assert!(!remap09().is_empty());
    }

    #[test]
    fn collect_preserves_reachable_graph() {
        let mut heap = Heap::new(1024);
        let a = heap.alloc_object(ClassId(0), 2).unwrap();
        let b = heap.alloc_object(ClassId(1), 3).unwrap();
        heap.set(a, 0, 7);
        heap.set(a, 1, u64::from(b.0)); // a.field1 -> b
        heap.set(b, 1, 13);
        let s = heap.alloc_string("keep me").unwrap();
        heap.set(b, 0, u64::from(s.0)); // b.field0 -> s

        // Garbage that should be dropped.
        for _ in 0..10 {
            heap.alloc_object(ClassId(1), 3).unwrap();
        }
        let used_before = heap.used_words();

        let out = collect_checked(&mut heap, &[a], &snap());
        assert_eq!(out.copied_cells, 3);

        let a2 = heap.resolve(a);
        assert_eq!(heap.get(a2, 0), 7);
        let b2 = GcRef(heap.get(a2, 1) as u32);
        assert_eq!(heap.get(b2, 1), 13);
        let s2 = GcRef(heap.get(b2, 0) as u32);
        assert_eq!(heap.read_string(s2), "keep me");
        assert!(heap.used_words() < used_before);
    }

    #[test]
    fn collect_drops_unreachable_cycles() {
        let mut heap = Heap::new(1024);
        // Two class-1 objects pointing at each other, unreachable.
        let x = heap.alloc_object(ClassId(1), 3).unwrap();
        let y = heap.alloc_object(ClassId(1), 3).unwrap();
        heap.set(x, 0, u64::from(y.0));
        heap.set(y, 0, u64::from(x.0));
        let keep = heap.alloc_string("root").unwrap();

        let out = collect_checked(&mut heap, &[keep], &snap());
        assert_eq!(out.copied_cells, 1);
    }

    #[test]
    fn ref_arrays_are_traced() {
        let mut heap = Heap::new(1024);
        let arr = heap.alloc_array(true, 3).unwrap();
        let s = heap.alloc_string("elem").unwrap();
        heap.set(arr, 2, u64::from(s.0));

        collect_checked(&mut heap, &[arr], &snap());
        let arr2 = heap.resolve(arr);
        assert_eq!(heap.len_of(arr2), 3);
        assert_eq!(heap.get(arr2, 0), 0);
        let s2 = GcRef(heap.get(arr2, 2) as u32);
        assert_eq!(heap.read_string(s2), "elem");
    }

    #[test]
    fn wide_class_multi_word_bitset_is_traced() {
        // A 130-field class with refs at 0, 63, 64, 129 exercises every
        // u64 granule boundary of the packed ref map.
        let mut wide = vec![false; 130];
        for i in [0usize, 63, 64, 129] {
            wide[i] = true;
        }
        let mut s = snap();
        s.set(ClassId(4), &wide);

        let mut heap = Heap::new(2048);
        let o = heap.alloc_object(ClassId(4), 130).unwrap();
        let mut strings = Vec::new();
        for (n, i) in [0usize, 63, 64, 129].into_iter().enumerate() {
            let r = heap.alloc_string(&format!("s{n}")).unwrap();
            heap.set(o, i, u64::from(r.0));
            strings.push(r);
        }
        // Garbage between the live strings.
        heap.alloc_object(ClassId(1), 3).unwrap();

        let out = collect_checked(&mut heap, &[o], &s);
        assert_eq!(out.copied_cells, 5, "object + 4 strings survive");
        let o2 = heap.resolve(o);
        for (n, i) in [0usize, 63, 64, 129].into_iter().enumerate() {
            let r = GcRef(heap.get(o2, i) as u32);
            assert_eq!(heap.read_string(r), format!("s{n}"));
        }
        // Non-ref fields stayed zero.
        assert_eq!(heap.get(o2, 1), 0);
        assert_eq!(heap.get(o2, 128), 0);
    }

    #[test]
    fn remap_duplicates_and_logs_updated_objects() {
        let mut heap = Heap::new(1024);
        let o = heap.alloc_object(ClassId(0), 2).unwrap();
        heap.set(o, 0, 99);
        let s = heap.alloc_string("payload").unwrap();
        heap.set(o, 1, u64::from(s.0));

        let (_, log) = update_collect(&mut heap, &[o], &snap(), &remap09()).unwrap();
        assert_eq!(log.len(), 1);
        let (old_copy, new_obj) = log[0];

        // Old copy retains the old class and values, with refs forwarded.
        assert_eq!(heap.class_of(old_copy), ClassId(0));
        assert_eq!(heap.get(old_copy, 0), 99);
        let s2 = GcRef(heap.get(old_copy, 1) as u32);
        assert_eq!(heap.read_string(s2), "payload");

        // New object has the new class and zeroed fields.
        assert_eq!(heap.class_of(new_obj), ClassId(9));
        assert_eq!(heap.get(new_obj, 0), 0);
        assert_eq!(heap.get(new_obj, 1), 0);
        assert_eq!(heap.get(new_obj, 2), 0);

        // The root forwards to the NEW object (the heap switches to the
        // new version; the old copy is only reachable through the log).
        assert_eq!(heap.resolve(o), new_obj);
    }

    #[test]
    fn references_to_remapped_objects_point_at_new_version() {
        let mut heap = Heap::new(1024);
        let holder = heap.alloc_object(ClassId(1), 3).unwrap();
        let o = heap.alloc_object(ClassId(0), 2).unwrap();
        heap.set(holder, 0, u64::from(o.0));

        let (_, log) = update_collect(&mut heap, &[holder], &snap(), &remap09()).unwrap();
        let (_, new_obj) = log[0];
        let holder2 = heap.resolve(holder);
        assert_eq!(heap.get(holder2, 0), u64::from(new_obj.0));
    }

    #[test]
    fn two_references_to_same_remapped_object_share_new_version() {
        let mut heap = Heap::new(1024);
        let h1 = heap.alloc_object(ClassId(1), 3).unwrap();
        let h2 = heap.alloc_object(ClassId(1), 3).unwrap();
        let o = heap.alloc_object(ClassId(0), 2).unwrap();
        heap.set(h1, 0, u64::from(o.0));
        heap.set(h2, 0, u64::from(o.0));

        let (_, log) = update_collect(&mut heap, &[h1, h2], &snap(), &remap09()).unwrap();
        assert_eq!(log.len(), 1, "object transformed once");
        let a = heap.get(heap.resolve(h1), 0);
        let b = heap.get(heap.resolve(h2), 0);
        assert_eq!(a, b);
    }

    /// §4.1's shape: a reference array of `n` class-1 objects whose
    /// reference field is null.
    fn null_ref_population(heap: &mut Heap, n: usize) -> GcRef {
        let arr = heap.alloc_array(true, n).unwrap();
        for i in 0..n {
            let o = heap.alloc_object(ClassId(1), 3).unwrap();
            heap.set(o, 1, 1_000 + i as u64);
            heap.set(arr, i, u64::from(o.0));
        }
        arr
    }

    #[test]
    fn null_reference_objects_behind_a_reference_array_are_one_run() {
        let mut heap = Heap::new(1024);
        let arr = null_ref_population(&mut heap, 50);
        let out = collect_checked(&mut heap, &[arr], &snap());
        let first = heap.resolve(arr).0 + 1 + 50;
        assert_eq!(heap.runs, [(first, first + 50 * 4)], "the array is scanned, not skipped");
        assert_eq!((out.copied_words, out.unscanned_words), (51 + 50 * 4, 50 * 4));
        assert_eq!(heap.get(GcRef(first), 1), 1_000);

        // Stepped, the run costs one unit, and a step can stop right at it.
        let (snap, remap) = (snap(), RemapTable::default());
        let mut heap = Heap::new(1024);
        let arr = null_ref_population(&mut heap, 50);
        heap.flip(usize::MAX, &snap, &remap);
        heap.evacuate(arr, &snap, &remap, &mut Vec::new()).unwrap();
        let step = |heap: &mut Heap, budget| {
            let charged = heap.copy_step(budget, usize::MAX, &snap, &remap, &mut Vec::new());
            heap.check_heap(&snap).unwrap();
            charged
        };
        assert_eq!(step(&mut heap, 2 * 50 + 1), Ok(2 * 50 + 1), "elements, evacuations, cell");
        assert!(!heap.copy_done() && heap.copy.scan == first as usize);
        assert_eq!(step(&mut heap, 2), Ok(1), "the run");
        assert!(heap.copy_done());
        assert_eq!(heap.end_copy().unscanned_words, 50 * 4);
    }

    #[test]
    fn an_object_holding_a_reference_splits_the_run_and_is_scanned() {
        let mut heap = Heap::new(1024);
        let arr = heap.alloc_array(true, 3).unwrap();
        let cells: Vec<GcRef> = (0..3).map(|_| heap.alloc_object(ClassId(1), 3).unwrap()).collect();
        let s = heap.alloc_string("referent").unwrap();
        heap.set(cells[1], 0, u64::from(s.0));
        for (i, c) in cells.iter().enumerate() {
            heap.set(arr, i, u64::from(c.0));
        }
        let out = collect_checked(&mut heap, &[arr], &snap());
        let [a, holder, b] = [0, 1, 2].map(|i| heap.resolve(cells[i]).0);
        let s2 = heap.get(GcRef(holder), 0) as u32;
        assert_eq!(heap.read_string(GcRef(s2)), "referent", "the holder was scanned");
        // The string, copied when the scan reached the holder, lands right
        // after `b` and extends its run.
        assert_eq!(heap.runs, [(a, a + 4), (b, s2 + 2)]);
        assert_eq!(out.unscanned_words, out.copied_words - 4 - 4, "all but array and holder");
    }

    #[test]
    fn a_logged_pairs_new_object_is_skipped_and_its_old_copy_scanned_when_it_refers() {
        let mut heap = Heap::new(1024);
        let quiet = heap.alloc_object(ClassId(0), 2).unwrap();
        let loud = heap.alloc_object(ClassId(0), 2).unwrap();
        let s = heap.alloc_string("payload").unwrap();
        heap.set(loud, 1, u64::from(s.0));
        let (out, log) = update_collect(&mut heap, &[quiet, loud], &snap(), &remap09()).unwrap();
        let [(quiet_old, quiet_new), (loud_old, loud_new)] = log[..] else {
            panic!("two pairs: {log:?}")
        };
        let s2 = heap.get(loud_old, 1) as u32;
        assert_eq!(heap.read_string(GcRef(s2)), "payload", "the old copy was scanned");
        // `quiet`'s old copy and new object are one run; `loud`'s new
        // object is one, extended by the string its old copy's scan copied.
        assert_eq!(quiet_new.0, quiet_old.0 + 3);
        assert_eq!(heap.runs, [(quiet_old.0, quiet_new.0 + 4), (loud_new.0, s2 + 2)]);
        assert_eq!(out.unscanned_words, out.copied_words - 3, "all but `loud`'s old copy");
    }

    #[test]
    fn an_unfilled_array_answers_from_its_original_past_the_fill_cursor() {
        let mut heap = Heap::new(1024);
        let arr = heap.alloc_array(false, 10).unwrap();
        for i in 0..10 {
            heap.set(arr, i, 100 + i as u64);
        }
        let (snap, remap) = (snap(), RemapTable::default());
        heap.flip(4, &snap, &remap);
        assert!(heap.in_from_space(u64::from(arr.0)) && !heap.in_from_space(0));
        let to = heap.evacuate(arr, &snap, &remap, &mut Vec::new()).unwrap();
        assert_eq!(heap.header_tag(to), 1, "reserved unfilled");
        let read = |heap: &Heap, i: i64| heap.word(heap.element_at(to, i).unwrap().0);
        assert_eq!(read(&heap, 7), 107, "read through to the original");
        assert_eq!(heap.element_at(to, 10), Err(10));

        // Six elements filled: index 5 is to-space's, index 8 still the
        // original's, and a write there lands where the fill will read it.
        assert_eq!(heap.copy_step(6, usize::MAX, &snap, &remap, &mut Vec::new()), Ok(6));
        assert_eq!(heap.element_at(to, 5), Ok((to.addr() + 6, false)));
        assert_eq!(heap.element_at(to, 8), Ok((arr.addr() + 9, false)));
        let (at, _) = heap.element_at(to, 8).unwrap();
        heap.set_word(at, 7);
        heap.check_heap(&snap).unwrap();

        let rest = heap.copy_step(100, usize::MAX, &snap, &remap, &mut Vec::new());
        assert_eq!(rest, Ok(4 + 1), "four elements and the cell");
        heap.check_heap(&snap).unwrap();
        assert!(heap.copy_done());
        assert_eq!(heap.header_tag(to), 0, "filled arrays lose their tag");
        assert_eq!((read(&heap, 8), read(&heap, 9)), (7, 109));
        let totals = heap.end_copy();
        assert_eq!((totals.copied_cells, totals.copied_words), (1, 11));
        assert!(!heap.copying() && !heap.in_from_space(u64::from(arr.0)));
    }

    #[test]
    fn collect_reports_oom_when_update_duplication_overflows() {
        // Fill >half the semispace with remapped objects: duplication
        // cannot fit.
        let mut heap = Heap::new(256);
        let mut roots = Vec::new();
        while let Some(o) = heap.alloc_object(ClassId(0), 2) {
            roots.push(o);
        }
        let err = update_collect(&mut heap, &roots, &snap(), &remap09()).unwrap_err();
        assert!(matches!(err, VmError::OutOfMemory { .. }), "{err}");
    }

    /// SplitMix64, inlined so these tests stay registry- and crate-free.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_B9F9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Builds a deterministic mixed graph (objects of classes 0/1,
    /// strings, shared edges, cycles, interleaved garbage) and returns the
    /// roots. Each object carries its allocation index in a non-ref field,
    /// so an update log can be read by content, not address.
    fn build_mixed_graph(heap: &mut Heap, seed: u64, n: usize) -> Vec<GcRef> {
        let mut state = seed;
        let mut nodes = Vec::new();
        for i in 0..n {
            let r = splitmix(&mut state);
            let node = match r % 3 {
                0 => {
                    let o = heap.alloc_object(ClassId(0), 2).unwrap();
                    heap.set(o, 0, 1_000 + i as u64);
                    o
                }
                1 => {
                    let o = heap.alloc_object(ClassId(1), 3).unwrap();
                    heap.set(o, 1, 1_000 + i as u64);
                    o
                }
                _ => heap.alloc_string(&format!("s{i}")).unwrap(),
            };
            nodes.push(node);
            if r.is_multiple_of(5) {
                heap.alloc_object(ClassId(1), 3).unwrap(); // garbage
            }
        }
        // Wire edges (shared targets, self-loops, cycles all possible).
        for &node in &nodes {
            let target = nodes[(splitmix(&mut state) % nodes.len() as u64) as usize];
            match heap.kind(node) {
                HeapKind::Object if heap.class_of(node) == ClassId(0) => {
                    heap.set(node, 1, u64::from(target.0));
                }
                HeapKind::Object => heap.set(node, 0, u64::from(target.0)),
                _ => {}
            }
        }
        let mut roots = vec![nodes[0]];
        for _ in 0..5 {
            roots.push(nodes[(splitmix(&mut state) % nodes.len() as u64) as usize]);
        }
        roots
    }

    #[test]
    fn update_log_is_in_from_space_address_order() {
        // Ids grow with allocation (= from-space address) order, so the log
        // must list them ascending however the roots reach the objects.
        let mut heap = Heap::new(8192);
        let roots = build_mixed_graph(&mut heap, 42, 200);
        let (_, log) = update_collect(&mut heap, &roots, &snap(), &remap09()).unwrap();
        let ids: Vec<u64> = log
            .iter()
            .map(|&(old, new)| {
                assert_eq!(heap.class_of(old), ClassId(0));
                assert_eq!(heap.class_of(new), ClassId(9));
                heap.get(old, 0)
            })
            .collect();
        assert!(ids.len() > 1, "seed must produce remapped objects");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn back_to_back_collections_flip_spaces() {
        let mut heap = Heap::new(1024);
        let o = heap.alloc_object(ClassId(0), 2).unwrap();
        heap.set(o, 0, 1);
        collect_checked(&mut heap, &[o], &snap());
        let o1 = heap.resolve(o);
        collect_checked(&mut heap, &[o1], &snap());
        let o2 = heap.resolve(o1);
        assert_eq!(heap.get(o2, 0), 1);
        assert_eq!(heap.collections(), 2);
    }
}
