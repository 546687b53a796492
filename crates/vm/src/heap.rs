//! The semi-space copying heap and its DSU-aware collector.
//!
//! This reproduces the substrate of paper §3.4: a Cheney-style semi-space
//! copying collector extended so that objects whose class signature changed
//! are *duplicated* during the copy — an old-layout copy plus a zeroed
//! new-layout object — with the pair recorded in an **update log** for the
//! transformer pass that runs after collection. Old-copy reference fields
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
//! bit 0      forwarded flag; if set, bits 1-32 hold the forwarding
//!            address and — for a forward the mutator side installed
//!            ([`Heap::install_forward`]) rather than a collection —
//!            bits 33-63 the cell's size in words, so a linear walk can
//!            still step over the cell
//! bits 1-2   kind: 0 = object, 1 = reference array, 2 = primitive array,
//!            3 = string (packed UTF-8 bytes)
//! bits 3-31  tag: zero except on the two objects of an update-log pair
//!            whose transformer has not finished, where it is the log
//!            index + 1 ([`Heap::header_tag`]); copied verbatim by every
//!            collection
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
//! likewise resolved up front into a dense [`RemapTable`]; ordinary
//! collections pass `None` and skip the remap probe entirely.
//!
//! # Planned copies
//!
//! A remapped class whose object transformer is a pure field copy carries
//! a [`CopyPlan`] in the table. Its instances are not duplicated: the
//! collector allocates only the new-layout object, fills it from the
//! from-space original per the plan, and lets the ordinary scan forward
//! the reference fields it copied. No old copy, no update-log entry, and
//! no transformer frame exist for such an object. A lazy epoch applies
//! the same plan on the live heap instead ([`Heap::apply_plan`]), from
//! its discovery scan ([`Heap::convert_stale`]) or on first touch.

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

    /// Whether no class is remapped (an ordinary collection — callers
    /// should pass `None` to [`Heap::collect`] instead).
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

/// Result of a collection.
#[derive(Debug, Clone, Default)]
pub struct GcOutcome {
    /// Objects (cells) copied.
    pub copied_cells: usize,
    /// Words copied (headers included).
    pub copied_words: usize,
    /// Old-copy/new-object pairs produced by the remap policy: the paper's
    /// update log, consumed by the transformer pass. Ordered by ascending
    /// *from-space* address of the original object, whatever order the
    /// roots reached them in, which fixes the order transformers run in.
    pub update_log: Vec<(GcRef, GcRef)>,
    /// Objects converted to their new layout by a [`CopyPlan`] during the
    /// copy (one new-layout cell each; never on the update log).
    pub planned: usize,
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
    /// Whether any forwarding word has been installed since the last
    /// collection (a lazy-migration epoch); any collection abandons
    /// from-space and clears it.
    lazy_forwards: bool,
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
/// A forwarding word is `size << 33 | target << 1 | 1`; `size` is zero in
/// the forwards a collection installs (from-space is never walked again).
const FORWARD_SIZE_SHIFT: u64 = 33;

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
            lazy_forwards: false,
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
        if self.alloc + n > self.limit(self.active_b) {
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

    /// Whether the cell at `r` carries a forwarding pointer.
    pub fn is_forwarded(&self, r: GcRef) -> bool {
        self.words[r.addr()] & 1 == 1
    }

    /// Installs a forwarding pointer `from → to` (lazy-migration
    /// first-touch duplication). The forwarding word
    /// destroys the header, so the cell's size goes into its upper bits:
    /// the linear walks ([`Heap::for_each_object`], the SATB commit scan,
    /// the collapse sweep) step over forwarded cells with it.
    pub fn install_forward(&mut self, from: GcRef, to: GcRef, snapshot: &LayoutSnapshot) {
        let h = self.words[from.addr()];
        assert_eq!(h & 1, 0, "install_forward() on already-forwarded cell {from}");
        let size = cell_size_of(h, snapshot) as u64;
        assert!(size < 1 << (64 - FORWARD_SIZE_SHIFT), "cell too large to forward");
        self.words[from.addr()] = (size << FORWARD_SIZE_SHIFT) | (u64::from(to.0) << 1) | 1;
        self.lazy_forwards = true;
    }

    /// Whether a forwarding word has been installed since the last
    /// collection.
    pub fn has_lazy_forwards(&self) -> bool {
        self.lazy_forwards
    }

    /// First word of the active semispace.
    pub fn active_base(&self) -> usize {
        self.base(self.active_b)
    }

    /// The active semispace's bump-allocation cursor: the address the next
    /// allocation will take. `active_base()..alloc_cursor()` spans every
    /// cell allocated so far — the SATB commit watermark.
    pub fn alloc_cursor(&self) -> usize {
        self.alloc
    }

    /// Size in words (header included) of the cell whose first word is
    /// `h`, live or forwarded — a forwarded cell carries its size in the
    /// forwarding word.
    #[inline]
    fn walk_size(h: u64, snapshot: &LayoutSnapshot) -> usize {
        if h & 1 == 1 {
            let size = (h >> FORWARD_SIZE_SHIFT) as usize;
            assert!(size != 0, "collector forward (no size) met in a linear walk");
            size
        } else {
            cell_size_of(h, snapshot)
        }
    }

    /// Walks every cell in the active semispace in ascending address
    /// order, invoking `f` on each *unforwarded* plain object with its
    /// class. Forwarded cells (mid-epoch duplication) are stepped over by
    /// the size their forwarding word carries.
    pub fn for_each_object(&self, snapshot: &LayoutSnapshot, mut f: impl FnMut(GcRef, ClassId)) {
        let mut addr = self.base(self.active_b);
        while addr < self.alloc {
            let h = self.words[addr];
            if h & 1 == 0 && header_kind(h) == HeapKind::Object {
                f(GcRef(addr as u32), ClassId(header_meta(h)));
            }
            addr += Heap::walk_size(h, snapshot);
        }
    }

    /// Converts the live object at `r` to `new_class` per `plan`, in the
    /// active semispace — a lazy epoch's counterpart of the update-GC's
    /// planned copy: allocates the new-layout object, fills each of its
    /// fields from `r` per the plan (zero where the plan names no source),
    /// and installs a sized forwarding word at `r`. Returns the new
    /// object, or `None` with nothing written if the semispace is full.
    pub(crate) fn apply_plan(
        &mut self,
        r: GcRef,
        new_class: ClassId,
        plan: &CopyPlan,
        snapshot: &LayoutSnapshot,
    ) -> Option<GcRef> {
        let from = r.addr();
        let new_size = 1 + plan.sources.len();
        if self.alloc + new_size > self.limit(self.active_b) {
            return None;
        }
        let to = self.alloc;
        self.alloc += new_size;
        self.words[to] = header(HeapKind::Object, new_class.0);
        for (i, &src) in plan.sources.iter().enumerate() {
            self.words[to + 1 + i] = match src {
                CopyPlan::ZERO => 0,
                src => self.words[from + 1 + src as usize],
            };
        }
        let new_obj = GcRef(to as u32);
        self.install_forward(r, new_obj, snapshot);
        Some(new_obj)
    }

    /// Resumable bounded SATB discovery scan that converts what it finds:
    /// walks from `from` (a cell boundary) toward `limit`, and for every
    /// *stale* object — a live plain object whose class `remap` maps and
    /// whose header tag is zero — either converts it on the spot with
    /// [`Heap::apply_plan`], if its class has a [`CopyPlan`], or pushes it
    /// onto `worklist`: an object whose transformer must be interpreted,
    /// or one the full semispace had no room to convert. The worklist
    /// therefore grows in ascending address order.
    ///
    /// Every cell stepped over is charged one against `max_cells`, and
    /// every conversion one more; the walk stops once the charge reaches
    /// `max_cells`, so a batch charges at most `max_cells + 1`. Forwarded
    /// cells (objects the mutator already migrated) are stepped over by
    /// the size their forwarding word carries. Returns `(next_addr,
    /// cells_stepped, converted)`; `next_addr >= limit` once the range is
    /// exhausted.
    pub fn convert_stale(
        &mut self,
        from: usize,
        limit: usize,
        max_cells: usize,
        snapshot: &LayoutSnapshot,
        remap: &RemapTable,
        worklist: &mut Vec<GcRef>,
    ) -> (usize, usize, usize) {
        let mut addr = from;
        let (mut cells, mut converted) = (0, 0);
        while addr < limit && cells + converted < max_cells {
            let h = self.words[addr];
            let size = Heap::walk_size(h, snapshot);
            // Unforwarded, a plain object, tag zero: one mask test.
            if h & (1 | KIND_MASK | TAG_MASK) == 0 {
                if let Some(entry) = remap.entry(ClassId(header_meta(h))) {
                    let r = GcRef(addr as u32);
                    let plan = entry.plan.as_ref();
                    match plan.and_then(|plan| self.apply_plan(r, entry.new_class, plan, snapshot)) {
                        Some(_) => converted += 1,
                        None => worklist.push(r),
                    }
                }
            }
            addr += size;
            cells += 1;
        }
        (addr, cells, converted)
    }

    /// Resumable bounded forwarding collapse: sweeps from the cursor
    /// `(from, from_slot)` toward `limit`, rewriting every reference slot
    /// that points at a forwarded cell to its resolved target, and stops
    /// once it has charged `max_cells`. A cell is charged 1, except a
    /// non-empty reference array, which is charged 1 per element and may
    /// be left part-swept: `from_slot` is the first element of the array
    /// at `from` still to sweep (0 at a cell boundary). So no call sweeps
    /// more than `max_cells` slots of one array, however long it is.
    /// Returns `(next_addr, next_slot, cells_charged, slots_rewritten)`.
    /// Once every referrer below the epoch's allocation horizon has been
    /// swept (and roots rewritten by the caller), no live reference
    /// crosses a forwarding word and the stale originals are plain
    /// garbage for the next collection.
    pub fn sweep_forwards(
        &mut self,
        from: usize,
        from_slot: usize,
        limit: usize,
        max_cells: usize,
        snapshot: &LayoutSnapshot,
    ) -> (usize, usize, usize, usize) {
        debug_assert!(
            from_slot == 0 || {
                let h = self.words[from];
                h & 1 == 0
                    && header_kind(h) == HeapKind::RefArray
                    && from_slot < header_meta(h) as usize
            },
            "sweep cursor slot {from_slot} is not inside the reference array at {from}"
        );
        let mut addr = from;
        let mut slot = from_slot;
        let mut cells = 0;
        let mut rewritten = 0;
        while addr < limit && cells < max_cells {
            let h = self.words[addr];
            if h & 1 == 0 {
                let meta = header_meta(h) as usize;
                match header_kind(h) {
                    HeapKind::Object => {
                        let e = snapshot.entry(ClassId(meta as u32));
                        for wi in 0..e.ref_words() {
                            let mut bits = snapshot.bits[e.bits_start as usize + wi];
                            let word_base = addr + 1 + wi * 64;
                            while bits != 0 {
                                let slot = word_base + bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                rewritten += self.collapse_slot(slot);
                            }
                        }
                    }
                    HeapKind::RefArray if meta > 0 => {
                        let end = meta.min(slot + (max_cells - cells));
                        for elem in addr + 1 + slot..addr + 1 + end {
                            rewritten += self.collapse_slot(elem);
                        }
                        cells += end - slot;
                        if end < meta {
                            slot = end;
                            break;
                        }
                        slot = 0;
                        addr += 1 + meta;
                        continue;
                    }
                    HeapKind::RefArray | HeapKind::PrimArray | HeapKind::Str => {}
                }
            }
            addr += Heap::walk_size(h, snapshot);
            cells += 1;
        }
        (addr, slot, cells, rewritten)
    }

    /// Rewrites one reference slot through the forwarding chain; returns 1
    /// if the slot changed.
    #[inline]
    fn collapse_slot(&mut self, slot: usize) -> usize {
        let val = self.words[slot];
        if val != 0 && self.words[val as usize] & 1 == 1 {
            self.words[slot] = u64::from(self.resolve(GcRef(val as u32)).0);
            1
        } else {
            0
        }
    }

    /// Follows forwarding pointers from `r` to the live cell.
    ///
    /// In eager mode this is only meaningful immediately after a collection
    /// (to re-derive roots); while a lazy-migration epoch is open the
    /// interpreter calls it on every reference load — held open forever,
    /// that check is exactly the steady-state overhead the paper attributes
    /// to JDrums/DVM-style systems.
    pub fn resolve(&self, mut r: GcRef) -> GcRef {
        let mut hops = 0;
        while self.words[r.addr()] & 1 == 1 {
            r = GcRef(forward_target(self.words[r.addr()]) as u32);
            hops += 1;
            assert!(hops < 64, "forwarding chain too long; heap corrupt");
        }
        r
    }

    /// Performs a full copying collection.
    ///
    /// `roots` are the addresses of live references (from thread frames,
    /// statics, and any DSU bookkeeping); after `collect` returns, the
    /// caller must rewrite each root via [`Heap::resolve`].
    ///
    /// Layouts come from `snapshot`, built once by the caller (the
    /// registry caches one between class loads). `remap` is the resolved
    /// DSU policy: `None` for ordinary collections — the fast path, which
    /// never probes for remapped classes — or a [`RemapTable`] during
    /// updates, in which case each remapped object is duplicated per the
    /// paper's §3.4 protocol and the pair pushed onto the update log.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if to-space overflows (possible
    /// during updates, which duplicate transformed objects).
    pub fn collect(
        &mut self,
        roots: &[GcRef],
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
    ) -> Result<GcOutcome, VmError> {
        // Monomorphize: ordinary collections run a copy loop with the
        // remap probe compiled out entirely, not just branched around.
        match remap {
            Some(table) if !table.is_empty() => {
                self.collect_impl::<true>(roots, snapshot, Some(table))
            }
            _ => self.collect_impl::<false>(roots, snapshot, None),
        }
    }

    fn collect_impl<const HAS_REMAP: bool>(
        &mut self,
        roots: &[GcRef],
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
    ) -> Result<GcOutcome, VmError> {
        let to_b = !self.active_b;
        let to_base = self.base(to_b);
        let to_limit = self.limit(to_b);
        let mut to_alloc = to_base;
        let mut outcome = GcOutcome::default();
        // Update-log entries tagged with the from-space address of the
        // original object; sorted into the canonical order at the end.
        let mut log: Vec<(u32, GcRef, GcRef)> = Vec::new();

        // Copy roots.
        for &root in roots {
            self.copy_cell::<HAS_REMAP>(
                root, &mut to_alloc, to_base, to_limit, snapshot, remap, &mut outcome, &mut log,
            )?;
        }

        // Cheney scan: one header read and one snapshot lookup per cell;
        // ref fields enumerated from the bitset via `trailing_zeros`.
        let mut scan = to_base;
        while scan < to_alloc {
            let h = self.words[scan];
            let meta = header_meta(h) as usize;
            match header_kind(h) {
                HeapKind::Object => {
                    let e = snapshot.entry(ClassId(meta as u32));
                    for wi in 0..e.ref_words() {
                        let mut bits = snapshot.bits[e.bits_start as usize + wi];
                        let word_base = scan + 1 + wi * 64;
                        while bits != 0 {
                            let slot = word_base + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let val = self.words[slot];
                            if val != 0 {
                                let new = self.copy_cell::<HAS_REMAP>(
                                    GcRef(val as u32),
                                    &mut to_alloc,
                                    to_base,
                                    to_limit,
                                    snapshot,
                                    remap,
                                    &mut outcome,
                                    &mut log,
                                )?;
                                self.words[slot] = u64::from(new.0);
                            }
                        }
                    }
                    scan += 1 + e.size_words as usize;
                }
                HeapKind::RefArray => {
                    for slot in scan + 1..scan + 1 + meta {
                        let val = self.words[slot];
                        if val != 0 {
                            let new = self.copy_cell::<HAS_REMAP>(
                                GcRef(val as u32),
                                &mut to_alloc,
                                to_base,
                                to_limit,
                                snapshot,
                                remap,
                                &mut outcome,
                                &mut log,
                            )?;
                            self.words[slot] = u64::from(new.0);
                        }
                    }
                    scan += 1 + meta;
                }
                HeapKind::PrimArray => scan += 1 + meta,
                HeapKind::Str => scan += 1 + meta.div_ceil(8),
            }
        }

        log.sort_by_key(|&(from, _, _)| from);
        outcome.update_log = log.into_iter().map(|(_, old, new)| (old, new)).collect();
        self.active_b = to_b;
        self.alloc = to_alloc;
        self.collections += 1;
        // From-space (and every forwarded header in it) is now abandoned.
        self.lazy_forwards = false;
        Ok(outcome)
    }

    /// Copies one cell to to-space (or returns its forwarding target).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn copy_cell<const HAS_REMAP: bool>(
        &mut self,
        r: GcRef,
        to_alloc: &mut usize,
        to_base: usize,
        to_limit: usize,
        snapshot: &LayoutSnapshot,
        remap: Option<&RemapTable>,
        outcome: &mut GcOutcome,
        log: &mut Vec<(u32, GcRef, GcRef)>,
    ) -> Result<GcRef, VmError> {
        let mut addr = r.addr();
        // Chase forwarding chains, leaving `h` holding the live cell's
        // header — read exactly once. A target already in to-space is a GC
        // forward (done); a target in from-space is a pre-existing lazy
        // forward whose live cell still needs copying.
        let h = loop {
            let h = self.words[addr];
            if h & 1 == 0 {
                break h;
            }
            let t = forward_target(h);
            if t >= to_base && t < to_limit {
                return Ok(GcRef(t as u32));
            }
            addr = t;
        };

        if HAS_REMAP && header_kind(h) == HeapKind::Object {
            let class = ClassId(header_meta(h));
            if let Some(entry) = remap.and_then(|table| table.entry(class)) {
                let new_class = entry.new_class;
                let new_size = 1 + snapshot.size_words(new_class);
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
                    self.words[addr] = ((new_obj as u64) << 1) | 1;
                    outcome.copied_cells += 1;
                    outcome.copied_words += new_size;
                    outcome.planned += 1;
                    return Ok(GcRef(new_obj as u32));
                }

                // Paper §3.4: duplicate the object. Allocate an old-layout
                // copy (scanned normally so its fields get forwarded) and a
                // zeroed new-layout object the transformer will populate.
                let old_size = 1 + snapshot.size_words(class);
                let old_copy = self.alloc_to(old_size, to_alloc, to_limit)?;
                self.words.copy_within(addr..addr + old_size, old_copy);

                let new_obj = self.alloc_to(new_size, to_alloc, to_limit)?;
                self.words[new_obj..new_obj + new_size].fill(0);
                self.words[new_obj] = header(HeapKind::Object, new_class.0);

                self.words[addr] = ((new_obj as u64) << 1) | 1;
                outcome.copied_cells += 2;
                outcome.copied_words += old_size + new_size;
                log.push((addr as u32, GcRef(old_copy as u32), GcRef(new_obj as u32)));
                return Ok(GcRef(new_obj as u32));
            }
        }

        let size = cell_size_of(h, snapshot);
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
            _ => self.words.copy_within(addr..addr + size, dst),
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

        let out = heap.collect(&[a], &snap(), None).unwrap();
        assert_eq!(out.copied_cells, 3);
        assert!(out.update_log.is_empty());

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

        let out = heap.collect(&[keep], &snap(), None).unwrap();
        assert_eq!(out.copied_cells, 1);
    }

    #[test]
    fn ref_arrays_are_traced() {
        let mut heap = Heap::new(1024);
        let arr = heap.alloc_array(true, 3).unwrap();
        let s = heap.alloc_string("elem").unwrap();
        heap.set(arr, 2, u64::from(s.0));

        heap.collect(&[arr], &snap(), None).unwrap();
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

        let out = heap.collect(&[o], &s, None).unwrap();
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

        let out = heap.collect(&[o], &snap(), Some(&remap09())).unwrap();
        assert_eq!(out.update_log.len(), 1);
        let (old_copy, new_obj) = out.update_log[0];

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

        let out = heap.collect(&[holder], &snap(), Some(&remap09())).unwrap();
        let (_, new_obj) = out.update_log[0];
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

        let out = heap.collect(&[h1, h2], &snap(), Some(&remap09())).unwrap();
        assert_eq!(out.update_log.len(), 1, "object transformed once");
        let a = heap.get(heap.resolve(h1), 0);
        let b = heap.get(heap.resolve(h2), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_forward_chains_are_collapsed_by_gc() {
        let mut heap = Heap::new(1024);
        let old = heap.alloc_object(ClassId(0), 2).unwrap();
        let new = heap.alloc_object(ClassId(9), 3).unwrap();
        heap.set(new, 0, 5);
        heap.install_forward(old, new, &snap());
        assert_eq!(heap.resolve(old), new);

        // A holder still referencing the OLD address.
        let holder = heap.alloc_object(ClassId(1), 3).unwrap();
        heap.set(holder, 0, u64::from(old.0));

        heap.collect(&[holder], &snap(), None).unwrap();
        let holder2 = heap.resolve(holder);
        let target = GcRef(heap.get(holder2, 0) as u32);
        assert_eq!(heap.class_of(target), ClassId(9));
        assert_eq!(heap.get(target, 0), 5);
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
        let err = heap.collect(&roots, &snap(), Some(&remap09())).unwrap_err();
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
        let out = heap.collect(&roots, &snap(), Some(&remap09())).unwrap();
        let ids: Vec<u64> = out
            .update_log
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
        heap.collect(&[o], &snap(), None).unwrap();
        let o1 = heap.resolve(o);
        heap.collect(&[o1], &snap(), None).unwrap();
        let o2 = heap.resolve(o1);
        assert_eq!(heap.get(o2, 0), 1);
        assert_eq!(heap.collections(), 2);
    }
}
