//! The runtime class registry: loaded classes, object layouts, dispatch
//! tables (TIBs), the static-field table (JTOC), and the method table.
//!
//! This is the reproduction of Jikes RVM's `RVMClass` metadata (paper
//! §3.3): each loaded class records its full instance layout (superclass
//! fields first), a type information block mapping virtual slots to method
//! implementations, and JTOC slots for statics. The update driver
//! manipulates exactly these structures: renaming old classes, installing
//! new ones, invalidating TIB entries and compiled code.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use jvolve_classfile::class::MethodKind;
use jvolve_classfile::{verify, ClassFile, ClassName, ClassResolver, Type};

use crate::compiled::CompiledMethod;
use crate::error::VmError;
use crate::heap::{ClassLayouts, LayoutSnapshot};
use crate::ids::{ClassId, MethodId};
use crate::natives::{self, NativeFn};
use crate::thread::CodeRef;

/// One word of an object's instance layout.
#[derive(Clone, Debug)]
pub struct FieldSlot {
    /// Field name (unique along the superclass chain).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Whether the slot holds a reference.
    pub is_ref: bool,
    /// Class that declared the field.
    pub declared_in: ClassId,
}

/// A loaded class.
#[derive(Clone, Debug)]
pub struct RuntimeClass {
    /// Runtime identifier (stable across renames).
    pub id: ClassId,
    /// Current name; changes when the update driver renames an old version
    /// (e.g. `User` → `v131_User`).
    pub name: ClassName,
    /// The definition as loaded (kept in sync with `name`).
    pub file: ClassFile,
    /// Superclass id, if any.
    pub super_id: Option<ClassId>,
    /// Full instance layout: superclass fields first, then own fields.
    pub layout: Vec<FieldSlot>,
    /// Reference map parallel to `layout` (consumed by the GC).
    pub ref_map: Vec<bool>,
    /// Type information block: virtual slot → method implementation.
    pub tib: Vec<MethodId>,
    /// Virtual slot of each dispatchable method name (inherited included).
    pub vslots: HashMap<String, u16>,
    /// JTOC slot and type of each static field declared by this class.
    pub statics: HashMap<String, (u32, Type)>,
}

/// A loaded method.
#[derive(Debug)]
pub struct MethodInfo {
    /// Runtime identifier.
    pub id: MethodId,
    /// Declaring class.
    pub class: ClassId,
    /// Method name.
    pub name: String,
    /// Definition (bytecode included). The update driver swaps this for
    /// method-body updates, then invalidates the compiled code.
    pub def: jvolve_classfile::MethodDef,
    /// Native implementation, for builtin classes.
    pub native: Option<NativeFn>,
    /// Published code, if any; `None` means "compile on next invocation".
    /// Only the registry writes it, through `Registry::unpublish`.
    compiled: Option<Arc<CompiledMethod>>,
    /// Times this method's compiled code has been invalidated.
    pub invalidations: u32,
}

impl MethodInfo {
    /// The published code, if any: what the next call runs.
    pub fn compiled(&self) -> Option<&Arc<CompiledMethod>> {
        self.compiled.as_ref()
    }

    /// The published code as a frame holds it.
    #[inline]
    pub(crate) fn code(&self) -> Option<CodeRef> {
        // SAFETY: the registry owns published code, and `unpublish`
        // retires it rather than dropping it.
        self.compiled.as_ref().map(|code| unsafe { CodeRef::new(code) })
    }
}

/// The registry.
#[derive(Debug, Default)]
pub struct Registry {
    classes: Vec<RuntimeClass>,
    by_name: HashMap<ClassName, ClassId>,
    methods: Vec<MethodInfo>,
    method_by_key: HashMap<(ClassId, String), MethodId>,
    /// The "Java table of contents": one word per static field.
    jtoc: Vec<u64>,
    jtoc_ref: Vec<bool>,
    /// Cached GC layout snapshot: extended as classes load, rebuilt
    /// lazily after a rollback truncates the class table.
    snapshot: Option<Arc<LayoutSnapshot>>,
    /// Code no longer published that a frame may still run (module doc of
    /// [`crate::thread`]); freed by [`Registry::reclaim`].
    retired: Vec<Arc<CompiledMethod>>,
    /// See [`Registry::generation`].
    generation: u64,
    /// See [`Registry::reverified_batches`].
    reverified: u64,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    // ---- lookups ----------------------------------------------------------

    /// Class id for a (current) name.
    pub fn class_id(&self, name: &ClassName) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn class(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id.index()]
    }

    /// The method with the given id.
    pub fn method(&self, id: MethodId) -> &MethodInfo {
        &self.methods[id.index()]
    }

    /// All loaded classes.
    pub fn classes(&self) -> impl Iterator<Item = &RuntimeClass> {
        self.classes.iter()
    }

    /// Number of classes loaded (class ids are `0..num_classes`).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The cached GC layout snapshot, building it if none is cached (at
    /// first use and after a rollback). Class loads extend the cached one
    /// in place and collections share the `Arc`, so neither a steady-state
    /// GC nor an update's pause pays for a rebuild.
    pub fn layout_snapshot(&mut self) -> Arc<LayoutSnapshot> {
        if self.snapshot.is_none() {
            let mut snap = LayoutSnapshot::new();
            for class in &self.classes {
                snap.set(class.id, &class.ref_map);
            }
            self.snapshot = Some(Arc::new(snap));
        }
        Arc::clone(self.snapshot.as_ref().expect("just built"))
    }

    /// A counter of the mutations bytecode verification can observe: every
    /// link, rename, method strip, body replacement, truncation and
    /// restore of a definition bumps it. Compiling, [`Registry::set_compiled`],
    /// [`Registry::invalidate`] and JTOC writes do not, so a guest that
    /// only runs leaves it alone. [`Registry::load_verified`] compares it
    /// with a [`VerifiedBatch`]'s stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many batches [`Registry::load_verified`] verified again because
    /// the registry changed after they were verified.
    pub fn reverified_batches(&self) -> u64 {
        self.reverified
    }

    /// Number of methods loaded.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Looks up a method by declaring-class chain: starts at `class` and
    /// walks superclasses.
    pub fn find_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(id) = cur {
            if let Some(&mid) = self.method_by_key.get(&(id, name.to_string())) {
                return Some(mid);
            }
            cur = self.classes[id.index()].super_id;
        }
        None
    }

    /// All methods declared by `class` (statics and constructors included).
    pub fn methods_of(&self, class: ClassId) -> Vec<MethodId> {
        self.methods.iter().filter(|m| m.class == class).map(|m| m.id).collect()
    }

    /// Instance-field offset and refness, resolving `field` on `class`'s
    /// layout (names are unique along the chain).
    pub fn field_offset(&self, class: ClassId, field: &str) -> Option<(u16, bool)> {
        let c = &self.classes[class.index()];
        c.layout
            .iter()
            .position(|s| s.name == field)
            .map(|i| (i as u16, c.ref_map[i]))
    }

    /// JTOC slot and refness for a static field, walking the super chain.
    pub fn static_slot(&self, class: ClassId, field: &str) -> Option<(u32, bool)> {
        let mut cur = Some(class);
        while let Some(id) = cur {
            let c = &self.classes[id.index()];
            if let Some((slot, ty)) = c.statics.get(field) {
                return Some((*slot, ty.is_reference()));
            }
            cur = c.super_id;
        }
        None
    }

    /// Virtual slot for `method` as seen from `class`.
    pub fn vslot(&self, class: ClassId, method: &str) -> Option<u16> {
        self.classes[class.index()].vslots.get(method).copied()
    }

    /// Reads a JTOC word.
    pub fn jtoc_get(&self, slot: u32) -> u64 {
        self.jtoc[slot as usize]
    }

    /// Writes a JTOC word.
    pub fn jtoc_set(&mut self, slot: u32, word: u64) {
        self.jtoc[slot as usize] = word;
    }

    /// The non-null reference words of the JTOC (GC roots), writable, in
    /// [`Registry::jtoc_ref_slots`] order.
    pub(crate) fn jtoc_refs_mut(&mut self) -> impl Iterator<Item = &mut u64> + '_ {
        self.jtoc
            .iter_mut()
            .zip(&self.jtoc_ref)
            .filter_map(|(w, &is_ref)| (is_ref && *w != 0).then_some(w))
    }

    /// JTOC slots that hold non-null references (GC roots).
    pub fn jtoc_ref_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.jtoc_ref
            .iter()
            .enumerate()
            .filter_map(move |(i, &is_ref)| {
                (is_ref && self.jtoc[i] != 0).then_some(i as u32)
            })
    }

    /// Whether `sub` is `sup` or one of its subclasses, by id.
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(id) = cur {
            if id == sup {
                return true;
            }
            cur = self.classes[id.index()].super_id;
        }
        false
    }

    // ---- loading -----------------------------------------------------------

    /// Loads a batch of classes: verifies each against the registry plus
    /// the batch, then links in superclass order.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::LoadError`] on verification failures, duplicate
    /// names, missing superclasses, or unresolvable native methods.
    pub fn load_batch<C: Borrow<ClassFile>>(
        &mut self,
        files: &[C],
    ) -> Result<Vec<ClassId>, VmError> {
        let files: Vec<&ClassFile> = files.iter().map(Borrow::borrow).collect();
        self.load_batch_refs(&files)
    }

    fn load_batch_refs(&mut self, files: &[&ClassFile]) -> Result<Vec<ClassId>, VmError> {
        self.check_names(files)?;
        verify_batch(&BatchView { resolver: self, batch: files }, files)?;
        self.link_batch(files)
    }

    /// Links a batch verified earlier (see [`Registry::install_view`])
    /// without verifying it again, unless the registry changed since: a
    /// batch whose stamp is not the current [`Registry::generation`] is
    /// verified against the live registry first, as
    /// [`Registry::load_batch`] does, and counted in
    /// [`Registry::reverified_batches`]. Debug builds verify a current
    /// batch again anyway and panic if the live registry rejects what the
    /// view accepted.
    ///
    /// # Errors
    ///
    /// [`VmError::LoadError`] on a name already loaded, a failed
    /// re-verification, a missing superclass or native method.
    pub fn load_verified(&mut self, batch: &VerifiedBatch<'_>) -> Result<Vec<ClassId>, VmError> {
        let files = &batch.files[..];
        self.check_names(files)?;
        if batch.generation != self.generation {
            self.reverified += 1;
            verify_batch(&BatchView { resolver: self, batch: files }, files)?;
        } else if cfg!(debug_assertions) {
            if let Err(e) = verify_batch(&BatchView { resolver: self, batch: files }, files) {
                panic!("the live registry rejects a batch its install view accepted: {e}");
            }
        }
        self.link_batch(files)
    }

    /// A view of the registry as an update's install will leave it once it
    /// has renamed each of `renames`' classes and stripped its methods
    /// ([`Registry::rename_class`], [`Registry::strip_methods`]): the
    /// renamed classes resolve under their new names with no methods, their
    /// old names are free, and their subclasses name the new superclass
    /// names. Batches verified against it ([`InstallView::verify`]) load
    /// through [`Registry::load_verified`] without a second verification.
    pub fn install_view<'a>(&self, renames: &[(ClassId, ClassName)]) -> InstallView<'_, 'a> {
        let new_name = |id: ClassId| renames.iter().find(|(r, _)| *r == id).map(|(_, n)| n);
        let mut changed = HashMap::new();
        for class in &self.classes {
            let name = new_name(class.id);
            let superclass = class.super_id.and_then(new_name);
            if name.is_none() && superclass.is_none() {
                continue;
            }
            let file = ClassFile {
                name: name.unwrap_or(&class.name).clone(),
                superclass: superclass.cloned().or_else(|| class.file.superclass.clone()),
                fields: class.file.fields.clone(),
                static_fields: class.file.static_fields.clone(),
                methods: if name.is_some() { Vec::new() } else { class.file.methods.clone() },
                flags: class.file.flags,
            };
            changed.insert(file.name.clone(), file);
        }
        InstallView {
            registry: self,
            changed,
            renamed: renames.iter().map(|(id, _)| *id).collect(),
            loaded: Vec::new(),
            generation: self.generation,
        }
    }

    /// Duplicate/conflict detection: no name in `files` is loaded or
    /// repeated.
    fn check_names(&self, files: &[&ClassFile]) -> Result<(), VmError> {
        for f in files {
            if self.by_name.contains_key(&f.name)
                || files.iter().filter(|g| g.name == f.name).count() > 1
            {
                return Err(VmError::LoadError {
                    class: f.name.clone(),
                    message: "class already loaded".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Links a verified batch in superclass order (supers within the
    /// batch first), returning the ids in the caller's input order.
    fn link_batch(&mut self, files: &[&ClassFile]) -> Result<Vec<ClassId>, VmError> {
        let mut pending: Vec<&ClassFile> = files.to_vec();
        let mut progress = true;
        while !pending.is_empty() {
            if !progress {
                return Err(VmError::LoadError {
                    class: pending[0].name.clone(),
                    message: "unresolvable superclass order".to_string(),
                });
            }
            progress = false;
            pending.retain(|f| {
                let ready = match &f.superclass {
                    None => true,
                    Some(sup) => self.by_name.contains_key(sup),
                };
                if ready {
                    self.link(f).expect("verified class links");
                    progress = true;
                    false
                } else {
                    true
                }
            });
        }
        Ok(files
            .iter()
            .map(|f| self.by_name[&f.name])
            .collect())
    }

    fn link(&mut self, file: &ClassFile) -> Result<ClassId, VmError> {
        self.generation += 1;
        let id = ClassId(self.classes.len() as u32);
        let super_id = match &file.superclass {
            None => None,
            Some(sup) => Some(self.by_name.get(sup).copied().ok_or_else(|| {
                VmError::LoadError {
                    class: file.name.clone(),
                    message: format!("superclass {sup} not loaded"),
                }
            })?),
        };

        // Layout: superclass slots then own fields.
        let (mut layout, mut ref_map, mut tib, mut vslots) = match super_id {
            Some(sid) => {
                let s = &self.classes[sid.index()];
                (s.layout.clone(), s.ref_map.clone(), s.tib.clone(), s.vslots.clone())
            }
            None => (Vec::new(), Vec::new(), Vec::new(), HashMap::new()),
        };
        for f in &file.fields {
            layout.push(FieldSlot {
                name: f.name.clone(),
                ty: f.ty.clone(),
                is_ref: f.ty.is_reference(),
                declared_in: id,
            });
            ref_map.push(f.ty.is_reference());
        }

        // Statics: fresh JTOC slots, zero/null-initialized.
        let mut statics = HashMap::new();
        for f in &file.static_fields {
            let slot = self.jtoc.len() as u32;
            self.jtoc.push(0);
            self.jtoc_ref.push(f.ty.is_reference());
            statics.insert(f.name.clone(), (slot, f.ty.clone()));
        }

        // Methods and TIB.
        for m in &file.methods {
            let mid = MethodId(self.methods.len() as u32);
            let native = if file.flags.native {
                let nf = natives::resolve(file.name.as_str(), &m.name).ok_or_else(|| {
                    VmError::LoadError {
                        class: file.name.clone(),
                        message: format!("no native implementation for {}", m.name),
                    }
                })?;
                Some(nf)
            } else {
                None
            };
            self.methods.push(MethodInfo {
                id: mid,
                class: id,
                name: m.name.clone(),
                def: m.clone(),
                native,
                compiled: None,
                invalidations: 0,
            });
            self.method_by_key.insert((id, m.name.clone()), mid);

            if !m.is_static && m.kind == MethodKind::Regular {
                match vslots.get(&m.name) {
                    Some(&slot) => tib[slot as usize] = mid,
                    None => {
                        let slot = tib.len() as u16;
                        tib.push(mid);
                        vslots.insert(m.name.clone(), slot);
                    }
                }
            }
        }

        self.by_name.insert(file.name.clone(), id);
        self.classes.push(RuntimeClass {
            id,
            name: file.name.clone(),
            file: file.clone(),
            super_id,
            layout,
            ref_map,
            tib,
            vslots,
            statics,
        });
        if let Some(snapshot) = &mut self.snapshot {
            Arc::make_mut(snapshot).set(id, &self.classes[id.index()].ref_map);
        }
        Ok(id)
    }

    // ---- update-driver operations (paper §3.3) -----------------------------

    /// Renames a loaded class (old versions get a version prefix so the
    /// transformer class can name them, e.g. `User` → `v131_User`).
    ///
    /// # Errors
    ///
    /// Fails if the new name is taken.
    pub fn rename_class(&mut self, id: ClassId, new_name: ClassName) -> Result<(), VmError> {
        if self.by_name.contains_key(&new_name) {
            return Err(VmError::LoadError {
                class: new_name,
                message: "rename target name already in use".to_string(),
            });
        }
        self.generation += 1;
        let old_name = self.classes[id.index()].name.clone();
        if self.by_name.get(&old_name) == Some(&id) {
            self.by_name.remove(&old_name);
        }
        self.by_name.insert(new_name.clone(), id);
        let class = &mut self.classes[id.index()];
        class.name = new_name.clone();
        class.file.name = new_name.clone();
        // Subclasses name their superclass in their class file; keep that
        // by-name view in step with `super_id`, or resolving an inherited
        // field through a renamed old subclass (`v1_C.f`, in a
        // transformer) would walk into the *new* version of this class.
        for sub in self.classes.iter_mut().filter(|c| c.super_id == Some(id)) {
            sub.file.superclass = Some(new_name.clone());
        }
        Ok(())
    }

    /// Strips all methods from a renamed old class: "the v131_User class
    /// contains only field definitions; all methods have been removed since
    /// the updated program may not call them" (paper §2.3). TIB entries are
    /// invalidated so stale dispatch cannot reach old code. Returns what it
    /// removed, for [`Registry::restore_class_methods`].
    pub fn strip_methods(&mut self, id: ClassId) -> ClassMethodsSnapshot {
        self.generation += 1;
        let class = &mut self.classes[id.index()];
        let mut snap = ClassMethodsSnapshot {
            file_methods: std::mem::take(&mut class.file.methods),
            tib: std::mem::take(&mut class.tib),
            vslots: std::mem::take(&mut class.vslots),
            methods: Vec::new(),
        };
        for mid in self.methods_of(id) {
            self.method_by_key.remove(&(id, self.methods[mid.index()].name.clone()));
            let invalidations = self.methods[mid.index()].invalidations;
            let compiled = self.unpublish(mid, None);
            self.methods[mid.index()].invalidations += u32::from(compiled.is_some());
            snap.methods.push((mid, compiled, invalidations));
        }
        snap
    }

    /// Replaces a method's bytecode (a *method body update*): the new body
    /// is installed and the compiled code invalidated; the JIT recompiles
    /// on next invocation, exactly the paper's protocol. Returns what it
    /// replaced, for [`Registry::restore_method_state`].
    ///
    /// # Errors
    ///
    /// Fails if `class` declares no such method.
    pub fn replace_method_body(
        &mut self,
        class: ClassId,
        method: &str,
        def: jvolve_classfile::MethodDef,
    ) -> Result<MethodState, VmError> {
        let mid = self
            .method_by_key
            .get(&(class, method.to_string()))
            .copied()
            .ok_or_else(|| VmError::ResolutionError {
                message: format!("no method {method} on {}", self.classes[class.index()].name),
            })?;
        self.generation += 1;
        // Keep the class-file definition in sync for later diffs.
        if let Some(m) = self.classes[class.index()]
            .file
            .methods
            .iter_mut()
            .find(|m| m.name == method)
        {
            *m = def.clone();
        }
        let mut state = self.method_state(mid);
        state.def = Some(std::mem::replace(&mut self.methods[mid.index()].def, def));
        self.invalidate(mid);
        Ok(state)
    }

    /// Invalidates a method's compiled code; it recompiles on next call.
    /// Frames already running the code finish on it (it is retired).
    pub fn invalidate(&mut self, mid: MethodId) {
        if self.unpublish(mid, None).is_some() {
            self.methods[mid.index()].invalidations += 1;
        }
    }

    /// Installs compiled code for a method, retiring what it replaces.
    pub fn set_compiled(&mut self, mid: MethodId, code: Arc<CompiledMethod>) {
        self.unpublish(mid, Some(code));
    }

    /// Replaces `mid`'s published code with `code` (`None` unpublishes it)
    /// and returns what was published before. The only writer of
    /// [`MethodInfo::compiled`]: replaced code goes onto the retired list,
    /// never out of the registry, since a frame may still run it.
    fn unpublish(
        &mut self,
        mid: MethodId,
        code: Option<Arc<CompiledMethod>>,
    ) -> Option<Arc<CompiledMethod>> {
        let slot = &mut self.methods[mid.index()].compiled;
        let old = std::mem::replace(slot, code);
        if let Some(old) = &old {
            if !slot.as_ref().is_some_and(|new| Arc::ptr_eq(new, old)) {
                self.retired.push(Arc::clone(old));
            }
        }
        old
    }

    // ---- code ownership (module doc of `crate::thread`) ------------------------

    /// Takes ownership of code from outside the registry so a frame can
    /// run it: it is retired, and the returned reference stays valid until
    /// [`Registry::reclaim`] finds no frame on it.
    pub(crate) fn retain(&mut self, code: Arc<CompiledMethod>) -> CodeRef {
        // SAFETY: `code` goes onto the retired list, which only
        // `reclaim` shrinks, and only of code no frame points at.
        let code_ref = unsafe { CodeRef::new(&code) };
        self.retired.push(code);
        code_ref
    }

    /// The registry's `Arc` of `code`, which a frame of `method` runs:
    /// `method`'s published code or a retired entry.
    pub(crate) fn owner(&self, method: MethodId, code: CodeRef) -> Option<&Arc<CompiledMethod>> {
        let is = |c: &&Arc<CompiledMethod>| std::ptr::eq(Arc::as_ptr(c), code.as_ptr());
        let published = self.methods.get(method.index()).and_then(|m| m.compiled.as_ref());
        published.filter(is).or_else(|| self.retired.iter().find(is))
    }

    /// Code no longer published, kept because a frame may still run it.
    pub fn retired(&self) -> impl Iterator<Item = &Arc<CompiledMethod>> {
        self.retired.iter()
    }

    /// Drops every retired entry whose code is not in `in_use` (the code
    /// of every frame of every thread) and returns how many it dropped.
    pub(crate) fn reclaim(&mut self, in_use: &HashSet<*const CompiledMethod>) -> usize {
        let before = self.retired.len();
        self.retired.retain(|c| in_use.contains(&Arc::as_ptr(c)));
        before - self.retired.len()
    }

    // ---- rollback primitives (used by the update controller) ----------------
    //
    // Classes, methods, and JTOC slots are append-only tables, so a failed
    // update's half-loaded batch can be dropped by truncating back to a
    // mark taken before the first load. Renames and method strips/swaps are
    // undone from snapshots captured before the mutation.

    /// A high-water mark of the registry's append-only tables.
    #[must_use]
    pub fn mark(&self) -> RegistryMark {
        RegistryMark {
            classes: self.classes.len(),
            methods: self.methods.len(),
            jtoc: self.jtoc.len(),
        }
    }

    /// Drops every class, method, and JTOC slot added after `mark`,
    /// removing their name/lookup entries. Callers must ensure nothing
    /// still references the dropped ids (the update controller rolls back
    /// frames and renames first).
    pub fn truncate_to(&mut self, mark: &RegistryMark) {
        self.generation += 1;
        for mid in mark.methods..self.methods.len() {
            self.unpublish(MethodId(mid as u32), None);
        }
        for class in self.classes.drain(mark.classes..) {
            if self.by_name.get(&class.name) == Some(&class.id) {
                self.by_name.remove(&class.name);
            }
        }
        for method in self.methods.drain(mark.methods..) {
            self.method_by_key.remove(&(method.class, method.name));
        }
        self.jtoc.truncate(mark.jtoc);
        self.jtoc_ref.truncate(mark.jtoc);
        self.snapshot = None;
    }

    /// Restores what [`Registry::strip_methods`] removed from class `id`:
    /// lookup entries, TIB, virtual slots, class-file method list, and
    /// each method's compiled code and counters.
    pub fn restore_class_methods(&mut self, id: ClassId, snap: ClassMethodsSnapshot) {
        self.generation += 1;
        let class = &mut self.classes[id.index()];
        class.file.methods = snap.file_methods;
        class.tib = snap.tib;
        class.vslots = snap.vslots;
        for (mid, compiled, invalidations) in snap.methods {
            let name = self.methods[mid.index()].name.clone();
            self.method_by_key.insert((id, name), mid);
            self.unpublish(mid, compiled);
            self.methods[mid.index()].invalidations = invalidations;
        }
    }

    /// A method's compiled code and counters, for a rollback to restore
    /// after [`Registry::invalidate`] or a republish of its code.
    #[must_use]
    pub fn method_state(&self, mid: MethodId) -> MethodState {
        let info = &self.methods[mid.index()];
        MethodState {
            mid,
            def: None,
            compiled: info.compiled.clone(),
            invalidations: info.invalidations,
        }
    }

    /// Restores a method captured by [`Registry::method_state`] or
    /// returned by [`Registry::replace_method_body`]: its compiled code and
    /// counters, and its definition if one was replaced.
    pub fn restore_method_state(&mut self, state: MethodState) {
        let MethodState { mid, def, compiled, invalidations } = state;
        if let Some(def) = def {
            self.generation += 1;
            let class = self.methods[mid.index()].class;
            if let Some(m) = self.classes[class.index()]
                .file
                .methods
                .iter_mut()
                .find(|m| m.name == def.name)
            {
                *m = def.clone();
            }
            self.methods[mid.index()].def = def;
        }
        self.unpublish(mid, compiled);
        self.methods[mid.index()].invalidations = invalidations;
    }

    /// Number of JTOC slots allocated (for registry state comparisons).
    pub fn jtoc_len(&self) -> usize {
        self.jtoc.len()
    }

    /// Raw refness of a JTOC slot (for registry state comparisons).
    pub fn jtoc_is_ref(&self, slot: u32) -> bool {
        self.jtoc_ref[slot as usize]
    }

    /// A canonical dump of every *definition* the registry holds: class
    /// names, superclass links, layouts, ref maps, virtual-slot tables,
    /// static-slot declarations, and per-method bytecode definitions.
    ///
    /// Deliberately excludes everything that mutates under ordinary
    /// execution — compiled code, JTOC *values* — so two VMs running the same program version
    /// fingerprint identically no matter how much traffic each has
    /// served. The fleet coordinator compares this across shards after a
    /// rolled-back update to prove every shard converged to the same code
    /// version bit-for-bit.
    pub fn version_fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut classes: Vec<&RuntimeClass> = self.classes.iter().collect();
        classes.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
        for c in classes {
            let super_name =
                c.super_id.map(|s| self.classes[s.index()].name.as_str().to_string());
            let _ = writeln!(out, "class {} super={super_name:?}", c.name.as_str());
            for (slot, r) in c.layout.iter().zip(&c.ref_map) {
                let _ = writeln!(out, "  field {} {:?} ref={r}", slot.name, slot.ty);
            }
            let mut vslots: Vec<_> = c.vslots.iter().collect();
            vslots.sort();
            for (name, slot) in vslots {
                // The TIB entry is resolved back to its declaring class +
                // method name (method *ids* are allocation-order
                // dependent and must not leak into the fingerprint).
                let target = &self.methods[c.tib[*slot as usize].index()];
                let decl = self.classes[target.class.index()].name.as_str();
                let _ = writeln!(out, "  vslot {name} -> {decl}.{}", target.name);
            }
            let mut statics: Vec<_> = c.statics.iter().collect();
            statics.sort_by_key(|(name, _)| name.as_str());
            for (name, (_, ty)) in statics {
                let _ = writeln!(out, "  static {name} {ty:?}");
            }
            let mut mids = self.methods_of(c.id);
            mids.sort_by_key(|m| self.methods[m.index()].name.clone());
            for mid in mids {
                let m = &self.methods[mid.index()];
                let _ = writeln!(
                    out,
                    "  method {} native={} def={:?}",
                    m.name,
                    m.native.is_some(),
                    m.def
                );
            }
        }
        out
    }
}

/// High-water mark of the registry's append-only tables (see
/// [`Registry::mark`]).
#[derive(Clone, Copy, Debug)]
pub struct RegistryMark {
    classes: usize,
    methods: usize,
    jtoc: usize,
}

/// A class's method tables as [`Registry::strip_methods`] removed them.
#[derive(Debug)]
pub struct ClassMethodsSnapshot {
    file_methods: Vec<jvolve_classfile::MethodDef>,
    tib: Vec<MethodId>,
    vslots: HashMap<String, u16>,
    methods: Vec<(MethodId, Option<Arc<CompiledMethod>>, u32)>,
}

/// One method's state for a rollback (see [`Registry::method_state`] and
/// [`Registry::replace_method_body`]).
#[derive(Debug)]
pub struct MethodState {
    mid: MethodId,
    /// The replaced definition; `None` when only the code was touched.
    def: Option<jvolve_classfile::MethodDef>,
    compiled: Option<Arc<CompiledMethod>>,
    invalidations: u32,
}

impl ClassLayouts for Registry {
    fn object_size(&self, class: ClassId) -> usize {
        self.classes[class.index()].layout.len()
    }
    fn ref_map(&self, class: ClassId) -> &[bool] {
        &self.classes[class.index()].ref_map
    }
}

impl ClassResolver for Registry {
    fn resolve(&self, name: &ClassName) -> Option<&ClassFile> {
        self.by_name.get(name).map(|id| &self.classes[id.index()].file)
    }
}

/// Resolver over a registry (or a view of one) plus a batch being loaded.
struct BatchView<'a, R> {
    resolver: &'a R,
    batch: &'a [&'a ClassFile],
}

impl<R: ClassResolver> ClassResolver for BatchView<'_, R> {
    fn resolve(&self, name: &ClassName) -> Option<&ClassFile> {
        self.batch
            .iter()
            .copied()
            .find(|f| &f.name == name)
            .or_else(|| self.resolver.resolve(name))
    }
}

/// Verifies each of `files` against `view`.
fn verify_batch(view: &impl ClassResolver, files: &[&ClassFile]) -> Result<(), VmError> {
    for f in files {
        verify::verify_class(view, f).map_err(|e| VmError::LoadError {
            class: f.name.clone(),
            message: e.to_string(),
        })?;
    }
    Ok(())
}

/// The registry as an update's install will leave it, for verifying the
/// update's batches before the install runs (see
/// [`Registry::install_view`]).
#[derive(Debug)]
pub struct InstallView<'r, 'a> {
    registry: &'r Registry,
    /// Classes whose view differs from their registry entry, by their
    /// name in the view: each renamed class (stripped of its methods) and
    /// each class whose superclass is renamed.
    changed: HashMap<ClassName, ClassFile>,
    /// The renamed classes, whose current names the view frees.
    renamed: Vec<ClassId>,
    /// The batches verified so far, linked (in the install) before the
    /// next one.
    loaded: Vec<&'a ClassFile>,
    generation: u64,
}

impl<'a> InstallView<'_, 'a> {
    /// Verifies a batch against the view plus every batch verified before
    /// it, then counts it as loaded. The result is stamped with the
    /// generation the view was taken at.
    ///
    /// # Errors
    ///
    /// [`VmError::LoadError`] naming the first class that fails to verify.
    pub fn verify(&mut self, files: Vec<&'a ClassFile>) -> Result<VerifiedBatch<'a>, VmError> {
        verify_batch(&BatchView { resolver: &*self, batch: &files }, &files)?;
        self.loaded.extend(&files);
        Ok(VerifiedBatch { files, generation: self.generation })
    }
}

impl ClassResolver for InstallView<'_, '_> {
    fn resolve(&self, name: &ClassName) -> Option<&ClassFile> {
        if let Some(file) = self.loaded.iter().copied().find(|f| &f.name == name) {
            return Some(file);
        }
        if let Some(file) = self.changed.get(name) {
            return Some(file);
        }
        let id = self.registry.class_id(name)?;
        (!self.renamed.contains(&id)).then(|| &self.registry.classes[id.index()].file)
    }
}

/// A batch of class files that verified against an [`InstallView`], and
/// the [`Registry::generation`] it verified at. [`Registry::load_verified`]
/// links it without verifying it again while the stamp is current.
#[derive(Debug)]
pub struct VerifiedBatch<'a> {
    files: Vec<&'a ClassFile>,
    generation: u64,
}

impl VerifiedBatch<'_> {
    /// The batch, in load order.
    pub fn files(&self) -> &[&ClassFile] {
        &self.files
    }

    /// The generation the batch verified at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Carries the stamp across registry mutations the verified view
    /// already models (the install's own renames and strips, say): a batch
    /// stamped `from` is re-stamped `to`, and one stamped anything else
    /// stays stale.
    pub fn carry(&mut self, from: u64, to: u64) {
        if self.generation == from {
            self.generation = to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_classfile::bytecode::Instr;
    use jvolve_lang::builtins::builtin_classes;

    fn base_registry() -> Registry {
        let mut r = Registry::new();
        r.load_batch(&builtin_classes()).unwrap();
        r
    }

    #[test]
    fn loads_builtins_with_natives() {
        let r = base_registry();
        let sys = r.class_id(&ClassName::from("Sys")).unwrap();
        let mid = r.find_method(sys, "print").unwrap();
        assert!(r.method(mid).native.is_some());
    }

    #[test]
    fn layout_concatenates_super_fields() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile(
            "class A { field x: int; field s: String; }
             class B extends A { field y: int; }",
        )
        .unwrap();
        r.load_batch(&classes).unwrap();
        let b = r.class_id(&ClassName::from("B")).unwrap();
        assert_eq!(r.object_size(b), 3);
        assert_eq!(r.field_offset(b, "x"), Some((0, false)));
        assert_eq!(r.field_offset(b, "s"), Some((1, true)));
        assert_eq!(r.field_offset(b, "y"), Some((2, false)));
        assert_eq!(r.ref_map(b), &[false, true, false]);
    }

    #[test]
    fn layout_snapshot_is_cached_and_extended_by_load() {
        let mut r = base_registry();
        let first = r.layout_snapshot();
        let again = r.layout_snapshot();
        assert!(Arc::ptr_eq(&first, &again), "steady state reuses the snapshot");

        let classes =
            jvolve_lang::compile("class P { field n: int; field s: String; }").unwrap();
        let mark = r.mark();
        r.load_batch(&classes).unwrap();
        let extended = r.layout_snapshot();
        assert!(!Arc::ptr_eq(&first, &extended), "a shared snapshot is not changed under a holder");
        let p = r.class_id(&ClassName::from("P")).unwrap();
        assert_eq!(extended.size_words(p), 2);
        assert_eq!(extended.num_classes(), r.num_classes());
        drop((first, again, extended));
        r.truncate_to(&mark);
        assert_eq!(r.layout_snapshot().num_classes(), r.num_classes(), "rebuilt after rollback");
    }

    #[test]
    fn tib_overrides_share_slots() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile(
            "class A { method id(): int { return 1; } method other(): int { return 0; } }
             class B extends A { method id(): int { return 2; } }",
        )
        .unwrap();
        r.load_batch(&classes).unwrap();
        let a = r.class_id(&ClassName::from("A")).unwrap();
        let b = r.class_id(&ClassName::from("B")).unwrap();
        let slot_a = r.vslot(a, "id").unwrap();
        let slot_b = r.vslot(b, "id").unwrap();
        assert_eq!(slot_a, slot_b, "override shares the TIB slot");
        assert_ne!(r.class(a).tib[slot_a as usize], r.class(b).tib[slot_b as usize]);
        assert_eq!(r.vslot(b, "other"), r.vslot(a, "other"));
    }

    #[test]
    fn statics_get_jtoc_slots() {
        let mut r = base_registry();
        let classes =
            jvolve_lang::compile("class C { static field n: int; static field s: String; }")
                .unwrap();
        r.load_batch(&classes).unwrap();
        let c = r.class_id(&ClassName::from("C")).unwrap();
        let (n_slot, n_ref) = r.static_slot(c, "n").unwrap();
        let (s_slot, s_ref) = r.static_slot(c, "s").unwrap();
        assert_ne!(n_slot, s_slot);
        assert!(!n_ref);
        assert!(s_ref);
        r.jtoc_set(n_slot, 17);
        assert_eq!(r.jtoc_get(n_slot), 17);
    }

    #[test]
    fn rename_frees_old_name() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile("class User { field name: String; }").unwrap();
        r.load_batch(&classes).unwrap();
        let id = r.class_id(&ClassName::from("User")).unwrap();
        r.rename_class(id, ClassName::from("v131_User")).unwrap();
        assert!(r.class_id(&ClassName::from("User")).is_none());
        assert_eq!(r.class_id(&ClassName::from("v131_User")), Some(id));
        // New version of User can now be loaded.
        let new = jvolve_lang::compile("class User { field name: String; field age: int; }")
            .unwrap();
        let ids = r.load_batch(&new).unwrap();
        assert_ne!(ids[0], id);
        assert_eq!(r.class_id(&ClassName::from("User")), Some(ids[0]));
    }

    #[test]
    fn strip_methods_removes_lookup_and_tib() {
        let mut r = base_registry();
        let classes =
            jvolve_lang::compile("class User { method getName(): int { return 1; } }").unwrap();
        r.load_batch(&classes).unwrap();
        let id = r.class_id(&ClassName::from("User")).unwrap();
        assert!(r.find_method(id, "getName").is_some());
        r.strip_methods(id);
        assert!(r.find_method(id, "getName").is_none());
        assert!(r.class(id).tib.is_empty());
    }

    #[test]
    fn replace_method_body_invalidates() {
        let mut r = base_registry();
        let classes =
            jvolve_lang::compile("class T { static method f(): int { return 1; } }").unwrap();
        r.load_batch(&classes).unwrap();
        let t = r.class_id(&ClassName::from("T")).unwrap();
        let mid = r.find_method(t, "f").unwrap();
        // Fake compiled code so invalidation is observable.
        r.set_compiled(
            mid,
            Arc::new(CompiledMethod::new(mid, vec![RInstrStub()], 0)),
        );
        let new_def = jvolve_lang::compile("class T { static method f(): int { return 2; } }")
            .unwrap()[0]
            .find_method("f")
            .unwrap()
            .clone();
        r.replace_method_body(t, "f", new_def).unwrap();
        assert!(r.method(mid).compiled.is_none());
        assert_eq!(r.method(mid).invalidations, 1);
        // The class-file view reflects the new body.
        let body = &r.class(t).file.find_method("f").unwrap().code;
        assert!(body.as_ref().unwrap().instrs.contains(&Instr::ConstInt(2)));
    }

    #[allow(non_snake_case)]
    fn RInstrStub() -> crate::compiled::RInstr {
        crate::compiled::RInstr::Return
    }

    #[test]
    fn duplicate_load_is_rejected() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile("class A { }").unwrap();
        r.load_batch(&classes).unwrap();
        let err = r.load_batch(&classes).unwrap_err();
        assert!(matches!(err, VmError::LoadError { .. }), "{err}");
    }

    #[test]
    fn batch_with_forward_superclass_links() {
        let mut r = base_registry();
        // B extends A but appears first in the batch.
        let mut classes = jvolve_lang::compile("class A { } class B extends A { }").unwrap();
        classes.reverse();
        let ids = r.load_batch(&classes).unwrap();
        assert_eq!(ids.len(), 2);
        let b = r.class_id(&ClassName::from("B")).unwrap();
        let a = r.class_id(&ClassName::from("A")).unwrap();
        assert!(r.is_subclass_of(b, a));
    }

    #[test]
    fn truncate_to_drops_a_loaded_batch() {
        let mut r = base_registry();
        let mark = r.mark();
        let n_classes = r.num_classes();
        let n_methods = r.method_count();
        let n_jtoc = r.jtoc_len();
        let classes = jvolve_lang::compile(
            "class Late { static field n: int; method f(): int { return 1; } }",
        )
        .unwrap();
        r.load_batch(&classes).unwrap();
        assert!(r.class_id(&ClassName::from("Late")).is_some());
        r.truncate_to(&mark);
        assert_eq!(r.num_classes(), n_classes);
        assert_eq!(r.method_count(), n_methods);
        assert_eq!(r.jtoc_len(), n_jtoc);
        assert!(r.class_id(&ClassName::from("Late")).is_none());
        // The name is free again.
        r.load_batch(&classes).unwrap();
        assert!(r.class_id(&ClassName::from("Late")).is_some());
    }

    #[test]
    fn strip_and_restore_round_trips() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile(
            "class User { method getName(): int { return 1; } method other(): int { return 2; } }",
        )
        .unwrap();
        r.load_batch(&classes).unwrap();
        let id = r.class_id(&ClassName::from("User")).unwrap();
        let mid = r.find_method(id, "getName").unwrap();
        let tib_before = r.class(id).tib.clone();
        let file_methods_before = r.class(id).file.methods.len();

        let snap = r.strip_methods(id);
        assert!(r.find_method(id, "getName").is_none());
        r.restore_class_methods(id, snap);

        assert_eq!(r.find_method(id, "getName"), Some(mid));
        assert_eq!(r.class(id).tib, tib_before);
        assert_eq!(r.class(id).file.methods.len(), file_methods_before);
        assert_eq!(r.method(mid).invalidations, 0, "counters restored");
    }

    #[test]
    fn generation_moves_with_definitions_not_with_code() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile(
            "class P { field a: int; method f(): int { return 1; } }
             class C extends P { method g(): int { return 2; } }",
        )
        .unwrap();
        let g = r.generation();
        r.load_batch(&classes).unwrap();
        assert!(r.generation() > g, "link bumps");
        let p = r.class_id(&ClassName::from("P")).unwrap();
        let f = r.find_method(p, "f").unwrap();

        // Code comes and goes without touching what a verifier reads.
        let g = r.generation();
        r.set_compiled(f, Arc::new(CompiledMethod::new(f, vec![RInstrStub()], 0)));
        r.invalidate(f);
        let state = r.method_state(f);
        r.restore_method_state(state);
        assert_eq!(r.generation(), g, "compile, invalidate and code restores do not bump");

        let def = r.method(f).def.clone();
        let mut seen = vec![g];
        let mut bumped = |r: &Registry, what: &str| {
            assert!(r.generation() > *seen.last().unwrap(), "{what} bumps");
            seen.push(r.generation());
        };
        let swapped = r.replace_method_body(p, "f", def).unwrap();
        bumped(&r, "a body replacement");
        r.restore_method_state(swapped);
        bumped(&r, "restoring a definition");
        let mark = r.mark();
        r.rename_class(p, ClassName::from("v1_P")).unwrap();
        bumped(&r, "a rename");
        let snap = r.strip_methods(p);
        bumped(&r, "a strip");
        r.restore_class_methods(p, snap);
        bumped(&r, "restoring stripped methods");
        r.truncate_to(&mark);
        bumped(&r, "a truncation");
    }

    #[test]
    fn the_install_view_is_the_registry_after_its_renames() {
        let mut r = base_registry();
        let v1 = jvolve_lang::compile(
            "class P { field a: int; method f(): int { return this.a; } }
             class C extends P { method g(): int { return this.a; } }",
        )
        .unwrap();
        r.load_batch(&v1).unwrap();
        let p = r.class_id(&ClassName::from("P")).unwrap();
        // The new P has `b`; `Reader` reads `b` through the unchanged C,
        // which in the view still extends the old (renamed) P.
        let v2 = jvolve_lang::compile(
            "class P { field b: int; }
             class C extends P { }
             class Reader { static method read(c: C): int { return c.b; } }",
        )
        .unwrap();
        let batch = |names: &[&str]| -> Vec<&ClassFile> {
            names.iter().map(|n| v2.iter().find(|c| c.name.as_str() == *n).unwrap()).collect()
        };

        let renames = [(p, ClassName::from("v2_P"))];
        let mut view = r.install_view(&renames);
        let v2_p = view.resolve(&ClassName::from("v2_P")).expect("renamed class resolves");
        assert!(v2_p.methods.is_empty(), "renamed classes are stripped");
        assert!(view.resolve(&ClassName::from("P")).is_none(), "the old name is free");
        assert_eq!(
            view.resolve(&ClassName::from("C")).unwrap().superclass,
            Some(ClassName::from("v2_P")),
            "subclasses name the renamed superclass"
        );
        let err = view.verify(batch(&["P", "Reader"])).unwrap_err();
        assert!(
            matches!(&err, VmError::LoadError { class, .. } if class.as_str() == "Reader"),
            "{err}"
        );

        // The batch without the reader verifies and, once the install's
        // renames are done and the stamp carried across them, loads
        // without a second verification.
        let mut view = r.install_view(&renames);
        let mut verified = view.verify(batch(&["P"])).unwrap();
        let start = r.generation();
        r.rename_class(p, ClassName::from("v2_P")).unwrap();
        let _ = r.strip_methods(p);
        verified.carry(start, r.generation());
        assert_eq!(verified.generation(), r.generation());
        r.load_verified(&verified).unwrap();
        assert_eq!(r.reverified_batches(), 0);
        assert!(r.class_id(&ClassName::from("P")).is_some());
    }

    #[test]
    fn a_stale_batch_is_verified_again() {
        let mut r = base_registry();
        let classes = jvolve_lang::compile(
            "class Lib { static field n: int; }
             class User { static method f(): int { return Lib.n; } }",
        )
        .unwrap();
        let (lib, user) = (&classes[0], &classes[1]);
        assert!(r.install_view(&[]).verify(vec![user]).is_err(), "Lib is not loaded");

        r.load_batch(&[lib]).unwrap();
        let verified = r.install_view(&[]).verify(vec![user]).unwrap();
        // Something else changes the registry before the load.
        r.load_batch(&jvolve_lang::compile("class Other { }").unwrap()).unwrap();
        r.load_verified(&verified).unwrap();
        assert_eq!(r.reverified_batches(), 1, "a stale stamp is verified again");
    }
}
