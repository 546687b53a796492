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
use std::collections::HashMap;
use std::sync::Arc;

use jvolve_classfile::class::MethodKind;
use jvolve_classfile::{verify, ClassFile, ClassName, ClassResolver, Type};

use crate::compiled::CompiledMethod;
use crate::error::VmError;
use crate::heap::{ClassLayouts, LayoutSnapshot};
use crate::ids::{ClassId, MethodId};
use crate::natives::{self, NativeFn};

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
    /// Compiled code, if any; `None` means "compile on next invocation".
    pub compiled: Option<Arc<CompiledMethod>>,
    /// Times this method's compiled code has been invalidated.
    pub invalidations: u32,
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

    /// Mutable method access (driver/interpreter internals).
    pub fn method_mut(&mut self, id: MethodId) -> &mut MethodInfo {
        &mut self.methods[id.index()]
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
        // Duplicate/conflict detection.
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

        // Verify against the combined view.
        let view = BatchView { registry: self, batch: files };
        for f in files {
            verify::verify_class(&view, f).map_err(|e| VmError::LoadError {
                class: f.name.clone(),
                message: e.to_string(),
            })?;
        }

        // Link in superclass order (supers within the batch first), but
        // return the ids in the caller's input order.
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
    /// invalidated so stale dispatch cannot reach old code.
    pub fn strip_methods(&mut self, id: ClassId) {
        let mids: Vec<MethodId> =
            self.methods.iter().filter(|m| m.class == id).map(|m| m.id).collect();
        let class = &mut self.classes[id.index()];
        class.file.methods.clear();
        class.tib.clear();
        class.vslots.clear();
        for mid in mids {
            let name = self.methods[mid.index()].name.clone();
            self.method_by_key.remove(&(id, name));
            self.invalidate(mid);
        }
    }

    /// Replaces a method's bytecode (a *method body update*): the new body
    /// is installed and the compiled code invalidated; the JIT recompiles
    /// on next invocation, exactly the paper's protocol.
    ///
    /// # Errors
    ///
    /// Fails if the method does not exist.
    pub fn replace_method_body(
        &mut self,
        class: ClassId,
        method: &str,
        def: jvolve_classfile::MethodDef,
    ) -> Result<MethodId, VmError> {
        let mid = self
            .method_by_key
            .get(&(class, method.to_string()))
            .copied()
            .ok_or_else(|| VmError::ResolutionError {
                message: format!("no method {method} on {}", self.classes[class.index()].name),
            })?;
        // Keep the class-file definition in sync for later diffs.
        if let Some(m) = self.classes[class.index()]
            .file
            .methods
            .iter_mut()
            .find(|m| m.name == method)
        {
            *m = def.clone();
        }
        let info = &mut self.methods[mid.index()];
        info.def = def;
        self.invalidate(mid);
        Ok(mid)
    }

    /// Invalidates a method's compiled code; it recompiles on next call.
    pub fn invalidate(&mut self, mid: MethodId) {
        let info = &mut self.methods[mid.index()];
        if info.compiled.take().is_some() {
            info.invalidations += 1;
        }
    }

    /// Installs compiled code for a method.
    pub fn set_compiled(&mut self, mid: MethodId, code: Arc<CompiledMethod>) {
        self.methods[mid.index()].compiled = Some(code);
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

    /// Captures everything [`Registry::strip_methods`] destroys for class
    /// `id`, so an aborted update can restore it.
    #[must_use]
    pub fn snapshot_class_methods(&self, id: ClassId) -> ClassMethodsSnapshot {
        let class = &self.classes[id.index()];
        ClassMethodsSnapshot {
            file_methods: class.file.methods.clone(),
            tib: class.tib.clone(),
            vslots: class.vslots.clone(),
            methods: self
                .methods
                .iter()
                .filter(|m| m.class == id)
                .map(|m| (m.id, m.compiled.clone(), m.invalidations))
                .collect(),
        }
    }

    /// Restores a class's methods from a snapshot taken before
    /// [`Registry::strip_methods`]: lookup entries, TIB, virtual slots,
    /// class-file method list, and each method's compiled code and
    /// counters.
    pub fn restore_class_methods(&mut self, id: ClassId, snap: ClassMethodsSnapshot) {
        let class = &mut self.classes[id.index()];
        class.file.methods = snap.file_methods;
        class.tib = snap.tib;
        class.vslots = snap.vslots;
        for (mid, compiled, invalidations) in snap.methods {
            let name = self.methods[mid.index()].name.clone();
            self.method_by_key.insert((id, name), mid);
            let info = &mut self.methods[mid.index()];
            info.compiled = compiled;
            info.invalidations = invalidations;
        }
    }

    /// Restores one method's definition, compiled code, and counters —
    /// the inverse of [`Registry::replace_method_body`] /
    /// [`Registry::invalidate`] for rollback.
    pub fn restore_method_state(
        &mut self,
        mid: MethodId,
        def: jvolve_classfile::MethodDef,
        compiled: Option<Arc<CompiledMethod>>,
        invalidations: u32,
    ) {
        let class = self.methods[mid.index()].class;
        if let Some(m) = self.classes[class.index()]
            .file
            .methods
            .iter_mut()
            .find(|m| m.name == def.name)
        {
            *m = def.clone();
        }
        let info = &mut self.methods[mid.index()];
        info.def = def;
        info.compiled = compiled;
        info.invalidations = invalidations;
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

/// Opaque snapshot of a class's method tables (see
/// [`Registry::snapshot_class_methods`]).
#[derive(Debug)]
pub struct ClassMethodsSnapshot {
    file_methods: Vec<jvolve_classfile::MethodDef>,
    tib: Vec<MethodId>,
    vslots: HashMap<String, u16>,
    methods: Vec<(MethodId, Option<Arc<CompiledMethod>>, u32)>,
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

/// Resolver over the registry plus a batch being loaded.
struct BatchView<'a> {
    registry: &'a Registry,
    batch: &'a [&'a ClassFile],
}

impl ClassResolver for BatchView<'_> {
    fn resolve(&self, name: &ClassName) -> Option<&ClassFile> {
        self.batch
            .iter()
            .copied()
            .find(|f| &f.name == name)
            .or_else(|| self.registry.resolve(name))
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

        let snap = r.snapshot_class_methods(id);
        r.strip_methods(id);
        assert!(r.find_method(id, "getName").is_none());
        r.restore_class_methods(id, snap);

        assert_eq!(r.find_method(id, "getName"), Some(mid));
        assert_eq!(r.class(id).tib, tib_before);
        assert_eq!(r.class(id).file.methods.len(), file_methods_before);
        assert_eq!(r.method(mid).invalidations, 0, "counters restored");
    }
}
