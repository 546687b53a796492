//! Transformer generation: old-class stubs and default class/object
//! transformers (paper §2.3).
//!
//! For every class update the UPT emits:
//!
//! * an **old-class stub** — the old class renamed with the version prefix
//!   and reduced to field definitions ("all methods have been removed
//!   since the updated program may not call them");
//! * a **default object transformer** `jvolve_object_X(to, from)` that
//!   copies fields whose name and type are unchanged and leaves the rest
//!   at their default values (fresh objects are zero/null-initialized);
//! * a **default class transformer** `jvolve_class_X()` that does the same
//!   for static fields.
//!
//! The paper distinguishes transformers by Java overloading; MJ has no
//! overloading, so the names are mangled with the class name instead (see
//! DESIGN.md). Developers may customize the generated source before the
//! update is applied, exactly as in the paper's workflow (Figure 1).
//!
//! Object transformers run over the update GC's log in its order: sorted
//! by the old object's from-space address. A transformer with
//! order-dependent effects on shared state therefore sees the same order
//! on every run of the same program.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use jvolve_classfile::{ClassFile, ClassName, ClassResolver, ClassSet, FieldDef, Type};

use crate::spec::{ClassChangeKind, UpdateSpec};

/// Name of the generated transformer class.
pub const TRANSFORMERS_CLASS: &str = "JvolveTransformers";

/// Name of the object transformer method for `class`.
pub fn object_transformer_name(class: &ClassName) -> String {
    format!("jvolve_object_{class}")
}

/// Name of the class (static-field) transformer method for `class`.
pub fn class_transformer_name(class: &ClassName) -> String {
    format!("jvolve_class_{class}")
}

/// Maps an old field type to its stub-world spelling: references to
/// classes that survive keep their name (old objects' fields point at
/// *transformed* referents after the update GC, paper §3.4); references to
/// deleted classes also keep their name because deleted classes remain
/// loaded (renamed only when updated).
fn stub_type(ty: &Type) -> Type {
    ty.clone()
}

/// Builds the fields-only stub for an updated class (renamed with the
/// version prefix) or for a deleted class (same name).
pub fn old_class_stub(spec: &UpdateSpec, old_set: &ClassSet, class: &ClassFile) -> ClassFile {
    let updated: BTreeSet<&ClassName> = spec
        .changed
        .iter()
        .filter(|d| d.kind == ClassChangeKind::ClassUpdate)
        .map(|d| &d.name)
        .collect();
    let rename = |name: &ClassName| -> ClassName {
        if updated.contains(name) {
            spec.old_name(name)
        } else {
            name.clone()
        }
    };

    let name = rename(&class.name);
    let superclass = class.superclass.as_ref().map(|s| {
        // Keep the chain meaningful inside the stub world so inherited
        // fields resolve during transformer compilation.
        if old_set.get(s).is_some() {
            rename(s)
        } else {
            s.clone()
        }
    });
    ClassFile {
        name,
        superclass,
        fields: class
            .fields
            .iter()
            .map(|f| FieldDef { ty: stub_type(&f.ty), ..f.clone() })
            .collect(),
        static_fields: class
            .static_fields
            .iter()
            .map(|f| FieldDef { ty: stub_type(&f.ty), ..f.clone() })
            .collect(),
        methods: Vec::new(),
        flags: class.flags,
    }
}

/// All stubs needed to compile transformers: one per class update (with
/// the version prefix) and one per deleted class (fields only).
pub fn all_stubs(spec: &UpdateSpec, old_set: &ClassSet) -> Vec<ClassFile> {
    let mut out = Vec::new();
    for delta in spec.class_updates() {
        if let Some(class) = old_set.get(&delta.name) {
            out.push(old_class_stub(spec, old_set, class));
        }
    }
    for name in &spec.deleted_classes {
        if let Some(class) = old_set.get(name) {
            out.push(old_class_stub(spec, old_set, class));
        }
    }
    out
}

/// The extern class set against which the transformer class compiles:
/// every class of the new version plus the old stubs.
pub fn transformer_externs(
    spec: &UpdateSpec,
    old_set: &ClassSet,
    new_set: &ClassSet,
) -> ClassSet {
    let mut externs = ClassSet::new();
    for c in new_set.iter() {
        if !jvolve_lang::builtins::is_builtin(c.name.as_str()) {
            externs.insert(c.clone());
        }
    }
    for stub in all_stubs(spec, old_set) {
        externs.insert(stub);
    }
    externs
}

/// Flattened instance fields of `class` (inherited first), resolved
/// against `set`.
fn flattened_fields<'a>(set: &'a ClassSet, class: &ClassName) -> Vec<&'a FieldDef> {
    let mut chain: Vec<&ClassFile> = Vec::new();
    let mut cur = Some(class.clone());
    while let Some(name) = cur {
        let Some(c) = set.resolve(&name) else { break };
        chain.push(c);
        cur = c.superclass.clone();
    }
    chain.reverse();
    chain.iter().flat_map(|c| c.fields.iter()).collect()
}

/// The generated transformer pair for one class update: the
/// `jvolve_class_X` and `jvolve_object_X` method definitions, as MJ source
/// ready to be placed inside the `JvolveTransformers` class body. The UPT
/// emits one of these per class update so user-supplied transformers can
/// replace the defaults *per class* instead of rewriting the whole file.
#[derive(Clone, Debug)]
pub struct TransformerMethods {
    /// The updated class these methods transform.
    pub class: ClassName,
    /// MJ source of the two method definitions (class-body level).
    pub source: String,
}

/// Generates the default transformer method pair for every class update in
/// `spec`, one entry per class, in spec order.
pub fn default_transformer_methods(
    spec: &UpdateSpec,
    old_set: &ClassSet,
    new_set: &ClassSet,
) -> Vec<TransformerMethods> {
    let mut out = Vec::new();
    for delta in spec.class_updates() {
        let name = &delta.name;
        let old_name = spec.old_name(name);
        let Some(old_class) = old_set.get(name) else { continue };
        let Some(new_class) = new_set.get(name) else { continue };
        let mut src = String::new();

        // Class transformer: copy same-name same-type statics declared on
        // this class.
        let _ = writeln!(src, "  static method {}(): void {{", class_transformer_name(name));
        for f in &new_class.static_fields {
            if old_class.find_static_field(&f.name).is_some_and(|of| of.ty == f.ty) {
                let _ = writeln!(src, "    {name}.{f} = {old_name}.{f};", f = f.name);
            }
        }
        src.push_str("  }\n");

        // Object transformer: copy same-name same-type instance fields
        // over the full flattened layout.
        let _ = writeln!(
            src,
            "  static method {}(to: {name}, from: {old_name}): void {{",
            object_transformer_name(name)
        );
        let old_fields = flattened_fields(old_set, name);
        for f in flattened_fields(new_set, name) {
            if old_fields.iter().any(|of| of.name == f.name && of.ty == f.ty) {
                let _ = writeln!(src, "    to.{f} = from.{f};", f = f.name);
            }
        }
        src.push_str("  }\n");
        out.push(TransformerMethods { class: name.clone(), source: src });
    }
    out
}

/// Assembles per-class transformer method sources into the complete
/// `JvolveTransformers` class source.
pub fn assemble_transformers_source<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut src = String::from("class JvolveTransformers {\n");
    for part in parts {
        src.push_str(part);
    }
    src.push_str("}\n");
    src
}

/// Generates the default `JvolveTransformers` MJ source for `spec`.
///
/// The developer may edit the returned source (e.g. the paper's Figure 3
/// customization for `User`) before the update is applied — or, through
/// the UPT, override individual classes' methods while keeping the
/// generated defaults for the rest (see
/// [`default_transformer_methods`]).
pub fn default_transformers_source(
    spec: &UpdateSpec,
    old_set: &ClassSet,
    new_set: &ClassSet,
) -> String {
    let parts = default_transformer_methods(spec, old_set, new_set);
    assemble_transformers_source(parts.iter().map(|p| p.source.as_str()))
}

/// Compiles a transformer source against the update's externs, in
/// access-override mode (the paper's modified-compiler path, §2.3).
///
/// # Errors
///
/// Propagates compile errors (e.g. from a hand-edited transformer).
pub fn compile_transformers(
    source: &str,
    spec: &UpdateSpec,
    old_set: &ClassSet,
    new_set: &ClassSet,
) -> Result<Vec<ClassFile>, jvolve_lang::CompileError> {
    let externs = transformer_externs(spec, old_set, new_set);
    jvolve_lang::compile_with(
        source,
        &jvolve_lang::CompileOptions { externs, override_access: true },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::prepare_spec;

    fn compile_set(src: &str) -> ClassSet {
        let mut set: ClassSet = jvolve_lang::compile(src).unwrap().into_iter().collect();
        for b in jvolve_lang::builtins::builtin_classes() {
            set.insert(b);
        }
        set
    }

    #[test]
    fn stub_is_fields_only_and_renamed() {
        let old = compile_set("class User { private final field name: String; method f(): void { } }");
        let new = compile_set("class User { private final field name: String; field age: int; }");
        let spec = prepare_spec(&old, &new, "v1_");
        let stubs = all_stubs(&spec, &old);
        assert_eq!(stubs.len(), 1);
        let stub = &stubs[0];
        assert_eq!(stub.name.as_str(), "v1_User");
        assert!(stub.methods.is_empty(), "all methods removed (paper §2.3)");
        assert_eq!(stub.fields.len(), 1);
    }

    #[test]
    fn default_object_transformer_copies_matching_fields() {
        let old = compile_set("class User { field name: String; field age: int; }");
        let new = compile_set(
            "class User { field name: String; field age: int; field score: int; }",
        );
        let spec = prepare_spec(&old, &new, "v1_");
        let src = default_transformers_source(&spec, &old, &new);
        assert!(src.contains("to.name = from.name;"), "{src}");
        assert!(src.contains("to.age = from.age;"), "{src}");
        assert!(!src.contains("to.score"), "new field stays default: {src}");
        // And it compiles in transformer mode.
        compile_transformers(&src, &spec, &old, &new).unwrap();
    }

    #[test]
    fn default_transformer_skips_type_changed_fields() {
        // The paper's default for forwardAddresses (type changed) is null.
        let old = compile_set("class User { field forwardAddresses: String[]; }");
        let new = compile_set(
            "class EmailAddress { }
             class User { field forwardAddresses: EmailAddress[]; }",
        );
        let spec = prepare_spec(&old, &new, "v131_");
        let src = default_transformers_source(&spec, &old, &new);
        assert!(!src.contains("forwardAddresses"), "{src}");
        compile_transformers(&src, &spec, &old, &new).unwrap();
    }

    #[test]
    fn class_transformer_copies_statics() {
        let old = compile_set("class C { static field count: int; }");
        let new = compile_set("class C { static field count: int; static field extra: int; }");
        let spec = prepare_spec(&old, &new, "v1_");
        let src = default_transformers_source(&spec, &old, &new);
        assert!(src.contains("C.count = v1_C.count;"), "{src}");
        assert!(!src.contains("extra"), "{src}");
        compile_transformers(&src, &spec, &old, &new).unwrap();
    }

    #[test]
    fn inherited_fields_are_copied_for_tainted_subclasses() {
        let old = compile_set(
            "class P { field a: int; field gone: int; }
             class C extends P { field c: int; }",
        );
        let new = compile_set(
            "class P { field a: int; }
             class C extends P { field c: int; }",
        );
        let spec = prepare_spec(&old, &new, "v1_");
        let src = default_transformers_source(&spec, &old, &new);
        // C's transformer copies both its own and the surviving inherited
        // field.
        assert!(src.contains("jvolve_object_C"), "{src}");
        assert!(src.contains("to.a = from.a;"), "{src}");
        assert!(src.contains("to.c = from.c;"), "{src}");
        assert!(!src.contains("to.gone"), "{src}");
        compile_transformers(&src, &spec, &old, &new).unwrap();
    }

    #[test]
    fn custom_transformer_like_paper_figure_3_compiles() {
        // Figure 3: the programmer replaces the default null with an
        // element-wise conversion of String[] to EmailAddress[].
        let old = compile_set(
            "class User {
               private final field username: String;
               private field forwardAddresses: String[];
             }",
        );
        let new = compile_set(
            "class EmailAddress {
               field username: String; field domain: String;
               ctor(u: String, d: String) { this.username = u; this.domain = d; }
             }
             class User {
               private final field username: String;
               private field forwardAddresses: EmailAddress[];
             }",
        );
        let spec = prepare_spec(&old, &new, "v131_");
        let custom = "
          class JvolveTransformers {
            static method jvolve_class_User(): void { }
            static method jvolve_object_User(to: User, from: v131_User): void {
              to.username = from.username;
              var len: int = from.forwardAddresses.length;
              to.forwardAddresses = new EmailAddress[len];
              var i: int = 0;
              while (i < len) {
                var parts: String[] = Str.split(from.forwardAddresses[i], \"@\");
                to.forwardAddresses[i] = new EmailAddress(parts[0], parts[1]);
                i = i + 1;
              }
            }
          }";
        let classes = compile_transformers(custom, &spec, &old, &new).unwrap();
        assert!(classes[0].flags.access_override);
    }

    #[test]
    fn transformer_names_are_stable() {
        let name = ClassName::from("User");
        assert_eq!(object_transformer_name(&name), "jvolve_object_User");
        assert_eq!(class_transformer_name(&name), "jvolve_class_User");
    }
}
