//! Spec/payload cross-validation for untrusted updates.
//!
//! [`Update::prepare`] always produces a spec that matches its payload,
//! but the spec file is JSON and the payload is a classfile batch — both
//! can arrive from outside the process, be edited by hand, or be
//! corrupted in transit. The paper "relies on bytecode verification to
//! statically type-check updated classes" (§1); the dataflow verifier
//! covers each class file in isolation, but nothing used to check that
//! the *spec agrees with the payload*. A desynchronized pair is exactly
//! as dangerous as ill-typed bytecode: a `ClassUpdate` relabeled
//! `MethodBodyOnly` swaps in code compiled against a new layout while
//! instances keep the old one, and a dropped indirect method leaves
//! compiled code holding stale field offsets.
//!
//! Both checks run in the controller's `Pending` phase, before anything
//! touches the VM. [`validate_update`] re-derives the UPT diff from the
//! payload to confirm the spec's shape. [`check_transformer_signatures`]
//! takes the compiled transformer class and pins the
//! `jvolve_object_X(to, from)` / `jvolve_class_X()` calling conventions
//! the heap-transformation phase later relies on blindly.

use jvolve_classfile::{ClassFile, ClassName, Type};

use crate::diff::prepare_spec;
use crate::driver::Update;
use crate::error::UpdateError;
use crate::spec::ClassChangeKind;
use crate::transform::{class_transformer_name, object_transformer_name, TRANSFORMERS_CLASS};

fn bad(message: String) -> UpdateError {
    UpdateError::BadSpec { message }
}

/// Cross-checks an update's spec against its payload before the VM is
/// touched: every name resolves, no class is double-booked, the version
/// prefix cannot collide with a live class, and the spec's shape (change
/// kinds, changed-method lists, added/deleted sets, indirect closure)
/// agrees with a freshly recomputed diff of the payload.
///
/// # Errors
///
/// [`UpdateError::BadSpec`] naming the first offending class or method.
pub fn validate_update(update: &Update) -> Result<(), UpdateError> {
    let spec = &update.spec;
    if spec.version_prefix.is_empty() {
        return Err(bad("empty version prefix".into()));
    }

    for (i, d) in spec.changed.iter().enumerate() {
        if spec.changed[..i].iter().any(|e| e.name == d.name) {
            return Err(bad(format!("duplicate delta for class {}", d.name)));
        }
        if update.old_classes.get(&d.name).is_none() {
            return Err(bad(format!("changed class {} missing from the old version", d.name)));
        }
        if update.new_classes.get(&d.name).is_none() {
            return Err(bad(format!("updated class {} missing from the new version", d.name)));
        }
        if spec.added_classes.contains(&d.name) {
            return Err(bad(format!("class {} listed as both changed and added", d.name)));
        }
        if spec.deleted_classes.contains(&d.name) {
            return Err(bad(format!("class {} listed as both changed and deleted", d.name)));
        }
        let old_name = spec.old_name(&d.name);
        if update.old_classes.get(&old_name).is_some()
            || update.new_classes.get(&old_name).is_some()
        {
            return Err(bad(format!(
                "version prefix {} collides with existing class {old_name}",
                spec.version_prefix
            )));
        }
    }
    for name in &spec.added_classes {
        if update.new_classes.get(name).is_none() {
            return Err(bad(format!("added class {name} missing from the new version")));
        }
        if update.old_classes.get(name).is_some() {
            return Err(bad(format!("added class {name} already exists in the old version")));
        }
    }
    for name in &spec.deleted_classes {
        if update.old_classes.get(name).is_none() {
            return Err(bad(format!("deleted class {name} missing from the old version")));
        }
        if update.new_classes.get(name).is_some() {
            return Err(bad(format!("deleted class {name} still present in the new version")));
        }
    }
    for mref in &spec.indirect_methods {
        let class = update
            .old_classes
            .get(&mref.class)
            .ok_or_else(|| bad(format!("indirect method {mref} names an unknown class")))?;
        if class.find_method(&mref.method).is_none() {
            return Err(bad(format!("indirect method {mref} does not exist in the old version")));
        }
    }

    // Batch-shape check: re-derive the UPT diff from the payload and
    // require the spec to agree. A spec that *under*-reports (a missing
    // delta, a relabeled kind, a dropped changed-method or indirect
    // entry) would install code compiled against metadata the running
    // heap does not have.
    let expected = prepare_spec(&update.old_classes, &update.new_classes, &spec.version_prefix);
    for ed in &expected.changed {
        let Some(sd) = spec.changed.iter().find(|d| d.name == ed.name) else {
            return Err(bad(format!(
                "class {} differs between versions but the spec has no delta for it",
                ed.name
            )));
        };
        if sd.kind != ed.kind {
            return Err(match ed.kind {
                ClassChangeKind::ClassUpdate => bad(format!(
                    "class {}'s signature or layout changed but the spec labels it MethodBodyOnly",
                    ed.name
                )),
                ClassChangeKind::MethodBodyOnly => bad(format!(
                    "class {} has only method-body changes but the spec labels it ClassUpdate",
                    ed.name
                )),
            });
        }
        let mut listed = sd.methods_body_changed.clone();
        let mut actual = ed.methods_body_changed.clone();
        listed.sort();
        actual.sort();
        if listed != actual {
            return Err(bad(format!(
                "changed-method list for {} does not match the payload diff",
                ed.name
            )));
        }
    }
    for sd in &spec.changed {
        if !expected.changed.iter().any(|d| d.name == sd.name) {
            return Err(bad(format!(
                "spec has a delta for {} but the class is identical in both versions",
                sd.name
            )));
        }
    }
    if let Some(name) = set_difference(&spec.added_classes, &expected.added_classes) {
        return Err(bad(format!("spec lists {name} as added but the payload diff does not")));
    }
    if let Some(name) = set_difference(&expected.added_classes, &spec.added_classes) {
        return Err(bad(format!("class {name} is new in the payload but not listed as added")));
    }
    if let Some(name) = set_difference(&spec.deleted_classes, &expected.deleted_classes) {
        return Err(bad(format!("spec lists {name} as deleted but the payload diff does not")));
    }
    if let Some(name) = set_difference(&expected.deleted_classes, &spec.deleted_classes) {
        return Err(bad(format!("class {name} is gone from the payload but not listed as deleted")));
    }
    for mref in &expected.indirect_methods {
        if !spec.indirect_methods.contains(mref) {
            return Err(bad(format!(
                "indirect method {mref} missing from the spec (its compiled code would keep \
                 stale offsets)"
            )));
        }
    }
    Ok(())
}

/// First element of `a` not present in `b`.
fn set_difference<'a>(a: &'a [ClassName], b: &[ClassName]) -> Option<&'a ClassName> {
    a.iter().find(|n| !b.contains(n))
}

/// Pins the transformer calling conventions on the *compiled* transformer
/// class, before it is loaded: `jvolve_object_X` must be a static
/// `(X, <prefix>X) -> void` method and `jvolve_class_X`, when present,
/// a static `() -> void` method. The heap-transformation phase invokes
/// these with exactly those argument shapes and never rechecks.
///
/// # Errors
///
/// [`UpdateError::Compile`] when a required transformer is absent (the
/// long-standing contract for a forgotten transformer), or
/// [`UpdateError::BadTransformer`] when one exists with the wrong shape.
pub fn check_transformer_signatures(
    spec: &crate::spec::UpdateSpec,
    classes: &[ClassFile],
) -> Result<(), UpdateError> {
    let tclass = classes
        .iter()
        .find(|c| c.name.as_str() == TRANSFORMERS_CLASS)
        .ok_or_else(|| UpdateError::Compile("transformer class missing".into()))?;
    for delta in spec.class_updates() {
        let tname = object_transformer_name(&delta.name);
        let def = tclass.find_method(&tname).ok_or_else(|| {
            UpdateError::Compile(format!("transformer {tname} missing from source"))
        })?;
        let want: [Type; 2] =
            [Type::Class(delta.name.clone()), Type::Class(spec.old_name(&delta.name))];
        if !def.is_static || def.params != want || def.ret != Type::Void {
            return Err(UpdateError::BadTransformer {
                message: format!(
                    "{tname} must be a static ({}, {}) -> void method, found {}",
                    delta.name,
                    spec.old_name(&delta.name),
                    def.signature()
                ),
            });
        }
        let cname = class_transformer_name(&delta.name);
        if let Some(def) = tclass.find_method(&cname) {
            if !def.is_static || !def.params.is_empty() || def.ret != Type::Void {
                return Err(UpdateError::BadTransformer {
                    message: format!(
                        "{cname} must be a static () -> void method, found {}",
                        def.signature()
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Update;
    use crate::spec::ClassChangeKind;
    use crate::transform::compile_transformers;
    use jvolve_classfile::MethodRef;

    fn prepared(old_src: &str, new_src: &str) -> Update {
        let old = jvolve_lang::compile(old_src).unwrap();
        let new = jvolve_lang::compile(new_src).unwrap();
        Update::prepare(&old, &new, "v1_").unwrap()
    }

    fn base_update() -> Update {
        prepared(
            "class P { field a: int; method get(): int { return this.a; } }
             class Q { method use(p: P): int { return p.get(); } }",
            "class P { field a: int; field b: int; method get(): int { return this.a; } }
             class Q { method use(p: P): int { return p.get(); } }",
        )
    }

    #[test]
    fn prepared_updates_validate() {
        assert!(validate_update(&base_update()).is_ok());
    }

    #[test]
    fn missing_payload_class_is_rejected() {
        let mut u = base_update();
        u.new_classes.remove(&ClassName::from("P"));
        let err = validate_update(&u).unwrap_err();
        assert!(matches!(&err, UpdateError::BadSpec { message } if message.contains("P")), "{err}");
    }

    #[test]
    fn flipped_kind_is_rejected() {
        let mut u = base_update();
        let d = u.spec.changed.iter_mut().find(|d| d.name.as_str() == "P").unwrap();
        assert_eq!(d.kind, ClassChangeKind::ClassUpdate);
        d.kind = ClassChangeKind::MethodBodyOnly;
        let err = validate_update(&u).unwrap_err();
        assert!(
            matches!(&err, UpdateError::BadSpec { message } if message.contains("MethodBodyOnly")),
            "{err}"
        );
    }

    #[test]
    fn dropped_delta_is_rejected() {
        let mut u = base_update();
        u.spec.changed.retain(|d| d.name.as_str() != "P");
        let err = validate_update(&u).unwrap_err();
        assert!(matches!(&err, UpdateError::BadSpec { message } if message.contains("P")), "{err}");
    }

    #[test]
    fn dangling_indirect_method_is_rejected() {
        let mut u = base_update();
        u.spec.indirect_methods.push(MethodRef::new("Ghost", "haunt"));
        let err = validate_update(&u).unwrap_err();
        assert!(
            matches!(&err, UpdateError::BadSpec { message } if message.contains("Ghost")),
            "{err}"
        );
    }

    #[test]
    fn dropped_indirect_method_is_rejected() {
        let mut u = prepared(
            "class A { field x: int; }
             class B { method get(a: A): int { return a.x; } }",
            "class A { field pad: int; field x: int; }
             class B { method get(a: A): int { return a.x; } }",
        );
        assert!(!u.spec.indirect_methods.is_empty());
        u.spec.indirect_methods.clear();
        let err = validate_update(&u).unwrap_err();
        assert!(
            matches!(&err, UpdateError::BadSpec { message } if message.contains("B.get")),
            "{err}"
        );
    }

    #[test]
    fn prefix_collision_is_rejected() {
        let old = jvolve_lang::compile(
            "class v1_P { } class P { field a: int; }",
        )
        .unwrap();
        let new = jvolve_lang::compile(
            "class v1_P { } class P { field a: int; field b: int; }",
        )
        .unwrap();
        let u = Update::prepare(&old, &new, "v1_").unwrap();
        let err = validate_update(&u).unwrap_err();
        assert!(
            matches!(&err, UpdateError::BadSpec { message } if message.contains("v1_P")),
            "{err}"
        );
    }

    #[test]
    fn retyped_object_transformer_is_rejected() {
        let u = base_update();
        // Wrong `from` type: takes the *new* P twice.
        let src = "class JvolveTransformers {
            static method jvolve_object_P(to: P, from: P): void { to.a = from.a; }
        }";
        let classes =
            compile_transformers(src, &u.spec, &u.old_classes, &u.new_classes).unwrap();
        let err = check_transformer_signatures(&u.spec, &classes).unwrap_err();
        assert!(
            matches!(&err, UpdateError::BadTransformer { message } if message.contains("jvolve_object_P")),
            "{err}"
        );
    }

    #[test]
    fn nonstatic_class_transformer_is_rejected() {
        let u = base_update();
        let src = "class JvolveTransformers {
            static method jvolve_object_P(to: P, from: v1_P): void { to.a = from.a; }
            method jvolve_class_P(): void { }
        }";
        let classes =
            compile_transformers(src, &u.spec, &u.old_classes, &u.new_classes).unwrap();
        let err = check_transformer_signatures(&u.spec, &classes).unwrap_err();
        assert!(matches!(err, UpdateError::BadTransformer { .. }), "{err}");
    }

    #[test]
    fn missing_object_transformer_stays_a_compile_error() {
        let u = base_update();
        let classes = compile_transformers(
            "class JvolveTransformers { }",
            &u.spec,
            &u.old_classes,
            &u.new_classes,
        )
        .unwrap();
        let err = check_transformer_signatures(&u.spec, &classes).unwrap_err();
        assert!(matches!(err, UpdateError::Compile(_)), "{err}");
    }

    #[test]
    fn default_transformers_pass_the_signature_check() {
        let u = base_update();
        let classes = compile_transformers(
            u.transformers_source(),
            &u.spec,
            &u.old_classes,
            &u.new_classes,
        )
        .unwrap();
        check_transformer_signatures(&u.spec, &classes).unwrap();
    }
}
