//! Signature collection: AST class declarations → class-file headers.
//!
//! The first compiler phase converts every declared class into a
//! [`ClassFile`] whose methods have *empty bodies*, producing the resolution
//! context the code generator type-checks bodies against. Signature-level
//! errors (duplicate or reserved class names, unknown types, field
//! shadowing, missing super constructors) are reported here.

use std::collections::BTreeSet;
use std::sync::Arc;

use jvolve_classfile::class::{Code, MethodKind, CTOR_NAME};
use jvolve_classfile::{
    ClassFile, ClassFlags, ClassName, ClassResolver, ClassSet, FieldDef, MethodDef, Type,
    Visibility, OBJECT_CLASS,
};

use crate::ast::{ClassDecl, Program, TypeExpr, VisDecl};
use crate::builtins::is_builtin;
use crate::diag::{Diagnostic, Span};

/// Output of signature collection.
#[derive(Debug)]
pub struct Headers {
    /// Class-file headers for the program's own classes, in declaration
    /// order (bodies are placeholders; codegen fills them in).
    pub classes: Vec<ClassFile>,
    /// Full resolution context: builtins + externs + program headers.
    pub resolver: ClassSet,
}

/// Options controlling collection (shared with codegen).
#[derive(Debug, Clone, Default)]
pub struct CollectOptions {
    /// Extra classes visible during resolution but not compiled (old-class
    /// stubs when compiling transformer classes, or a previously compiled
    /// program version).
    pub externs: ClassSet,
    /// Compile with the transformer-class allowance (paper §2.3): access
    /// control and `final` are not enforced, and the produced classes carry
    /// [`ClassFlags::ACCESS_OVERRIDE`].
    pub override_access: bool,
}

/// Converts a source-level visibility to the class-file form.
pub fn lower_visibility(v: VisDecl) -> Visibility {
    match v {
        VisDecl::Public => Visibility::Public,
        VisDecl::Private => Visibility::Private,
        VisDecl::Protected => Visibility::Protected,
    }
}

/// Collects headers for all classes in `program`.
///
/// # Errors
///
/// Returns all signature-level diagnostics found.
pub fn collect(program: &Program, options: &CollectOptions) -> Result<Headers, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut resolver = ClassSet::new();
    for b in crate::builtins::builtin_classes() {
        resolver.insert(b);
    }
    for e in options.externs.iter() {
        resolver.insert(e.clone());
    }

    // First pass: register names so types can refer to later classes.
    let mut declared = BTreeSet::new();
    for class in &program.classes {
        if is_builtin(&class.name) {
            diags.push(Diagnostic::new(
                class.span,
                format!("class {} conflicts with a builtin class", class.name),
            ));
        } else if !declared.insert(class.name.clone()) {
            diags.push(Diagnostic::new(class.span, format!("duplicate class {}", class.name)));
        } else if options.externs.get(&ClassName::from(class.name.as_str())).is_some() {
            diags.push(Diagnostic::new(
                class.span,
                format!("class {} conflicts with an extern class", class.name),
            ));
        }
    }

    // Second pass: build headers.
    let mut headers = Vec::new();
    for class in &program.classes {
        match collect_class(class, &declared, &options.externs, options.override_access) {
            Ok(h) => headers.push(h),
            Err(mut e) => diags.append(&mut e),
        }
    }
    for h in &headers {
        resolver.insert(h.clone());
    }

    // Third pass: hierarchy checks that need all headers present.
    for class in &headers {
        hierarchy_checks(class, &resolver, &mut diags);
    }

    if diags.is_empty() {
        Ok(Headers { classes: headers, resolver })
    } else {
        Err(diags)
    }
}

fn collect_class(
    class: &ClassDecl,
    declared: &BTreeSet<String>,
    externs: &ClassSet,
    override_access: bool,
) -> Result<ClassFile, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let name = ClassName::from(class.name.as_str());

    let superclass = match &class.superclass {
        Some(sup) => {
            let known = declared.contains(sup)
                || is_builtin(sup)
                || externs.get(&ClassName::from(sup.as_str())).is_some();
            if !known {
                diags.push(Diagnostic::new(
                    class.span,
                    format!("unknown superclass {sup} of class {}", class.name),
                ));
            }
            Some(ClassName::from(sup.as_str()))
        }
        None => Some(ClassName::from(OBJECT_CLASS)),
    };

    let mut fields = Vec::new();
    let mut static_fields = Vec::new();
    for f in &class.fields {
        let ty = match lower_type(&f.ty, declared, externs, f.span) {
            Ok(t) => t,
            Err(d) => {
                diags.push(d);
                continue;
            }
        };
        if ty == Type::Void {
            diags.push(Diagnostic::new(f.span, format!("field {} cannot be void", f.name)));
            continue;
        }
        let def = FieldDef {
            name: f.name.clone(),
            ty,
            visibility: lower_visibility(f.visibility),
            is_final: f.is_final,
        };
        if f.is_static {
            static_fields.push(def);
        } else {
            fields.push(def);
        }
    }

    let mut methods = Vec::new();
    let mut saw_ctor = false;
    for m in &class.methods {
        if m.is_ctor {
            if saw_ctor {
                diags.push(Diagnostic::new(
                    m.span,
                    format!("class {} declares more than one constructor", class.name),
                ));
                continue;
            }
            saw_ctor = true;
        }
        let mut params = Vec::new();
        for p in &m.params {
            match lower_type(&p.ty, declared, externs, p.span) {
                Ok(Type::Void) => {
                    diags.push(Diagnostic::new(p.span, "parameter cannot be void"));
                }
                Ok(t) => params.push(t),
                Err(d) => diags.push(d),
            }
        }
        let ret = match lower_type(&m.ret, declared, externs, m.span) {
            Ok(t) => t,
            Err(d) => {
                diags.push(d);
                Type::Void
            }
        };
        methods.push(MethodDef {
            name: if m.is_ctor { CTOR_NAME.to_string() } else { m.name.clone() },
            params,
            ret,
            is_static: m.is_static,
            visibility: lower_visibility(m.visibility),
            kind: if m.is_ctor { MethodKind::Constructor } else { MethodKind::Regular },
            // Placeholder body; codegen replaces it.
            code: Some(Arc::new(Code { instrs: Vec::new(), max_locals: 0 })),
        });
    }

    // Synthesize a default constructor if none was declared, so `new C()`
    // works uniformly (codegen fills in the super call if needed).
    if !saw_ctor {
        methods.push(MethodDef {
            name: CTOR_NAME.to_string(),
            params: Vec::new(),
            ret: Type::Void,
            is_static: false,
            visibility: Visibility::Public,
            kind: MethodKind::Constructor,
            code: Some(Arc::new(Code { instrs: Vec::new(), max_locals: 0 })),
        });
    }

    if diags.is_empty() {
        Ok(ClassFile {
            name,
            superclass,
            fields,
            static_fields,
            methods,
            flags: if override_access { ClassFlags::ACCESS_OVERRIDE } else { ClassFlags::default() },
        })
    } else {
        Err(diags)
    }
}

fn hierarchy_checks(class: &ClassFile, resolver: &ClassSet, diags: &mut Vec<Diagnostic>) {
    // Field shadowing along the superclass chain is rejected: object layout
    // concatenates superclass fields with subclass fields, and unique names
    // keep transformer generation unambiguous.
    let Some(sup) = &class.superclass else { return };
    let mut cur = Some(sup.clone());
    let mut guard = 0;
    while let Some(name) = cur {
        guard += 1;
        if guard > 256 {
            diags.push(Diagnostic::new(
                Span::default(),
                format!("superclass chain of {} is cyclic", class.name),
            ));
            return;
        }
        let Some(c) = resolver.resolve(&name) else { return };
        for f in &class.fields {
            if c.find_field(&f.name).is_some() {
                diags.push(Diagnostic::new(
                    Span::default(),
                    format!("field {}.{} shadows a field of superclass {}", class.name, f.name, name),
                ));
            }
        }
        cur = c.superclass.clone();
    }
}

/// Lowers a syntactic type to a class-file type.
pub fn lower_type(
    ty: &TypeExpr,
    declared: &BTreeSet<String>,
    externs: &ClassSet,
    span: Span,
) -> Result<Type, Diagnostic> {
    Ok(match ty {
        TypeExpr::Int => Type::Int,
        TypeExpr::Bool => Type::Bool,
        TypeExpr::Void => Type::Void,
        TypeExpr::Named(name) => {
            let known = declared.contains(name)
                || is_builtin(name)
                || externs.get(&ClassName::from(name.as_str())).is_some();
            if !known {
                return Err(Diagnostic::new(span, format!("unknown type {name}")));
            }
            Type::Class(ClassName::from(name.as_str()))
        }
        TypeExpr::Array(elem) => Type::array(lower_type(elem, declared, externs, span)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn collect_src(src: &str) -> Result<Headers, Vec<Diagnostic>> {
        let program = parse(lex(src).unwrap()).unwrap();
        collect(&program, &CollectOptions::default())
    }

    #[test]
    fn collects_headers_with_default_ctor() {
        let h = collect_src("class A { field x: int; }").unwrap();
        assert_eq!(h.classes.len(), 1);
        let a = &h.classes[0];
        assert_eq!(a.fields.len(), 1);
        assert!(a.find_method(CTOR_NAME).is_some(), "default ctor synthesized");
        assert!(h.resolver.get(&ClassName::from("Sys")).is_some(), "builtins visible");
    }

    #[test]
    fn rejects_duplicate_class() {
        let errs = collect_src("class A { } class A { }").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("duplicate class")), "{errs:?}");
    }

    #[test]
    fn rejects_builtin_collision() {
        let errs = collect_src("class Sys { }").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("builtin")), "{errs:?}");
    }

    #[test]
    fn rejects_unknown_type() {
        let errs = collect_src("class A { field x: Missing; }").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("unknown type")), "{errs:?}");
    }

    #[test]
    fn rejects_unknown_superclass() {
        let errs = collect_src("class A extends Nope { }").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("unknown superclass")), "{errs:?}");
    }

    #[test]
    fn rejects_field_shadowing() {
        let errs =
            collect_src("class A { field x: int; } class B extends A { field x: int; }")
                .unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("shadows")), "{errs:?}");
    }

    #[test]
    fn rejects_two_ctors() {
        let errs = collect_src("class A { ctor() { } ctor() { } }").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("more than one constructor")), "{errs:?}");
    }

    #[test]
    fn forward_references_between_classes_work() {
        let h = collect_src("class A { field b: B; } class B { field a: A; }").unwrap();
        assert_eq!(h.classes.len(), 2);
    }

    #[test]
    fn externs_are_usable_as_types() {
        use jvolve_classfile::builder::ClassBuilder;
        let mut externs = ClassSet::new();
        externs.insert(ClassBuilder::new("v131_User").build());
        let program = parse(lex("class T { field u: v131_User; }").unwrap()).unwrap();
        let opts = CollectOptions { externs, override_access: false };
        collect(&program, &opts).unwrap();
    }
}
