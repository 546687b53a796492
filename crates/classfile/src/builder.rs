//! Fluent construction of class files, mainly for tests and generated code.
//!
//! The MJ compiler in `jvolve-lang` produces class files directly; these
//! builders exist so VM and DSU tests can assemble precise bytecode without
//! going through the frontend.

use std::sync::Arc;

use crate::bytecode::{Instr, Pc};
use crate::class::{
    ClassFile, ClassFlags, Code, FieldDef, MethodDef, MethodKind, Visibility, CTOR_NAME,
};
use crate::name::ClassName;
use crate::ty::Type;
use crate::OBJECT_CLASS;

/// Builds a [`ClassFile`].
///
/// # Example
///
/// ```
/// use jvolve_classfile::builder::ClassBuilder;
/// use jvolve_classfile::bytecode::Instr;
/// use jvolve_classfile::Type;
///
/// let class = ClassBuilder::new("Pair")
///     .field("a", Type::Int)
///     .field("b", Type::Int)
///     .static_method("zero", [], Type::Int, |m| {
///         m.instr(Instr::ConstInt(0)).instr(Instr::ReturnValue);
///     })
///     .build();
/// assert_eq!(class.fields.len(), 2);
/// ```
#[derive(Debug)]
pub struct ClassBuilder {
    class: ClassFile,
}

impl ClassBuilder {
    /// Starts a class extending `Object`.
    pub fn new(name: impl Into<ClassName>) -> Self {
        let name = name.into();
        let superclass =
            if name.as_str() == OBJECT_CLASS { None } else { Some(ClassName::from(OBJECT_CLASS)) };
        ClassBuilder {
            class: ClassFile {
                name,
                superclass,
                fields: Vec::new(),
                static_fields: Vec::new(),
                methods: Vec::new(),
                flags: ClassFlags::default(),
            },
        }
    }

    /// Sets the superclass.
    pub fn extends(mut self, superclass: impl Into<ClassName>) -> Self {
        self.class.superclass = Some(superclass.into());
        self
    }

    /// Sets class flags.
    pub fn flags(mut self, flags: ClassFlags) -> Self {
        self.class.flags = flags;
        self
    }

    /// Adds a public instance field.
    pub fn field(mut self, name: impl Into<String>, ty: Type) -> Self {
        self.class.fields.push(FieldDef::new(name, ty));
        self
    }

    /// Adds an instance field with explicit visibility/finality.
    pub fn field_full(
        mut self,
        name: impl Into<String>,
        ty: Type,
        visibility: Visibility,
        is_final: bool,
    ) -> Self {
        self.class.fields.push(FieldDef { name: name.into(), ty, visibility, is_final });
        self
    }

    /// Adds a public static field.
    pub fn static_field(mut self, name: impl Into<String>, ty: Type) -> Self {
        self.class.static_fields.push(FieldDef::new(name, ty));
        self
    }

    /// Adds a public instance method whose body is emitted by `f`.
    pub fn method(
        self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = Type>,
        ret: Type,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> Self {
        self.method_full(name, params, ret, false, MethodKind::Regular, f)
    }

    /// Adds a public static method whose body is emitted by `f`.
    pub fn static_method(
        self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = Type>,
        ret: Type,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> Self {
        self.method_full(name, params, ret, true, MethodKind::Regular, f)
    }

    /// Adds a constructor (`<init>`).
    pub fn constructor(
        self,
        params: impl IntoIterator<Item = Type>,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> Self {
        self.method_full(CTOR_NAME, params, Type::Void, false, MethodKind::Constructor, f)
    }

    /// Adds a method with full control over staticness and kind.
    pub fn method_full(
        mut self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = Type>,
        ret: Type,
        is_static: bool,
        kind: MethodKind,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> Self {
        let params: Vec<Type> = params.into_iter().collect();
        let reserved = params.len() as u16 + u16::from(!is_static);
        let mut mb = MethodBuilder { instrs: Vec::new(), max_locals: reserved };
        f(&mut mb);
        self.class.methods.push(MethodDef {
            name: name.into(),
            params,
            ret,
            is_static,
            visibility: Visibility::Public,
            kind,
            code: Some(Arc::new(Code { instrs: mb.instrs, max_locals: mb.max_locals })),
        });
        self
    }

    /// Adds a native (bodyless) method; only valid on classes that will be
    /// flagged [`ClassFlags::NATIVE`].
    pub fn native_method(
        mut self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = Type>,
        ret: Type,
        is_static: bool,
    ) -> Self {
        self.class.methods.push(MethodDef {
            name: name.into(),
            params: params.into_iter().collect(),
            ret,
            is_static,
            visibility: Visibility::Public,
            kind: MethodKind::Regular,
            code: None,
        });
        self
    }

    /// Finishes the class.
    pub fn build(self) -> ClassFile {
        self.class
    }
}

/// Accumulates a method body; returned positions support back-patching
/// forward branches.
#[derive(Debug)]
pub struct MethodBuilder {
    instrs: Vec<Instr>,
    max_locals: u16,
}

impl MethodBuilder {
    /// Appends one instruction.
    pub fn instr(&mut self, i: Instr) -> &mut Self {
        if let Instr::Store(slot) | Instr::Load(slot) = i {
            self.max_locals = self.max_locals.max(slot + 1);
        }
        self.instrs.push(i);
        self
    }

    /// Appends many instructions.
    pub fn instrs(&mut self, is: impl IntoIterator<Item = Instr>) -> &mut Self {
        for i in is {
            self.instr(i);
        }
        self
    }

    /// Current instruction index; use as a branch target for back-edges.
    pub fn here(&self) -> Pc {
        self.instrs.len() as Pc
    }

    /// Emits a placeholder branch and returns its index for later patching.
    pub fn emit_forward(&mut self, template: Instr) -> usize {
        let at = self.instrs.len();
        self.instrs.push(template);
        at
    }

    /// Patches the branch at `at` (emitted by [`Self::emit_forward`]) to
    /// target the current position.
    ///
    /// # Panics
    ///
    /// Panics if the instruction at `at` is not a branch.
    pub fn patch_to_here(&mut self, at: usize) {
        let target = self.here();
        match &mut self.instrs[at] {
            Instr::Jump(t) | Instr::JumpIfTrue(t) | Instr::JumpIfFalse(t) => *t = target,
            other => panic!("patch_to_here: instruction at {at} is not a branch: {other:?}"),
        }
    }

    /// Reserves local slots up to `n`.
    pub fn locals(&mut self, n: u16) -> &mut Self {
        self.max_locals = self.max_locals.max(n);
        self
    }
}

/// Builds the root `Object` class (no fields, no methods).
pub fn object_class() -> ClassFile {
    ClassBuilder::new(OBJECT_CLASS).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_locals() {
        let class = ClassBuilder::new("T")
            .static_method("f", [Type::Int], Type::Int, |m| {
                m.instr(Instr::Load(0))
                    .instr(Instr::Store(5))
                    .instr(Instr::Load(5))
                    .instr(Instr::ReturnValue);
            })
            .build();
        let code = class.find_method("f").unwrap().code.as_ref().unwrap();
        assert_eq!(code.max_locals, 6);
    }

    #[test]
    fn forward_branch_patching() {
        let class = ClassBuilder::new("T")
            .static_method("f", [Type::Bool], Type::Int, |m| {
                m.instr(Instr::Load(0));
                let j = m.emit_forward(Instr::JumpIfFalse(0));
                m.instr(Instr::ConstInt(1)).instr(Instr::ReturnValue);
                m.patch_to_here(j);
                m.instr(Instr::ConstInt(0)).instr(Instr::ReturnValue);
            })
            .build();
        let code = class.find_method("f").unwrap().code.as_ref().unwrap();
        assert_eq!(code.instrs[1], Instr::JumpIfFalse(4));
    }

    #[test]
    fn object_class_is_root() {
        assert!(object_class().is_root());
    }

    #[test]
    #[should_panic(expected = "not a branch")]
    fn patching_non_branch_panics() {
        ClassBuilder::new("T").static_method("f", [], Type::Void, |m| {
            let at = m.emit_forward(Instr::Pop);
            m.patch_to_here(at);
        });
    }
}
