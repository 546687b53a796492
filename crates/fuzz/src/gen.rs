//! Random structured inputs: class files for the codec family and update
//! specs for the JSON family.
//!
//! These are *structurally* random, not semantically valid — the codec
//! and the spec parser must handle any well-formed encoding regardless of
//! whether the class would verify or the spec would validate.

use std::sync::Arc;

use jvolve_classfile::bytecode::Instr;
use jvolve_classfile::{
    ClassFile, ClassFlags, ClassName, Code, FieldDef, MethodDef, MethodKind, MethodRef, Type,
    Visibility,
};
use jvolve::{ClassChangeKind, ClassDelta, UpdateSpec};

use crate::rng::Rng;

pub fn ty(rng: &mut Rng) -> Type {
    match rng.below(5) {
        0 => Type::Int,
        1 => Type::Bool,
        2 => Type::Class(ClassName::from(rng.class_name())),
        3 => Type::array(if rng.bool() { Type::Int } else { Type::Bool }),
        _ => Type::Void,
    }
}

fn visibility(rng: &mut Rng) -> Visibility {
    rng.pick(&[Visibility::Public, Visibility::Private, Visibility::Protected])
}

fn field(rng: &mut Rng) -> FieldDef {
    FieldDef {
        name: rng.ident(),
        ty: ty(rng),
        visibility: visibility(rng),
        is_final: rng.bool(),
    }
}

pub fn instr(rng: &mut Rng) -> Instr {
    let class = || ClassName::from("C");
    match rng.below(23) {
        0 => Instr::ConstInt(rng.i64()),
        1 => Instr::ConstBool(rng.bool()),
        2 => Instr::ConstStr(rng.ident()),
        3 => Instr::ConstNull,
        4 => Instr::Load(rng.below(8) as u16),
        5 => Instr::Store(rng.below(8) as u16),
        6 => rng.pick(&[Instr::Add, Instr::Sub, Instr::Mul, Instr::Div, Instr::Rem, Instr::Neg]),
        7 => rng.pick(&[
            Instr::CmpEq,
            Instr::CmpNe,
            Instr::CmpLt,
            Instr::CmpLe,
            Instr::CmpGt,
            Instr::CmpGe,
        ]),
        8 => rng.pick(&[Instr::Not, Instr::BoolEq, Instr::RefEq, Instr::RefNe]),
        9 => rng.pick(&[Instr::StrConcat, Instr::StrEq]),
        10 => Instr::New(ClassName::from(rng.class_name())),
        11 => Instr::GetField { class: class(), field: rng.ident() },
        12 => Instr::PutField { class: class(), field: rng.ident() },
        13 => Instr::GetStatic { class: class(), field: rng.ident() },
        14 => Instr::PutStatic { class: class(), field: rng.ident() },
        15 => Instr::NewArray(ty(rng)),
        16 => rng.pick(&[Instr::ALoad, Instr::AStore, Instr::ArrayLen]),
        17 => Instr::CallVirtual { class: class(), method: rng.ident(), argc: rng.byte() },
        18 => Instr::CallStatic { class: class(), method: rng.ident(), argc: rng.byte() },
        19 => Instr::CallSpecial { class: class(), method: rng.ident(), argc: rng.byte() },
        20 => {
            let target = rng.below(32) as u32;
            rng.pick(&[Instr::Jump(target), Instr::JumpIfTrue(target), Instr::JumpIfFalse(target)])
        }
        21 => rng.pick(&[Instr::Return, Instr::ReturnValue]),
        _ => rng.pick(&[Instr::Pop, Instr::Dup]),
    }
}

fn method(rng: &mut Rng) -> MethodDef {
    let code = if rng.bool() {
        Some(Arc::new(Code {
            instrs: (0..rng.below(10)).map(|_| instr(rng)).collect(),
            max_locals: rng.below(8) as u16,
        }))
    } else {
        None
    };
    MethodDef {
        name: rng.ident(),
        params: (0..rng.below(4)).map(|_| ty(rng)).collect(),
        ret: ty(rng),
        is_static: rng.bool(),
        visibility: visibility(rng),
        kind: rng.pick(&[MethodKind::Regular, MethodKind::Constructor, MethodKind::StaticInit]),
        code,
    }
}

/// A random class file: arbitrary members, arbitrary (unverified) code.
pub fn class_file(rng: &mut Rng) -> ClassFile {
    ClassFile {
        name: ClassName::from(rng.class_name()),
        superclass: if rng.bool() { Some(ClassName::from(rng.class_name())) } else { None },
        fields: (0..rng.below(4)).map(|_| field(rng)).collect(),
        static_fields: (0..rng.below(3)).map(|_| field(rng)).collect(),
        methods: (0..rng.below(4)).map(|_| method(rng)).collect(),
        flags: ClassFlags { access_override: rng.bool(), native: rng.bool() },
    }
}

fn idents(rng: &mut Rng, max: usize) -> Vec<String> {
    (0..rng.below(max + 1)).map(|_| rng.ident()).collect()
}

fn delta(rng: &mut Rng) -> ClassDelta {
    let kind =
        if rng.bool() { ClassChangeKind::ClassUpdate } else { ClassChangeKind::MethodBodyOnly };
    let mut d = ClassDelta::empty(ClassName::from(rng.class_name()), kind);
    d.fields_added = idents(rng, 3);
    d.fields_deleted = idents(rng, 3);
    d.fields_changed = idents(rng, 3);
    d.statics_added = idents(rng, 2);
    d.statics_deleted = idents(rng, 2);
    d.statics_changed = idents(rng, 2);
    d.methods_added = idents(rng, 3);
    d.methods_deleted = idents(rng, 3);
    d.methods_body_changed = idents(rng, 3);
    d.methods_sig_changed = idents(rng, 3);
    d.superclass_changed = rng.bool();
    d.inherited_only = rng.bool();
    d
}

/// A random (structurally well-formed) update specification.
pub fn update_spec(rng: &mut Rng) -> UpdateSpec {
    UpdateSpec {
        version_prefix: format!("v{}_", rng.below(1000)),
        changed: (0..rng.below(4)).map(|_| delta(rng)).collect(),
        added_classes: (0..rng.below(3)).map(|_| ClassName::from(rng.class_name())).collect(),
        deleted_classes: (0..rng.below(3)).map(|_| ClassName::from(rng.class_name())).collect(),
        indirect_methods: (0..rng.below(4))
            .map(|_| MethodRef::new(rng.class_name(), rng.ident()))
            .collect(),
    }
}
