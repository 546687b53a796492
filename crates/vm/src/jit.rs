//! The (simulated) JIT: resolution, then fusion.
//!
//! [`compile`] resolves symbolic bytecode 1:1 into [`RInstr`]s, baking
//! field offsets, static slots, TIB slots, instance sizes, and
//! direct-call targets — the analogue of Jikes RVM's base-compiled
//! machine code. With the template JIT on it then fuses the stream into
//! superinstructions ([`crate::jit2`]) in the same call, so a method has
//! one compiled form from its first compile, and the fused-index →
//! bytecode-pc map keeps its frames OSR candidates (paper §3.2). Neither
//! step inlines: a frame running inlined code cannot be OSR-lifted (the
//! paper's §3.2 restriction), so the webserver's update waited on return
//! barriers while handlers ran the deleted opt tier's inlined code
//! (EXPERIMENTS.md, "PR 23"). Cross-method win comes from the leaf fast
//! path instead (at a call the interpreter runs a short callee made of
//! simple ops without pushing a frame — a [`CompiledMethod::leaf`]).

use std::sync::Arc;

use jvolve_classfile::bytecode::Instr;

use crate::compiled::{CompiledMethod, RInstr};
use crate::error::VmError;
use crate::ids::{ClassId, MethodId};
use crate::registry::Registry;

/// Compiles `mid`: resolves its bytecode and, if `fuse`, fuses the
/// resolved stream.
///
/// # Errors
///
/// Returns [`VmError::ResolutionError`] if a symbolic reference cannot be
/// resolved (impossible for verified code against a consistent registry —
/// but exactly what *would* happen if stale code ran against updated
/// metadata, hence the invalidation protocol).
pub fn compile(registry: &Registry, mid: MethodId, fuse: bool) -> Result<CompiledMethod, VmError> {
    let info = registry.method(mid);
    let def = &info.def;
    let code = def.code.as_ref().ok_or_else(|| VmError::ResolutionError {
        message: format!("method {} has no bytecode", info.name),
    })?;

    let (mut rcode, referenced_classes) = resolve_code(registry, &code.instrs)?;
    let mut base_pc = Vec::new();
    if fuse {
        let fusion = crate::jit2::fuse(&rcode);
        (rcode, base_pc) = (fusion.code, fusion.base_pc);
    }
    Ok(CompiledMethod {
        referenced_classes,
        base_pc,
        ..CompiledMethod::new(mid, rcode, code.max_locals)
    })
}

/// `found`, or the resolution error for a member the registry lacks.
fn member<T>(
    found: Option<T>,
    what: &str,
    class: &jvolve_classfile::ClassName,
    name: &str,
) -> Result<T, VmError> {
    found.ok_or_else(|| VmError::ResolutionError { message: format!("{what} {class}.{name}") })
}

/// Resolves a symbolic instruction sequence (1:1).
fn resolve_code(
    registry: &Registry,
    instrs: &[Instr],
) -> Result<(Vec<RInstr>, Vec<ClassId>), VmError> {
    let mut out = Vec::with_capacity(instrs.len());
    let mut referenced: Vec<ClassId> = Vec::new();
    // Resolves a class name, recording the class as referenced.
    let mut class_id = |name: &jvolve_classfile::ClassName| {
        let id = registry.class_id(name).ok_or_else(|| VmError::ResolutionError {
            message: format!("unknown class {name}"),
        })?;
        if !referenced.contains(&id) {
            referenced.push(id);
        }
        Ok::<ClassId, VmError>(id)
    };

    for instr in instrs {
        let r = match instr {
            Instr::ConstInt(v) => RInstr::ConstInt(*v),
            Instr::ConstBool(v) => RInstr::ConstBool(*v),
            Instr::ConstStr(s) => RInstr::ConstStr(Arc::from(s.as_str())),
            Instr::ConstNull => RInstr::ConstNull,
            Instr::Load(s) => RInstr::Load(*s),
            Instr::Store(s) => RInstr::Store(*s),
            Instr::Add => RInstr::Add,
            Instr::Sub => RInstr::Sub,
            Instr::Mul => RInstr::Mul,
            Instr::Div => RInstr::Div,
            Instr::Rem => RInstr::Rem,
            Instr::Neg => RInstr::Neg,
            Instr::CmpEq => RInstr::CmpEq,
            Instr::CmpNe => RInstr::CmpNe,
            Instr::CmpLt => RInstr::CmpLt,
            Instr::CmpLe => RInstr::CmpLe,
            Instr::CmpGt => RInstr::CmpGt,
            Instr::CmpGe => RInstr::CmpGe,
            Instr::Not => RInstr::Not,
            Instr::BoolEq => RInstr::BoolEq,
            Instr::RefEq => RInstr::RefEq,
            Instr::RefNe => RInstr::RefNe,
            Instr::StrConcat => RInstr::StrConcat,
            Instr::StrEq => RInstr::StrEq,
            Instr::New(name) => {
                let id = class_id(name)?;
                let size = registry.class(id).layout.len();
                RInstr::New { class: id, size: size as u16 }
            }
            Instr::GetField { class, field } => {
                let id = class_id(class)?;
                let (offset, is_ref) =
                    member(registry.field_offset(id, field), "unknown field", class, field)?;
                RInstr::GetField { offset, is_ref }
            }
            Instr::PutField { class, field } => {
                let id = class_id(class)?;
                let (offset, _) =
                    member(registry.field_offset(id, field), "unknown field", class, field)?;
                RInstr::PutField { offset }
            }
            Instr::GetStatic { class, field } => {
                let id = class_id(class)?;
                let (slot, is_ref) =
                    member(registry.static_slot(id, field), "unknown static field", class, field)?;
                RInstr::GetStatic { slot, is_ref }
            }
            Instr::PutStatic { class, field } => {
                let id = class_id(class)?;
                let (slot, _) =
                    member(registry.static_slot(id, field), "unknown static field", class, field)?;
                RInstr::PutStatic { slot }
            }
            Instr::NewArray(ty) => RInstr::NewArray { is_ref: ty.is_reference() },
            Instr::ALoad => RInstr::ALoad,
            Instr::AStore => RInstr::AStore,
            Instr::ArrayLen => RInstr::ArrayLen,
            Instr::CallVirtual { class, method, argc } => {
                let id = class_id(class)?;
                let vslot =
                    member(registry.vslot(id, method), "no virtual slot for", class, method)?;
                RInstr::CallVirtual { vslot, argc: *argc }
            }
            Instr::CallStatic { class, method, argc } => {
                let id = class_id(class)?;
                let target =
                    member(registry.find_method(id, method), "unknown method", class, method)?;
                match registry.method(target).native {
                    Some(native) => RInstr::CallNative { native, argc: *argc },
                    None => {
                        RInstr::CallDirect { method: target, argc: *argc, has_receiver: false }
                    }
                }
            }
            Instr::CallSpecial { class, method, argc } => {
                let id = class_id(class)?;
                let target =
                    member(registry.find_method(id, method), "unknown method", class, method)?;
                RInstr::CallDirect { method: target, argc: *argc, has_receiver: true }
            }
            Instr::Jump(t) => RInstr::Jump(*t),
            Instr::JumpIfTrue(t) => RInstr::JumpIfTrue(*t),
            Instr::JumpIfFalse(t) => RInstr::JumpIfFalse(*t),
            Instr::Return => RInstr::Return,
            Instr::ReturnValue => RInstr::ReturnValue,
            Instr::Pop => RInstr::Pop,
            Instr::Dup => RInstr::Dup,
        };
        out.push(r);
    }
    Ok((out, referenced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_classfile::ClassName;
    use jvolve_lang::builtins::builtin_classes;

    fn registry_with(src: &str) -> Registry {
        let mut r = Registry::new();
        r.load_batch(&builtin_classes()).unwrap();
        r.load_batch(&jvolve_lang::compile(src).unwrap()).unwrap();
        r
    }

    fn method_id(r: &Registry, class: &str, method: &str) -> MethodId {
        let cid = r.class_id(&ClassName::from(class)).unwrap();
        r.find_method(cid, method).unwrap()
    }

    #[test]
    fn baseline_is_one_to_one() {
        let r = registry_with(
            "class User { field name: String; field age: int;
               method getAge(): int { return this.age; } }",
        );
        let mid = method_id(&r, "User", "getAge");
        let c = compile(&r, mid, false).unwrap();
        let bytecode_len =
            r.method(mid).def.code.as_ref().unwrap().instrs.len();
        assert_eq!(c.code.len(), bytecode_len, "baseline must map 1:1 for OSR");
        // Offset baked: age is the second field.
        assert!(c.code.iter().any(|i| matches!(i, RInstr::GetField { offset: 1, is_ref: false })));
    }

    #[test]
    fn baseline_records_referenced_classes() {
        let r = registry_with(
            "class A { field x: int; }
             class T { static method f(a: A): int { return a.x; } }",
        );
        let mid = method_id(&r, "T", "f");
        let c = compile(&r, mid, false).unwrap();
        let a = r.class_id(&ClassName::from("A")).unwrap();
        assert!(c.referenced_classes.contains(&a));
    }

    #[test]
    fn native_calls_resolve_to_call_native() {
        let r = registry_with(
            "class T { static method f(): void { Sys.printInt(Str.len(\"ab\")); } }",
        );
        let mid = method_id(&r, "T", "f");
        let c = compile(&r, mid, false).unwrap();
        let natives = c.code.iter().filter(|i| matches!(i, RInstr::CallNative { .. })).count();
        assert_eq!(natives, 2);
    }

    #[test]
    fn fused_compile_maps_every_op_to_a_bytecode_pc() {
        let r = registry_with(
            "class A { field x: int; method id(): int { return this.x; } }
             class T {
               static method big(a: A, n: int): int {
                 var s: int = 0; var i: int = 0;
                 while (i < n) { s = s + a.id() + a.id(); i = i + 1; }
                 return s + T.big(a, 0);
               }
             }",
        );
        let mid = method_id(&r, "T", "big");
        let base = compile(&r, mid, false).unwrap();
        let c = compile(&r, mid, true).unwrap();
        assert!(c.code.iter().any(|op| op.covers() > 1), "loop body should fuse: {:?}", c.code);
        assert!(c.code.len() < base.code.len());
        assert_eq!(c.base_pc.len(), c.code.len());
        assert_eq!(c.referenced_classes, base.referenced_classes);
        // Every fused index maps to a bytecode pc inside the base stream,
        // and back.
        for pc in 0..c.code.len() as u32 {
            let b = c.base_pc_of(pc);
            assert!((b as usize) < base.code.len());
            assert_eq!(c.pc_of_base(b), Some(pc));
        }
        // The getter body fuses to a single leaf superinstruction.
        let id = method_id(&r, "A", "id");
        let g = compile(&r, id, true).unwrap();
        assert!(g.leaf, "getter should be a leaf: {:?}", g.code);
        assert!(matches!(g.code[..], [RInstr::FusedLoadGetFieldReturn { .. }]));
    }

    #[test]
    fn stale_code_detection_via_resolution_error() {
        // Resolving against a registry that lacks the class fails loudly.
        let r = registry_with("class T { static method f(): int { return 3; } }");
        let mid = method_id(&r, "T", "f");
        let mut info_def = r.method(mid).def.clone();
        Arc::make_mut(info_def.code.as_mut().unwrap()).instrs.insert(
            0,
            Instr::GetStatic { class: ClassName::from("Ghost"), field: "x".into() },
        );
        // Build a throwaway registry with the bad method.
        let mut r2 = Registry::new();
        r2.load_batch(&builtin_classes()).unwrap();
        r2.load_batch(&jvolve_lang::compile("class T { static method f(): int { return 3; } }")
            .unwrap())
            .unwrap();
        let t = r2.class_id(&ClassName::from("T")).unwrap();
        r2.replace_method_body(t, "f", info_def).unwrap();
        let mid2 = r2.find_method(t, "f").unwrap();
        let err = compile(&r2, mid2, false).unwrap_err();
        assert!(matches!(err, VmError::ResolutionError { .. }), "{err}");
    }
}
