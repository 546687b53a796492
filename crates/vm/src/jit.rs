//! The (simulated) JIT: baseline and template compilers.
//!
//! The **baseline compiler** resolves symbolic bytecode 1:1 into
//! [`RInstr`]s, baking field offsets, static slots, TIB slots, instance
//! sizes, and direct-call targets — the analogue of Jikes RVM's
//! base-compiled machine code. Because the mapping is 1:1, the pc and
//! locals of a base-compiled frame transfer directly to a recompilation
//! (OSR, paper §3.2).
//!
//! The **template JIT** ([`CompileLevel::Jit`]) resolves 1:1 like the
//! baseline and then peephole-fuses the stream into superinstructions
//! ([`crate::jit2`]), keeping a fused-index → base-pc map, so its frames
//! are OSR candidates too. Neither compiler inlines: a frame running
//! inlined code cannot be OSR-lifted (the paper's §3.2 restriction), so
//! the webserver's update waited on return barriers while handlers ran
//! the deleted opt tier's inlined code (EXPERIMENTS.md, "PR 23").
//! Cross-method win comes from the leaf fast path instead (at an
//! inline-cache hit the interpreter runs a short callee made of simple
//! ops without pushing a frame — either tier's code can be such a
//! [`CompiledMethod::leaf`]).

use std::sync::Arc;

use jvolve_classfile::bytecode::Instr;

use crate::compiled::{CompileLevel, CompiledMethod, RInstr};
use crate::error::VmError;
use crate::ids::{ClassId, MethodId};
use crate::registry::Registry;

/// Compiles `mid` at the requested tier.
///
/// # Errors
///
/// Returns [`VmError::ResolutionError`] if a symbolic reference cannot be
/// resolved (impossible for verified code against a consistent registry —
/// but exactly what *would* happen if stale code ran against updated
/// metadata, hence the invalidation protocol).
pub fn compile(
    registry: &Registry,
    mid: MethodId,
    level: CompileLevel,
) -> Result<CompiledMethod, VmError> {
    let info = registry.method(mid);
    let def = &info.def;
    let code = def.code.as_ref().ok_or_else(|| VmError::ResolutionError {
        message: format!("method {} has no bytecode", info.name),
    })?;

    let max_locals = code.max_locals;
    let (mut rcode, referenced) = resolve_code(registry, &code.instrs)?;
    let call_sites = assign_call_sites(&mut rcode);
    let base = CompiledMethod {
        referenced_classes: referenced,
        ..CompiledMethod::new(mid, CompileLevel::Base, rcode, max_locals, call_sites)
    };
    if level == CompileLevel::Base {
        return Ok(base);
    }
    // The template JIT fuses the 1:1 stream (the call sites were numbered
    // over it; fusion preserves call ops and their order, so the ids stay
    // dense). The fused stream *is* the method body; the base body is
    // retained in the fusion metadata as the deopt target — swapping a
    // frame onto it at the mapped pc is exact and semantically a no-op.
    let fusion = crate::jit2::fuse(&base.code);
    let referenced_classes = base.referenced_classes.clone();
    let base = Arc::new(base);
    Ok(CompiledMethod {
        referenced_classes,
        fused: Some(Arc::new(crate::jit2::FusedCode {
            base,
            base_pc: fusion.base_pc,
            valid_epoch: std::sync::atomic::AtomicU64::new(registry.code_epoch()),
        })),
        ..CompiledMethod::new(mid, level, fusion.code, max_locals, call_sites)
    })
}

/// Numbers every call site sequentially over the resolved instruction
/// sequence, returning the count. The interpreter's per-thread
/// inline-cache rows are indexed by these ids, so they must be dense and
/// code-relative.
fn assign_call_sites(code: &mut [RInstr]) -> u32 {
    let mut next = 0u32;
    for instr in code {
        match instr {
            RInstr::CallVirtual { site, .. } | RInstr::CallDirect { site, .. } => {
                *site = next;
                next += 1;
            }
            _ => {}
        }
    }
    next
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
                RInstr::CallVirtual { vslot, argc: *argc, site: 0 }
            }
            Instr::CallStatic { class, method, argc } => {
                let id = class_id(class)?;
                let target =
                    member(registry.find_method(id, method), "unknown method", class, method)?;
                match registry.method(target).native {
                    Some(native) => RInstr::CallNative { native, argc: *argc },
                    None => RInstr::CallDirect {
                        method: target,
                        argc: *argc,
                        has_receiver: false,
                        site: 0,
                    },
                }
            }
            Instr::CallSpecial { class, method, argc } => {
                let id = class_id(class)?;
                let target =
                    member(registry.find_method(id, method), "unknown method", class, method)?;
                RInstr::CallDirect { method: target, argc: *argc, has_receiver: true, site: 0 }
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
        let c = compile(&r, mid, CompileLevel::Base).unwrap();
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
        let c = compile(&r, mid, CompileLevel::Base).unwrap();
        let a = r.class_id(&ClassName::from("A")).unwrap();
        assert!(c.referenced_classes.contains(&a));
    }

    #[test]
    fn native_calls_resolve_to_call_native() {
        let r = registry_with(
            "class T { static method f(): void { Sys.printInt(Str.len(\"ab\")); } }",
        );
        let mid = method_id(&r, "T", "f");
        let c = compile(&r, mid, CompileLevel::Base).unwrap();
        let natives = c.code.iter().filter(|i| matches!(i, RInstr::CallNative { .. })).count();
        assert_eq!(natives, 2);
    }

    #[test]
    fn call_sites_are_dense_and_counted() {
        let r = registry_with(
            "class A { method id(): int { return 1; } }
             class T {
               static method big(a: A, n: int): int {
                 var s: int = 0; var i: int = 0;
                 while (i < n) { s = s + a.id() + a.id(); i = i + 1; }
                 return s + T.big(a, 0);
               }
             }",
        );
        let mid = method_id(&r, "T", "big");
        let c = compile(&r, mid, CompileLevel::Base).unwrap();
        let sites: Vec<u32> = c
            .code
            .iter()
            .filter_map(|i| match i {
                RInstr::CallVirtual { site, .. } | RInstr::CallDirect { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        let expect: Vec<u32> = (0..c.call_sites).collect();
        assert_eq!(sites, expect, "sites dense in code order");
        assert_eq!(c.call_sites, 3, "two virtual + one recursive direct call");
    }

    #[test]
    fn jit_tier_fuses_and_keeps_call_sites_dense() {
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
        let c = compile(&r, mid, CompileLevel::Jit).unwrap();
        let meta = c.fused.as_ref().expect("jit code carries fusion metadata");
        assert!(c.code.iter().any(|op| op.covers() > 1), "loop body should fuse: {:?}", c.code);
        assert!(c.code.len() < meta.base.code.len());
        assert_eq!(meta.base.level, CompileLevel::Base);
        assert_eq!(meta.base.call_sites, c.call_sites);
        // Call sites stay dense in fused-code order (fusion preserves
        // call ops), so the per-thread inline-cache rows still fit.
        let sites: Vec<u32> = c
            .code
            .iter()
            .filter_map(|i| match i {
                RInstr::CallVirtual { site, .. }
                | RInstr::CallDirect { site, .. }
                | RInstr::FusedLoadCallVirtual { site, .. }
                | RInstr::FusedLoadCallDirect { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        let expect: Vec<u32> = (0..c.call_sites).collect();
        assert_eq!(sites, expect, "sites dense in fused order: {:?}", c.code);
        // Every fused index maps to a base pc inside the base stream.
        for (pc, _) in c.code.iter().enumerate() {
            assert!((c.base_pc_of(pc as u32) as usize) < meta.base.code.len());
        }
        // The getter body fuses to a single leaf superinstruction.
        let id = method_id(&r, "A", "id");
        let g = compile(&r, id, CompileLevel::Jit).unwrap();
        assert!(g.leaf, "getter should be a leaf: {:?}", g.code);
        assert!(matches!(g.code[..], [RInstr::FusedLoadGetFieldReturn { .. }]));
    }

    #[test]
    fn stale_code_detection_via_resolution_error() {
        // Resolving against a registry that lacks the class fails loudly.
        let r = registry_with("class T { static method f(): int { return 3; } }");
        let mid = method_id(&r, "T", "f");
        let mut info_def = r.method(mid).def.clone();
        info_def.code.as_mut().unwrap().instrs.insert(
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
        let err = compile(&r2, mid2, CompileLevel::Base).unwrap_err();
        assert!(matches!(err, VmError::ResolutionError { .. }), "{err}");
    }
}
