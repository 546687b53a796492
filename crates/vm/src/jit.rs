//! The (simulated) JIT: baseline, optimizing, and template compilers.
//!
//! The **baseline compiler** resolves symbolic bytecode 1:1 into
//! [`RInstr`]s, baking field offsets, static slots, TIB slots, instance
//! sizes, and direct-call targets — the analogue of Jikes RVM's
//! base-compiled machine code. Because the mapping is 1:1, base-compiled
//! frames are OSR-capable: the pc and locals transfer directly to a
//! recompilation (paper §3.2).
//!
//! The **optimizing compiler** additionally inlines small statically-bound
//! callees (static methods, constructors, `super` calls) up to a depth
//! limit, recording every inlined method so the DSU restricted-set
//! analysis can extend restrictions to inlining callers (paper §3.2).
//!
//! The **template JIT** ([`CompileLevel::Jit`]) resolves 1:1 like the
//! baseline and then peephole-fuses the stream into superinstructions
//! ([`crate::jit2`]). It deliberately does *not* inline: fused frames must
//! deopt back to plain base code mid-method when an update invalidates
//! them, and the fused-index → base-pc mapping is only exact when the
//! underlying stream is the 1:1 one. Cross-method win comes from the leaf
//! fast path instead (at an inline-cache hit the interpreter runs a short
//! callee made of simple ops without pushing a frame — any tier's code
//! can be such a [`CompiledMethod::leaf`]).

use std::sync::Arc;

use jvolve_classfile::bytecode::Instr;

use crate::compiled::{CompileLevel, CompiledMethod, RInstr};
use crate::config::VmConfig;
use crate::error::VmError;
use crate::ids::{ClassId, MethodId};
use crate::registry::Registry;

/// Maximum callee bytecode length the optimizing tier inlines.
const INLINE_MAX_LEN: usize = 24;
/// Maximum inlining depth.
const INLINE_MAX_DEPTH: usize = 3;

/// Compiles `mid` at the requested tier. No tier reads the VM's
/// configuration today: the inliner's limits are `INLINE_MAX_LEN` and
/// `INLINE_MAX_DEPTH`.
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
    _config: &VmConfig,
) -> Result<CompiledMethod, VmError> {
    let info = registry.method(mid);
    let def = &info.def;
    let code = def.code.as_ref().ok_or_else(|| VmError::ResolutionError {
        message: format!("method {} has no bytecode", info.name),
    })?;

    // Opt expands inline candidates over the symbolic bytecode first; the
    // other two tiers resolve the method's own instructions 1:1.
    let mut max_locals = code.max_locals;
    let mut inlined = Vec::new();
    let expanded;
    let instrs = if level == CompileLevel::Opt {
        let mut chain = vec![mid];
        expanded = expand(registry, &code.instrs, 0, &mut chain, &mut inlined, &mut max_locals, 0);
        &expanded
    } else {
        &code.instrs
    };
    let (mut rcode, referenced) = resolve_code(registry, instrs)?;
    let call_sites = assign_call_sites(&mut rcode);
    let resolved = CompiledMethod {
        inlined,
        referenced_classes: referenced,
        ..CompiledMethod::new(mid, level, rcode, max_locals, call_sites)
    };
    if level != CompileLevel::Jit {
        return Ok(resolved);
    }
    // The template JIT fuses the 1:1 stream (the call sites were numbered
    // over it; fusion preserves call ops and their order, so the ids stay
    // dense). The fused stream *is* the method body; the base body is
    // retained in the fusion metadata as the deopt target — swapping a
    // frame onto it at the mapped pc is exact and semantically a no-op.
    let fusion = crate::jit2::fuse(&resolved.code);
    let referenced_classes = resolved.referenced_classes.clone();
    let base = Arc::new(CompiledMethod { level: CompileLevel::Base, ..resolved });
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

/// Numbers every call site sequentially over the *final* instruction
/// sequence (after inlining dropped or duplicated symbolic call sites),
/// returning the count. The interpreter's per-thread inline-cache rows
/// are indexed by these ids, so they must be dense and code-relative.
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

/// Inline expansion over symbolic bytecode.
///
/// Returns a self-contained instruction sequence (branch targets within
/// `[0, len]`) whose `Load`/`Store` slots are already shifted by `shift`
/// (0 for the outermost method; an inline site's local-window base for
/// recursively expanded callees — nested inline windows are allocated
/// from the shared `next_local` counter and must not be shifted again).
#[allow(clippy::too_many_arguments)]
fn expand(
    registry: &Registry,
    instrs: &[Instr],
    depth: usize,
    chain: &mut Vec<MethodId>,
    inlined: &mut Vec<MethodId>,
    next_local: &mut u16,
    shift: u16,
) -> Vec<Instr> {
    let mut out: Vec<Instr> = Vec::with_capacity(instrs.len());
    let mut map: Vec<u32> = Vec::with_capacity(instrs.len() + 1);
    // (out index, original target) pairs for the caller's own branches.
    let mut fixups: Vec<(usize, u32)> = Vec::new();

    for instr in instrs {
        map.push(out.len() as u32);
        match instr {
            Instr::CallStatic { class, method, argc }
            | Instr::CallSpecial { class, method, argc } => {
                let has_receiver = matches!(instr, Instr::CallSpecial { .. });
                if let Some(target) = inline_candidate(registry, class, method, depth, chain) {
                    let callee = registry.method(target);
                    let callee_code = callee.def.code.as_ref().expect("candidate has code");
                    let base = *next_local;
                    *next_local += callee_code.max_locals;
                    inlined.push(target);
                    chain.push(target);
                    let mut body = expand(
                        registry,
                        &callee_code.instrs,
                        depth + 1,
                        chain,
                        inlined,
                        next_local,
                        base,
                    );
                    chain.pop();

                    // Returns become jumps past the inlined block.
                    let body_len = body.len() as u32;
                    for b in &mut body {
                        match b {
                            Instr::Return | Instr::ReturnValue => *b = Instr::Jump(body_len),
                            _ => {}
                        }
                    }

                    // Prologue: pop receiver+args into the fresh local window.
                    let arity = *argc as u16 + u16::from(has_receiver);
                    for i in (0..arity).rev() {
                        out.push(Instr::Store(base + i));
                    }
                    // Splice body, rebasing only branch targets (locals are
                    // already absolute).
                    let start = out.len() as u32;
                    for mut b in body {
                        match &mut b {
                            Instr::Jump(t) | Instr::JumpIfTrue(t) | Instr::JumpIfFalse(t) => {
                                *t += start;
                            }
                            _ => {}
                        }
                        out.push(b);
                    }
                } else {
                    out.push(instr.clone());
                }
            }
            Instr::Load(s) => out.push(Instr::Load(*s + shift)),
            Instr::Store(s) => out.push(Instr::Store(*s + shift)),
            Instr::Jump(t) | Instr::JumpIfTrue(t) | Instr::JumpIfFalse(t) => {
                fixups.push((out.len(), *t));
                out.push(instr.clone());
            }
            other => out.push(other.clone()),
        }
    }
    map.push(out.len() as u32);

    for (at, old_target) in fixups {
        let new_target = map[old_target as usize];
        match &mut out[at] {
            Instr::Jump(t) | Instr::JumpIfTrue(t) | Instr::JumpIfFalse(t) => *t = new_target,
            _ => unreachable!("fixup records only branches"),
        }
    }
    out
}

fn inline_candidate(
    registry: &Registry,
    class: &jvolve_classfile::ClassName,
    method: &str,
    depth: usize,
    chain: &[MethodId],
) -> Option<MethodId> {
    if depth >= INLINE_MAX_DEPTH {
        return None;
    }
    let cid = registry.class_id(class)?;
    let target = registry.find_method(cid, method)?;
    let info = registry.method(target);
    if info.native.is_some() || chain.contains(&target) {
        return None;
    }
    let code = info.def.code.as_ref()?;
    (code.instrs.len() <= INLINE_MAX_LEN).then_some(target)
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
        let c = compile(&r, mid, CompileLevel::Base, &VmConfig::default()).unwrap();
        let bytecode_len =
            r.method(mid).def.code.as_ref().unwrap().instrs.len();
        assert_eq!(c.code.len(), bytecode_len, "baseline must map 1:1 for OSR");
        // Offset baked: age is the second field.
        assert!(c.code.iter().any(|i| matches!(i, RInstr::GetField { offset: 1, is_ref: false })));
        assert!(c.osr_capable());
    }

    #[test]
    fn baseline_records_referenced_classes() {
        let r = registry_with(
            "class A { field x: int; }
             class T { static method f(a: A): int { return a.x; } }",
        );
        let mid = method_id(&r, "T", "f");
        let c = compile(&r, mid, CompileLevel::Base, &VmConfig::default()).unwrap();
        let a = r.class_id(&ClassName::from("A")).unwrap();
        assert!(c.referenced_classes.contains(&a));
    }

    #[test]
    fn native_calls_resolve_to_call_native() {
        let r = registry_with(
            "class T { static method f(): void { Sys.printInt(Str.len(\"ab\")); } }",
        );
        let mid = method_id(&r, "T", "f");
        let c = compile(&r, mid, CompileLevel::Base, &VmConfig::default()).unwrap();
        let natives = c.code.iter().filter(|i| matches!(i, RInstr::CallNative { .. })).count();
        assert_eq!(natives, 2);
    }

    #[test]
    fn opt_inlines_small_static_callee() {
        let r = registry_with(
            "class T {
               static method add(a: int, b: int): int { return a + b; }
               static method f(): int { return T.add(1, 2); }
             }",
        );
        let f = method_id(&r, "T", "f");
        let add = method_id(&r, "T", "add");
        let c = compile(&r, f, CompileLevel::Opt, &VmConfig::default()).unwrap();
        assert!(c.inlined.contains(&add));
        assert!(
            !c.code.iter().any(|i| matches!(i, RInstr::CallDirect { .. })),
            "call should be gone: {:?}",
            c.code
        );
        assert!(!c.osr_capable());
    }

    #[test]
    fn opt_inlining_is_transitive_up_to_depth() {
        let r = registry_with(
            "class T {
               static method a(): int { return 1; }
               static method b(): int { return T.a() + 1; }
               static method c(): int { return T.b() + 1; }
             }",
        );
        let c_mid = method_id(&r, "T", "c");
        let compiled = compile(&r, c_mid, CompileLevel::Opt, &VmConfig::default()).unwrap();
        assert_eq!(compiled.inlined.len(), 2);
    }

    #[test]
    fn opt_does_not_inline_recursion() {
        let r = registry_with(
            "class T { static method f(n: int): int {
               if (n <= 0) { return 0; }
               return T.f(n - 1) + 1;
             } }",
        );
        let f = method_id(&r, "T", "f");
        let c = compile(&r, f, CompileLevel::Opt, &VmConfig::default()).unwrap();
        assert!(c.inlined.is_empty());
        assert!(c.code.iter().any(|i| matches!(i, RInstr::CallDirect { .. })));
    }

    #[test]
    fn opt_does_not_inline_virtual_calls() {
        let r = registry_with(
            "class A { method id(): int { return 1; } }
             class T { static method f(a: A): int { return a.id(); } }",
        );
        let f = method_id(&r, "T", "f");
        let c = compile(&r, f, CompileLevel::Opt, &VmConfig::default()).unwrap();
        assert!(c.inlined.is_empty());
        assert!(c.code.iter().any(|i| matches!(i, RInstr::CallVirtual { .. })));
    }

    #[test]
    fn inlined_branches_are_rebased() {
        let r = registry_with(
            "class T {
               static method abs(x: int): int {
                 if (x < 0) { return -x; }
                 return x;
               }
               static method f(y: int): int { return T.abs(y) + T.abs(-y); }
             }",
        );
        let f = method_id(&r, "T", "f");
        let c = compile(&r, f, CompileLevel::Opt, &VmConfig::default()).unwrap();
        // All branch targets must stay in range.
        for (pc, i) in c.code.iter().enumerate() {
            if let RInstr::Jump(t) | RInstr::JumpIfTrue(t) | RInstr::JumpIfFalse(t) = i {
                assert!(
                    (*t as usize) <= c.code.len(),
                    "target {t} out of range at {pc}: {:?}",
                    c.code
                );
            }
        }
        assert_eq!(c.inlined.len(), 2, "abs inlined at two sites");
    }

    #[test]
    fn nested_inline_windows_do_not_collide() {
        // Regression: locals of a callee inlined *within* an inlined
        // callee were shifted twice, indexing past the frame.
        let r = registry_with(
            "class T {
               static method g(x: int): int {
                 var t: int = x * 2;
                 return t + 1;
               }
               static method f(y: int): int {
                 var u: int = T.g(y);
                 return u + y;
               }
               static method top(z: int): int { return T.f(z) + T.g(z); }
             }",
        );
        let top = method_id(&r, "T", "top");
        let c = compile(&r, top, CompileLevel::Opt, &VmConfig::default()).unwrap();
        assert_eq!(c.inlined.len(), 3, "f, g-within-f, and g");
        // Every local slot referenced must fit in the declared frame.
        for i in &c.code {
            if let RInstr::Load(s) | RInstr::Store(s) = i {
                assert!(*s < c.max_locals, "slot {s} >= max_locals {}", c.max_locals);
            }
        }
    }

    #[test]
    fn call_sites_are_dense_and_counted_after_inlining() {
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
        for level in [CompileLevel::Base, CompileLevel::Opt] {
            let c = compile(&r, mid, level, &VmConfig::default()).unwrap();
            let sites: Vec<u32> = c
                .code
                .iter()
                .filter_map(|i| match i {
                    RInstr::CallVirtual { site, .. } | RInstr::CallDirect { site, .. } => {
                        Some(*site)
                    }
                    _ => None,
                })
                .collect();
            let expect: Vec<u32> = (0..c.call_sites).collect();
            assert_eq!(sites, expect, "sites dense in code order at {level:?}");
            assert!(c.call_sites >= 3, "two virtual + one recursive direct call");
        }
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
        let c = compile(&r, mid, CompileLevel::Jit, &VmConfig::default()).unwrap();
        let meta = c.fused.as_ref().expect("jit code carries fusion metadata");
        assert!(c.code.iter().any(|op| op.covers() > 1), "loop body should fuse: {:?}", c.code);
        assert!(c.code.len() < meta.base.code.len());
        assert_eq!(meta.base.level, CompileLevel::Base);
        assert_eq!(meta.base.call_sites, c.call_sites);
        assert!(c.osr_capable());
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
        let g = compile(&r, id, CompileLevel::Jit, &VmConfig::default()).unwrap();
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
        let err = compile(&r2, mid2, CompileLevel::Base, &VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::ResolutionError { .. }), "{err}");
    }
}
