//! Type-directed code generation: AST method bodies → bytecode.
//!
//! This pass type-checks while emitting, so every instruction it produces
//! is already annotated with the static receiver classes the VM's baseline
//! compiler resolves into hard offsets. The classfile verifier runs after
//! compilation as a safety net.

use std::collections::HashMap;
use std::sync::Arc;

use jvolve_classfile::bytecode::{Instr, Pc};
use jvolve_classfile::class::{Code, MethodDef, Visibility, CTOR_NAME};
use jvolve_classfile::verify::{is_subclass, lookup_field, lookup_method, lookup_static_field};
use jvolve_classfile::{ClassFile, ClassName, ClassResolver, ClassSet, Type, STRING_CLASS};

use crate::ast::{BinOp, Block, ClassDecl, Expr, ExprKind, Program, Stmt, UnOp};
use crate::check::{lower_type, CollectOptions, Headers};
use crate::diag::{Diagnostic, Span};

/// Generates bodies for every class in `program`, completing the headers.
///
/// # Errors
///
/// Returns all type errors found in method bodies.
pub fn generate(
    program: &Program,
    headers: &Headers,
    options: &CollectOptions,
) -> Result<Vec<ClassFile>, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut out = Vec::with_capacity(headers.classes.len());
    let declared: std::collections::BTreeSet<String> =
        program.classes.iter().map(|c| c.name.clone()).collect();

    for (decl, header) in program.classes.iter().zip(&headers.classes) {
        let mut class = header.clone();
        for m in &decl.methods {
            let name = if m.is_ctor { CTOR_NAME } else { m.name.as_str() };
            let header_method = header
                .find_method(name)
                .expect("collect registered every declared method")
                .clone();
            let mut gen = FnGen {
                resolver: &headers.resolver,
                class: header,
                method: &header_method,
                declared: &declared,
                externs: &options.externs,
                override_access: options.override_access,
                code: Vec::new(),
                scopes: vec![HashMap::new()],
                next_slot: 0,
                max_locals: 0,
                loops: Vec::new(),
            };
            match gen.run(m) {
                Ok(code) => {
                    let slot = class
                        .methods
                        .iter_mut()
                        .find(|mm| mm.name == name)
                        .expect("header method present");
                    slot.code = Some(Arc::new(code));
                }
                Err(d) => diags.push(d),
            }
        }
        // Fill in the synthesized default constructor, if collect added one.
        if !decl.methods.iter().any(|m| m.is_ctor) {
            let header_method = header.find_method(CTOR_NAME).expect("default ctor").clone();
            let mut gen = FnGen {
                resolver: &headers.resolver,
                class: header,
                method: &header_method,
                declared: &declared,
                externs: &options.externs,
                override_access: options.override_access,
                code: Vec::new(),
                scopes: vec![HashMap::new()],
                next_slot: 0,
                max_locals: 0,
                loops: Vec::new(),
            };
            match gen.default_ctor(decl) {
                Ok(code) => {
                    let slot = class
                        .methods
                        .iter_mut()
                        .find(|mm| mm.name == CTOR_NAME)
                        .expect("default ctor present");
                    slot.code = Some(Arc::new(code));
                }
                Err(d) => diags.push(d),
            }
        }
        out.push(class);
    }

    if diags.is_empty() {
        Ok(out)
    } else {
        Err(diags)
    }
}

/// The static type of an expression, with `null` tracked separately.
#[derive(Clone, PartialEq, Eq, Debug)]
enum STy {
    Ty(Type),
    Null,
}

impl STy {
    fn is_string(&self) -> bool {
        matches!(self, STy::Ty(Type::Class(c)) if c.as_str() == STRING_CLASS)
    }

    fn is_reference(&self) -> bool {
        matches!(self, STy::Null | STy::Ty(Type::Class(_)) | STy::Ty(Type::Array(_)))
    }

    fn display(&self) -> String {
        match self {
            STy::Ty(t) => t.to_string(),
            STy::Null => "null".to_string(),
        }
    }
}

struct LoopCtx {
    head: Pc,
    breaks: Vec<usize>,
}

struct FnGen<'a> {
    resolver: &'a ClassSet,
    class: &'a ClassFile,
    method: &'a MethodDef,
    declared: &'a std::collections::BTreeSet<String>,
    externs: &'a ClassSet,
    override_access: bool,
    code: Vec<Instr>,
    scopes: Vec<HashMap<String, (u16, Type)>>,
    next_slot: u16,
    max_locals: u16,
    loops: Vec<LoopCtx>,
}

impl<'a> FnGen<'a> {
    fn run(&mut self, decl: &crate::ast::MethodDecl) -> Result<Code, Diagnostic> {
        if !self.method.is_static {
            self.next_slot = 1; // slot 0 = this
            self.max_locals = 1;
        }
        for (p, ty) in decl.params.iter().zip(&self.method.params) {
            self.declare_local(&p.name, ty.clone(), p.span)?;
        }

        // Constructor chaining: an explicit `super(...)` must come first;
        // otherwise insert an implicit zero-argument super call when the
        // superclass declares a constructor.
        if decl.is_ctor {
            let explicit = matches!(decl.body.stmts.first(), Some(Stmt::SuperCall { .. }));
            if !explicit {
                self.implicit_super(decl.span)?;
            }
        }

        for (i, stmt) in decl.body.stmts.iter().enumerate() {
            if let Stmt::SuperCall { span, .. } = stmt {
                if !decl.is_ctor || i != 0 {
                    return Err(Diagnostic::new(
                        *span,
                        "super(...) is only allowed as the first statement of a constructor",
                    ));
                }
            }
            self.stmt(stmt)?;
        }

        if !block_returns(&decl.body) {
            if self.method.ret == Type::Void {
                self.emit(Instr::Return);
            } else {
                return Err(Diagnostic::new(
                    decl.span,
                    format!(
                        "method {} may complete without returning a value",
                        self.method.name
                    ),
                ));
            }
        }

        Ok(Code { instrs: std::mem::take(&mut self.code), max_locals: self.max_locals })
    }

    fn default_ctor(&mut self, decl: &ClassDecl) -> Result<Code, Diagnostic> {
        self.next_slot = 1;
        self.max_locals = 1;
        self.implicit_super(decl.span)?;
        self.emit(Instr::Return);
        Ok(Code { instrs: std::mem::take(&mut self.code), max_locals: self.max_locals })
    }

    fn implicit_super(&mut self, span: Span) -> Result<(), Diagnostic> {
        let Some(sup_name) = &self.class.superclass else { return Ok(()) };
        let Some(sup) = self.resolver.resolve(sup_name) else { return Ok(()) };
        let Some(sup_ctor) = sup.find_method(CTOR_NAME) else { return Ok(()) };
        if !sup_ctor.params.is_empty() {
            return Err(Diagnostic::new(
                span,
                format!(
                    "constructor of {} must call super(...): superclass {} has a constructor \
                     with parameters",
                    self.class.name, sup_name
                ),
            ));
        }
        self.emit(Instr::Load(0));
        self.emit(Instr::CallSpecial {
            class: sup_name.clone(),
            method: CTOR_NAME.to_string(),
            argc: 0,
        });
        Ok(())
    }

    // ---- helpers -------------------------------------------------------

    fn emit(&mut self, i: Instr) -> Pc {
        let pc = self.code.len() as Pc;
        self.code.push(i);
        pc
    }

    fn emit_forward(&mut self, template: Instr) -> usize {
        let at = self.code.len();
        self.code.push(template);
        at
    }

    fn patch_here(&mut self, at: usize) {
        let target = self.code.len() as Pc;
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfTrue(t) | Instr::JumpIfFalse(t) => *t = target,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    fn declare_local(&mut self, name: &str, ty: Type, span: Span) -> Result<u16, Diagnostic> {
        let scope = self.scopes.last_mut().expect("at least one scope");
        if scope.contains_key(name) {
            return Err(Diagnostic::new(span, format!("variable {name} is already defined")));
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_locals = self.max_locals.max(self.next_slot);
        scope.insert(name.to_string(), (slot, ty));
        Ok(slot)
    }

    fn find_local(&self, name: &str) -> Option<(u16, Type)> {
        for scope in self.scopes.iter().rev() {
            if let Some(entry) = scope.get(name) {
                return Some(entry.clone());
            }
        }
        None
    }

    fn is_class_name(&self, name: &str) -> bool {
        self.resolver.resolve(&ClassName::from(name)).is_some()
    }

    fn assignable(&self, from: &STy, to: &Type) -> bool {
        match (from, to) {
            (STy::Null, t) => t.is_reference(),
            (STy::Ty(Type::Int), Type::Int) => true,
            (STy::Ty(Type::Bool), Type::Bool) => true,
            (STy::Ty(Type::Class(c)), Type::Class(d)) => is_subclass(self.resolver, c, d),
            (STy::Ty(Type::Array(_)), Type::Class(d)) => {
                d.as_str() == jvolve_classfile::OBJECT_CLASS
            }
            (STy::Ty(Type::Array(a)), Type::Array(b)) => **a == **b,
            _ => false,
        }
    }

    fn require_assignable(&self, from: &STy, to: &Type, span: Span) -> Result<(), Diagnostic> {
        if self.assignable(from, to) {
            Ok(())
        } else {
            Err(Diagnostic::new(
                span,
                format!("type {} is not assignable to {to}", from.display()),
            ))
        }
    }

    fn check_access(
        &self,
        declaring: &ClassName,
        visibility: Visibility,
        what: &str,
        span: Span,
    ) -> Result<(), Diagnostic> {
        if self.override_access {
            return Ok(());
        }
        let ok = match visibility {
            Visibility::Public => true,
            Visibility::Private => &self.class.name == declaring,
            Visibility::Protected => is_subclass(self.resolver, &self.class.name, declaring),
        };
        if ok {
            Ok(())
        } else {
            Err(Diagnostic::new(span, format!("{what} of {declaring} is not accessible here")))
        }
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), Diagnostic> {
        match stmt {
            Stmt::Var { name, ty, init, span } => {
                let ty = lower_type(ty, self.declared, self.externs, *span)?;
                if ty == Type::Void {
                    return Err(Diagnostic::new(*span, "variables cannot be void"));
                }
                let got = self.expr(init)?;
                self.require_assignable(&got, &ty, init.span)?;
                let slot = self.declare_local(name, ty, *span)?;
                self.emit(Instr::Store(slot));
            }
            Stmt::Assign { target, value, span } => self.assign(target, value, *span)?,
            Stmt::If { cond, then, els } => {
                let ct = self.expr(cond)?;
                self.require_assignable(&ct, &Type::Bool, cond.span)?;
                let jf = self.emit_forward(Instr::JumpIfFalse(0));
                self.block(then)?;
                if let Some(els) = els {
                    let jend = self.emit_forward(Instr::Jump(0));
                    self.patch_here(jf);
                    self.block(els)?;
                    self.patch_here(jend);
                } else {
                    self.patch_here(jf);
                }
            }
            Stmt::While { cond, body } => {
                // `while (true)` compiles to an unconditional loop (as
                // javac does), so no branch ever targets past the end of a
                // method that diverges.
                let infinite = matches!(cond.kind, ExprKind::BoolLit(true));
                let head = self.code.len() as Pc;
                let exit = if infinite {
                    None
                } else {
                    let ct = self.expr(cond)?;
                    self.require_assignable(&ct, &Type::Bool, cond.span)?;
                    Some(self.emit_forward(Instr::JumpIfFalse(0)))
                };
                self.loops.push(LoopCtx { head, breaks: Vec::new() });
                self.block(body)?;
                self.emit(Instr::Jump(head));
                let ctx = self.loops.pop().expect("loop context");
                if let Some(exit) = exit {
                    self.patch_here(exit);
                }
                for b in ctx.breaks {
                    self.patch_here(b);
                }
            }
            Stmt::Return { value, span } => match (value, self.method.ret.clone()) {
                (None, Type::Void) => {
                    self.emit(Instr::Return);
                }
                (None, ret) => {
                    return Err(Diagnostic::new(
                        *span,
                        format!("method returns {ret}, but return has no value"),
                    ))
                }
                (Some(v), Type::Void) => {
                    return Err(Diagnostic::new(v.span, "void method cannot return a value"))
                }
                (Some(v), ret) => {
                    let got = self.expr(v)?;
                    self.require_assignable(&got, &ret, v.span)?;
                    self.emit(Instr::ReturnValue);
                }
            },
            Stmt::Break { span } => {
                if self.loops.is_empty() {
                    return Err(Diagnostic::new(*span, "break outside a loop"));
                }
                let at = self.emit_forward(Instr::Jump(0));
                self.loops.last_mut().expect("loop").breaks.push(at);
            }
            Stmt::Continue { span } => {
                let Some(ctx) = self.loops.last() else {
                    return Err(Diagnostic::new(*span, "continue outside a loop"));
                };
                let head = ctx.head;
                self.emit(Instr::Jump(head));
            }
            Stmt::SuperCall { args, span } => {
                let Some(sup_name) = self.class.superclass.clone() else {
                    return Err(Diagnostic::new(*span, "class has no superclass"));
                };
                let sup = self
                    .resolver
                    .resolve(&sup_name)
                    .ok_or_else(|| Diagnostic::new(*span, "unknown superclass"))?;
                let Some(ctor) = sup.find_method(CTOR_NAME).cloned() else {
                    return Err(Diagnostic::new(
                        *span,
                        format!("superclass {sup_name} has no constructor"),
                    ));
                };
                self.emit(Instr::Load(0));
                self.call_args(args, &ctor.params, *span)?;
                self.emit(Instr::CallSpecial {
                    class: sup_name,
                    method: CTOR_NAME.to_string(),
                    argc: args.len() as u8,
                });
            }
            Stmt::Expr(e) => {
                let ty = self.expr_allow_void(e)?;
                if ty != STy::Ty(Type::Void) {
                    self.emit(Instr::Pop);
                }
            }
        }
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<(), Diagnostic> {
        self.scopes.push(HashMap::new());
        let saved = self.next_slot;
        for s in &b.stmts {
            if let Stmt::SuperCall { span, .. } = s {
                return Err(Diagnostic::new(
                    *span,
                    "super(...) is only allowed as the first statement of a constructor",
                ));
            }
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.next_slot = saved;
        Ok(())
    }

    fn assign(&mut self, target: &Expr, value: &Expr, span: Span) -> Result<(), Diagnostic> {
        match &target.kind {
            ExprKind::Ident(name) => {
                if let Some((slot, ty)) = self.find_local(name) {
                    let got = self.expr(value)?;
                    self.require_assignable(&got, &ty, value.span)?;
                    self.emit(Instr::Store(slot));
                    Ok(())
                } else {
                    Err(Diagnostic::new(target.span, format!("unknown variable {name}")))
                }
            }
            ExprKind::Field(obj, fname) => {
                // Static field assignment: `C.f = v` with C a class name.
                if let ExprKind::Ident(cname) = &obj.kind {
                    if self.find_local(cname).is_none() && self.is_class_name(cname) {
                        let class = ClassName::from(cname.as_str());
                        let (decl, def) = lookup_static_field(self.resolver, &class, fname)
                            .ok_or_else(|| {
                                Diagnostic::new(span, format!("unknown static field {cname}.{fname}"))
                            })?;
                        self.check_access(&decl, def.visibility, "static field", span)?;
                        self.check_final(&decl, def.is_final, fname, span)?;
                        let fty = def.ty.clone();
                        let got = self.expr(value)?;
                        self.require_assignable(&got, &fty, value.span)?;
                        self.emit(Instr::PutStatic { class, field: fname.clone() });
                        return Ok(());
                    }
                }
                let oty = self.expr(obj)?;
                let STy::Ty(Type::Class(cls)) = oty else {
                    return Err(Diagnostic::new(
                        obj.span,
                        format!("field assignment on non-object type {}", oty.display()),
                    ));
                };
                let (decl, def) = lookup_field(self.resolver, &cls, fname).ok_or_else(|| {
                    Diagnostic::new(span, format!("unknown field {cls}.{fname}"))
                })?;
                self.check_access(&decl, def.visibility, "field", span)?;
                self.check_final(&decl, def.is_final, fname, span)?;
                let fty = def.ty.clone();
                let got = self.expr(value)?;
                self.require_assignable(&got, &fty, value.span)?;
                self.emit(Instr::PutField { class: cls, field: fname.clone() });
                Ok(())
            }
            ExprKind::Index(arr, idx) => {
                let aty = self.expr(arr)?;
                let STy::Ty(Type::Array(elem)) = aty else {
                    return Err(Diagnostic::new(
                        arr.span,
                        format!("indexing non-array type {}", aty.display()),
                    ));
                };
                let ity = self.expr(idx)?;
                self.require_assignable(&ity, &Type::Int, idx.span)?;
                let got = self.expr(value)?;
                self.require_assignable(&got, &elem, value.span)?;
                self.emit(Instr::AStore);
                Ok(())
            }
            _ => Err(Diagnostic::new(target.span, "not an assignable expression")),
        }
    }

    fn check_final(
        &self,
        declaring: &ClassName,
        is_final: bool,
        fname: &str,
        span: Span,
    ) -> Result<(), Diagnostic> {
        if !is_final || self.override_access {
            return Ok(());
        }
        let in_own_ctor = self.method.name == CTOR_NAME && &self.class.name == declaring;
        if in_own_ctor {
            Ok(())
        } else {
            Err(Diagnostic::new(
                span,
                format!("cannot assign to final field {declaring}.{fname} here"),
            ))
        }
    }

    // ---- expressions -----------------------------------------------------

    /// Evaluates an expression that must produce a value.
    fn expr(&mut self, e: &Expr) -> Result<STy, Diagnostic> {
        let ty = self.expr_allow_void(e)?;
        if ty == STy::Ty(Type::Void) {
            return Err(Diagnostic::new(e.span, "void expression used as a value"));
        }
        Ok(ty)
    }

    fn expr_allow_void(&mut self, e: &Expr) -> Result<STy, Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit(Instr::ConstInt(*v));
                Ok(STy::Ty(Type::Int))
            }
            ExprKind::BoolLit(v) => {
                self.emit(Instr::ConstBool(*v));
                Ok(STy::Ty(Type::Bool))
            }
            ExprKind::StrLit(s) => {
                self.emit(Instr::ConstStr(s.clone()));
                Ok(STy::Ty(Type::string()))
            }
            ExprKind::Null => {
                self.emit(Instr::ConstNull);
                Ok(STy::Null)
            }
            ExprKind::This => {
                if self.method.is_static {
                    return Err(Diagnostic::new(e.span, "this in a static method"));
                }
                self.emit(Instr::Load(0));
                Ok(STy::Ty(Type::Class(self.class.name.clone())))
            }
            ExprKind::Ident(name) => {
                if let Some((slot, ty)) = self.find_local(name) {
                    self.emit(Instr::Load(slot));
                    Ok(STy::Ty(ty))
                } else if self.is_class_name(name) {
                    Err(Diagnostic::new(
                        e.span,
                        format!("class {name} used as a value; access a member instead"),
                    ))
                } else {
                    Err(Diagnostic::new(e.span, format!("unknown variable {name}")))
                }
            }
            ExprKind::Unary(op, inner) => {
                let ty = self.expr(inner)?;
                match op {
                    UnOp::Neg => {
                        self.require_assignable(&ty, &Type::Int, inner.span)?;
                        self.emit(Instr::Neg);
                        Ok(STy::Ty(Type::Int))
                    }
                    UnOp::Not => {
                        self.require_assignable(&ty, &Type::Bool, inner.span)?;
                        self.emit(Instr::Not);
                        Ok(STy::Ty(Type::Bool))
                    }
                }
            }
            ExprKind::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs, e.span),
            ExprKind::Field(obj, fname) => {
                // Static field read: `C.f`.
                if let ExprKind::Ident(cname) = &obj.kind {
                    if self.find_local(cname).is_none() && self.is_class_name(cname) {
                        let class = ClassName::from(cname.as_str());
                        let (decl, def) = lookup_static_field(self.resolver, &class, fname)
                            .ok_or_else(|| {
                                Diagnostic::new(
                                    e.span,
                                    format!("unknown static field {cname}.{fname}"),
                                )
                            })?;
                        self.check_access(&decl, def.visibility, "static field", e.span)?;
                        self.emit(Instr::GetStatic { class, field: fname.clone() });
                        return Ok(STy::Ty(def.ty.clone()));
                    }
                }
                let oty = self.expr(obj)?;
                match oty {
                    STy::Ty(Type::Array(_)) if fname == "length" => {
                        self.emit(Instr::ArrayLen);
                        Ok(STy::Ty(Type::Int))
                    }
                    STy::Ty(Type::Class(cls)) => {
                        let (decl, def) =
                            lookup_field(self.resolver, &cls, fname).ok_or_else(|| {
                                Diagnostic::new(e.span, format!("unknown field {cls}.{fname}"))
                            })?;
                        self.check_access(&decl, def.visibility, "field", e.span)?;
                        self.emit(Instr::GetField { class: cls, field: fname.clone() });
                        Ok(STy::Ty(def.ty.clone()))
                    }
                    other => Err(Diagnostic::new(
                        obj.span,
                        format!("field access on non-object type {}", other.display()),
                    )),
                }
            }
            ExprKind::Index(arr, idx) => {
                let aty = self.expr(arr)?;
                let STy::Ty(Type::Array(elem)) = aty else {
                    return Err(Diagnostic::new(
                        arr.span,
                        format!("indexing non-array type {}", aty.display()),
                    ));
                };
                let ity = self.expr(idx)?;
                self.require_assignable(&ity, &Type::Int, idx.span)?;
                self.emit(Instr::ALoad);
                Ok(STy::Ty(*elem))
            }
            ExprKind::Call { recv, name, args } => self.call(recv.as_deref(), name, args, e.span),
            ExprKind::New(cname, args) => {
                let class = ClassName::from(cname.as_str());
                let cls = self.resolver.resolve(&class).ok_or_else(|| {
                    Diagnostic::new(e.span, format!("unknown class {cname}"))
                })?;
                if cls.flags.native {
                    return Err(Diagnostic::new(
                        e.span,
                        format!("cannot instantiate builtin class {cname}"),
                    ));
                }
                let ctor = cls.find_method(CTOR_NAME).cloned();
                self.emit(Instr::New(class.clone()));
                match ctor {
                    Some(ctor) => {
                        self.check_access(&class, ctor.visibility, "constructor", e.span)?;
                        self.emit(Instr::Dup);
                        self.call_args(args, &ctor.params, e.span)?;
                        self.emit(Instr::CallSpecial {
                            class: class.clone(),
                            method: CTOR_NAME.to_string(),
                            argc: args.len() as u8,
                        });
                    }
                    None => {
                        if !args.is_empty() {
                            return Err(Diagnostic::new(
                                e.span,
                                format!("class {cname} has no constructor taking arguments"),
                            ));
                        }
                    }
                }
                Ok(STy::Ty(Type::Class(class)))
            }
            ExprKind::NewArray(elem, len) => {
                let elem_ty = lower_type(elem, self.declared, self.externs, e.span)?;
                if elem_ty == Type::Void {
                    return Err(Diagnostic::new(e.span, "array of void"));
                }
                let lty = self.expr(len)?;
                self.require_assignable(&lty, &Type::Int, len.span)?;
                self.emit(Instr::NewArray(elem_ty.clone()));
                Ok(STy::Ty(Type::array(elem_ty)))
            }
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, span: Span) -> Result<STy, Diagnostic> {
        use BinOp::*;
        match op {
            And => {
                let lt = self.expr(lhs)?;
                self.require_assignable(&lt, &Type::Bool, lhs.span)?;
                let jf = self.emit_forward(Instr::JumpIfFalse(0));
                let rt = self.expr(rhs)?;
                self.require_assignable(&rt, &Type::Bool, rhs.span)?;
                let jend = self.emit_forward(Instr::Jump(0));
                self.patch_here(jf);
                self.emit(Instr::ConstBool(false));
                self.patch_here(jend);
                Ok(STy::Ty(Type::Bool))
            }
            Or => {
                let lt = self.expr(lhs)?;
                self.require_assignable(&lt, &Type::Bool, lhs.span)?;
                let jt = self.emit_forward(Instr::JumpIfTrue(0));
                let rt = self.expr(rhs)?;
                self.require_assignable(&rt, &Type::Bool, rhs.span)?;
                let jend = self.emit_forward(Instr::Jump(0));
                self.patch_here(jt);
                self.emit(Instr::ConstBool(true));
                self.patch_here(jend);
                Ok(STy::Ty(Type::Bool))
            }
            Add => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                if lt == STy::Ty(Type::Int) && rt == STy::Ty(Type::Int) {
                    self.emit(Instr::Add);
                    Ok(STy::Ty(Type::Int))
                } else if lt.is_string() && rt.is_string() {
                    self.emit(Instr::StrConcat);
                    Ok(STy::Ty(Type::string()))
                } else {
                    Err(Diagnostic::new(
                        span,
                        format!("+ requires two ints or two Strings, found {} and {}",
                            lt.display(), rt.display()),
                    ))
                }
            }
            Sub | Mul | Div | Rem => {
                let lt = self.expr(lhs)?;
                self.require_assignable(&lt, &Type::Int, lhs.span)?;
                let rt = self.expr(rhs)?;
                self.require_assignable(&rt, &Type::Int, rhs.span)?;
                self.emit(match op {
                    Sub => Instr::Sub,
                    Mul => Instr::Mul,
                    Div => Instr::Div,
                    _ => Instr::Rem,
                });
                Ok(STy::Ty(Type::Int))
            }
            Lt | Le | Gt | Ge => {
                let lt = self.expr(lhs)?;
                self.require_assignable(&lt, &Type::Int, lhs.span)?;
                let rt = self.expr(rhs)?;
                self.require_assignable(&rt, &Type::Int, rhs.span)?;
                self.emit(match op {
                    Lt => Instr::CmpLt,
                    Le => Instr::CmpLe,
                    Gt => Instr::CmpGt,
                    _ => Instr::CmpGe,
                });
                Ok(STy::Ty(Type::Bool))
            }
            Eq | Ne => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                let negate = op == Ne;
                match (&lt, &rt) {
                    (STy::Ty(Type::Int), STy::Ty(Type::Int)) => {
                        self.emit(if negate { Instr::CmpNe } else { Instr::CmpEq });
                    }
                    (STy::Ty(Type::Bool), STy::Ty(Type::Bool)) => {
                        self.emit(Instr::BoolEq);
                        if negate {
                            self.emit(Instr::Not);
                        }
                    }
                    _ if lt.is_string() && (rt.is_string() || rt == STy::Null) => {
                        self.emit(Instr::StrEq);
                        if negate {
                            self.emit(Instr::Not);
                        }
                    }
                    _ if rt.is_string() && lt == STy::Null => {
                        self.emit(Instr::StrEq);
                        if negate {
                            self.emit(Instr::Not);
                        }
                    }
                    _ if lt.is_reference() && rt.is_reference() => {
                        self.emit(if negate { Instr::RefNe } else { Instr::RefEq });
                    }
                    _ => {
                        return Err(Diagnostic::new(
                            span,
                            format!(
                                "cannot compare {} with {}",
                                lt.display(),
                                rt.display()
                            ),
                        ))
                    }
                }
                Ok(STy::Ty(Type::Bool))
            }
        }
    }

    fn call(
        &mut self,
        recv: Option<&Expr>,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<STy, Diagnostic> {
        match recv {
            None => {
                // Unqualified call: method of the current class (chain).
                let (decl, def) = lookup_method(self.resolver, &self.class.name, name)
                    .map(|(c, m)| (c, m.clone()))
                    .ok_or_else(|| {
                        Diagnostic::new(span, format!("unknown method {name} in this class"))
                    })?;
                self.check_access(&decl, def.visibility, "method", span)?;
                if def.is_static {
                    self.call_args(args, &def.params, span)?;
                    self.emit(Instr::CallStatic {
                        class: self.class.name.clone(),
                        method: name.to_string(),
                        argc: args.len() as u8,
                    });
                } else {
                    if self.method.is_static {
                        return Err(Diagnostic::new(
                            span,
                            format!("instance method {name} called from a static method"),
                        ));
                    }
                    self.emit(Instr::Load(0));
                    self.call_args(args, &def.params, span)?;
                    self.emit(Instr::CallVirtual {
                        class: self.class.name.clone(),
                        method: name.to_string(),
                        argc: args.len() as u8,
                    });
                }
                Ok(STy::Ty(def.ret))
            }
            Some(r) => {
                // Static call `C.m(...)` when C names a class, not a local.
                if let ExprKind::Ident(cname) = &r.kind {
                    if self.find_local(cname).is_none() && self.is_class_name(cname) {
                        let class = ClassName::from(cname.as_str());
                        let (decl, def) = lookup_method(self.resolver, &class, name)
                            .map(|(c, m)| (c, m.clone()))
                            .ok_or_else(|| {
                                Diagnostic::new(span, format!("unknown method {cname}.{name}"))
                            })?;
                        if !def.is_static {
                            return Err(Diagnostic::new(
                                span,
                                format!("{cname}.{name} is not a static method"),
                            ));
                        }
                        self.check_access(&decl, def.visibility, "method", span)?;
                        self.call_args(args, &def.params, span)?;
                        self.emit(Instr::CallStatic {
                            class,
                            method: name.to_string(),
                            argc: args.len() as u8,
                        });
                        return Ok(STy::Ty(def.ret));
                    }
                }
                let rty = self.expr(r)?;
                let STy::Ty(Type::Class(cls)) = rty else {
                    return Err(Diagnostic::new(
                        r.span,
                        format!("method call on non-object type {}", rty.display()),
                    ));
                };
                let (decl, def) = lookup_method(self.resolver, &cls, name)
                    .map(|(c, m)| (c, m.clone()))
                    .ok_or_else(|| {
                        Diagnostic::new(span, format!("unknown method {cls}.{name}"))
                    })?;
                if def.is_static {
                    return Err(Diagnostic::new(
                        span,
                        format!("static method {cls}.{name} called on an instance"),
                    ));
                }
                self.check_access(&decl, def.visibility, "method", span)?;
                self.call_args(args, &def.params, span)?;
                self.emit(Instr::CallVirtual {
                    class: cls,
                    method: name.to_string(),
                    argc: args.len() as u8,
                });
                Ok(STy::Ty(def.ret))
            }
        }
    }

    fn call_args(&mut self, args: &[Expr], params: &[Type], span: Span) -> Result<(), Diagnostic> {
        if args.len() != params.len() {
            return Err(Diagnostic::new(
                span,
                format!("call passes {} arguments, expected {}", args.len(), params.len()),
            ));
        }
        for (a, p) in args.iter().zip(params) {
            let got = self.expr(a)?;
            self.require_assignable(&got, p, a.span)?;
        }
        Ok(())
    }
}

/// Whether a block definitely returns (or loops forever) on all paths.
fn block_returns(b: &Block) -> bool {
    b.stmts.iter().any(stmt_returns)
}

fn stmt_returns(s: &Stmt) -> bool {
    match s {
        Stmt::Return { .. } => true,
        Stmt::If { then, els: Some(els), .. } => block_returns(then) && block_returns(els),
        Stmt::While { cond, body } => {
            matches!(cond.kind, ExprKind::BoolLit(true)) && !block_breaks(body)
        }
        _ => false,
    }
}

/// Whether a block contains a `break` binding to the *enclosing* loop
/// (does not descend into nested loops).
fn block_breaks(b: &Block) -> bool {
    b.stmts.iter().any(|s| match s {
        Stmt::Break { .. } => true,
        Stmt::If { then, els, .. } => {
            block_breaks(then) || els.as_ref().is_some_and(block_breaks)
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::collect;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<Vec<ClassFile>, Vec<Diagnostic>> {
        let program = parse(lex(src).unwrap()).unwrap();
        let opts = CollectOptions::default();
        let headers = collect(&program, &opts)?;
        generate(&program, &headers, &opts)
    }

    fn method_code(classes: &[ClassFile], class: &str, method: &str) -> Vec<Instr> {
        classes
            .iter()
            .find(|c| c.name.as_str() == class)
            .unwrap()
            .find_method(method)
            .unwrap()
            .code
            .as_ref()
            .unwrap()
            .instrs
            .clone()
    }

    #[test]
    fn generates_arithmetic() {
        let classes =
            compile_src("class T { static method f(a: int, b: int): int { return a + b * 2; } }")
                .unwrap();
        let code = method_code(&classes, "T", "f");
        assert_eq!(
            code,
            vec![
                Instr::Load(0),
                Instr::Load(1),
                Instr::ConstInt(2),
                Instr::Mul,
                Instr::Add,
                Instr::ReturnValue
            ]
        );
    }

    #[test]
    fn string_plus_is_concat_and_eq_is_value_equality() {
        let classes = compile_src(
            "class T { static method f(a: String, b: String): bool { return a + b == \"x\"; } }",
        )
        .unwrap();
        let code = method_code(&classes, "T", "f");
        assert!(code.contains(&Instr::StrConcat), "{code:?}");
        assert!(code.contains(&Instr::StrEq), "{code:?}");
    }

    #[test]
    fn new_emits_ctor_call() {
        let classes = compile_src(
            "class User { field name: String; ctor(n: String) { this.name = n; } }
             class T { static method f(): User { return new User(\"a\"); } }",
        )
        .unwrap();
        let code = method_code(&classes, "T", "f");
        assert_eq!(code[0], Instr::New("User".into()));
        assert_eq!(code[1], Instr::Dup);
        assert!(matches!(code[3], Instr::CallSpecial { .. }), "{code:?}");
    }

    #[test]
    fn default_ctor_synthesized_with_super_chain() {
        let classes = compile_src(
            "class A { ctor() { } }
             class B extends A { }",
        )
        .unwrap();
        let code = method_code(&classes, "B", CTOR_NAME);
        assert_eq!(code[0], Instr::Load(0));
        assert!(
            matches!(&code[1], Instr::CallSpecial { class, .. } if class.as_str() == "A"),
            "{code:?}"
        );
    }

    #[test]
    fn missing_super_call_is_error() {
        let errs = compile_src(
            "class A { ctor(x: int) { } }
             class B extends A { ctor() { } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("must call super"), "{errs:?}");
    }

    #[test]
    fn while_loop_has_back_edge() {
        let classes = compile_src(
            "class T { static method f(n: int): int {
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             } }",
        )
        .unwrap();
        let code = method_code(&classes, "T", "f");
        let back = code.iter().any(|i| matches!(i, Instr::Jump(t) if (*t as usize) < code.len() - 2));
        assert!(back, "no back edge in {code:?}");
    }

    #[test]
    fn break_and_continue_patch_correctly() {
        let classes = compile_src(
            "class T { static method f(): int {
               var i: int = 0;
               while (true) {
                 i = i + 1;
                 if (i > 10) { break; }
                 continue;
               }
               return i;
             } }",
        )
        .unwrap();
        // Must verify: all branch targets are in range and typed correctly.
        let code = method_code(&classes, "T", "f");
        for i in &code {
            if let Some(t) = i.branch_target() {
                assert!((t as usize) < code.len(), "target {t} out of range in {code:?}");
            }
        }
    }

    #[test]
    fn infinite_loop_method_needs_no_return() {
        compile_src(
            "class T { static method run(): void { while (true) { Sys.yieldNow(); } } }",
        )
        .unwrap();
    }

    #[test]
    fn non_void_fallthrough_is_error() {
        let errs = compile_src(
            "class T { static method f(b: bool): int { if (b) { return 1; } } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("without returning"), "{errs:?}");
    }

    #[test]
    fn builtin_calls_typecheck() {
        compile_src(
            "class T { static method f(): void {
               Sys.print(\"hello \" + Str.fromInt(42));
               var parts: String[] = Str.split(\"a@b\", \"@\");
               Sys.printInt(parts.length);
             } }",
        )
        .unwrap();
    }

    #[test]
    fn private_field_access_from_other_class_is_error() {
        let errs = compile_src(
            "class A { private field x: int; }
             class T { static method f(a: A): int { return a.x; } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("not accessible"), "{errs:?}");
    }

    #[test]
    fn final_field_assignment_outside_ctor_is_error() {
        let errs = compile_src(
            "class A { final field x: int; method set(v: int): void { this.x = v; } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("final"), "{errs:?}");
    }

    #[test]
    fn override_access_relaxes_checks() {
        let program = parse(
            lex("class Xf { static method t(a: Hidden): void { a.x = 5; } }").unwrap(),
        )
        .unwrap();
        let mut externs = ClassSet::new();
        externs.insert(
            jvolve_classfile::builder::ClassBuilder::new("Hidden")
                .field_full("x", Type::Int, Visibility::Private, true)
                .build(),
        );
        let opts = CollectOptions { externs, override_access: true };
        let headers = collect(&program, &opts).unwrap();
        let classes = generate(&program, &headers, &opts).unwrap();
        assert!(classes[0].flags.access_override);
    }

    #[test]
    fn virtual_dispatch_through_super_type() {
        let classes = compile_src(
            "class A { method id(): int { return 1; } }
             class B extends A { method id(): int { return 2; } }
             class T { static method f(a: A): int { return a.id(); } }",
        )
        .unwrap();
        let code = method_code(&classes, "T", "f");
        assert!(
            code.iter().any(|i| matches!(i, Instr::CallVirtual { class, .. } if class.as_str() == "A")),
            "{code:?}"
        );
    }

    #[test]
    fn unknown_variable_is_error() {
        let errs = compile_src("class T { static method f(): int { return x; } }").unwrap_err();
        assert!(errs[0].message.contains("unknown variable"), "{errs:?}");
    }

    #[test]
    fn comparing_int_with_string_is_error() {
        let errs = compile_src(
            "class T { static method f(): bool { return 1 == \"a\"; } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("cannot compare"), "{errs:?}");
    }

    #[test]
    fn null_comparison_with_object_uses_ref_eq() {
        let classes = compile_src(
            "class A { }
             class T { static method f(a: A): bool { return a == null; } }",
        )
        .unwrap();
        let code = method_code(&classes, "T", "f");
        assert!(code.contains(&Instr::RefEq), "{code:?}");
    }

    #[test]
    fn block_scoping_allows_shadowing_in_inner_scope() {
        compile_src(
            "class T { static method f(): int {
               var x: int = 1;
               if (true) { var y: int = 2; x = x + y; }
               return x;
             } }",
        )
        .unwrap();
    }

    #[test]
    fn duplicate_local_in_same_scope_is_error() {
        let errs = compile_src(
            "class T { static method f(): void { var x: int = 1; var x: int = 2; } }",
        )
        .unwrap_err();
        assert!(errs[0].message.contains("already defined"), "{errs:?}");
    }
}
