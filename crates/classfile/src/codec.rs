//! Binary encoding and decoding of class files.
//!
//! The update driver in the paper loads "new class files" supplied by the
//! user at update time; this codec plays the role of the on-disk class-file
//! format. The format is a straightforward tagged binary encoding: a magic
//! header, a format version, then the class structure with length-prefixed
//! strings and one opcode byte per instruction.

use std::fmt;
use std::sync::Arc;

use crate::bytecode::Instr;
use crate::class::{
    ClassFile, ClassFlags, Code, FieldDef, MethodDef, MethodKind, Visibility,
};
use crate::name::ClassName;
use crate::ty::Type;

/// File magic (`MJCF` = "MJ class file").
pub const MAGIC: &[u8; 4] = b"MJCF";
/// Current format version.
pub const FORMAT_VERSION: u16 = 1;

/// A decoding failure.
#[derive(Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class file decode error at byte {}: {}", self.offset, self.message)
    }
}

impl fmt::Debug for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DecodeError({self})")
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a class file to bytes.
pub fn encode(class: &ClassFile) -> Vec<u8> {
    let mut w = Writer { buf: Vec::with_capacity(256) };
    w.bytes(MAGIC);
    w.u16(FORMAT_VERSION);
    w.str_(class.name.as_str());
    match &class.superclass {
        Some(s) => {
            w.u8(1);
            w.str_(s.as_str());
        }
        None => w.u8(0),
    }
    w.u8(u8::from(class.flags.access_override) | (u8::from(class.flags.native) << 1));
    w.u32(class.fields.len() as u32);
    for f in &class.fields {
        w.field(f);
    }
    w.u32(class.static_fields.len() as u32);
    for f in &class.static_fields {
        w.field(f);
    }
    w.u32(class.methods.len() as u32);
    for m in &class.methods {
        w.method(m);
    }
    w.buf
}

/// Decodes a class file from bytes.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated input, a bad magic/version, or an
/// unknown tag.
pub fn decode(bytes: &[u8]) -> Result<ClassFile, DecodeError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(r.error("bad magic"));
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(r.error(format!("unsupported format version {version}")));
    }
    let name = ClassName::from(r.str_()?);
    let superclass = if r.u8()? == 1 { Some(ClassName::from(r.str_()?)) } else { None };
    let flag_bits = r.u8()?;
    let flags =
        ClassFlags { access_override: flag_bits & 1 != 0, native: flag_bits & 2 != 0 };
    let nfields = r.count(MIN_FIELD_BYTES, "field")?;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        fields.push(r.field()?);
    }
    let nstatics = r.count(MIN_FIELD_BYTES, "static field")?;
    let mut static_fields = Vec::with_capacity(nstatics);
    for _ in 0..nstatics {
        static_fields.push(r.field()?);
    }
    let nmethods = r.count(MIN_METHOD_BYTES, "method")?;
    let mut methods = Vec::with_capacity(nmethods);
    for _ in 0..nmethods {
        methods.push(r.method()?);
    }
    if r.pos != bytes.len() {
        return Err(r.error("trailing bytes after class file"));
    }
    Ok(ClassFile { name, superclass, fields, static_fields, methods, flags })
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn str_(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn ty(&mut self, t: &Type) {
        match t {
            Type::Int => self.u8(0),
            Type::Bool => self.u8(1),
            Type::Class(name) => {
                self.u8(2);
                self.str_(name.as_str());
            }
            Type::Array(elem) => {
                self.u8(3);
                self.ty(elem);
            }
            Type::Void => self.u8(4),
        }
    }

    fn visibility(&mut self, v: Visibility) {
        self.u8(match v {
            Visibility::Public => 0,
            Visibility::Private => 1,
            Visibility::Protected => 2,
        });
    }

    fn field(&mut self, f: &FieldDef) {
        self.str_(&f.name);
        self.ty(&f.ty);
        self.visibility(f.visibility);
        self.u8(u8::from(f.is_final));
    }

    fn method(&mut self, m: &MethodDef) {
        self.str_(&m.name);
        self.u32(m.params.len() as u32);
        for p in &m.params {
            self.ty(p);
        }
        self.ty(&m.ret);
        self.u8(u8::from(m.is_static));
        self.visibility(m.visibility);
        self.u8(match m.kind {
            MethodKind::Regular => 0,
            MethodKind::Constructor => 1,
            MethodKind::StaticInit => 2,
        });
        match &m.code {
            None => self.u8(0),
            Some(code) => {
                self.u8(1);
                self.u16(code.max_locals);
                self.u32(code.instrs.len() as u32);
                for i in &code.instrs {
                    self.instr(i);
                }
            }
        }
    }

    fn instr(&mut self, i: &Instr) {
        use Instr::*;
        match i {
            ConstInt(v) => {
                self.u8(0);
                self.i64(*v);
            }
            ConstBool(v) => {
                self.u8(1);
                self.u8(u8::from(*v));
            }
            ConstStr(s) => {
                self.u8(2);
                self.str_(s);
            }
            ConstNull => self.u8(3),
            Load(s) => {
                self.u8(4);
                self.u16(*s);
            }
            Store(s) => {
                self.u8(5);
                self.u16(*s);
            }
            Add => self.u8(6),
            Sub => self.u8(7),
            Mul => self.u8(8),
            Div => self.u8(9),
            Rem => self.u8(10),
            Neg => self.u8(11),
            CmpEq => self.u8(12),
            CmpNe => self.u8(13),
            CmpLt => self.u8(14),
            CmpLe => self.u8(15),
            CmpGt => self.u8(16),
            CmpGe => self.u8(17),
            Not => self.u8(18),
            BoolEq => self.u8(19),
            RefEq => self.u8(20),
            RefNe => self.u8(21),
            StrConcat => self.u8(22),
            StrEq => self.u8(23),
            New(c) => {
                self.u8(24);
                self.str_(c.as_str());
            }
            GetField { class, field } => {
                self.u8(25);
                self.str_(class.as_str());
                self.str_(field);
            }
            PutField { class, field } => {
                self.u8(26);
                self.str_(class.as_str());
                self.str_(field);
            }
            GetStatic { class, field } => {
                self.u8(27);
                self.str_(class.as_str());
                self.str_(field);
            }
            PutStatic { class, field } => {
                self.u8(28);
                self.str_(class.as_str());
                self.str_(field);
            }
            NewArray(t) => {
                self.u8(29);
                self.ty(t);
            }
            ALoad => self.u8(30),
            AStore => self.u8(31),
            ArrayLen => self.u8(32),
            CallVirtual { class, method, argc } => {
                self.u8(33);
                self.str_(class.as_str());
                self.str_(method);
                self.u8(*argc);
            }
            CallStatic { class, method, argc } => {
                self.u8(34);
                self.str_(class.as_str());
                self.str_(method);
                self.u8(*argc);
            }
            CallSpecial { class, method, argc } => {
                self.u8(35);
                self.str_(class.as_str());
                self.str_(method);
                self.u8(*argc);
            }
            Jump(t) => {
                self.u8(36);
                self.u32(*t);
            }
            JumpIfTrue(t) => {
                self.u8(37);
                self.u32(*t);
            }
            JumpIfFalse(t) => {
                self.u8(38);
                self.u32(*t);
            }
            Return => self.u8(39),
            ReturnValue => self.u8(40),
            Pop => self.u8(41),
            Dup => self.u8(42),
        }
    }
}

// Smallest possible encodings, used to bound length prefixes against the
// remaining input *before* allocating. A hostile count can then never cost
// more memory than the buffer it arrived in.
//
// Field: empty name (4) + type tag (1) + visibility (1) + is_final (1).
const MIN_FIELD_BYTES: usize = 7;
// Method: empty name (4) + param count (4) + return type tag (1) +
// is_static (1) + visibility (1) + kind (1) + has-code flag (1).
const MIN_METHOD_BYTES: usize = 13;
// Parameter types and instructions are at least one tag/opcode byte.
const MIN_TY_BYTES: usize = 1;
const MIN_INSTR_BYTES: usize = 1;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError { offset: self.pos, message: message.into() }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.error("unexpected end of input"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32` count of items that each occupy at least
    /// `min_item_bytes`, rejecting counts the remaining input cannot
    /// possibly satisfy.
    fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(self.error(format!(
                "{what} count {n} exceeds remaining input ({} bytes)",
                self.remaining()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("length checked")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn str_(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.error("invalid UTF-8 in string"))
    }

    fn ty(&mut self) -> Result<Type, DecodeError> {
        match self.u8()? {
            0 => Ok(Type::Int),
            1 => Ok(Type::Bool),
            2 => Ok(Type::Class(ClassName::from(self.str_()?))),
            3 => Ok(Type::array(self.ty()?)),
            4 => Ok(Type::Void),
            t => Err(self.error(format!("unknown type tag {t}"))),
        }
    }

    fn visibility(&mut self) -> Result<Visibility, DecodeError> {
        match self.u8()? {
            0 => Ok(Visibility::Public),
            1 => Ok(Visibility::Private),
            2 => Ok(Visibility::Protected),
            t => Err(self.error(format!("unknown visibility tag {t}"))),
        }
    }

    fn field(&mut self) -> Result<FieldDef, DecodeError> {
        Ok(FieldDef {
            name: self.str_()?,
            ty: self.ty()?,
            visibility: self.visibility()?,
            is_final: self.u8()? != 0,
        })
    }

    fn method(&mut self) -> Result<MethodDef, DecodeError> {
        let name = self.str_()?;
        let nparams = self.count(MIN_TY_BYTES, "parameter")?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            params.push(self.ty()?);
        }
        let ret = self.ty()?;
        let is_static = self.u8()? != 0;
        let visibility = self.visibility()?;
        let kind = match self.u8()? {
            0 => MethodKind::Regular,
            1 => MethodKind::Constructor,
            2 => MethodKind::StaticInit,
            t => return Err(self.error(format!("unknown method kind {t}"))),
        };
        let code = if self.u8()? == 1 {
            let max_locals = self.u16()?;
            let n = self.count(MIN_INSTR_BYTES, "instruction")?;
            let mut instrs = Vec::with_capacity(n);
            for _ in 0..n {
                instrs.push(self.instr()?);
            }
            Some(Arc::new(Code { instrs, max_locals }))
        } else {
            None
        };
        Ok(MethodDef { name, params, ret, is_static, visibility, kind, code })
    }

    fn instr(&mut self) -> Result<Instr, DecodeError> {
        use Instr::*;
        Ok(match self.u8()? {
            0 => ConstInt(self.i64()?),
            1 => ConstBool(self.u8()? != 0),
            2 => ConstStr(self.str_()?),
            3 => ConstNull,
            4 => Load(self.u16()?),
            5 => Store(self.u16()?),
            6 => Add,
            7 => Sub,
            8 => Mul,
            9 => Div,
            10 => Rem,
            11 => Neg,
            12 => CmpEq,
            13 => CmpNe,
            14 => CmpLt,
            15 => CmpLe,
            16 => CmpGt,
            17 => CmpGe,
            18 => Not,
            19 => BoolEq,
            20 => RefEq,
            21 => RefNe,
            22 => StrConcat,
            23 => StrEq,
            24 => New(ClassName::from(self.str_()?)),
            25 => GetField { class: ClassName::from(self.str_()?), field: self.str_()? },
            26 => PutField { class: ClassName::from(self.str_()?), field: self.str_()? },
            27 => GetStatic { class: ClassName::from(self.str_()?), field: self.str_()? },
            28 => PutStatic { class: ClassName::from(self.str_()?), field: self.str_()? },
            29 => NewArray(self.ty()?),
            30 => ALoad,
            31 => AStore,
            32 => ArrayLen,
            33 => CallVirtual {
                class: ClassName::from(self.str_()?),
                method: self.str_()?,
                argc: self.u8()?,
            },
            34 => CallStatic {
                class: ClassName::from(self.str_()?),
                method: self.str_()?,
                argc: self.u8()?,
            },
            35 => CallSpecial {
                class: ClassName::from(self.str_()?),
                method: self.str_()?,
                argc: self.u8()?,
            },
            36 => Jump(self.u32()?),
            37 => JumpIfTrue(self.u32()?),
            38 => JumpIfFalse(self.u32()?),
            39 => Return,
            40 => ReturnValue,
            41 => Pop,
            42 => Dup,
            op => return Err(self.error(format!("unknown opcode {op}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;

    fn sample_class() -> ClassFile {
        ClassBuilder::new("User")
            .extends("Object")
            .field_full("name", Type::string(), Visibility::Private, true)
            .field("age", Type::Int)
            .static_field("count", Type::Int)
            .constructor([Type::string()], |m| {
                m.instr(Instr::Load(0))
                    .instr(Instr::Load(1))
                    .instr(Instr::PutField { class: "User".into(), field: "name".into() })
                    .instr(Instr::Return);
            })
            .method("getName", [], Type::string(), |m| {
                m.instr(Instr::Load(0))
                    .instr(Instr::GetField { class: "User".into(), field: "name".into() })
                    .instr(Instr::ReturnValue);
            })
            .static_method("bump", [], Type::Void, |m| {
                m.instr(Instr::GetStatic { class: "User".into(), field: "count".into() })
                    .instr(Instr::ConstInt(1))
                    .instr(Instr::Add)
                    .instr(Instr::PutStatic { class: "User".into(), field: "count".into() })
                    .instr(Instr::Return);
            })
            .build()
    }

    #[test]
    fn roundtrip_preserves_class() {
        let class = sample_class();
        let bytes = encode(&class);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(class, decoded);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample_class());
        bytes[0] = b'X';
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
    }

    #[test]
    fn rejects_truncated_input() {
        let bytes = encode(&sample_class());
        let err = decode(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.message.contains("end of input"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode(&sample_class());
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_inflated_field_count() {
        // A memberless class ends with the three u32 counts, so the
        // field count is the first of the last 12 bytes.
        let class = ClassBuilder::new("T").build();
        let mut bytes = encode(&class);
        let at = bytes.len() - 12;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("field count"), "{err}");
    }

    #[test]
    fn rejects_inflated_instruction_count() {
        // A one-instruction body ends with ninstrs (4 bytes) + Return (1).
        let class = ClassBuilder::new("T")
            .static_method("f", [], Type::Void, |m| {
                m.instr(Instr::Return);
            })
            .build();
        let mut bytes = encode(&class);
        let at = bytes.len() - 5;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("instruction count"), "{err}");
    }

    #[test]
    fn every_truncation_and_length_inflation_fails_cleanly() {
        // No prefix of a valid encoding decodes, and no 4-byte window
        // stamped with 0xFFFFFFFF can panic or allocate past the buffer.
        let bytes = encode(&sample_class());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        for at in 0..bytes.len().saturating_sub(4) {
            let mut mutant = bytes.clone();
            mutant[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = decode(&mutant); // must return, not panic or OOM
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        // Find the first opcode of the constructor body and corrupt it.
        let class = ClassBuilder::new("T")
            .static_method("f", [], Type::Void, |m| {
                m.instr(Instr::Return);
            })
            .build();
        let mut bytes = encode(&class);
        let last = bytes.len() - 1;
        bytes[last] = 200;
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("opcode"), "{err}");
    }
}
