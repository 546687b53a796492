//! Class, field and method definitions.

use std::fmt;
use std::sync::Arc;

use crate::bytecode::Instr;
use crate::name::ClassName;
use crate::ty::Type;

/// Name given to constructors in class files (as in JVM class files).
pub const CTOR_NAME: &str = "<init>";
/// Name of a class's static initializer method, run once at load time.
pub const CLINIT_NAME: &str = "<clinit>";

/// Member visibility.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Visibility {
    /// Accessible everywhere.
    #[default]
    Public,
    /// Accessible only in the declaring class.
    Private,
    /// Accessible in the declaring class and subclasses.
    Protected,
}

/// Per-class flags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ClassFlags {
    /// Transformer-class allowance (paper §2.3): bytecode in this class may
    /// read/write `private`/`protected` members of other classes and assign
    /// to `final` fields. Normal classes never have this set; the verifier
    /// honors it only because the update driver loads transformer classes
    /// in a special circumstance (footnote 1 in the paper).
    pub access_override: bool,
    /// Builtin class whose methods are implemented natively by the VM
    /// (e.g. `Sys`, `Str`, `Net`). Methods of such classes have no bytecode.
    pub native: bool,
}

impl ClassFlags {
    /// Flags for the special transformer class.
    pub const ACCESS_OVERRIDE: ClassFlags = ClassFlags { access_override: true, native: false };
    /// Flags for VM-native builtin classes.
    pub const NATIVE: ClassFlags = ClassFlags { access_override: false, native: true };
}

/// An instance or static field declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDef {
    /// Field name, unique within the declaring class.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Access control.
    pub visibility: Visibility,
    /// `final` fields may only be assigned in constructors of the declaring
    /// class (or by transformer code compiled with access override).
    pub is_final: bool,
}

impl FieldDef {
    /// Creates a public, non-final field.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        FieldDef { name: name.into(), ty, visibility: Visibility::Public, is_final: false }
    }
}

/// What kind of method a [`MethodDef`] is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MethodKind {
    /// An ordinary instance or static method.
    Regular,
    /// A constructor (`<init>`); always an instance method returning void.
    Constructor,
    /// The static initializer (`<clinit>`).
    StaticInit,
}

/// A method body: instruction sequence plus frame sizing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Code {
    /// The instructions. Branch targets index into this vector.
    pub instrs: Vec<Instr>,
    /// Number of local slots the frame needs (parameters included).
    pub max_locals: u16,
}

/// A method declaration, possibly with a body.
///
/// Native builtin methods ([`ClassFlags::native`]) have `code == None`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MethodDef {
    /// Method name; `<init>` for constructors.
    pub name: String,
    /// Parameter types, excluding the implicit `this`.
    pub params: Vec<Type>,
    /// Return type ([`Type::Void`] for void methods).
    pub ret: Type,
    /// Whether this is a static method (no `this`).
    pub is_static: bool,
    /// Access control.
    pub visibility: Visibility,
    /// Regular method, constructor, or static initializer.
    pub kind: MethodKind,
    /// Bytecode, or `None` for native methods. Shared, so that cloning a
    /// definition (a VM linking it, an update's rollback ledger keeping
    /// it) copies no instructions.
    pub code: Option<Arc<Code>>,
}

impl MethodDef {
    /// The method's *signature* for update classification: everything except
    /// the body. Two versions of a method whose signatures are equal but
    /// whose bodies differ constitute a **method body update** (paper §3.1);
    /// differing signatures make the enclosing change a **class update**.
    pub fn signature(&self) -> MethodSignature {
        MethodSignature {
            name: self.name.clone(),
            params: self.params.clone(),
            ret: self.ret.clone(),
            is_static: self.is_static,
            visibility: self.visibility,
        }
    }

    /// Total number of parameters including `this` for instance methods.
    pub fn arity_with_receiver(&self) -> usize {
        self.params.len() + usize::from(!self.is_static)
    }
}

/// The update-relevant part of a method declaration (no body).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MethodSignature {
    /// Method name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Staticness.
    pub is_static: bool,
    /// Access control.
    pub visibility: Visibility,
}

impl fmt::Display for MethodSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_static {
            f.write_str("static ")?;
        }
        write!(f, "{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "): {}", self.ret)
    }
}

/// A complete class definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassFile {
    /// Class name, unique within a program version.
    pub name: ClassName,
    /// Superclass; `None` only for the root class `Object`.
    pub superclass: Option<ClassName>,
    /// Instance fields declared by this class (inherited fields are not
    /// repeated; object layout is superclass fields first, then these).
    pub fields: Vec<FieldDef>,
    /// Static fields declared by this class.
    pub static_fields: Vec<FieldDef>,
    /// Methods declared by this class.
    pub methods: Vec<MethodDef>,
    /// Class-level flags.
    pub flags: ClassFlags,
}

impl ClassFile {
    /// Finds a method declared *in this class* by name.
    pub fn find_method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Finds an instance field declared *in this class* by name.
    pub fn find_field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Finds a static field declared in this class by name.
    pub fn find_static_field(&self, name: &str) -> Option<&FieldDef> {
        self.static_fields.iter().find(|f| f.name == name)
    }

    /// Whether this is the root class (`Object` has no superclass).
    pub fn is_root(&self) -> bool {
        self.superclass.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method(name: &str, params: Vec<Type>, body: Vec<Instr>) -> MethodDef {
        MethodDef {
            name: name.into(),
            params,
            ret: Type::Void,
            is_static: false,
            visibility: Visibility::Public,
            kind: MethodKind::Regular,
            code: Some(Arc::new(Code { instrs: body, max_locals: 1 })),
        }
    }

    #[test]
    fn signature_ignores_body() {
        let a = method("f", vec![Type::Int], vec![Instr::Return]);
        let b = method("f", vec![Type::Int], vec![Instr::ConstInt(1), Instr::Pop, Instr::Return]);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.code, b.code);
    }

    #[test]
    fn signature_distinguishes_param_types() {
        let a = method("f", vec![Type::array(Type::string())], vec![Instr::Return]);
        let b = method(
            "f",
            vec![Type::array(Type::Class(ClassName::from("EmailAddress")))],
            vec![Instr::Return],
        );
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn signature_display() {
        let m = MethodDef {
            name: "split".into(),
            params: vec![Type::string(), Type::string()],
            ret: Type::array(Type::string()),
            is_static: true,
            visibility: Visibility::Public,
            kind: MethodKind::Regular,
            code: None,
        };
        assert_eq!(m.signature().to_string(), "static split(String, String): String[]");
    }

    #[test]
    fn arity_with_receiver() {
        let mut m = method("f", vec![Type::Int, Type::Int], vec![Instr::Return]);
        assert_eq!(m.arity_with_receiver(), 3);
        m.is_static = true;
        assert_eq!(m.arity_with_receiver(), 2);
    }
}
