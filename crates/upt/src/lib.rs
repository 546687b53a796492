//! `jvolve-upt` — the paper's Update Preparation Tool as a standalone
//! subsystem (paper §3.1 / Figure 1).
//!
//! Given two compiled MJ programs (source files, `lang::codegen` output,
//! or decoded `classfile` payloads), the UPT:
//!
//! 1. diffs them class-by-class and method-by-method and computes the
//!    restricted set and the indirect-method closure — through the *same*
//!    classifier the update controller validates against
//!    ([`jvolve::diff::prepare_spec`] / [`jvolve::restricted`]), so the
//!    tool and the VM can never disagree about a release;
//! 2. classifies every change into [`ClassChangeKind`]s and emits a
//!    complete [`UpdateSpec`](jvolve::UpdateSpec);
//! 3. generates default transformers — identity field mapping by
//!    name + type, new fields zero/default-initialized, deleted fields
//!    dropped — with user-supplied transformers overriding **per class**
//!    (the fine-grained patch model of "Fine-grained Patches for Java
//!    Software Upgrades"): an override replaces only that class's
//!    `jvolve_class_X`/`jvolve_object_X` pair while every other class
//!    keeps its generated defaults;
//! 4. writes the result as an on-disk bundle ([`jvolve::bundle`]) that
//!    `jvolve_run --update-bundle` / `fleet_run --update-bundle` apply,
//!    and loads such bundles back (re-verified).
//!
//! Every failure is a typed [`UptError`]; the tool never panics on user
//! input (pinned by the `upt` fuzz family).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use jvolve::bundle::{self, BundleError};
use jvolve::restricted::RestrictedSet;
use jvolve::transform::{
    assemble_transformers_source, default_transformer_methods, TransformerMethods,
};
use jvolve::{check_transformer_signatures, ClassChangeKind, ReleaseSummary, Update, UpdateError};
use jvolve_classfile::{ClassFile, ClassName, MethodRef};

/// Why update preparation failed.
#[derive(Clone, Debug)]
pub enum UptError {
    /// A file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error, rendered.
        error: String,
    },
    /// One of the two program versions failed to compile.
    Compile {
        /// Which version: `"old"` or `"new"`.
        which: &'static str,
        /// The compile error, rendered.
        error: String,
    },
    /// The diff/preparation itself failed (identical versions, payload
    /// verification failure, …).
    Prepare(UpdateError),
    /// A transformer override names a class that has no class update in
    /// this release — there is nothing for it to transform.
    OverrideUnknownClass {
        /// The named class.
        class: String,
    },
    /// The transformer source (after merging overrides) fails to compile
    /// or declares an ill-typed transformer method.
    BadTransformers {
        /// Description of the failure.
        error: String,
    },
    /// A bundle could not be emitted or loaded.
    Bundle(String),
}

impl fmt::Display for UptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UptError::Io { path, error } => write!(f, "{path}: {error}"),
            UptError::Compile { which, error } => {
                write!(f, "{which} version does not compile: {error}")
            }
            UptError::Prepare(e) => write!(f, "prepare failed: {e}"),
            UptError::OverrideUnknownClass { class } => {
                write!(f, "transformer override for {class}, but {class} has no class update")
            }
            UptError::BadTransformers { error } => write!(f, "bad transformers: {error}"),
            UptError::Bundle(e) => write!(f, "bundle error: {e}"),
        }
    }
}

impl std::error::Error for UptError {}

impl From<BundleError> for UptError {
    fn from(e: BundleError) -> Self {
        UptError::Bundle(e.to_string())
    }
}

/// Preparation knobs.
#[derive(Clone, Debug, Default)]
pub struct UptOptions {
    /// Version prefix for old-class renaming, e.g. `"v513_"`.
    pub version_prefix: String,
    /// Per-class transformer overrides: class name → MJ source of that
    /// class's `jvolve_class_X`/`jvolve_object_X` method pair (class-body
    /// level, as generated by
    /// [`jvolve::transform::default_transformer_methods`]). Classes not
    /// named here keep their generated defaults.
    pub overrides: BTreeMap<String, String>,
    /// User-restricted methods (paper category 3).
    pub blacklist: Vec<MethodRef>,
}

impl UptOptions {
    /// Options with a prefix and no overrides.
    pub fn with_prefix(prefix: impl Into<String>) -> Self {
        UptOptions { version_prefix: prefix.into(), ..Default::default() }
    }
}

/// A fully prepared release: the update (ready for a controller), the
/// generated defaults, and the classification report.
#[derive(Clone, Debug)]
pub struct PreparedRelease {
    /// The prepared update — spec, payloads, merged transformer source.
    pub update: Update,
    /// The generated default transformer pairs, pre-override (one per
    /// class update).
    pub defaults: Vec<TransformerMethods>,
    /// Classes whose transformers were replaced by user overrides.
    pub overridden: Vec<ClassName>,
}

impl PreparedRelease {
    /// The restricted set this release induces (categories 1–3).
    pub fn restricted(&self) -> RestrictedSet {
        RestrictedSet::compute(&self.update.spec, &self.update.old_classes, &self.update.blacklist)
    }

    /// The per-release summary row (the paper's Tables 2–4).
    pub fn summary(&self) -> ReleaseSummary {
        ReleaseSummary::from_spec(&self.update.spec.version_prefix, &self.update.spec)
    }

    /// A human-readable classification report: one line per changed,
    /// added, and deleted class, then the indirect closure and the
    /// restricted-set size.
    pub fn classification(&self) -> String {
        let spec = &self.update.spec;
        let mut out = String::new();
        for delta in &spec.changed {
            let kind = match delta.kind {
                ClassChangeKind::ClassUpdate => "ClassUpdate",
                ClassChangeKind::MethodBodyOnly => "MethodBodyOnly",
            };
            let note = if delta.inherited_only { " (inherited layout change)" } else { "" };
            out.push_str(&format!("{}: {kind}{note}\n", delta.name));
        }
        for name in &spec.added_classes {
            out.push_str(&format!("{name}: Added\n"));
        }
        for name in &spec.deleted_classes {
            out.push_str(&format!("{name}: Deleted\n"));
        }
        let indirect: Vec<String> = spec.indirect_methods.iter().map(ToString::to_string).collect();
        out.push_str(&format!("indirect (category-2) methods: {}\n", indirect.join(", ")));
        out.push_str(&format!("restricted methods: {}\n", self.restricted().len()));
        out.push_str(&format!(
            "method-body-only (E&C) systems could apply this update: {}\n",
            if spec.is_body_only() { "yes" } else { "no" }
        ));
        out
    }
}

/// Prepares a release from two compiled class lists (the `lang::codegen`
/// output, or decoded `classfile` payloads).
///
/// # Errors
///
/// [`UptError::Prepare`] when the diff fails,
/// [`UptError::OverrideUnknownClass`] for an override naming a class
/// without a class update, [`UptError::BadTransformers`] when the merged
/// transformer source is unusable.
pub fn prepare_classes(
    old: &[ClassFile],
    new: &[ClassFile],
    opts: &UptOptions,
) -> Result<PreparedRelease, UptError> {
    let mut update =
        Update::prepare(old, new, &opts.version_prefix).map_err(UptError::Prepare)?;
    update.blacklist(opts.blacklist.iter().cloned());

    let defaults =
        default_transformer_methods(&update.spec, &update.old_classes, &update.new_classes);

    // Merge: user overrides replace the generated pair for their class.
    let mut overridden = Vec::new();
    let mut parts: Vec<(ClassName, &str)> =
        defaults.iter().map(|p| (p.class.clone(), p.source.as_str())).collect();
    for (class, source) in &opts.overrides {
        let name = ClassName::from(class.as_str());
        let Some(slot) = parts.iter_mut().find(|(n, _)| *n == name) else {
            return Err(UptError::OverrideUnknownClass { class: class.clone() });
        };
        slot.1 = source.as_str();
        overridden.push(name);
    }
    let source = assemble_transformers_source(parts.iter().map(|(_, s)| *s));

    // Compile the merged source *now*, in transformer mode, and pin every
    // transformer's shape: a broken override is a typed preparation error,
    // and the class files stay with the update (the paper's UPT emits
    // `JvolveTransformers.class`), so no VM applying it compiles anything.
    update.set_transformers_source(source);
    update
        .compiled_transformers()
        .and_then(|classes| check_transformer_signatures(&update.spec, classes))
        .map_err(|e| UptError::BadTransformers { error: e.to_string() })?;
    Ok(PreparedRelease { update, defaults, overridden })
}

/// [`prepare_classes`] over MJ sources.
///
/// # Errors
///
/// [`UptError::Compile`] when either version fails to compile, else as
/// [`prepare_classes`].
pub fn prepare_sources(
    old_src: &str,
    new_src: &str,
    opts: &UptOptions,
) -> Result<PreparedRelease, UptError> {
    let old = jvolve_lang::compile(old_src)
        .map_err(|e| UptError::Compile { which: "old", error: e.to_string() })?;
    let new = jvolve_lang::compile(new_src)
        .map_err(|e| UptError::Compile { which: "new", error: e.to_string() })?;
    prepare_classes(&old, &new, opts)
}

/// [`prepare_sources`] over MJ source files.
///
/// # Errors
///
/// [`UptError::Io`] when a file cannot be read, else as
/// [`prepare_sources`].
pub fn prepare_files(
    old_path: &Path,
    new_path: &Path,
    opts: &UptOptions,
) -> Result<PreparedRelease, UptError> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| UptError::Io { path: p.display().to_string(), error: e.to_string() })
    };
    prepare_sources(&read(old_path)?, &read(new_path)?, opts)
}

/// Writes a prepared release as an on-disk bundle ([`jvolve::bundle`]).
///
/// # Errors
///
/// [`UptError::Bundle`] on any write failure.
pub fn emit_bundle(dir: &Path, release: &PreparedRelease) -> Result<(), UptError> {
    bundle::emit(dir, &release.update).map_err(UptError::from)
}

/// Loads a bundle directory back into a prepared [`Update`], re-verifying
/// the payload and cross-checking the spec.
///
/// # Errors
///
/// [`UptError::Bundle`] when the bundle is unreadable or inconsistent.
pub fn load_bundle(dir: &Path) -> Result<Update, UptError> {
    bundle::load(dir).map_err(UptError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = "
      class User { field name: String; field age: int; }
      class Registry {
        static field users: int;
        static method count(): int { return Registry.users; }
      }";
    const NEW: &str = "
      class User { field name: String; field age: int; field score: int; }
      class Registry {
        static field users: int;
        static method count(): int { return Registry.users; }
      }";

    #[test]
    fn prepare_generates_defaults_and_classifies() {
        let rel = prepare_sources(OLD, NEW, &UptOptions::with_prefix("v1_")).unwrap();
        assert_eq!(rel.defaults.len(), 1);
        assert_eq!(rel.defaults[0].class.as_str(), "User");
        assert!(rel.update.transformers_source().contains("to.name = from.name;"));
        assert!(rel.classification().contains("User: ClassUpdate"));
        assert!(rel.overridden.is_empty());
        // Registry.count reads Registry statics only — not indirect; but
        // the restricted set covers User's methods (ctor).
        assert!(!rel.restricted().is_empty());
    }

    #[test]
    fn per_class_override_replaces_only_that_class() {
        let mut opts = UptOptions::with_prefix("v1_");
        opts.overrides.insert(
            "User".into(),
            "  static method jvolve_class_User(): void { }
               static method jvolve_object_User(to: User, from: v1_User): void {
                 to.name = from.name;
                 to.age = from.age;
                 to.score = from.age * 10;
               }\n"
            .into(),
        );
        let rel = prepare_sources(OLD, NEW, &opts).unwrap();
        assert_eq!(rel.overridden, [ClassName::from("User")]);
        assert!(rel.update.transformers_source().contains("to.score = from.age * 10;"));
        // The generated default for User is gone, but the class wrapper
        // and structure remain intact.
        assert!(rel.update.transformers_source().starts_with("class JvolveTransformers {"));
    }

    #[test]
    fn override_for_unchanged_class_is_rejected() {
        let mut opts = UptOptions::with_prefix("v1_");
        opts.overrides.insert("Registry".into(), "  // nothing\n".into());
        let err = prepare_sources(OLD, NEW, &opts).unwrap_err();
        assert!(matches!(err, UptError::OverrideUnknownClass { ref class } if class == "Registry"));
    }

    #[test]
    fn broken_override_is_a_typed_error() {
        let mut opts = UptOptions::with_prefix("v1_");
        opts.overrides.insert("User".into(), "  static method jvolve_object_User(".into());
        let err = prepare_sources(OLD, NEW, &opts).unwrap_err();
        assert!(matches!(err, UptError::BadTransformers { .. }), "{err}");

        // Wrong shape (missing object transformer) is also typed.
        let mut opts = UptOptions::with_prefix("v1_");
        opts.overrides.insert("User".into(), "  static method jvolve_class_User(): void { }\n".into());
        let err = prepare_sources(OLD, NEW, &opts).unwrap_err();
        assert!(matches!(err, UptError::BadTransformers { .. }), "{err}");
    }

    #[test]
    fn identical_versions_are_a_typed_error() {
        let err = prepare_sources(OLD, OLD, &UptOptions::with_prefix("v1_")).unwrap_err();
        assert!(matches!(err, UptError::Prepare(UpdateError::Empty)));
    }

    #[test]
    fn bundle_roundtrip_through_the_upt() {
        let rel = prepare_sources(OLD, NEW, &UptOptions::with_prefix("v1_")).unwrap();
        let dir = std::env::temp_dir().join(format!("jvolve-upt-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        emit_bundle(&dir, &rel).unwrap();
        let loaded = load_bundle(&dir).unwrap();
        assert_eq!(loaded.spec, rel.update.spec);
        assert_eq!(loaded.transformers_source(), rel.update.transformers_source());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
