//! On-disk update bundles — the artifact the UPT hands to the VM operator.
//!
//! The paper's workflow (Figure 1) has the Update Preparation Tool write
//! an update specification plus transformer sources to disk; the operator
//! later signals a running VM with those files. This module is that file
//! format: a directory holding
//!
//! ```text
//! bundle/
//!   spec.json         # UpdateSpec (see crate::spec)
//!   transformers.mj   # the JvolveTransformers MJ source
//!   old/<Class>.mjc   # codec-encoded old-version class files
//!   new/<Class>.mjc   # codec-encoded new-version class files
//! ```
//!
//! Builtin classes are never written — both sides re-insert them on load,
//! exactly as [`Update::prepare`] does. Loading re-verifies the payload
//! and cross-checks the spec against a fresh diff
//! ([`Update::from_parts`]), so a bundle is safe to accept from the same
//! trust boundary as any other update payload.

use std::fmt;
use std::fs;
use std::path::Path;

use jvolve_classfile::{codec, ClassFile};

use crate::driver::Update;
use crate::error::UpdateError;
use crate::spec::UpdateSpec;

/// File name of the serialized [`UpdateSpec`].
pub const SPEC_FILE: &str = "spec.json";
/// File name of the transformer class source.
pub const TRANSFORMERS_FILE: &str = "transformers.mj";
/// Subdirectory holding the old-version class payloads.
pub const OLD_DIR: &str = "old";
/// Subdirectory holding the new-version class payloads.
pub const NEW_DIR: &str = "new";
/// Extension of encoded class-file payloads.
pub const CLASS_EXT: &str = "mjc";

/// Why a bundle could not be written or read back.
#[derive(Clone, Debug)]
pub enum BundleError {
    /// A filesystem operation failed.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error, rendered.
        error: String,
    },
    /// A class payload failed to decode.
    Decode {
        /// The offending payload file.
        path: String,
        /// The codec's error, rendered.
        error: String,
    },
    /// `spec.json` failed to parse.
    Spec {
        /// The parse error.
        error: String,
    },
    /// The decoded parts do not form a valid update (verification failure,
    /// spec/payload mismatch, empty diff).
    Update(UpdateError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io { path, error } => write!(f, "{path}: {error}"),
            BundleError::Decode { path, error } => write!(f, "{path}: bad class payload: {error}"),
            BundleError::Spec { error } => write!(f, "spec.json: {error}"),
            BundleError::Update(e) => write!(f, "bundle does not form a valid update: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

fn io_err(path: &Path, error: std::io::Error) -> BundleError {
    BundleError::Io { path: path.display().to_string(), error: error.to_string() }
}

/// Writes `update` as a bundle directory at `dir` (created if needed).
/// Builtin classes are skipped on both sides.
///
/// # Errors
///
/// Returns [`BundleError::Io`] on any filesystem failure.
pub fn emit(dir: &Path, update: &Update) -> Result<(), BundleError> {
    for (sub, set) in [(OLD_DIR, &update.old_classes), (NEW_DIR, &update.new_classes)] {
        let side = dir.join(sub);
        fs::create_dir_all(&side).map_err(|e| io_err(&side, e))?;
        for class in set.iter() {
            if jvolve_lang::builtins::is_builtin(class.name.as_str()) {
                continue;
            }
            let path = side.join(format!("{}.{CLASS_EXT}", class.name));
            fs::write(&path, codec::encode(class)).map_err(|e| io_err(&path, e))?;
        }
    }
    let spec_path = dir.join(SPEC_FILE);
    fs::write(&spec_path, update.spec.to_json()).map_err(|e| io_err(&spec_path, e))?;
    let t_path = dir.join(TRANSFORMERS_FILE);
    fs::write(&t_path, update.transformers_source()).map_err(|e| io_err(&t_path, e))?;
    Ok(())
}

/// Reads one payload side (`old/` or `new/`) in sorted file order.
fn load_side(dir: &Path) -> Result<Vec<ClassFile>, BundleError> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == CLASS_EXT))
        .collect();
    paths.sort();
    let mut classes = Vec::with_capacity(paths.len());
    for path in paths {
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let class = codec::decode(&bytes).map_err(|e| BundleError::Decode {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        classes.push(class);
    }
    Ok(classes)
}

/// Loads a bundle directory back into a prepared [`Update`], re-verifying
/// the payload and cross-checking the spec ([`Update::from_parts`]).
///
/// # Errors
///
/// Any [`BundleError`] variant, depending on which part is broken.
pub fn load(dir: &Path) -> Result<Update, BundleError> {
    let spec_path = dir.join(SPEC_FILE);
    let spec_json = fs::read_to_string(&spec_path).map_err(|e| io_err(&spec_path, e))?;
    let spec = UpdateSpec::from_json(&spec_json).map_err(|error| BundleError::Spec { error })?;
    let t_path = dir.join(TRANSFORMERS_FILE);
    let transformers = fs::read_to_string(&t_path).map_err(|e| io_err(&t_path, e))?;
    let old = load_side(&dir.join(OLD_DIR))?;
    let new = load_side(&dir.join(NEW_DIR))?;
    Update::from_parts(spec, &old, &new, transformers).map_err(BundleError::Update)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_update() -> Update {
        let old = jvolve_lang::compile(
            "class User { field name: String; }
             class Main { static method main(): void { } }",
        )
        .unwrap();
        let new = jvolve_lang::compile(
            "class User { field name: String; field age: int; }
             class Main { static method main(): void { } }",
        )
        .unwrap();
        Update::prepare(&old, &new, "v1_").unwrap()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jvolve-bundle-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn emit_and_load_roundtrip() {
        let update = sample_update();
        let dir = temp_dir("roundtrip");
        emit(&dir, &update).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.spec, update.spec);
        assert_eq!(loaded.transformers_source(), update.transformers_source());
        assert_eq!(loaded.old_classes.len(), update.old_classes.len());
        assert_eq!(loaded.new_classes.len(), update.new_classes.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn builtins_are_not_written() {
        let update = sample_update();
        let dir = temp_dir("nobuiltins");
        emit(&dir, &update).unwrap();
        for sub in [OLD_DIR, NEW_DIR] {
            assert!(!dir.join(sub).join("Sys.mjc").exists());
            assert!(dir.join(sub).join("User.mjc").exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_spec_is_rejected() {
        let update = sample_update();
        let dir = temp_dir("stalespec");
        emit(&dir, &update).unwrap();
        // Corrupt the spec: claim an extra added class.
        let mut spec = update.spec.clone();
        spec.added_classes.push(jvolve_classfile::ClassName::from("Ghost"));
        fs::write(dir.join(SPEC_FILE), spec.to_json()).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(
            matches!(err, BundleError::Update(UpdateError::BadSpec { .. })),
            "got {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        let update = sample_update();
        let dir = temp_dir("corrupt");
        emit(&dir, &update).unwrap();
        fs::write(dir.join(NEW_DIR).join("User.mjc"), b"not a classfile").unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, BundleError::Decode { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
