//! Release-summary reporting: the rows of the paper's Tables 2–4.
//!
//! Each table row summarizes one release transition: classes added /
//! deleted / changed, changed methods (body-only `x` vs signature-changed
//! `y`, printed `x/y` as in the paper), methods added / deleted, and
//! fields added / deleted.

use std::fmt;

use crate::driver::UpdateStats;
use crate::error::UpdateError;
use crate::spec::UpdateSpec;

/// Counts for one release transition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReleaseSummary {
    /// Version label, e.g. "5.1.3".
    pub version: String,
    /// Classes added.
    pub classes_added: usize,
    /// Classes deleted.
    pub classes_deleted: usize,
    /// Classes changed (either kind).
    pub classes_changed: usize,
    /// Methods whose body changed (the paper's `x` in `x/y`).
    pub methods_body_changed: usize,
    /// Methods whose signature changed (the paper's `y`).
    pub methods_sig_changed: usize,
    /// Methods added.
    pub methods_added: usize,
    /// Methods deleted.
    pub methods_deleted: usize,
    /// Fields (instance + static) added.
    pub fields_added: usize,
    /// Fields deleted.
    pub fields_deleted: usize,
    /// Fields whose type or modifiers changed.
    pub fields_changed: usize,
}

impl ReleaseSummary {
    /// Summarizes a spec under a version label.
    pub fn from_spec(version: impl Into<String>, spec: &UpdateSpec) -> Self {
        let mut s = ReleaseSummary { version: version.into(), ..Default::default() };
        s.classes_added = spec.added_classes.len();
        s.classes_deleted = spec.deleted_classes.len();
        // `inherited_only` deltas are bookkeeping, not developer changes;
        // the paper's tables count actually-edited classes.
        s.classes_changed = spec.changed.iter().filter(|d| !d.inherited_only).count();
        for d in &spec.changed {
            s.methods_body_changed += d.methods_body_changed.len();
            s.methods_sig_changed += d.methods_sig_changed.len();
            s.methods_added += d.methods_added.len();
            s.methods_deleted += d.methods_deleted.len();
            s.fields_added += d.fields_added.len() + d.statics_added.len();
            s.fields_deleted += d.fields_deleted.len() + d.statics_deleted.len();
            s.fields_changed += d.fields_changed.len() + d.statics_changed.len();
        }
        s
    }

    /// The paper's `x/y` notation for changed methods.
    pub fn methods_changed_xy(&self) -> String {
        format!("{}/{}", self.methods_body_changed, self.methods_sig_changed)
    }

    /// Header matching [`fmt::Display`]'s row layout.
    pub fn table_header() -> String {
        format!(
            "{:<9} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>7} | {:>5} {:>5}",
            "Ver.", "cls+", "cls-", "chg", "m+", "m-", "m chg", "f+", "f-"
        )
    }
}

impl fmt::Display for ReleaseSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>7} | {:>5} {:>5}",
            self.version,
            self.classes_added,
            self.classes_deleted,
            self.classes_changed,
            self.methods_added,
            self.methods_deleted,
            self.methods_changed_xy(),
            self.fields_added,
            self.fields_deleted,
        )
    }
}

/// Outcome of attempting one release's dynamic update, for the §4 summary
/// ("JVolve can support 20 of the 22 updates"): the printable summary of
/// an update's `Result`, derived from it with `From`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Applied at a DSU safe point.
    Applied {
        /// Whether OSR was needed to lift category-2 restrictions.
        used_osr: bool,
        /// Return barriers installed while waiting.
        barriers: usize,
    },
    /// Timed out: some restricted method never left the stacks.
    TimedOut {
        /// The offending methods.
        blocking: Vec<String>,
    },
    /// Failed for another reason.
    Failed {
        /// Description.
        reason: String,
    },
}

impl From<&Result<UpdateStats, UpdateError>> for UpdateOutcome {
    fn from(result: &Result<UpdateStats, UpdateError>) -> Self {
        match result {
            Ok(stats) => UpdateOutcome::Applied {
                used_osr: stats.osr_replacements > 0,
                barriers: stats.barriers_installed,
            },
            Err(UpdateError::Timeout { blocking, .. }) => {
                UpdateOutcome::TimedOut { blocking: blocking.clone() }
            }
            Err(e) => UpdateOutcome::Failed { reason: e.to_string() },
        }
    }
}

impl UpdateOutcome {
    /// Whether the update was applied.
    pub fn supported(&self) -> bool {
        matches!(self, UpdateOutcome::Applied { .. })
    }
}

impl fmt::Display for UpdateOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateOutcome::Applied { used_osr, barriers } => {
                write!(f, "applied")?;
                if *used_osr {
                    write!(f, " (OSR)")?;
                }
                if *barriers > 0 {
                    write!(f, " ({barriers} barriers)")?;
                }
                Ok(())
            }
            UpdateOutcome::TimedOut { blocking } => {
                write!(f, "UNSUPPORTED: always on stack: {}", blocking.join(", "))
            }
            UpdateOutcome::Failed { reason } => write!(f, "failed: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClassChangeKind, ClassDelta};
    use jvolve_classfile::ClassName;

    #[test]
    fn summary_counts_and_xy_format() {
        let mut delta = ClassDelta::empty(ClassName::from("User"), ClassChangeKind::ClassUpdate);
        delta.methods_body_changed = vec!["loadUser".into()];
        delta.methods_sig_changed = vec!["setForwardedAddresses".into()];
        delta.fields_changed = vec!["forwardAddresses".into()];
        let mut inherited =
            ClassDelta::empty(ClassName::from("Sub"), ClassChangeKind::ClassUpdate);
        inherited.inherited_only = true;
        let spec = UpdateSpec {
            version_prefix: "v131_".into(),
            changed: vec![delta, inherited],
            added_classes: vec![ClassName::from("EmailAddress")],
            deleted_classes: vec![],
            indirect_methods: vec![],
        };
        let s = ReleaseSummary::from_spec("1.3.2", &spec);
        assert_eq!(s.classes_added, 1);
        assert_eq!(s.classes_changed, 1, "inherited-only deltas not counted");
        assert_eq!(s.methods_changed_xy(), "1/1");
        assert_eq!(s.fields_changed, 1);
        let row = s.to_string();
        assert!(row.starts_with("1.3.2"), "{row}");
    }

    #[test]
    fn outcome_display() {
        let ok = UpdateOutcome::Applied { used_osr: true, barriers: 2 };
        assert!(ok.supported());
        assert!(ok.to_string().contains("OSR"));
        let bad = UpdateOutcome::TimedOut { blocking: vec!["S.run".into()] };
        assert!(!bad.supported());
        assert!(bad.to_string().contains("S.run"));
    }
}
