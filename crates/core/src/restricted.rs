//! Restricted-method analysis and DSU safe-point checking (paper §3.2).
//!
//! A DSU safe point is a VM safe point at which no thread's stack contains
//! a *restricted* method:
//!
//! 1. methods whose bytecode changed (method-body updates, plus every
//!    method of a class-updated class);
//! 2. methods whose bytecode is unchanged but whose compiled
//!    representation may change (*indirect* methods) — these don't block
//!    the update, because OSR can replace their frames in place;
//! 3. user-blacklisted methods (version-consistency, e.g. the paper's
//!    `handle`/`process`/`cleanup` example).
//!
//! The paper also restricts any method whose compiled code **inlined** one
//! of the above. Neither tier here inlines (DESIGN §2), so that clause has
//! nothing to restrict.

use std::collections::BTreeSet;

use jvolve_classfile::{ClassSet, MethodRef};
use jvolve_vm::{ThreadId, Vm};

use crate::spec::UpdateSpec;

/// Which restriction category a method falls into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// Bytecode changed (paper category 1).
    Changed,
    /// Compiled representation stale (paper category 2).
    Indirect,
    /// User-blacklisted (paper category 3).
    Blacklisted,
}

/// The restricted sets, as symbolic method references (pre-update names).
#[derive(Clone, Debug, Default)]
pub struct RestrictedSet {
    /// Category 1.
    pub changed: BTreeSet<MethodRef>,
    /// Category 2.
    pub indirect: BTreeSet<MethodRef>,
    /// Category 3.
    pub blacklisted: BTreeSet<MethodRef>,
}

impl RestrictedSet {
    /// Computes the restricted sets for `spec`. `old_set` supplies the
    /// method lists of class-updated classes (all of whose methods are
    /// replaced by the update).
    pub fn compute(spec: &UpdateSpec, old_set: &ClassSet, blacklist: &[MethodRef]) -> Self {
        let mut changed = BTreeSet::new();
        for delta in &spec.changed {
            match delta.kind {
                crate::spec::ClassChangeKind::ClassUpdate => {
                    if let Some(class) = old_set.get(&delta.name) {
                        for m in &class.methods {
                            changed.insert(MethodRef::new(delta.name.clone(), m.name.clone()));
                        }
                    }
                }
                crate::spec::ClassChangeKind::MethodBodyOnly => {
                    for m in &delta.methods_body_changed {
                        changed.insert(MethodRef::new(delta.name.clone(), m.clone()));
                    }
                }
            }
        }
        // Methods of deleted classes may not keep running either.
        for name in &spec.deleted_classes {
            if let Some(class) = old_set.get(name) {
                for m in &class.methods {
                    changed.insert(MethodRef::new(name.clone(), m.name.clone()));
                }
            }
        }
        RestrictedSet {
            changed,
            indirect: spec.indirect_methods.iter().cloned().collect(),
            blacklisted: blacklist.iter().cloned().collect(),
        }
    }

    /// Category of `m`, if restricted at all.
    pub fn category(&self, m: &MethodRef) -> Option<Category> {
        if self.changed.contains(m) {
            Some(Category::Changed)
        } else if self.blacklisted.contains(m) {
            Some(Category::Blacklisted)
        } else if self.indirect.contains(m) {
            Some(Category::Indirect)
        } else {
            None
        }
    }

    /// Total number of restricted methods.
    pub fn len(&self) -> usize {
        self.changed.len() + self.indirect.len() + self.blacklisted.len()
    }

    /// Whether no method is restricted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One frame that prevents (or conditions) the update.
#[derive(Clone, Debug)]
pub struct FrameFinding {
    /// Owning thread.
    pub thread: ThreadId,
    /// Frame index (0 = outermost).
    pub frame: usize,
    /// The method on stack.
    pub method: MethodRef,
    /// Why it matters.
    pub category: Category,
}

/// Result of scanning all thread stacks at a VM safe point.
#[derive(Clone, Debug, Default)]
pub struct StackCheck {
    /// Frames that block the update (categories 1 and 3).
    pub blocking: Vec<FrameFinding>,
    /// Category-2 frames that OSR can replace (paper §3.2 "lifting
    /// category (2) restrictions").
    pub osr_candidates: Vec<FrameFinding>,
}

impl StackCheck {
    /// Whether a DSU safe point has been reached (possibly requiring the
    /// listed OSR replacements before installing the update).
    pub fn safe(&self) -> bool {
        self.blocking.is_empty()
    }
}

/// Scans every live thread's stack against the restricted sets. Must be
/// called between scheduler slices (i.e. at a VM safe point).
pub fn check_stacks(vm: &Vm, restricted: &RestrictedSet) -> StackCheck {
    let mut check = StackCheck::default();
    check_stacks_into(vm, restricted, &mut check);
    check
}

/// [`check_stacks`] into a caller-owned scratch buffer: the update
/// controller polls once per scheduler slice while waiting for a DSU safe
/// point, and reusing the finding vectors keeps the poll free of
/// per-iteration container construction.
pub fn check_stacks_into(vm: &Vm, restricted: &RestrictedSet, check: &mut StackCheck) {
    check.blocking.clear();
    check.osr_candidates.clear();
    let registry = vm.registry();

    for thread in vm.threads() {
        if !thread.is_live() {
            continue;
        }
        for (i, frame) in thread.frames.iter().enumerate() {
            let info = registry.method(frame.method);
            let class_name = registry.class(info.class).name.clone();
            let mref = MethodRef::new(class_name, info.name.clone());
            let Some(category) = restricted.category(&mref) else { continue };
            let finding = FrameFinding { thread: thread.id, frame: i, method: mref, category };
            if category == Category::Indirect {
                check.osr_candidates.push(finding);
            } else {
                check.blocking.push(finding);
            }
        }
    }
}

/// The topmost blocking frame per thread, where return barriers go
/// (paper §3.2: "installs a return barrier on the topmost restricted
/// method of each thread").
pub fn barrier_targets(check: &StackCheck) -> Vec<(ThreadId, usize)> {
    let mut targets = Vec::new();
    barrier_targets_into(check, &mut targets);
    targets
}

/// [`barrier_targets`] into a caller-owned scratch buffer (no per-poll
/// map construction; the result is sorted by thread id).
pub fn barrier_targets_into(check: &StackCheck, out: &mut Vec<(ThreadId, usize)>) {
    out.clear();
    for f in &check.blocking {
        match out.iter_mut().find(|(t, _)| *t == f.thread) {
            Some((_, frame)) => *frame = (*frame).max(f.frame),
            None => out.push((f.thread, f.frame)),
        }
    }
    out.sort_unstable_by_key(|&(t, _)| t.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::prepare_spec;
    use jvolve_classfile::ClassName;

    fn compile_set(src: &str) -> ClassSet {
        let mut set: ClassSet = jvolve_lang::compile(src).unwrap().into_iter().collect();
        for b in jvolve_lang::builtins::builtin_classes() {
            set.insert(b);
        }
        set
    }

    #[test]
    fn class_update_restricts_all_methods() {
        let old = compile_set(
            "class A { field x: int; method f(): void { } method g(): void { } }",
        );
        let new = compile_set(
            "class A { field x: int; field y: int; method f(): void { } method g(): void { } }",
        );
        let spec = prepare_spec(&old, &new, "v1_");
        let r = RestrictedSet::compute(&spec, &old, &[]);
        assert!(r.changed.contains(&MethodRef::new("A", "f")));
        assert!(r.changed.contains(&MethodRef::new("A", "g")));
        // Constructors count too.
        assert!(r.changed.contains(&MethodRef::new("A", "<init>")));
    }

    #[test]
    fn body_update_restricts_only_changed_methods() {
        let old = compile_set("class A { method f(): int { return 1; } method g(): void { } }");
        let new = compile_set("class A { method f(): int { return 2; } method g(): void { } }");
        let spec = prepare_spec(&old, &new, "v1_");
        let r = RestrictedSet::compute(&spec, &old, &[]);
        assert_eq!(r.category(&MethodRef::new("A", "f")), Some(Category::Changed));
        assert_eq!(r.category(&MethodRef::new("A", "g")), None);
    }

    #[test]
    fn blacklist_is_category_3() {
        let old = compile_set("class A { method handle(): void { } }");
        let spec = prepare_spec(&old, &old, "v1_");
        let bl = vec![MethodRef::new("A", "handle")];
        let r = RestrictedSet::compute(&spec, &old, &bl);
        assert_eq!(r.category(&bl[0]), Some(Category::Blacklisted));
    }

    #[test]
    fn stack_check_flags_running_restricted_method() {
        use jvolve_vm::{Vm, VmConfig};
        let src = "class Main {
            static method spin(): int {
              var i: int = 0;
              while (i < 100000) { i = i + 1; }
              return i;
            }
            static method main(): void { Sys.printInt(Main.spin()); }
          }";
        let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
        vm.load_source(src).unwrap();
        vm.spawn("Main", "main").unwrap();
        // Get spin() onto the stack.
        for _ in 0..20 {
            vm.step_slice();
        }

        // Pretend spin's body changed.
        let old = compile_set(src);
        let new = compile_set(&src.replace("i + 1", "i + 1 + 0"));
        let spec = prepare_spec(&old, &new, "v1_");
        let r = RestrictedSet::compute(&spec, &old, &[]);
        let check = check_stacks(&vm, &r);
        assert!(!check.safe(), "spin() is on stack and restricted");
        let targets = barrier_targets(&check);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].1, 1, "barrier goes on the topmost restricted frame");
    }

    #[test]
    fn stack_check_allows_unrelated_updates() {
        use jvolve_vm::{Vm, VmConfig};
        let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
        vm.load_source(
            "class Main {
               static method main(): void {
                 var i: int = 0;
                 while (i < 100000) { i = i + 1; }
               }
             }
             class Unrelated { method f(): int { return 1; } }",
        )
        .unwrap();
        vm.spawn("Main", "main").unwrap();
        vm.step_slice();

        let mut r = RestrictedSet::default();
        r.changed.insert(MethodRef::new(ClassName::from("Unrelated"), "f"));
        let check = check_stacks(&vm, &r);
        assert!(check.safe());
    }
}
