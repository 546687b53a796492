//! Lowering pure field-copy object transformers to native copy plans.
//!
//! The transformers the UPT generates are lists of `to.f = from.f;` — the
//! paper's default (§2.3): copy the fields whose name and type are
//! unchanged, leave the rest at their defaults. Running one interpreted
//! frame per object to execute such a list dominated the update pause, so
//! the controller recognises the shape and hands the VM a
//! [`CopyPlan`] instead: a slot-to-slot move list the update-GC (or the
//! lazy read barrier) applies while it has the object in hand.
//!
//! Eligibility is a property of the **compiled method body**, not of
//! where the source came from. [`recognise`] accepts exactly
//!
//! ```text
//! ( load 0; load 1; getfield FROM.g; putfield TO.f )*  return
//! ```
//!
//! where `g` and `f` resolve on the two layouts to fields of identical
//! type and no destination repeats. A generated default qualifies; so
//! does a hand-written transformer that happens to be a pure copy. One
//! extra instruction — a loop, a `new`, a call, a constant store, a
//! `Dsu.forceTransform` — and the method is interpreted as before.
//! Nothing is trusted from an update bundle: a bundle carries transformer
//! *source*, the controller compiles it, and the plan is derived from the
//! result against the layouts the registry actually holds.

use jvolve_classfile::bytecode::Instr;
use jvolve_classfile::{ClassName, Type};
use jvolve_vm::heap::CopyPlan;

/// One class's flattened instance layout: `(field name, declared type)`
/// per field word, in slot order (inherited fields first).
pub type Layout<'a> = [(&'a str, &'a Type)];

fn slot_of<'a>(layout: &Layout<'a>, field: &str) -> Option<(u32, &'a Type)> {
    let slot = layout.iter().position(|&(name, _)| name == field)?;
    Some((slot as u32, layout[slot].1))
}

/// Lowers the body of `jvolve_object_X(to: TO, from: FROM)` to a copy
/// plan, or returns `None` if the body is anything but a straight-line
/// list of same-type field copies from `from` to `to`.
///
/// `to_layout` and `from_layout` are the layouts of the new class `to`
/// and the (renamed) old class `from` — the exact classes of the two
/// arguments the VM passes. One pass over `code`; nothing is compiled,
/// diffed, or allocated beyond the plan itself.
pub fn recognise(
    code: &[Instr],
    to: &ClassName,
    to_layout: &Layout<'_>,
    from: &ClassName,
    from_layout: &Layout<'_>,
) -> Option<CopyPlan> {
    let (ret, copies) = code.split_last()?;
    if *ret != Instr::Return || copies.len() % 4 != 0 {
        return None;
    }
    let mut moves = Vec::with_capacity(copies.len() / 4);
    for quad in copies.chunks_exact(4) {
        let [Instr::Load(0), Instr::Load(1), Instr::GetField {
            class: get_class,
            field: g,
        }, Instr::PutField {
            class: put_class,
            field: f,
        }] = quad
        else {
            return None;
        };
        if get_class != from || put_class != to {
            return None;
        }
        let (old_slot, old_ty) = slot_of(from_layout, g)?;
        let (new_slot, new_ty) = slot_of(to_layout, f)?;
        if old_ty != new_ty {
            return None;
        }
        moves.push((old_slot, new_slot));
    }
    // `CopyPlan::new` rejects a destination written twice.
    CopyPlan::new(to_layout.len(), &moves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(class: &str, field: &str) -> Instr {
        Instr::GetField {
            class: ClassName::from(class),
            field: field.into(),
        }
    }
    fn put(class: &str, field: &str) -> Instr {
        Instr::PutField {
            class: ClassName::from(class),
            field: field.into(),
        }
    }
    fn copy(g: &str, f: &str) -> [Instr; 4] {
        [Instr::Load(0), Instr::Load(1), get("v1_C", g), put("C", f)]
    }

    fn recognise_c(code: &[Instr]) -> Option<CopyPlan> {
        let (int, string) = (Type::Int, Type::Class(ClassName::from("String")));
        let old: Vec<(&str, &Type)> = vec![("a", &int), ("s", &string), ("gone", &int)];
        let new: Vec<(&str, &Type)> = vec![("s", &string), ("fresh", &int), ("a", &int)];
        recognise(
            code,
            &ClassName::from("C"),
            &new,
            &ClassName::from("v1_C"),
            &old,
        )
    }

    #[test]
    fn a_list_of_same_type_copies_lowers_to_slot_moves() {
        let mut code: Vec<Instr> = copy("a", "a").into_iter().chain(copy("s", "s")).collect();
        code.push(Instr::Return);
        let plan = recognise_c(&code).expect("pure copy");
        assert_eq!(plan.sources(), &[1, CopyPlan::ZERO, 0]);
    }

    #[test]
    fn an_empty_transformer_is_the_all_default_plan() {
        let plan = recognise_c(&[Instr::Return]).expect("no copies is still a pure copy");
        assert_eq!(plan.sources(), &[CopyPlan::ZERO; 3]);
    }

    #[test]
    fn anything_else_is_left_to_the_interpreter() {
        let with_ret = |body: Vec<Instr>| {
            let mut code = body;
            code.push(Instr::Return);
            code
        };
        // A copy between differently named fields of one type is fine…
        assert!(recognise_c(&with_ret(copy("gone", "fresh").to_vec())).is_some());
        // …a type-changing one is not,
        assert!(recognise_c(&with_ret(copy("s", "a").to_vec())).is_none());
        // nor a repeated destination,
        let twice: Vec<Instr> = copy("a", "a")
            .into_iter()
            .chain(copy("gone", "a"))
            .collect();
        assert!(recognise_c(&with_ret(twice)).is_none());
        // a constant store,
        let constant = vec![Instr::Load(0), Instr::ConstInt(1), put("C", "fresh")];
        assert!(recognise_c(&with_ret(constant)).is_none());
        // swapped operands (`from.a = to.a`),
        let swapped = vec![
            Instr::Load(1),
            Instr::Load(0),
            get("C", "a"),
            put("v1_C", "a"),
        ];
        assert!(recognise_c(&with_ret(swapped)).is_none());
        // an unknown field, a missing or trailing instruction.
        assert!(recognise_c(&with_ret(copy("nope", "a").to_vec())).is_none());
        assert!(recognise_c(&copy("a", "a")).is_none());
        let mut trailing = with_ret(copy("a", "a").to_vec());
        trailing.push(Instr::Return);
        assert!(recognise_c(&trailing).is_none());
        assert!(recognise_c(&[]).is_none());
    }
}
