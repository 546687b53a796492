//! Property tests for the copy-plan builder (`jvolve::plan::recognise`).
//!
//! Random old/new versions of a two-class hierarchy `C extends P` have
//! their fields reordered, added, removed, retyped, and moved between the
//! superclass and the subclass. For every class the update changes:
//!
//! * the plan recognised from the *compiled* default transformer equals
//!   the relational spec of the paper's default transformation — new slot
//!   *f* ← old slot *g* iff the two fields have the same name and the
//!   same type, every other new slot zero;
//! * a transformer with one extra or one replaced instruction, a
//!   type-changing copy, or a repeated destination is rejected (it falls
//!   back to the interpreter; it is never mis-planned);
//! * applied to live objects through the whole update path, the plan
//!   leaves exactly the field values the spec predicts, and the same heap
//!   as interpreting the transformer does.

mod testkit;

use testkit::Rng;

use jvolve_repro::classfile::bytecode::Instr;
use jvolve_repro::classfile::{ClassFile, ClassName, ClassSet, Type};
use jvolve_repro::dsu::plan::recognise;
use jvolve_repro::dsu::transform::{compile_transformers, object_transformer_name};
use jvolve_repro::dsu::{apply, ApplyOptions, Update};
use jvolve_repro::vm::heap::CopyPlan;
use jvolve_repro::vm::{Value, Vm, VmConfig};

const TYPES: [&str; 6] = ["int", "bool", "String", "Object", "int[]", "Leaf"];
const NAMES: [&str; 8] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];

/// One version of the hierarchy: per class, `(field name, MJ type)` in
/// declaration order.
#[derive(Clone, Debug)]
struct Version {
    p: Vec<(&'static str, &'static str)>,
    c: Vec<(&'static str, &'static str)>,
}

impl Version {
    fn source(&self) -> String {
        let fields = |fs: &[(&str, &str)]| -> String {
            fs.iter()
                .map(|(n, t)| format!("  field {n}: {t};\n"))
                .collect()
        };
        format!(
            "class Leaf {{ field id: int; }}\nclass P {{\n{}}}\nclass C extends P {{\n{}}}\n",
            fields(&self.p),
            fields(&self.c)
        )
    }
}

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// A random old version and a new one derived from it field by field:
/// kept, retyped, dropped, or moved to the other class; new fields added;
/// both classes' declaration orders reshuffled.
fn version_pair(rng: &mut Rng) -> (Version, Version) {
    let mut old = Version {
        p: Vec::new(),
        c: Vec::new(),
    };
    let mut new = Version {
        p: Vec::new(),
        c: Vec::new(),
    };
    for name in NAMES {
        let ty = *rng.pick(&TYPES);
        let in_p = rng.bool();
        let existed = rng.below(4) != 0;
        if existed {
            if in_p { &mut old.p } else { &mut old.c }.push((name, ty));
        }
        let fate = rng.below(8);
        let (new_ty, new_in_p) = match fate {
            0 if existed => continue,                 // removed
            1 => (*rng.pick(&TYPES), in_p),           // retyped (or not)
            2 => (ty, !in_p),                         // moved across the hierarchy
            _ if existed || rng.bool() => (ty, in_p), // kept, or added
            _ => continue,
        };
        if new_in_p { &mut new.p } else { &mut new.c }.push((name, new_ty));
    }
    for fields in [&mut old.p, &mut old.c, &mut new.p, &mut new.c] {
        shuffle(rng, fields);
    }
    (old, new)
}

/// Flattened instance layout (inherited fields first) of `class`.
fn layout<'a>(set: &'a ClassSet, class: &ClassName) -> Vec<(&'a str, &'a Type)> {
    let file = set.get(class).expect("class in set");
    let mut slots = match &file.superclass {
        Some(sup) if sup.as_str() != "Object" => layout(set, sup),
        _ => Vec::new(),
    };
    slots.extend(file.fields.iter().map(|f| (f.name.as_str(), &f.ty)));
    slots
}

/// The relational spec of the default transformer.
fn spec_sources(old: &[(&str, &Type)], new: &[(&str, &Type)]) -> Vec<u32> {
    new.iter()
        .map(|new_field| {
            old.iter()
                .position(|old_field| old_field == new_field)
                .map_or(CopyPlan::ZERO, |g| g as u32)
        })
        .collect()
}

/// A prepared update plus the compiled default transformer of each
/// changed class, with the layouts the plan is built against.
struct Case {
    update: Update,
    old_classes: Vec<ClassFile>,
    transformers: Vec<Transformer>,
}

struct Transformer {
    class: ClassName,
    old_name: ClassName,
    code: Vec<Instr>,
}

fn case_for(old: &Version, new: &Version) -> Option<Case> {
    let old_classes = jvolve_repro::lang::compile(&old.source()).expect("old version compiles");
    let new_classes = jvolve_repro::lang::compile(&new.source()).expect("new version compiles");
    let update = Update::prepare(&old_classes, &new_classes, "v1_").ok()?;
    let compiled = compile_transformers(
        update.transformers_source(),
        &update.spec,
        &update.old_classes,
        &update.new_classes,
    )
    .expect("default transformers compile");
    let transformers = update
        .spec
        .class_updates()
        .map(|delta| {
            let method = compiled[0]
                .find_method(&object_transformer_name(&delta.name))
                .expect("default transformer generated");
            Transformer {
                class: delta.name.clone(),
                old_name: update.spec.old_name(&delta.name),
                code: method.code.as_ref().expect("has a body").instrs.clone(),
            }
        })
        .collect();
    Some(Case {
        update,
        old_classes,
        transformers,
    })
}

impl Case {
    fn recognise(&self, t: &Transformer, code: &[Instr]) -> Option<CopyPlan> {
        let new = layout(&self.update.new_classes, &t.class);
        let old = layout(&self.update.old_classes, &t.class);
        recognise(code, &t.class, &new, &t.old_name, &old)
    }
}

#[test]
fn recognised_plans_equal_the_relational_field_map() {
    let (mut plans, mut copies) = (0, 0);
    for seed in 0..300 {
        let mut rng = Rng::new(seed);
        let (old, new) = version_pair(&mut rng);
        let Some(case) = case_for(&old, &new) else {
            continue;
        };
        for t in &case.transformers {
            let plan = case.recognise(t, &t.code).unwrap_or_else(|| {
                panic!(
                    "seed {seed}: default transformer of {} not planned",
                    t.class
                )
            });
            let want = spec_sources(
                &layout(&case.update.old_classes, &t.class),
                &layout(&case.update.new_classes, &t.class),
            );
            assert_eq!(
                plan.sources(),
                want,
                "seed {seed}: class {}\n{old:?}\n{new:?}",
                t.class
            );
            plans += 1;
            copies += want.iter().filter(|&&s| s != CopyPlan::ZERO).count();
        }
    }
    assert!(
        plans > 200 && copies > 400,
        "generator too tame: {plans} plans, {copies} copies"
    );
}

#[test]
fn impure_transformers_are_rejected_never_misplanned() {
    let extras = [
        Instr::Dup,
        Instr::Pop,
        Instr::ConstInt(0),
        Instr::ConstNull,
        Instr::Load(0),
        Instr::Load(1),
        Instr::Return,
    ];
    let mut rejected = [0usize; 4];
    for seed in 0..300 {
        let mut rng = Rng::new(seed ^ 0x9A7_7E57);
        let (old, new) = version_pair(&mut rng);
        let Some(case) = case_for(&old, &new) else {
            continue;
        };
        for t in &case.transformers {
            let quads = (t.code.len() - 1) / 4;

            // Any extra instruction, anywhere.
            let mut spliced = t.code.clone();
            spliced.insert(rng.below(t.code.len() + 1), rng.pick(&extras).clone());
            assert!(
                case.recognise(t, &spliced).is_none(),
                "seed {seed}: splice accepted"
            );
            rejected[0] += 1;

            if quads == 0 {
                continue;
            }
            // One operand load swapped for the other.
            let q = rng.below(quads);
            let mut swapped = t.code.clone();
            let at = 4 * q + rng.below(2);
            swapped[at] = if swapped[at] == Instr::Load(0) {
                Instr::Load(1)
            } else {
                Instr::Load(0)
            };
            assert!(
                case.recognise(t, &swapped).is_none(),
                "seed {seed}: swapped load accepted"
            );
            rejected[1] += 1;

            // A copy between fields of different types: redirect one
            // quad's source to an old field of another type, if any.
            let new_layout = layout(&case.update.new_classes, &t.class);
            let old_layout = layout(&case.update.old_classes, &t.class);
            let Instr::PutField { field: dest, .. } = &t.code[4 * q + 3] else {
                panic!("quad shape")
            };
            let dest_ty = new_layout
                .iter()
                .find(|(n, _)| n == dest)
                .expect("dest exists")
                .1;
            if let Some((other, _)) = old_layout.iter().find(|(_, ty)| ty != &dest_ty) {
                let mut retyped = t.code.clone();
                retyped[4 * q + 2] = Instr::GetField {
                    class: t.old_name.clone(),
                    field: other.to_string(),
                };
                assert!(
                    case.recognise(t, &retyped).is_none(),
                    "seed {seed}: retyped copy accepted"
                );
                rejected[2] += 1;
            }

            // The same destination written twice.
            let mut repeated = t.code[..4 * quads].to_vec();
            repeated.extend_from_slice(&t.code[4 * q..4 * q + 4]);
            repeated.push(Instr::Return);
            assert!(
                case.recognise(t, &repeated).is_none(),
                "seed {seed}: repeated dest accepted"
            );
            rejected[3] += 1;
        }
    }
    assert!(
        rejected.iter().all(|&n| n > 100),
        "mutants exercised: {rejected:?}"
    );
}

/// A distinctive non-default value for a field of MJ type `ty`, derived
/// from `salt`; references go to a rooted `Leaf` (for `Object`/`Leaf`
/// fields) or a fresh string. Arrays stay null (the host cannot allocate
/// one), which still distinguishes "copied" from nothing only by type —
/// the other five types carry the weight.
fn plant(vm: &mut Vm, root: usize, field: &str, ty: &str, salt: i64, leaf: usize) {
    let value = match ty {
        "int" => Value::Int(salt),
        "bool" => Value::Bool(true),
        "String" => vm
            .alloc_string_value(&format!("s{salt}"))
            .expect("string fits"),
        "Object" | "Leaf" => Value::Ref(vm.host_root(leaf)),
        _ => Value::Null,
    };
    let obj = vm.host_root(root);
    vm.write_field(obj, field, value);
}

/// What `plant` left in the field, rendered address-independently.
fn render(vm: &Vm, root: usize, field: &str) -> String {
    match vm.read_field(vm.host_root(root), field) {
        Value::Ref(r) if vm.heap().kind(r) == jvolve_repro::vm::heap::HeapKind::Object => {
            format!("leaf {:?}", vm.read_field(r, "id"))
        }
        other => vm.display_value(other),
    }
}

/// How `render` shows an untouched field (the host reads a primitive
/// word back as an int whatever its declared type).
fn default_of(ty: &str) -> &'static str {
    match ty {
        "int" | "bool" => "0",
        _ => "null",
    }
}

/// Builds live `P` and `C` instances with every old field planted,
/// applies the update, and returns each object's rendered new fields plus
/// the heap fingerprint.
fn run_update(
    case: &Case,
    old: &Version,
    new: &Version,
    interpret: bool,
) -> (Vec<String>, u64, usize) {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&case.old_classes)
        .expect("old version loads");
    let leaf = vm.host_alloc("Leaf").expect("leaf fits");
    let leaf_obj = vm.host_root(leaf);
    vm.write_field(leaf_obj, "id", Value::Int(77));

    let mut roots = Vec::new();
    for k in 0..6i64 {
        let class = if k % 2 == 0 { "C" } else { "P" };
        let root = vm.host_alloc(class).expect("object fits");
        let fields = old.p.iter().chain(if class == "C" {
            old.c.iter()
        } else {
            [].iter()
        });
        for (i, &(name, ty)) in fields.enumerate() {
            plant(&mut vm, root, name, ty, 1_000 * (k + 1) + i as i64, leaf);
        }
        roots.push((root, class));
    }

    let opts = ApplyOptions {
        interpret_all_transformers: interpret,
        ..ApplyOptions::default()
    };
    let stats = apply(&mut vm, &case.update, &opts).expect("update applies");
    assert_eq!(
        stats.objects_planned,
        if interpret {
            0
        } else {
            stats.objects_transformed
        }
    );

    let mut rendered = Vec::new();
    for &(root, class) in &roots {
        let fields = new.p.iter().chain(if class == "C" {
            new.c.iter()
        } else {
            [].iter()
        });
        for &(name, _) in fields {
            rendered.push(format!("{class}#{root}.{name}={}", render(&vm, root, name)));
        }
    }
    (rendered, vm.heap_fingerprint(), stats.objects_transformed)
}

#[test]
fn applied_plans_leave_the_values_the_spec_predicts() {
    let mut transformed = 0;
    for seed in 0..60 {
        let mut rng = Rng::new(seed ^ 0x5EED_F1E1D);
        let (old, new) = version_pair(&mut rng);
        let Some(case) = case_for(&old, &new) else {
            continue;
        };
        let (plan_fields, plan_heap, n) = run_update(&case, &old, &new, false);
        let (interp_fields, interp_heap, _) = run_update(&case, &old, &new, true);
        assert_eq!(plan_fields, interp_fields, "seed {seed}");
        assert_eq!(plan_heap, interp_heap, "seed {seed}");
        transformed += n;

        // And against the spec directly: a new field shows the planted
        // value iff the old version had it, same name, same type, on an
        // object of a class that had it.
        for line in &plan_fields {
            let (lhs, got) = line.split_once('=').expect("rendered as lhs=value");
            let (obj, name) = lhs.split_once('.').expect("rendered as obj.field");
            let is_c = obj.starts_with("C#");
            let find = |v: &Version| {
                v.p.iter()
                    .chain(if is_c { v.c.iter() } else { [].iter() })
                    .find(|f| f.0 == name)
                    .copied()
            };
            let (_, new_ty) = find(&new).expect("rendered fields exist in the new version");
            let kept = find(&old).is_some_and(|(_, old_ty)| old_ty == new_ty);
            if !kept {
                assert_eq!(
                    got,
                    default_of(new_ty),
                    "seed {seed}: {line} should be default"
                );
            } else if new_ty != "int[]" {
                assert_ne!(
                    got,
                    default_of(new_ty),
                    "seed {seed}: {line} should be copied"
                );
            }
        }
    }
    assert!(transformed > 100, "only {transformed} objects transformed");
}
