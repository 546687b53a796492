//! The paper's §4.1 microbenchmark (Table 1 and Figure 6).
//!
//! "The microbenchmark has two simple classes, Change and NoChange. Both
//! contain three integer fields, and three reference fields that are
//! always null. The update adds an integer field to Change. The
//! user-provided object transformation function copies the existing
//! fields and initializes the new field to zero. We measure the cost of
//! performing an update while varying the total number of objects and the
//! fraction of objects of each type."

use std::time::Duration;

use jvolve::{ApplyOptions, MemorySink, Update, UpdateController, UpdateEvent};
use jvolve_vm::{Value, Vm, VmConfig};

/// Guest classes for the microbenchmark (old version).
pub const MICRO_V1: &str = "
class Change {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
}
class NoChange {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
}
";

/// New version: `Change` gains an integer field.
pub const MICRO_V2: &str = "
class Change {
  field a: int; field b: int; field c: int; field w: int;
  field x: Object; field y: Object; field z: Object;
}
class NoChange {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
}
";

/// One Table 1 cell.
#[derive(Debug, Clone)]
pub struct PauseSample {
    /// Total live objects.
    pub objects: usize,
    /// Fraction of objects whose class is updated (0.0–1.0).
    pub fraction: f64,
    /// Semispace words the VM was configured with.
    pub semispace_words: usize,
    /// Update-GC time (Table 1's first group).
    pub gc_time: Duration,
    /// Transformer-execution time (second group).
    pub transform_time: Duration,
    /// Total update pause (third group).
    pub total_time: Duration,
    /// Sum of the four timed phases (the stacked bars of Figure 6).
    pub phase_sum: Duration,
    /// Objects actually transformed.
    pub transformed: usize,
    /// How many of them a native copy plan converted inside the update-GC
    /// (all of them on the default path, none with
    /// `ApplyOptions::interpret_all_transformers`).
    pub planned: usize,
    /// Cells the update GC copied (objects duplicated for an interpreted
    /// transformer count twice).
    pub gc_copied_cells: usize,
    /// Words the update GC copied, headers included.
    pub gc_copied_words: usize,
    /// How many of them its scan skipped (cells holding no reference).
    pub gc_unscanned_words: usize,
}

/// Runs one microbenchmark configuration: `objects` live objects, a
/// `fraction` of which are instances of the updated class, with the
/// product defaults, i.e. the generated field-copy transformer lowered to
/// a copy plan.
///
/// # Panics
///
/// Panics on fixture errors (the microbenchmark classes always compile
/// and the update always applies).
pub fn measure_pause(objects: usize, fraction: f64) -> PauseSample {
    measure_pause_with(objects, fraction, false)
}

/// [`measure_pause`] with an explicit transformer mode:
/// `interpret_all_transformers` runs the transformer as a compiled method
/// in one interpreter frame per object, as the paper does (`table1`'s
/// faithful row). Both modes yield the same transformed count and
/// post-update heap — only the timings and the GC work move.
///
/// # Panics
///
/// Panics on fixture errors, like [`measure_pause`].
pub fn measure_pause_with(
    objects: usize,
    fraction: f64,
    interpret_all_transformers: bool,
) -> PauseSample {
    // Size the heap generously (the paper uses 5x the minimum): live data
    // is ~7 words per object; the update GC additionally materializes an
    // old copy (7 words) and a new object (8 words) per updated object.
    let per_object = 8 + 1;
    let semispace_words = (objects * per_object * 3).max(64 * 1024);
    let mut vm = Vm::new(VmConfig { semispace_words, ..VmConfig::default() });

    let old = jvolve_lang::compile(MICRO_V1).expect("micro v1 compiles");
    let new = jvolve_lang::compile(MICRO_V2).expect("micro v2 compiles");
    vm.load_classes(&old).expect("micro classes load");

    let n_change = (objects as f64 * fraction).round() as usize;
    for i in 0..objects {
        let class = if i < n_change { "Change" } else { "NoChange" };
        let root = vm.host_alloc(class).expect("population fits");
        let r = vm.host_root(root);
        vm.write_field(r, "a", Value::Int(i as i64));
        vm.write_field(r, "b", Value::Int(2 * i as i64));
        vm.write_field(r, "c", Value::Int(3 * i as i64));
    }

    let update = Update::prepare(&old, &new, "v1_").expect("non-empty update");
    let mut events = MemorySink::default();
    let opts = ApplyOptions { interpret_all_transformers, ..ApplyOptions::default() };
    let mut controller = UpdateController::new(&update, opts);
    controller.attach_sink(&mut events);
    let stats = controller.run(&mut vm, |_, _| {}).expect("update applies");

    // Sanity: transformed objects kept their fields and gained w = 0.
    if objects > 0 && n_change > 0 {
        let r = vm.host_root(0);
        assert_eq!(vm.read_field(r, "a"), Value::Int(0));
        assert_eq!(vm.read_field(r, "w"), Value::Int(0));
    }

    // The GC and transformer outcomes come from the controller's typed
    // event stream; the aggregate stats must agree with them (this keeps
    // the default stats sink honest).
    let (mut transformed, mut planned) = (0, 0);
    let mut gc_copied_cells = 0;
    let mut gc_copied_words = 0;
    let mut gc_unscanned_words = 0;
    for event in &events.events {
        match *event {
            UpdateEvent::GcCompleted { copied_cells, copied_words, unscanned_words, .. } => {
                gc_copied_cells = copied_cells;
                gc_copied_words = copied_words;
                gc_unscanned_words = unscanned_words;
            }
            UpdateEvent::TransformersRun { objects_transformed, objects_planned } => {
                transformed = objects_transformed;
                planned = objects_planned;
            }
            _ => {}
        }
    }
    assert_eq!(transformed, stats.objects_transformed, "event stream and stats disagree");
    assert_eq!(planned, stats.objects_planned, "event stream and stats disagree");
    assert_eq!(planned, if interpret_all_transformers { 0 } else { n_change });
    assert_eq!(gc_copied_cells, stats.gc_copied_cells, "event stream and stats disagree");
    assert_eq!(gc_copied_words, stats.gc_copied_words, "event stream and stats disagree");
    assert_eq!(gc_unscanned_words, stats.gc_unscanned_words, "event stream and stats disagree");

    PauseSample {
        objects,
        fraction,
        semispace_words,
        gc_time: stats.gc_time,
        transform_time: stats.transform_time,
        total_time: stats.total_time,
        phase_sum: stats.phase_sum(),
        transformed,
        planned,
        gc_copied_cells,
        gc_copied_words,
        gc_unscanned_words,
    }
}

/// A body-only update over the Table 1 population (ROADMAP item 1(d)).
#[derive(Debug, Clone)]
pub struct BodyOnlySample {
    /// Total update pause.
    pub total_time: Duration,
    /// Cells the update copied (none: no class changes layout).
    pub copied_cells: usize,
    /// Collections the VM ran during the update.
    pub gcs: u64,
}

/// Applies an update that changes one method body and no layout to a VM
/// holding `objects` host-rooted `NoChange` cells. It has nothing to copy
/// or convert, so its pause should not grow with the heap.
pub fn measure_body_only_pause(objects: usize) -> BodyOnlySample {
    let probe = |n: i64| format!("{MICRO_V1} class Probe {{ static method f(): int {{ return {n}; }} }}");
    let semispace_words = (objects * 9 * 3).max(64 * 1024);
    let mut vm = Vm::new(VmConfig { semispace_words, ..VmConfig::default() });
    let old = jvolve_lang::compile(&probe(1)).expect("body-only v1 compiles");
    let new = jvolve_lang::compile(&probe(2)).expect("body-only v2 compiles");
    vm.load_classes(&old).expect("body-only classes load");
    for _ in 0..objects {
        vm.host_alloc("NoChange").expect("population fits");
    }
    let update = Update::prepare(&old, &new, "v1_").expect("non-empty update");
    let gcs = vm.stats().gcs;
    let stats = jvolve::apply(&mut vm, &update, &ApplyOptions::default()).expect("update applies");
    assert_eq!(vm.call_static_sync("Probe", "f", &[]).unwrap(), Some(Value::Int(2)));
    BodyOnlySample {
        total_time: stats.total_time,
        copied_cells: stats.gc_copied_cells,
        gcs: vm.stats().gcs - gcs,
    }
}

/// The paper's object counts (280k–3.67M), scaled by `1/scale_div`.
pub fn paper_object_counts(scale_div: usize) -> Vec<usize> {
    [280_000usize, 770_000, 1_760_000, 3_670_000]
        .into_iter()
        .map(|n| n / scale_div.max(1))
        .collect()
}

/// The paper's updated-object fractions: 0%, 10%, …, 100%.
pub fn paper_fractions() -> Vec<f64> {
    (0..=10).map(|p| p as f64 / 10.0).collect()
}

/// Formats a duration in fractional milliseconds, like the paper's table.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_update_transforms_expected_fraction() {
        let s = measure_pause(1_000, 0.3);
        assert_eq!((s.transformed, s.planned), (300, 300));
        assert!(s.total_time >= s.gc_time);
        assert!(s.total_time >= s.phase_sum);
        // A planned object is one cell like any other: 8 words where the
        // 700 NoChange cells are 7.
        assert_eq!((s.gc_copied_cells, s.gc_copied_words), (1_000, 700 * 7 + 300 * 8));
    }

    #[test]
    fn interpreting_the_transformer_duplicates_instead_of_planning() {
        let s = measure_pause_with(1_000, 0.3, true);
        assert_eq!((s.transformed, s.planned), (300, 0));
        // 1000 live objects + 300 duplicates (old copy + new object each
        // replaces the single normal copy).
        assert_eq!(s.gc_copied_cells, 1_300);
        assert_eq!(s.gc_copied_words, 700 * 7 + 300 * (7 + 8));
    }

    #[test]
    fn zero_fraction_transforms_nothing() {
        let s = measure_pause(500, 0.0);
        assert_eq!(s.transformed, 0);
    }

    #[test]
    fn full_fraction_transforms_everything() {
        let s = measure_pause(500, 1.0);
        assert_eq!(s.transformed, 500);
    }

    #[test]
    fn counts_and_fractions_match_paper() {
        assert_eq!(paper_object_counts(1), vec![280_000, 770_000, 1_760_000, 3_670_000]);
        assert_eq!(paper_fractions().len(), 11);
    }
}
