//! Regenerates the paper's **Table 1**: JVolve update pause time for
//! various heap sizes × updated-object fractions.
//!
//! Usage: `cargo run --release -p jvolve-bench --bin table1 [--full] [--scale N] [--json FILE]`
//!
//! By default object counts are the paper's divided by 8 (CI-friendly);
//! `--full` uses the paper's exact counts (280k–3.67M objects; needs a
//! few GB of RAM and several minutes).

use jvolve_bench::micro::{measure_pause_with, ms, paper_fractions, paper_object_counts, PauseSample};
use jvolve_bench::{arg_flag, arg_value};
use jvolve_json::Json;

/// The two transformer modes every cell is measured in: the product
/// default (the generated field-copy transformer lowered to a copy plan
/// applied inside the update-GC) and the paper-faithful one (the same
/// transformer run as a compiled method, one interpreter frame per
/// object).
const MODES: [(bool, &str); 2] = [(false, "copy plans"), (true, "interpreted")];

fn main() {
    let scale = if arg_flag("--full") {
        1
    } else {
        arg_value("--scale").and_then(|s| s.parse().ok()).unwrap_or(8)
    };
    let counts = paper_object_counts(scale);
    let fractions = paper_fractions();

    println!("Table 1: JVolve update pause time (ms) — scale 1/{scale} of the paper's counts");
    println!("(paper: Intel Core 2 Quad 2.4 GHz, Jikes RVM; here: MJ VM, see DESIGN.md)");
    println!(
        "Every cell twice: \"{}\" is the default (pure field-copy transformers applied \
         natively inside the update-GC), \"{}\" runs every transformer as a compiled \
         method, as the paper does.\n",
        MODES[0].1, MODES[1].1
    );

    // samples[mode][row][fraction]
    let mut samples: Vec<Vec<Vec<PauseSample>>> = Vec::new();
    for (interpret, mode) in MODES {
        let mut rows = Vec::new();
        for &n in &counts {
            let mut row = Vec::new();
            for &f in &fractions {
                eprint!("\rmeasuring {n} objects, {:>3.0}% updated, {mode}...", f * 100.0);
                row.push(measure_pause_with(n, f, interpret));
            }
            rows.push(row);
            eprintln!();
        }
        samples.push(rows);
    }

    let heap_mb =
        |s: &PauseSample| (s.semispace_words * 2 * 8) as f64 / (1024.0 * 1024.0);
    let section = |title: &str, cell: &dyn Fn(&PauseSample) -> String| {
        for ((_, mode), rows) in MODES.iter().zip(&samples) {
            println!("\n{title} — {mode}");
            print!("{:>9} {:>10}", "# objects", "heap(MB)");
            for f in &fractions {
                print!(" {:>7.0}%", f * 100.0);
            }
            println!();
            for row in rows {
                print!("{:>9} {:>10.0}", row[0].objects, heap_mb(&row[0]));
                for s in row {
                    print!(" {:>8}", cell(s));
                }
                println!();
            }
        }
    };
    section("Garbage collection time (ms)", &|s| ms(s.gc_time));
    section("Running transformation functions (ms)", &|s| ms(s.transform_time));
    section("Total DSU pause time (ms)", &|s| ms(s.total_time));
    section("GC work: copied cells (thousands)", &|s| {
        format!("{:.1}", s.gc_copied_cells as f64 / 1e3)
    });

    // Shape checks the paper's prose calls out.
    let shape = |rows: &[Vec<PauseSample>]| {
        let largest = rows.last().expect("at least one row");
        let t0 = largest[0].total_time.as_secs_f64();
        let t100 = largest.last().expect("fractions").total_time.as_secs_f64();
        t100 / t0.max(1e-9)
    };
    println!(
        "\nshape: total pause at 100% vs 0% updated = {:.1}x with {}, {:.1}x {} (paper: ~4x)",
        shape(&samples[0]),
        MODES[0].1,
        shape(&samples[1]),
        MODES[1].1,
    );

    if let Some(path) = arg_value("--json") {
        let json = Json::Arr(
            MODES
                .iter()
                .zip(&samples)
                .flat_map(|(&(_, mode), rows)| rows.iter().flatten().map(move |s| (mode, s)))
                .map(|(mode, s)| {
                    Json::obj([
                        ("transformers", Json::from(mode)),
                        ("objects", Json::from(s.objects)),
                        ("fraction", Json::from(s.fraction)),
                        ("gc_ms", Json::from(s.gc_time.as_secs_f64() * 1e3)),
                        ("transform_ms", Json::from(s.transform_time.as_secs_f64() * 1e3)),
                        ("total_ms", Json::from(s.total_time.as_secs_f64() * 1e3)),
                        ("gc_copied_cells", Json::from(s.gc_copied_cells)),
                        ("gc_copied_words", Json::from(s.gc_copied_words)),
                    ])
                })
                .collect(),
        )
        .pretty();
        std::fs::write(&path, json).expect("write json");
        println!("wrote {path}");
    }
}
