//! Regenerates the paper's **Figure 6**: microbenchmark pause times at
//! the largest configuration, as three series (GC time, transformer time,
//! total) over the updated fraction. The series are the paper-faithful
//! path — every object transformer run as a compiled method — because the
//! figure is about what running transformers costs; the last column is the
//! total pause on the default path, where the same field-copy transformer
//! is a copy plan applied inside the update-GC.
//!
//! Usage: `cargo run --release -p jvolve-bench --bin fig6 [--full] [--scale N]`

use jvolve_bench::micro::{measure_pause, measure_pause_with, paper_fractions, paper_object_counts};
use jvolve_bench::{arg_flag, arg_value};

fn main() {
    let scale = if arg_flag("--full") {
        1
    } else {
        arg_value("--scale").and_then(|s| s.parse().ok()).unwrap_or(8)
    };
    let objects = *paper_object_counts(scale).last().expect("counts");

    println!("Figure 6: pause times with {objects} objects (paper: 3.67M in a 1280 MB heap)\n");
    println!(
        "{:>9} {:>12} {:>14} {:>12} {:>14} {:>16}",
        "updated%", "GC (ms)", "transform (ms)", "total (ms)", "copied cells", "plan total (ms)"
    );

    let mut gc = Vec::new();
    let mut tf = Vec::new();
    for f in paper_fractions() {
        let s = measure_pause_with(objects, f, true);
        let planned = measure_pause(objects, f);
        println!(
            "{:>8.0}% {:>12.1} {:>14.1} {:>12.1} {:>14} {:>16.1}",
            f * 100.0,
            s.gc_time.as_secs_f64() * 1e3,
            s.transform_time.as_secs_f64() * 1e3,
            s.total_time.as_secs_f64() * 1e3,
            s.gc_copied_cells,
            planned.total_time.as_secs_f64() * 1e3
        );
        gc.push(s.gc_time.as_secs_f64());
        tf.push(s.transform_time.as_secs_f64());
    }

    // The paper's observation: "The Running Transformers line is steeper
    // than the GC time line."
    let gc_slope = gc.last().expect("gc") - gc.first().expect("gc");
    let tf_slope = tf.last().expect("tf") - tf.first().expect("tf");
    println!(
        "\nshape: transformer slope {:.1} ms vs GC slope {:.1} ms over 0-100% \
         (paper: transformer line steeper)",
        tf_slope * 1e3,
        gc_slope * 1e3
    );
}
