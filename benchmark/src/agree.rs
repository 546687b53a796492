//! `--agree A B`: do two result sets agree within the benchmark's bounds?
//!
//! A set is a directory written by `run_all.sh`: per workload, a
//! `<workload>.jsonl` with one untraced result line per seed and a
//! `<workload>.trace.json` with one traced result line. Every end-to-end
//! metric × workload gets a row: `regressed` when B's median is worse
//! than A's by more than the metric's bound, `unresolved` when either
//! set's own spread (inter-quartile range over median, as the driver
//! takes it) exceeds the bound, else `ok`. Counts the program makes that
//! must repeat exactly are compared bit for bit.

use crate::layers::Json;
use crate::stats;

/// Per-layer counts that are a pure function of the seed.
const EXACT: &[&str] = &[
    "guest.steps_per_req",
    "guest.slices_per_req",
    "update.objects_transformed",
    "update.gc_copied_words",
    "update.classes_loaded",
    "update.methods_invalidated",
];

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json_lines(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e:?}")))
        .collect()
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Median and spread (IQR / median; `None` for a single run) of `name`.
fn summarize(runs: &[Json], name: &str) -> Option<(f64, Option<f64>)> {
    let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, name)).collect();
    if values.is_empty() {
        return None;
    }
    let median = stats::median(&values);
    let spread = stats::quartiles(&values).map(|(q1, _, q3)| {
        if median != 0.0 {
            (q3 - q1) / median.abs()
        } else {
            0.0
        }
    });
    Some((median, spread))
}

/// The verdict for one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved (spread > bound)",
        })
    }
}

fn verdict(a: (f64, Option<f64>), b: (f64, Option<f64>), bound: &Bound) -> Verdict {
    let too_wide = |s: Option<f64>| s.is_some_and(|s| s > bound.bound);
    if too_wide(a.1) || too_wide(b.1) {
        return Verdict::Unresolved;
    }
    let worse_by = if bound.higher_is_better {
        (a.0 - b.0) / a.0
    } else {
        (b.0 - a.0) / a.0
    };
    if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Returns whether the sets agree (no `regressed` row, no count differs).
pub fn main(args: &[String]) -> Result<bool, String> {
    let (dirs, bounds_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--bounds" => ([a, b], path.as_str()),
        _ => return Err("--agree takes two result directories".to_string()),
    };
    let text = std::fs::read_to_string(bounds_path).map_err(|e| format!("{bounds_path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{bounds_path}: {e:?}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("{bounds_path}: no {key}"))
    };
    let text_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let bounds: Vec<Bound> = list("end_to_end")?
        .iter()
        .map(|m| Bound {
            name: text_of(m, "name"),
            higher_is_better: text_of(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();

    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>14} {:>8} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "bound%"
    );
    for workload in list("workloads")? {
        let workload = text_of(workload, "name");
        let runs: Vec<Vec<Json>> = dirs
            .iter()
            .map(|d| read_json_lines(&format!("{d}/{workload}.jsonl")))
            .collect::<Result<_, _>>()?;
        for run in runs.iter().flatten() {
            if run.get("failed").and_then(Json::as_u64) != Some(0) {
                println!("{workload:<16} a run reports failed operations");
                clean = false;
            }
        }
        for bound in &bounds {
            let (Some(a), Some(b)) = (
                summarize(&runs[0], &bound.name),
                summarize(&runs[1], &bound.name),
            ) else {
                return Err(format!("{workload}: {} is missing from a set", bound.name));
            };
            let v = verdict(a, b, bound);
            clean &= v != Verdict::Regressed;
            let pct = |s: Option<f64>| s.map_or("n=1".to_string(), |s| format!("{:.2}", s * 100.0));
            println!(
                "{:<16} {:<16} {:>14.4} {:>8} {:>14.4} {:>8} {:>6.0}  {v}",
                workload,
                bound.name,
                a.0,
                pct(a.1),
                b.0,
                pct(b.1),
                bound.bound * 100.0
            );
        }
        let traced: Vec<Vec<Json>> = dirs
            .iter()
            .map(|d| read_json_lines(&format!("{d}/{workload}.trace.json")))
            .collect::<Result<_, _>>()?;
        for name in EXACT {
            let value = |set: &[Json]| set.first().and_then(|r| metric(r, name));
            let (a, b) = (value(&traced[0]), value(&traced[1]));
            let same = a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits);
            clean &= same;
            println!(
                "{:<16} {:<32} {:>22} {:>22}  {}",
                workload,
                name,
                a.unwrap_or(f64::NAN),
                b.unwrap_or(f64::NAN),
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            higher_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Higher is better: 100 → 89 is an 11 % loss, 100 → 91 is inside.
        assert_eq!(
            verdict((100.0, Some(0.01)), (89.0, Some(0.01)), &bound(true)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict((100.0, Some(0.01)), (91.0, Some(0.01)), &bound(true)),
            Verdict::Ok
        );
        assert_eq!(
            verdict((100.0, Some(0.01)), (150.0, Some(0.01)), &bound(true)),
            Verdict::Ok
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            verdict((100.0, None), (111.0, None), &bound(false)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict((100.0, None), (80.0, None), &bound(false)),
            Verdict::Ok
        );
        // A set noisier than the bound resolves nothing, either way.
        assert_eq!(
            verdict((100.0, Some(0.2)), (50.0, Some(0.01)), &bound(true)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn summarize_takes_median_and_relative_iqr() {
        let runs: Vec<Json> = (1..=10)
            .map(|v| {
                Json::parse(&format!(
                    "{{\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
                ))
                .unwrap()
            })
            .collect();
        let (median, spread) = summarize(&runs, "m").unwrap();
        assert_eq!(median, 5.5);
        assert_eq!(spread, Some((8.25 - 2.75) / 5.5));
        assert_eq!(summarize(&runs[..1], "m"), Some((1.0, None)));
        assert_eq!(summarize(&runs, "absent"), None);
    }
}
