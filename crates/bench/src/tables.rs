//! Tables 2–4: per-release change summaries and live-update outcomes.

use jvolve::{apply, ReleaseSummary, Update, UpdateOutcome};
use jvolve_apps::harness::{bench_apply_options, boot, prepare_next};
use jvolve_apps::workload::{ftp_retr, one_shot, smtp_send};
use jvolve_apps::GuestApp;

/// One row of a Table 2/3/4 reproduction.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Per-release change counts (the paper's columns).
    pub summary: ReleaseSummary,
    /// Whether a method-body-only system could apply this release.
    pub body_only: bool,
    /// Live-update outcome, when the update was attempted.
    pub outcome: Option<UpdateOutcome>,
}

/// Computes the change-summary rows for an application (the static part
/// of the table: pure UPT output, no VM needed).
pub fn summarize_releases(app: &dyn GuestApp) -> Vec<TableRow> {
    prepare_releases(app).into_iter().map(|(row, _)| row).collect()
}

/// Prepares every release of `app` once: its summary row and the update.
fn prepare_releases(app: &dyn GuestApp) -> Vec<(TableRow, Update)> {
    let versions = app.versions();
    (0..versions.len() - 1)
        .map(|from| {
            let update = prepare_next(app, from);
            let summary = ReleaseSummary::from_spec(versions[from + 1].label, &update.spec);
            (TableRow { body_only: update.spec.is_body_only(), summary, outcome: None }, update)
        })
        .collect()
}

/// Computes the full table: summaries plus live-update attempts against a
/// freshly booted server per release, exercised with traffic first so the
/// update hits a server with live state (the paper's §4 methodology: "we
/// ran Jetty under full load; after 30 seconds we tried to apply the
/// update"). Each release is prepared once; its summary's update is the
/// one applied.
pub fn run_table(app: &dyn GuestApp) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for (from, (mut row, update)) in prepare_releases(app).into_iter().enumerate() {
        let mut vm = boot(app, from);
        match app.name() {
            "webserver" => {
                for _ in 0..5 {
                    let _ = one_shot(&mut vm, app.port(), "GET /index.html", 40_000);
                }
            }
            "emailserver" => {
                let _ = smtp_send(&mut vm, app.port(), "alice", "bob", "load", 60_000);
            }
            "ftpserver" => {
                let _ = ftp_retr(&mut vm, app.port(), "admin", "adminpw", "/motd.txt", 60_000);
                vm.run_slices(300); // let the session thread finish
            }
            _ => {}
        }
        let result = apply(&mut vm, &update, &bench_apply_options());
        row.outcome = Some(UpdateOutcome::from(&result));
        rows.push(row);
    }
    rows
}

/// Renders a table in the paper's layout.
pub fn render_table(app_name: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("Summary of updates to {app_name}\n"));
    out.push_str(&ReleaseSummary::table_header());
    out.push_str(" | E&C?  | outcome\n");
    for row in rows {
        out.push_str(&row.summary.to_string());
        out.push_str(&format!(" | {:<5}", if row.body_only { "yes" } else { "no" }));
        match &row.outcome {
            Some(o) => out.push_str(&format!(" | {o}\n")),
            None => out.push_str(" | (not attempted)\n"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_apps::{Emailserver, Ftpserver, Webserver};

    #[test]
    fn webserver_classification_matches_paper_structure() {
        let rows = summarize_releases(&Webserver);
        assert_eq!(rows.len(), 10);
        let body_only: Vec<&str> = rows
            .iter()
            .filter(|r| r.body_only)
            .map(|r| r.summary.version.as_str())
            .collect();
        // The paper: only the first and the last three of the ten Jetty
        // updates are within reach of method-body-only systems.
        assert_eq!(body_only, ["5.1.1", "5.1.8", "5.1.9", "5.1.10"]);
    }

    #[test]
    fn emailserver_classification_matches_paper_structure() {
        let rows = summarize_releases(&Emailserver);
        assert_eq!(rows.len(), 9);
        let body_only: Vec<&str> = rows
            .iter()
            .filter(|r| r.body_only)
            .map(|r| r.summary.version.as_str())
            .collect();
        // Paper §4.3: four of the nine updates are body-only.
        assert_eq!(body_only, ["1.2.2", "1.2.4", "1.3.1", "1.3.3"]);
    }

    #[test]
    fn ftpserver_no_release_is_body_only() {
        let rows = summarize_releases(&Ftpserver);
        assert_eq!(rows.len(), 3);
        // Paper §4.4: every CrossFTP update adds or deletes fields.
        assert!(rows.iter().all(|r| !r.body_only));
        assert!(rows.iter().all(|r| {
            r.summary.fields_added + r.summary.fields_deleted + r.summary.fields_changed > 0
        }));
    }

    #[test]
    fn render_contains_rows() {
        let rows = summarize_releases(&Ftpserver);
        let text = render_table("ftpserver", &rows);
        assert!(text.contains("1.06"), "{text}");
        assert!(text.contains("1.08"), "{text}");
    }
}
