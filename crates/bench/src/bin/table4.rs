//! Regenerates the paper's **Table 4**: summary of updates to the
//! ftpserver (CrossFTP), including the busy-vs-idle behaviour of the
//! 1.07 → 1.08 update (paper §4.4).
//!
//! Usage: `cargo run --release -p jvolve-bench --bin table4 [--static]`

use jvolve::UpdateOutcome;
use jvolve_apps::harness::{attempt_update, bench_apply_options, boot};
use jvolve_apps::Ftpserver;
use jvolve_bench::arg_flag;
use jvolve_bench::tables::{render_table, run_table, summarize_releases};

fn main() {
    let rows = if arg_flag("--static") {
        summarize_releases(&Ftpserver)
    } else {
        run_table(&Ftpserver)
    };
    println!("{}", render_table("ftpserver (CrossFTP, paper Table 4)", &rows));
    println!("paper: all 3 updates supported; every update adds/deletes fields,");
    println!("so method-body-only systems support none of them.");

    if !arg_flag("--static") {
        // The §4.4 experiment: 1.08 under load vs idle.
        println!("\n1.07 -> 1.08 with an active session (RequestHandler.run on stack):");
        let app = Ftpserver;
        let mut vm = boot(&app, 2);
        let conn = vm.net_mut().client_connect(2121).expect("ftp listening");
        vm.net_mut().client_send(conn, "USER admin adminpw");
        for _ in 0..2_000 {
            vm.step_slice();
            if vm.net_mut().client_recv(conn).is_some() {
                break;
            }
        }
        let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});
        let busy = UpdateOutcome::from(&result);
        println!("  busy: {busy}");
        assert!(matches!(busy, UpdateOutcome::TimedOut { .. }));

        vm.net_mut().client_send(conn, "QUIT");
        for _ in 0..2_000 {
            vm.step_slice();
            if vm.net_mut().client_recv(conn).is_some() {
                break;
            }
        }
        vm.net_mut().client_close(conn);
        vm.run_slices(300);
        let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});
        let idle = UpdateOutcome::from(&result);
        println!("  idle: {idle}");
        println!("(paper: \"JVolve could only apply the update from 1.07 to 1.08 when the");
        println!(" server was relatively idle\")");
    }
}
