//! Workload drivers: the reproduction's `httperf`.
//!
//! Host-side clients that connect to the guest servers through the
//! simulated network, keep a configurable number of requests in flight,
//! and record per-request latency in scheduler slices (the VM's virtual
//! milliseconds).

use std::time::{Duration, Instant};

use jvolve_vm::Vm;

/// Latency/throughput record for a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadStats {
    /// Requests that received a response.
    pub completed: u64,
    /// Requests abandoned (no response before the run ended).
    pub abandoned: u64,
    /// Per-request latencies, in slices.
    pub latencies: Vec<u64>,
    /// Scheduler slices the run took.
    pub slices: u64,
    /// Host wall-clock time of the run (exposes per-instruction VM
    /// overhead, e.g. an open lazy epoch's read barrier, that the slice-based
    /// metric cannot see).
    pub wall: Duration,
}

impl LoadStats {
    /// Requests completed per 1000 slices (the throughput unit used by the
    /// Figure 5 harness).
    pub fn throughput_per_kslice(&self) -> f64 {
        if self.slices == 0 {
            return 0.0;
        }
        self.completed as f64 * 1000.0 / self.slices as f64
    }

    /// Requests completed per host wall-clock second.
    pub fn throughput_per_wall_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Median latency in slices.
    pub fn median_latency(&self) -> f64 {
        percentile(&self.latencies, 50.0)
    }

    /// Latency percentile in slices (e.g. 25.0, 75.0).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies, p)
    }
}

/// Percentile of a sample (nearest-rank; 0 for an empty sample).
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Runs the VM until `port` has a listener (the server finished starting).
///
/// Returns `false` if the listener never appeared within `max_slices`.
pub fn wait_for_listener(vm: &mut Vm, port: u16, max_slices: usize) -> bool {
    for _ in 0..max_slices {
        if vm.net_mut().has_listener(port) {
            return true;
        }
        vm.step_slice();
    }
    vm.net_mut().has_listener(port)
}

/// Issues one single-line request and waits for the one-line response.
pub fn one_shot(vm: &mut Vm, port: u16, request: &str, max_slices: usize) -> Option<(String, u64)> {
    if !wait_for_listener(vm, port, max_slices) {
        return None;
    }
    let conn = vm.net_mut().client_connect(port)?;
    vm.net_mut().client_send(conn, request);
    let start = vm.tick();
    for _ in 0..max_slices {
        vm.step_slice();
        if let Some(resp) = vm.net_mut().client_recv(conn) {
            let latency = vm.tick() - start;
            vm.net_mut().client_close(conn);
            return Some((resp, latency));
        }
    }
    vm.net_mut().client_close(conn);
    None
}

/// Drives a closed-loop single-line-request workload (the webserver's
/// `GET <path>` protocol): keeps `concurrency` requests in flight for
/// `slices` scheduler slices.
pub fn drive_http(
    vm: &mut Vm,
    port: u16,
    paths: &[&str],
    concurrency: usize,
    slices: u64,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let mut in_flight: Vec<(usize, u64)> = Vec::with_capacity(concurrency);
    let mut next_path = 0usize;
    let started = Instant::now();

    for _ in 0..slices {
        // Top up offered load.
        while in_flight.len() < concurrency {
            let Some(conn) = vm.net_mut().client_connect(port) else { break };
            let path = paths[next_path % paths.len()];
            next_path += 1;
            vm.net_mut().client_send(conn, format!("GET {path}"));
            in_flight.push((conn, vm.tick()));
        }

        vm.step_slice();
        stats.slices += 1;

        // Collect responses.
        let mut i = 0;
        while i < in_flight.len() {
            let (conn, started) = in_flight[i];
            if vm.net_mut().client_recv(conn).is_some() {
                vm.net_mut().client_close(conn);
                stats.completed += 1;
                stats.latencies.push(vm.tick() - started);
                in_flight.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    stats.wall = started.elapsed();
    for (conn, _) in in_flight {
        vm.net_mut().client_close(conn);
        stats.abandoned += 1;
    }
    stats
}

/// A scripted multi-line session: sends each line, expecting one response
/// per line, then closes. Returns the responses, or `None` on timeout.
pub fn scripted_session(
    vm: &mut Vm,
    port: u16,
    lines: &[&str],
    max_slices: usize,
) -> Option<Vec<String>> {
    if !wait_for_listener(vm, port, max_slices) {
        return None;
    }
    let conn = vm.net_mut().client_connect(port)?;
    let mut responses = Vec::with_capacity(lines.len());
    let mut budget = max_slices;
    // The FTP server greets on connect.
    for line in lines {
        vm.net_mut().client_send(conn, *line);
        loop {
            if let Some(resp) = vm.net_mut().client_recv(conn) {
                responses.push(resp);
                break;
            }
            if budget == 0 {
                vm.net_mut().client_close(conn);
                return None;
            }
            vm.step_slice();
            budget -= 1;
        }
    }
    vm.net_mut().client_close(conn);
    Some(responses)
}

/// SMTP helper: submits one message (`SEND` then `QUIT`) and returns the
/// two replies.
pub fn smtp_send(
    vm: &mut Vm,
    port: u16,
    from: &str,
    to: &str,
    text: &str,
    max_slices: usize,
) -> Option<Vec<String>> {
    scripted_session(vm, port, &[&format!("SEND {from} {to} {text}"), "QUIT"], max_slices)
}

/// POP helper: authenticates and lists the mailbox (`USER`, `LIST`,
/// `QUIT`).
pub fn pop_list(vm: &mut Vm, port: u16, user: &str, max_slices: usize) -> Option<Vec<String>> {
    scripted_session(vm, port, &[&format!("USER {user}"), "LIST", "QUIT"], max_slices)
}

/// FTP helper: greeting, login, one `RETR`, quit. Returns all responses
/// (greeting included).
pub fn ftp_retr(
    vm: &mut Vm,
    port: u16,
    user: &str,
    pass: &str,
    path: &str,
    max_slices: usize,
) -> Option<Vec<String>> {
    if !wait_for_listener(vm, port, max_slices) {
        return None;
    }
    let conn = vm.net_mut().client_connect(port)?;
    let mut responses = Vec::new();
    let mut budget = max_slices;
    // Greeting arrives unprompted.
    loop {
        if let Some(resp) = vm.net_mut().client_recv(conn) {
            responses.push(resp);
            break;
        }
        if budget == 0 {
            vm.net_mut().client_close(conn);
            return None;
        }
        vm.step_slice();
        budget -= 1;
    }
    for line in [format!("USER {user} {pass}"), format!("RETR {path}"), "QUIT".to_string()] {
        vm.net_mut().client_send(conn, line);
        loop {
            if let Some(resp) = vm.net_mut().client_recv(conn) {
                responses.push(resp);
                break;
            }
            if budget == 0 {
                vm.net_mut().client_close(conn);
                return None;
            }
            vm.step_slice();
            budget -= 1;
        }
    }
    vm.net_mut().client_close(conn);
    Some(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_computation() {
        let xs = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn load_stats_throughput() {
        let stats = LoadStats { completed: 50, slices: 1000, ..Default::default() };
        assert!((stats.throughput_per_kslice() - 50.0).abs() < 1e-9);
    }
}
