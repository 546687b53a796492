//! Spans recorded around the calls into each layer, and self time.
//!
//! A traced run records `{name, start_ns, end_ns, parent, id}` spans in a
//! preallocated in-memory vector: `run` → `window[..]` → the calls made
//! inside the window (`vm.step_slice`, `net.client`,
//! `controller.step[phase]`, `heap.plain_gc`, …), plus one `request`
//! span per request. At each window's end the spans are folded into
//! per-name **self time** (a span's duration minus the part its children
//! cover) and the buffer is reused; only the first [`KEEP_SPANS`] spans
//! are kept for the trace file. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the per-request flow span. Requests overlap the slices that
/// serve them, so they are never subtracted from their window.
pub const REQUEST: &str = "request";
/// `parent` of the root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Spans kept for the trace file (the rest are folded and dropped).
pub const KEEP_SPANS: usize = 20_000;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `id` of the span that caused this one.
    pub parent: u32,
    /// Unique per span; a request's span id is the request's identifier.
    pub id: u32,
}

/// Self time of every span in `spans`: its duration minus the union of
/// its children's intervals (clipped to it). Children are the spans of
/// this slice whose `parent` is its `id`; [`REQUEST`] flows cover no one.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut position: Vec<(u32, usize)> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    position.sort_unstable();
    let index_of = |id: u32| {
        position
            .binary_search_by_key(&id, |&(id, _)| id)
            .ok()
            .map(|at| position[at].1)
    };

    // (parent index, start, end) of every layer span whose parent is here.
    let mut covered: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter(|s| s.name != REQUEST)
        .filter_map(|s| index_of(s.parent).map(|p| (p, s.start_ns, s.end_ns)))
        .collect();
    covered.sort_unstable();

    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    let mut i = 0;
    while i < covered.len() {
        let parent = covered[i].0;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        let mut union = 0u64;
        let mut reach = lo; // everything before `reach` is already counted
        while i < covered.len() && covered[i].0 == parent {
            let start = covered[i].1.clamp(reach, hi);
            let end = covered[i].2.clamp(reach, hi);
            union += end - start;
            reach = reach.max(end);
            i += 1;
        }
        out[parent] -= union.min(out[parent]);
    }
    out
}

/// The span recorder. With tracing disabled every call is a branch.
pub struct Tracer {
    enabled: bool,
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// `spans[..kept]` survive folding (they go to the trace file).
    kept: usize,
    next_id: u32,
    /// Buffer position and id of the open window.
    window: Option<(usize, u32)>,
    window_start_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder; `enabled` is the run's `--trace` flag. The root `run`
    /// span is opened here and closed by [`Tracer::finish`].
    pub fn new(enabled: bool) -> Tracer {
        let mut t = Tracer {
            enabled,
            on: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 21 } else { 0 }),
            kept: 0,
            next_id: 1,
            window: None,
            window_start_ns: 0,
            self_ns: BTreeMap::new(),
        };
        if enabled {
            t.spans.push(Span {
                name: "run",
                start_ns: 0,
                end_ns: 0,
                parent: NO_PARENT,
                id: 0,
            });
            t.kept = 1;
        }
        t
    }

    /// Whether the open window records spans.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the run began.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// [`Tracer::now`] when the open window records spans, else 0 — for
    /// boundaries only a traced window needs.
    #[inline]
    pub fn mark(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    /// Opens a window. It records spans only in a traced run and when
    /// `traced` is set (workloads alternate, so the untraced windows of
    /// the same run give the tracing overhead).
    pub fn open_window(&mut self, name: &'static str, traced: bool) {
        debug_assert!(self.window.is_none(), "windows do not nest");
        self.on = self.enabled && traced;
        self.window_start_ns = self.now();
        if self.on {
            let id = self.fresh_id();
            self.window = Some((self.spans.len(), id));
            self.spans.push(Span {
                name,
                start_ns: self.window_start_ns,
                end_ns: 0,
                parent: 0,
                id,
            });
        }
    }

    /// Closes the window and returns its wall time. A recording window
    /// is folded into the per-name self times.
    pub fn close_window(&mut self) -> u64 {
        let end = self.now();
        let wall = end - self.window_start_ns;
        if let Some((pos, _)) = self.window.take() {
            self.spans[pos].end_ns = end;
            let selfs = self_times(&self.spans[pos..]);
            for (span, own) in self.spans[pos..].iter().zip(selfs) {
                if span.name != REQUEST {
                    *self.self_ns.entry(span.name).or_default() += own;
                }
            }
            if self.spans.len() <= KEEP_SPANS {
                self.kept = self.spans.len();
            }
            self.spans.truncate(self.kept);
        }
        self.on = false;
        wall
    }

    /// Drops a window left open by a repetition that failed part-way.
    pub fn abandon_window(&mut self) {
        self.window = None;
        self.on = false;
        self.spans.truncate(self.kept);
    }

    /// Records a call made inside the open window.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let (true, Some((_, parent))) = (self.on, self.window) {
            let id = self.fresh_id();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id,
            });
        }
    }

    /// Records one request, send → receive.
    #[inline]
    pub fn request(&mut self, start_ns: u64, end_ns: u64) {
        self.leaf(REQUEST, start_ns, end_ns);
    }

    /// Runs `f` as a `name` call inside the open window; returns its
    /// result and its duration (measured whether or not spans record).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.leaf(name, t0, t1);
        (out, t1 - t0)
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Self time folded so far for spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Sum of [`Tracer::self_ms`] over every name starting with `prefix`.
    pub fn self_ms_prefix(&self, prefix: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Closes the root span and, when `path` is given, writes the kept
    /// spans as JSON lines.
    pub fn finish(&mut self, path: Option<&str>) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        self.spans[0].end_ns = self.now();
        let Some(path) = path else { return Ok(()) };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans[..self.kept] {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, id: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // window 0..100 → step 10..60 → inner 20..30; inner is the step's
        // child, not the window's, so the window loses 50, not 60.
        let spans = [
            span("window", 0, 100, NO_PARENT, 1),
            span("step", 10, 60, 1, 2),
            span("inner", 20, 30, 2, 3),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_adjacent_and_overlapping_children() {
        // Adjacent 10..20 and 20..30, then 25..40 overlapping the second:
        // the union is 10..40 = 30.
        let spans = [
            span("window", 0, 100, NO_PARENT, 7),
            span("a", 10, 20, 7, 8),
            span("b", 20, 30, 7, 9),
            span("c", 25, 40, 7, 10),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn children_are_clipped_and_requests_cover_nothing() {
        let spans = [
            span("window", 50, 100, NO_PARENT, 1),
            span("early", 40, 60, 1, 2), // only 50..60 lies inside
            span(REQUEST, 50, 100, 1, 3),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[2], 50);
    }

    #[test]
    fn tracer_folds_windows_and_reports_self_time() {
        let mut t = Tracer::new(true);
        t.open_window("window[serve]", true);
        assert!(t.on());
        let ((), spent) = t.timed("vm.step_slice", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let wall = t.close_window();
        assert!(spent >= 2_000_000 && wall >= spent);
        let step = t.self_ms("vm.step_slice");
        let own = t.self_ms("window[serve]");
        assert!(step >= 2.0);
        // The cross-check: children + window self time is the window's wall.
        assert!((step + own - wall as f64 / 1e6).abs() < 1e-6);

        // An untraced window of a traced run records nothing.
        t.open_window("window[serve]", false);
        assert!(!t.on());
        t.leaf("vm.step_slice", 0, 1_000_000_000);
        t.close_window();
        assert_eq!(t.self_ms("vm.step_slice"), step);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open_window("window[serve]", true);
        assert!(!t.on());
        assert_eq!(t.mark(), 0);
        t.leaf("vm.step_slice", 0, 10);
        assert!(t.close_window() < 1_000_000_000);
        assert_eq!(t.self_ms("vm.step_slice"), 0.0);
        t.finish(None).unwrap();
    }
}
