//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each crate's public functions;
//! nothing inside the crates is instrumented. Each span records its name,
//! host start and end, the span that caused it and the op it belongs to.
//! Spans stay in memory until the run ends. With the recorder off a span
//! is a plain call: no clock reads, no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no span".
pub type SpanId = u64;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// In-memory span store, shareable across the worker pool's threads.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, child of `parent`, in op `op`.
    /// `f` receives the new span's id so nested calls can name it as their
    /// parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        // Relaxed: the counter only hands out unique ids.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span recorder holder panicked")
            .push(Span {
                id,
                parent,
                op,
                name,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span recorder holder panicked")
            .clone()
    }
}

/// Host seconds each span name kept busy, excluding its children: for
/// every group of same-named siblings (one per rank when a machine's ranks
/// call the same function), the union of their intervals minus the part of
/// it their children cover. A span with no same-named sibling is its own
/// group, so this is its self time: its duration minus the time its
/// children cover, overlapping children counted once. For ranks
/// interleaved on a worker pool it counts the wall time at least one rank
/// spent in the layer, not each rank's wait.
pub fn busy_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut groups: BTreeMap<(SpanId, &'static str), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        groups.entry((s.parent, s.name)).or_default().push(s);
    }
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((_, name), members) in groups {
        let own = merged(members.iter().map(|s| (s.start, s.end)).collect());
        let kids = merged(
            members
                .iter()
                .filter_map(|s| children.get(&s.id))
                .flatten()
                .copied()
                .collect(),
        );
        let busy = total_len(&own) - overlap_len(&own, &kids);
        *out.entry(name).or_default() += busy as f64 * 1e-9;
    }
    out
}

/// `intervals` as sorted, disjoint, non-empty intervals covering the same
/// points.
fn merged(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|(a, b)| a < b);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

fn total_len(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|(a, b)| b - a).sum()
}

/// Length of the intersection of two outputs of [`merged`].
fn overlap_len(x: &[(u64, u64)], y: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        let (lo, hi) = (x[i].0.max(y[j].0), x[i].1.min(y[j].1));
        total += hi.saturating_sub(lo);
        if x[i].1 < y[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The spans as a Chrome trace-event document, one track per op, each
/// event carrying its span id and parent.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.op,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.id,
            s.parent,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            start,
            end,
        }
    }

    /// Busy nanoseconds per name, rounded.
    fn busy_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
        busy_seconds_by_name(spans)
            .into_iter()
            .map(|(k, v)| (k, (v * 1e9).round() as u64))
            .collect()
    }

    #[test]
    fn self_time_subtracts_the_children_once() {
        // Root 0..100 with two overlapping children 10..40 and 30..60, and
        // one grandchild 15..20 inside the first child. Every span has a
        // name of its own, so its busy time is its self time.
        let mut spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 15, 20),
        ];
        for (s, name) in spans.iter_mut().zip(["root", "a", "b", "grandchild"]) {
            s.name = name;
        }
        let st = busy_ns(&spans);
        assert_eq!(st["root"], 100 - 50); // children cover 10..60
        assert_eq!(st["a"], 30 - 5);
        assert_eq!(st["b"], 30);
        assert_eq!(st["grandchild"], 5);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut spans = vec![span(1, 0, 10, 20), span(2, 1, 0, 15), span(3, 1, 18, 30)];
        spans[0].name = "root";
        assert_eq!(busy_ns(&spans)["root"], 10 - 5 - 2);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", 0, 7, |outer| {
            rec.span("inner", outer, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            41 + 1
        });
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, 7);
        let by_name = busy_seconds_by_name(&spans);
        assert!(by_name["inner"] >= 0.002);
        assert!(by_name["outer"] < by_name["inner"]);
        ooc_trace::json::parse(&to_chrome_json(&spans)).expect("span export is JSON");
    }

    #[test]
    fn concurrent_siblings_count_their_union() {
        // Two ranks inside one machine run: both in `inspect` over 10..40
        // and 20..50, one with a `gather` child at 30..35.
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 20, 50)];
        spans.push(span(4, 2, 30, 35));
        for s in &mut spans[1..3] {
            s.name = "inspect";
        }
        spans[3].name = "gather";
        let busy = busy_ns(&spans);
        assert_eq!(busy["s"], 60); // 100 minus the union 10..50
        assert_eq!(busy["inspect"], 35); // union 10..50 minus 30..35
        assert_eq!(busy["gather"], 5);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, 1, |id| id), 0);
        assert!(rec.spans().is_empty());
    }
}
