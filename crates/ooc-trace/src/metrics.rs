//! In-memory metrics registry derived from a recorded [`Trace`].
//!
//! Aggregates the raw timeline into the numbers the paper's tables talk
//! about: log2-bucket histograms (I/O request size, message size, retry
//! backoff), per-category time/requests/bytes, per-array I/O attribution
//! and per-phase time breakdowns. All maps are `BTreeMap` so iteration —
//! and therefore any rendered report — is deterministic.

use std::collections::BTreeMap;

use crate::{Category, Event, EventKind, RankTrace, TimeGroup, Trace};

/// Power-of-two bucket histogram over `u64` samples. Bucket `i` holds
/// values `v` with `floor(log2(v)) == i` (value 0 goes to bucket 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Nearest-rank percentile over the bucketed samples, reported as the
    /// lower bound of the bucket holding the rank. `q` is clamped to
    /// `[0, 1]`; an empty histogram reports 0. Because samples are
    /// log2-bucketed, the answer is exact to within one power of two —
    /// enough for SLO scorecards, deterministic by construction.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest rank r with r >= ceil(q * n), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 63
    }

    /// Fold `other` into `self`: bucket-wise sum, moments combined. Merging
    /// an empty histogram is the identity in either direction.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(low_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (1u64 << i, *c))
            .collect()
    }

    /// Render as compact ASCII: one line per non-empty bucket.
    pub fn render(&self, label: &str, width: usize) -> String {
        let mut out = format!(
            "{label}: n={} mean={:.1} min={} max={}\n",
            self.count,
            self.mean(),
            self.min(),
            self.max()
        );
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (low, count) in self.nonzero_buckets() {
            let bar = (count as f64 / peak as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "  >= {:>10} | {:<w$} {}\n",
                low,
                "#".repeat(bar.max(1)),
                count,
                w = width
            ));
        }
        out
    }
}

/// Aggregate for one event category.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CategoryStats {
    /// Events recorded.
    pub events: u64,
    /// Summed span duration, simulated seconds.
    pub seconds: f64,
    /// Summed requests / message count.
    pub requests: u64,
    /// Summed bytes.
    pub bytes: u64,
}

/// Per-array I/O attribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrayStats {
    /// Disk read requests.
    pub read_requests: u64,
    /// Bytes read from disk.
    pub read_bytes: u64,
    /// Disk write requests (including write-backs).
    pub write_requests: u64,
    /// Bytes written to disk (including write-backs).
    pub write_bytes: u64,
    /// Cache hits.
    pub hits: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Simulated seconds spent in disk transfers for this array.
    pub io_seconds: f64,
}

/// Per-phase time breakdown (compute / comm / io / faults seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Seconds in compute spans.
    pub compute: f64,
    /// Seconds in send + recv spans.
    pub comm: f64,
    /// Seconds in disk read / write / write-back spans.
    pub io: f64,
    /// Seconds in fault-recovery and retry spans.
    pub faults: f64,
}

impl TimeBreakdown {
    /// Sum of all groups.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.io + self.faults
    }

    fn add(&mut self, group: TimeGroup, secs: f64) {
        match group {
            TimeGroup::Compute => self.compute += secs,
            TimeGroup::Comm => self.comm += secs,
            TimeGroup::Io => self.io += secs,
            TimeGroup::Faults => self.faults += secs,
        }
    }
}

/// Metrics registry: everything the flame summary and divergence report
/// need, computed in one pass over the trace.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// I/O request size in bytes (one sample per coalesced request).
    pub io_request_bytes: Histogram,
    /// I/O request sizes split by access method (`direct`, `sieved`,
    /// `two-phase`), for disk transfers stamped with a method scope.
    pub io_request_bytes_by_method: BTreeMap<String, Histogram>,
    /// Point-to-point message payload sizes.
    pub msg_bytes: Histogram,
    /// Retry / fault-recovery span durations in nanoseconds.
    pub retry_ns: Histogram,
    /// Per-category aggregates (all ranks).
    pub by_category: BTreeMap<Category, CategoryStats>,
    /// Per-array I/O attribution (all ranks), keyed by array display name.
    pub by_array: BTreeMap<String, ArrayStats>,
    /// Per-phase time breakdown (all ranks), keyed by phase name.
    pub by_phase: BTreeMap<String, TimeBreakdown>,
    /// Per-rank time breakdown for reconciliation against `ProcStats`.
    pub per_rank: Vec<TimeBreakdown>,
}

fn is_io_transfer(cat: Category) -> bool {
    matches!(
        cat,
        Category::DiskRead | Category::DiskWrite | Category::WriteBack
    )
}

fn record_event(
    reg: &mut MetricsRegistry,
    rt: &RankTrace,
    ev: &Event,
    rank_td: &mut TimeBreakdown,
) {
    if ev.kind == EventKind::Counter {
        return;
    }
    let dur = ev.dur();
    let stats = reg.by_category.entry(ev.cat).or_default();
    stats.events += 1;
    stats.seconds += dur;
    stats.requests += ev.args.requests;
    stats.bytes += ev.args.bytes;

    if is_io_transfer(ev.cat) && ev.args.requests > 0 {
        let per_request = ev.args.bytes / ev.args.requests;
        reg.io_request_bytes.record_n(per_request, ev.args.requests);
        if let Some(method) = &ev.args.method {
            reg.io_request_bytes_by_method
                .entry(method.clone())
                .or_default()
                .record_n(per_request, ev.args.requests);
        }
    }
    if ev.cat == Category::Send {
        reg.msg_bytes.record(ev.args.bytes);
    }
    if matches!(ev.cat, Category::Retry | Category::Fault) {
        reg.retry_ns.record((dur * 1e9).round() as u64);
    }

    if let Some(group) = ev.cat.time_group() {
        rank_td.add(group, dur);
        if let Some(phase) = rt.phase_name(ev) {
            reg.by_phase
                .entry(phase.to_string())
                .or_default()
                .add(group, dur);
        }
    }

    if let Some(array) = &ev.args.array {
        let a = reg.by_array.entry(array.clone()).or_default();
        match ev.cat {
            Category::DiskRead => {
                a.read_requests += ev.args.requests;
                a.read_bytes += ev.args.bytes;
                a.io_seconds += dur;
            }
            Category::DiskWrite | Category::WriteBack => {
                a.write_requests += ev.args.requests;
                a.write_bytes += ev.args.bytes;
                a.io_seconds += dur;
            }
            Category::CacheHit => {
                a.hits += ev.args.requests;
                a.hit_bytes += ev.args.bytes;
            }
            _ => {}
        }
    }
}

/// Build a registry from a recorded trace.
pub fn from_trace(trace: &Trace) -> MetricsRegistry {
    let mut reg = MetricsRegistry::default();
    for rt in &trace.ranks {
        let mut td = TimeBreakdown::default();
        for ev in &rt.events {
            record_event(&mut reg, rt, ev, &mut td);
        }
        reg.per_rank.push(td);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Args, TraceConfig, Tracer, Track};

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record_n(1024, 3);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 3 * 1024);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.min(), 0);
        assert_eq!(h.nonzero_buckets(), vec![(1, 2), (1024, 3)]);
        assert!(h.render("io", 20).contains("n=5"));
    }

    #[test]
    fn percentile_is_nearest_rank_over_buckets() {
        // Empty: every quantile is 0.
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
        // Single sample: every quantile is its bucket's low bound.
        let mut h = Histogram::default();
        h.record(100); // bucket [64, 128)
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 64);
        }
        // Skewed distribution: the tail only shows up past its rank.
        let mut h = Histogram::default();
        h.record_n(8, 90); // bucket low bound 8
        h.record_n(4096, 10); // bucket low bound 4096
        assert_eq!(h.percentile(0.50), 8);
        assert_eq!(h.percentile(0.90), 8);
        assert_eq!(h.percentile(0.91), 4096);
        assert_eq!(h.percentile(0.99), 4096);
        assert_eq!(h.percentile(1.0), 4096);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.percentile(-1.0), 8);
        assert_eq!(h.percentile(2.0), 4096);
        // Value 0 lands in bucket 0, reported as low bound 1.
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.percentile(0.5), 1);
        // Saturating top bucket: u64::MAX is representable.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), 1u64 << 63);
    }

    #[test]
    fn merge_combines_buckets_and_moments() {
        let mut a = Histogram::default();
        a.record_n(16, 3);
        let mut b = Histogram::default();
        b.record(2);
        b.record(1 << 40);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 3 * 16 + 2 + (1 << 40));
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1 << 40);
        assert_eq!(a.percentile(0.5), 16);
        // Merging empty in either direction is the identity.
        let snapshot = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, snapshot);
        let mut empty = Histogram::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn merge_of_extreme_singletons_keeps_boundaries_exact() {
        // Two single-sample histograms at the value domain's edges merge
        // into a well-formed two-bucket distribution.
        let mut lo = Histogram::default();
        lo.record(0); // bucket 0, reported low bound 1
        let mut hi = Histogram::default();
        hi.record(u64::MAX); // saturating top bucket
        lo.merge(&hi);
        assert_eq!(lo.count(), 2);
        assert_eq!(lo.min(), 0);
        assert_eq!(lo.max(), u64::MAX);
        assert_eq!(lo.percentile(0.5), 1);
        assert_eq!(lo.percentile(1.0), 1u64 << 63);
    }

    #[test]
    fn method_scope_buckets_io_requests_per_method() {
        let tr = Tracer::new(0, TraceConfig::on());
        tr.push_io_method("direct");
        tr.span(
            Category::DiskRead,
            "read",
            0.0,
            1.0,
            Track::Main,
            Args::io(8, 8 * 64),
        );
        tr.pop_io_method();
        tr.push_io_method("two-phase");
        tr.span(
            Category::DiskRead,
            "read",
            1.0,
            2.0,
            Track::Main,
            Args::io(1, 4096),
        );
        tr.pop_io_method();
        // Outside any scope: counted globally but not per-method.
        tr.span(
            Category::DiskWrite,
            "write",
            2.0,
            3.0,
            Track::Main,
            Args::io(2, 256),
        );
        let trace = Trace {
            ranks: vec![tr.finish()],
        };
        let reg = from_trace(&trace);
        assert_eq!(reg.io_request_bytes.count(), 11);
        let direct = &reg.io_request_bytes_by_method["direct"];
        assert_eq!((direct.count(), direct.mean()), (8, 64.0));
        let tp = &reg.io_request_bytes_by_method["two-phase"];
        assert_eq!((tp.count(), tp.max()), (1, 4096));
        assert_eq!(reg.io_request_bytes_by_method.len(), 2);
    }

    #[test]
    fn registry_attributes_time_and_arrays() {
        let tr = Tracer::new(0, TraceConfig::on());
        let p = tr.open_span(
            Category::Phase,
            "s0:gaxpy(c)",
            0.0,
            Args::default(),
            Some("s0:gaxpy(c)"),
        );
        tr.span(
            Category::DiskRead,
            "read",
            0.0,
            2.0,
            Track::Main,
            Args::io(4, 4096).with_array("a", Some(0)),
        );
        tr.span(
            Category::Compute,
            "compute",
            2.0,
            3.0,
            Track::Main,
            Args::default(),
        );
        tr.span(
            Category::Send,
            "send",
            3.0,
            4.0,
            Track::Main,
            Args::msg(1, 128),
        );
        tr.close_span(p, 4.0);
        let trace = Trace {
            ranks: vec![tr.finish()],
        };
        let reg = from_trace(&trace);
        let td = &reg.per_rank[0];
        assert_eq!(td.io, 2.0);
        assert_eq!(td.compute, 1.0);
        assert_eq!(td.comm, 1.0);
        let phase = &reg.by_phase["s0:gaxpy(c)"];
        assert_eq!(phase.total(), 4.0);
        let a = &reg.by_array["a"];
        assert_eq!(a.read_requests, 4);
        assert_eq!(a.read_bytes, 4096);
        // 4 requests of 1024 bytes each.
        assert_eq!(reg.io_request_bytes.count(), 4);
        assert_eq!(reg.io_request_bytes.mean(), 1024.0);
        assert_eq!(reg.msg_bytes.count(), 1);
        // Phase span itself contributes no time group.
        assert_eq!(reg.by_category[&Category::Phase].seconds, 4.0);
    }
}
