//! Workload table, metric definitions and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{self, Span};
use crate::stats::{self, percentile, tail_percentile};
use crate::{Args, Tally};

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one op is, and what `ops_per_s` counts.
    pub op_unit: &'static str,
    /// Highest percentile `op_tail_ms` may report.
    pub tail_cap: f64,
    /// Passes a run makes at least, so the tail percentile has ten
    /// samples beyond it.
    pub min_passes: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "paper_gaxpy",
        op_unit: "cell",
        tail_cap: 95.0,
        min_passes: 5,
    },
    WorkloadSpec {
        name: "remap_mix",
        op_unit: "program",
        tail_cap: 95.0,
        min_passes: 8,
    },
    WorkloadSpec {
        name: "rank_ladder",
        op_unit: "simulated rank",
        tail_cap: 95.0,
        min_passes: 4,
    },
    WorkloadSpec {
        name: "job_burst",
        op_unit: "daemon session; ops_per_s counts submitted jobs",
        tail_cap: 90.0,
        min_passes: 110,
    },
];

/// Per-layer metrics: name, unit, better. Every traced run reports all of
/// them; a layer a workload does not load reads 0.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("hpf.parse_s", "s", "lower"),
    ("hpf.stmts", "count", "lower"),
    ("ooc-core.compile_s", "s", "lower"),
    ("ooc-core.est_rel_err", "ratio", "lower"),
    ("ooc-core.est_io_exact_ratio", "ratio", "higher"),
    ("noderun.run_s", "s", "lower"),
    ("pario.read_requests", "count", "lower"),
    ("pario.write_requests", "count", "lower"),
    ("pario.mib_read", "MiB", "lower"),
    ("pario.mib_written", "MiB", "lower"),
    ("pario.sim_io_s", "sim_s", "lower"),
    ("pario.io_retries", "count", "lower"),
    ("pario.cache_hit_ratio", "ratio", "higher"),
    ("pario.sieve_useful_ratio", "ratio", "higher"),
    ("ooc-array.redist_s", "s", "lower"),
    ("ooc-array.inspect_s", "s", "lower"),
    ("ooc-array.gather_s", "s", "lower"),
    ("ooc-array.schedule_reuse_ratio", "ratio", "higher"),
    ("dmsim.run_s", "s", "lower"),
    ("dmsim.us_per_rank.64", "us", "lower"),
    ("dmsim.us_per_rank.256", "us", "lower"),
    ("dmsim.us_per_rank.1024", "us", "lower"),
    ("dmsim.us_per_rank.4096", "us", "lower"),
    ("dmsim.msgs", "count", "lower"),
    ("dmsim.mib_sent", "MiB", "lower"),
    ("dmsim.flops", "count", "lower"),
    ("dmsim.sim_comm_s", "sim_s", "lower"),
    ("ooc-sched.submit_s", "s", "lower"),
    ("ooc-sched.guarded_s", "s", "lower"),
    ("ooc-sched.farm_s", "s", "lower"),
    ("ooc-sched.events", "count", "lower"),
    ("ooc-sched.samples", "count", "lower"),
    ("ooc-sched.retries", "count", "lower"),
    ("ooc-sched.preemptions", "count", "lower"),
    ("ooc-sched.killed", "count", "lower"),
    ("ooc-sched.quarantined", "count", "lower"),
    ("ooc-sched.sim_makespan_s", "sim_s", "lower"),
    ("ooc-trace.overhead_ratio", "ratio", "lower"),
    ("ooc-trace.export_s", "s", "lower"),
    ("ooc-trace.spans", "count", "lower"),
    ("drain_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("deadline_hit_ratio", "ratio", "higher"),
    ("jobs_done_ratio", "ratio", "higher"),
    ("sim_p95_turnaround_s", "sim_s", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("bench.span_overhead_ratio", "ratio", "lower"),
];

/// Span names and the per-layer time metric their busy time feeds.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("hpf.parse", "hpf.parse_s"),
    ("ooc-core.compile", "ooc-core.compile_s"),
    ("noderun.run", "noderun.run_s"),
    ("dmsim.run_on", "dmsim.run_s"),
    ("ooc-array.redistribute_with", "ooc-array.redist_s"),
    ("ooc-array.inspect", "ooc-array.inspect_s"),
    ("ooc-array.gather_with", "ooc-array.gather_s"),
    ("ooc-sched.submit", "ooc-sched.submit_s"),
    ("ooc-sched.run_workload_guarded", "ooc-sched.guarded_s"),
    ("ooc-sched.simulate", "ooc-sched.farm_s"),
];

/// Everything a finished run reports.
pub struct Outcome {
    pub spec: WorkloadSpec,
    pub workers: usize,
    pub setup_s: f64,
    pub tally: Tally,
    /// The untraced half of a traced run.
    pub untraced: Option<Tally>,
    pub spans: Vec<Span>,
}

fn median_of(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host seconds per unit at the largest size over the same at the
/// smallest, each item at its fastest (host noise only ever adds time):
/// 1.0 means the host cost per unit of work stays constant.
pub fn scale_ratio(t: &Tally) -> f64 {
    let per_unit = |side: &BTreeMap<usize, (f64, f64)>| {
        let (host, units) = side
            .values()
            .fold((0.0, 0.0), |(h, u), &(h1, u1)| (h + h1, u + u1));
        ratio(host, units)
    };
    ratio(per_unit(&t.scale[1]), per_unit(&t.scale[0]))
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.tally.attempted + self.untraced.as_ref().map_or(0, |u| u.attempted)
    }

    fn failed(&self) -> u64 {
        self.tally.failed + self.untraced.as_ref().map_or(0, |u| u.failed)
    }

    /// The percentile `op_tail_ms` reports at, for this sample count.
    pub fn tail_pct(&self) -> f64 {
        tail_percentile(self.tally.op_ms.len(), self.spec.tail_cap).unwrap_or(50.0)
    }

    /// End-to-end metrics, measured with tracing off.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.tally;
        let mut ms = t.op_ms.clone();
        ms.sort_by(f64::total_cmp);
        let (p50, tail) = if ms.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&ms, 50.0), percentile(&ms, self.tail_pct()))
        };
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", median_of(&t.pass_rates), "1/s"),
            ("op_p50_ms", p50, "ms"),
            ("op_tail_ms", tail, "ms"),
            (
                "peak_rss_mib",
                t.fixed.get("peak_rss_mib").copied().unwrap_or(0.0),
                "MiB",
            ),
            ("sim_s", t.first_sim_s.unwrap_or(0.0), "sim_s"),
            ("scale_ratio", scale_ratio(t), "ratio"),
        ]
    }

    /// The workload-specific metrics printed beside the end-to-end ones.
    fn extras(&self) -> Vec<(&'static str, f64)> {
        let t = &self.tally;
        let mut v = vec![(
            "failed_ratio",
            stats::failed_ratio(self.attempted(), self.failed()),
        )];
        for key in ["drain_s", "batch_s"] {
            if let Some(s) = t.samples.get(key) {
                v.push((key, stats::median(s)));
            }
        }
        for key in [
            "deadline_hit_ratio",
            "jobs_done_ratio",
            "sim_p95_turnaround_s",
        ] {
            if let Some(&x) = t.fixed.get(key) {
                v.push((key, x));
            }
        }
        v
    }

    /// Per-layer metrics of the traced half, per pass.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.tally;
        let passes = t.passes.max(1) as f64;
        let by_span = spans::busy_seconds_by_name(&self.spans);
        let layer = |k: &str| t.layer.get(k).copied().unwrap_or(0.0);
        let mut out = Vec::with_capacity(PER_LAYER.len());
        for (name, unit, _) in PER_LAYER {
            let v = if let Some(&x) = t.fixed.get(name) {
                x
            } else if let Some(s) = t.samples.get(name) {
                stats::median(s)
            } else if let Some((span, _)) = SPAN_METRICS.iter().find(|(_, m)| *m == name) {
                by_span.get(span).copied().unwrap_or(0.0) / passes
            } else {
                match name {
                    "ooc-core.est_rel_err" => {
                        ratio(layer("ooc-core.est_rel_err_sum"), layer("ooc-core.est_ops"))
                    }
                    "pario.cache_hit_ratio" => ratio(
                        layer("pario.cache_hits"),
                        layer("pario.cache_hits") + layer("pario.read_requests"),
                    ),
                    "pario.sieve_useful_ratio" => ratio(
                        layer("pario.sieve_useful_bytes"),
                        layer("pario.sieve_read_bytes"),
                    ),
                    "ooc-array.schedule_reuse_ratio" => ratio(
                        layer("ooc-array.gathers_reused"),
                        layer("ooc-array.gathers"),
                    ),
                    "failed_ratio" => stats::failed_ratio(self.attempted(), self.failed()),
                    "bench.span_overhead_ratio" => self.untraced.as_ref().map_or(0.0, |u| {
                        ratio(ratio(t.timed_s, t.units), ratio(u.timed_s, u.units))
                    }),
                    _ => layer(name) / passes,
                }
            };
            out.push((name, v, unit));
        }
        out
    }

    /// Print one metric per line, then the JSON result as the last line.
    pub fn print(&self, args: &Args) {
        let t = &self.tally;
        println!(
            "# workload {} seed {} trace {} | op = {} | {} ops in {} passes | \
             tail = p{} | {} pool workers | build {}",
            self.spec.name,
            args.seed,
            u8::from(args.trace),
            self.spec.op_unit,
            t.op_ms.len(),
            t.passes,
            self.tail_pct(),
            self.workers,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        for f in &t.failures {
            println!("# FAILED: {f}");
        }
        let metrics = if args.trace {
            if let Err(e) = self.write_spans(args) {
                eprintln!("perfbench: spans not written: {e}");
            }
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for (name, v, unit) in &metrics {
            println!("{:<32} {v} {unit}", format!("{}.{name}", self.spec.name));
        }
        for (name, v) in if args.trace {
            Vec::new()
        } else {
            self.extras()
        } {
            println!("{:<32} {v}", format!("{}.{name}", self.spec.name));
        }
        println!(
            "{}",
            result_json(
                self.failed() == 0 && self.attempted() > 0,
                self.attempted(),
                self.failed(),
                &metrics,
            )
        );
    }

    fn write_spans(&self, args: &Args) -> std::io::Result<()> {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}-seed{}.json", self.spec.name, args.seed));
        std::fs::write(&path, spans::to_chrome_json(&self.spans))?;
        println!(
            "# spans: {} written to {}",
            self.spans.len(),
            path.display()
        );
        Ok(())
    }
}

/// A finite number as JSON; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_trace::json::{parse, Json};

    #[test]
    fn result_line_round_trips_through_the_repo_parser() {
        let line = result_json(
            true,
            1234,
            0,
            &[
                ("setup_s", 0.012345678901234, "s"),
                ("ops_per_s", 98765.4321, "1/s"),
                ("dmsim.us_per_rank.4096", 1e-9, "us"),
            ],
        );
        let j = parse(&line).expect("result line parses");
        let Json::Obj(top) = &j else {
            panic!("result is an object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_num), Some(1234.0));
        let m = j.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_num),
            Some(0.012345678901234)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            m.get("dmsim.us_per_rank.4096")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_num),
            Some(1e-9)
        );
        // Non-finite values cannot break the document.
        assert!(parse(&result_json(false, 1, 1, &[("x", f64::NAN, "s")])).is_ok());
    }

    fn outcome(tally: Tally) -> Outcome {
        Outcome {
            spec: WORKLOADS[0],
            workers: 2,
            setup_s: 0.5,
            tally,
            untraced: None,
            spans: Vec::new(),
        }
    }

    #[test]
    fn refusals_and_wrong_outputs_count_as_failures() {
        let mut t = Tally::default();
        for _ in 0..8 {
            t.done(0.001, 1.0);
        }
        t.fail("submit refused: draining".to_string());
        t.fail("cell 3 output differs from ref_gaxpy".to_string());
        let o = outcome(t);
        let fr = o
            .per_layer()
            .into_iter()
            .find(|m| m.0 == "failed_ratio")
            .unwrap();
        assert_eq!(fr.1, 0.25);
        let line = result_json(o.failed() == 0, o.attempted(), o.failed(), &o.end_to_end());
        let j = parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("failed").and_then(Json::as_num), Some(2.0));
    }

    #[test]
    fn a_pass_that_simulates_differently_is_a_failure() {
        let mut t = Tally::default();
        for sim in [1.5, 1.5, 1.5000000001] {
            t.pass_sim_s = sim;
            t.end_pass();
        }
        assert_eq!(t.passes, 3);
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let o = outcome(Tally::default());
        let e2e: Vec<(String, String)> = o
            .end_to_end()
            .iter()
            .map(|m| (m.0.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layer);
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn every_metric_is_reported_once() {
        let o = outcome(Tally::default());
        let e2e: Vec<_> = o.end_to_end().iter().map(|m| m.0).collect();
        let layer: Vec<_> = o.per_layer().iter().map(|m| m.0).collect();
        assert_eq!(layer.len(), PER_LAYER.len());
        let mut all = e2e.clone();
        all.extend(&layer);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
