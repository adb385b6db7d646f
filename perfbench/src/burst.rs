//! `job_burst`: `oocload`'s seeded bursty arrival trace submitted to an
//! embedded `oocd` over loopback as closed-loop round-trips, then drained;
//! a prefix of the same trace replayed through the batch runtime. One op
//! is one daemon session and `ops_per_s` counts submitted jobs per second
//! of session; `attempted` and `failed` count submitted jobs.

use std::time::Instant;

use dmsim::FaultStream;
use ooc_sched::serve::{serve, submit_json, Client, Listener};
use ooc_sched::{
    run_workload, run_workload_guarded, run_workload_guarded_observed, simulate, EventLog,
    FarmConfig, FarmJob, IoReq, JobOutcome, JobProfile, JobSpec, Policy, ServeConfig, SloScorecard,
    WorkloadConfig,
};
use ooc_trace::json::{self, Json};

use crate::spans::Recorder;
use crate::stats::{fnv64, median};
use crate::{Tally, Workload};

/// Jobs per daemon session, and the tenants they come from.
const JOBS: usize = 1000;
const TENANTS: u64 = 100;
/// Batch-runtime prefixes: the large one is timed as `batch_s`; the
/// pair gives `scale_ratio`.
const BATCH_SMALL: usize = 50;
const BATCH_LARGE: usize = 200;
/// Admission bound of the batch replay.
const MAX_CONCURRENT: usize = 8;
/// Jobs in the set-up's warm-up session.
const WARMUP_JOBS: usize = 100;

pub struct JobBurst {
    cfg: ServeConfig,
    connections: usize,
    /// Pre-encoded `submit` requests, in trace order.
    frames: Vec<String>,
    /// The specs exactly as the daemon decodes them, in trace order.
    specs: Vec<JobSpec>,
    /// The first session's drain summary; every later one must match it.
    first_summary: Option<String>,
}

/// `oocload`'s arrival trace: bursts of 1–12 jobs after quiet gaps, each a
/// small randomized replay profile owned by a random tenant.
fn arrival_trace(seed: u64) -> Vec<(String, JobSpec)> {
    let r = FaultStream::derive(seed, 0x0a11);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(JOBS);
    while out.len() < JOBS {
        t += 1.0 + 9.0 * r.next_f64();
        let burst = 1 + (r.next_u64() % 12) as usize;
        for k in 0..burst.min(JOBS - out.len()) {
            let i = out.len();
            let tenant = format!("t{:03}", r.next_u64() % TENANTS);
            let ranks = 1 + (r.next_u64() % 2) as usize;
            let reqs = 2 + (r.next_u64() % 6) as usize;
            let dt = 0.5 + r.next_f64();
            let stream: Vec<IoReq> = (0..reqs)
                .map(|q| IoReq {
                    t0: q as f64 * dt,
                    t1: q as f64 * dt + 0.6 * dt,
                    requests: 1 + r.next_u64() % 4,
                    bytes: 1 << (10 + r.next_u64() % 6),
                    offset: Some(r.next_u64() % (1 << 30)),
                    write: r.chance(0.3),
                })
                .collect();
            let profile = JobProfile {
                rank_finish: vec![reqs as f64 * dt; ranks],
                streams: vec![stream; ranks],
                ..JobProfile::default()
            };
            let spec = JobSpec::new(format!("{tenant}-j{i:04}"), profile)
                .with_submit(t + 0.05 * k as f64)
                .with_weight(1.0 + (r.next_u64() % 4) as f64);
            out.push((tenant, spec));
        }
    }
    out
}

/// A value as the daemon sees it: the wire carries nine decimals.
fn wire(x: f64) -> f64 {
    format!("{x:.9}").parse().expect("a formatted float parses")
}

fn as_decoded(spec: &JobSpec) -> JobSpec {
    let mut s = spec.clone();
    s.submit = wire(s.submit);
    s.weight = wire(s.weight);
    s.qos_slack = wire(s.qos_slack);
    for f in &mut s.profile.rank_finish {
        *f = wire(*f);
    }
    for r in s.profile.streams.iter_mut().flatten() {
        r.t0 = wire(r.t0);
        r.t1 = wire(r.t1);
    }
    s
}

struct Session {
    summary: String,
    drain_s: f64,
    failures: Vec<String>,
}

impl JobBurst {
    /// One daemon lifetime: submit `frames` over the connections, drain,
    /// shut down.
    fn session(&self, frames: &[String], rec: &Recorder, op_base: u64) -> Result<Session, String> {
        let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let daemon = serve(listener, self.cfg.clone());
        let addr = daemon.addr.clone();
        let k = self.connections;
        let failures: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|c| {
                    let addr = &addr;
                    s.spawn(move || {
                        let mut fails = Vec::new();
                        let mut client = match Client::connect(addr) {
                            Ok(cl) => cl,
                            Err(e) => return vec![format!("connect: {e}")],
                        };
                        // Each connection's submits sit under a span of their
                        // own, so `ooc-sched.submit_s` sums the connections'
                        // round trips instead of merging them.
                        rec.span("ooc-sched.connection", 0, op_base, |conn| {
                            for (i, f) in frames.iter().enumerate().skip(c).step_by(k) {
                                let r = rec.span("ooc-sched.submit", conn, op_base + i as u64, |_| {
                                    client.request(f)
                                });
                                match r {
                                    Ok(j) if j.get("ok") == Some(&Json::Bool(true)) => {}
                                    Ok(j) => fails.push(format!("submit {i}: {j:?}")),
                                    Err(e) => fails.push(format!("submit {i} refused: {e}")),
                                }
                            }
                        });
                        fails
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|_| vec!["submitter panicked".into()])
                })
                .collect()
        });
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let t0 = Instant::now();
        let summary = rec.span("ooc-sched.drain", 0, op_base, |_| {
            client.request_raw("{\"op\":\"drain\"}")
        });
        let drain_s = t0.elapsed().as_secs_f64();
        let stopped = client.request("{\"op\":\"shutdown\"}");
        drop(client);
        daemon
            .join()
            .map_err(|_| "daemon accept loop panicked".to_string())?;
        let summary = summary.map_err(|e| format!("drain: {e}"))?;
        stopped.map_err(|e| format!("shutdown: {e}"))?;
        Ok(Session {
            summary,
            drain_s,
            failures,
        })
    }

    fn batch_config() -> WorkloadConfig {
        WorkloadConfig {
            policy: Policy::FairShare,
            max_concurrent: MAX_CONCURRENT,
            ..WorkloadConfig::default()
        }
    }

    /// The drained specs in the daemon's execution order.
    fn drained_specs(&self) -> Vec<JobSpec> {
        let mut specs = self.specs.clone();
        specs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.name.cmp(&b.name)));
        specs
    }
}

impl Workload for JobBurst {
    fn setup(seed: u64, workers: usize) -> Self {
        let trace = arrival_trace(seed);
        let frames = trace
            .iter()
            .map(|(tenant, spec)| submit_json(tenant, spec))
            .collect();
        let specs = trace.iter().map(|(_, s)| as_decoded(s)).collect();
        let w = JobBurst {
            cfg: ooc_bench::daemon_serve_config(seed),
            connections: workers,
            frames,
            specs,
            first_summary: None,
        };
        // Warm-up: a short session and a small batch.
        let _ = w.session(&w.frames[..WARMUP_JOBS], &Recorder::new(false), 0);
        let _ = run_workload(&w.specs[..BATCH_SMALL], &Self::batch_config());
        w
    }

    fn pass(&mut self, rec: &Recorder, t: &mut Tally) {
        let op_base = t.reserve_ops(self.frames.len() as u64);
        let t0 = Instant::now();
        let session = self.session(&self.frames, rec, op_base);
        let session_s = t0.elapsed().as_secs_f64();
        let jobs = self.frames.len() as u64;
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                t.attempted += jobs;
                t.failed += jobs;
                t.failures.push(e);
                return;
            }
        };
        t.timed_s += session_s;
        t.units += jobs as f64;
        t.attempted += jobs;
        // One op is one whole session: its submit round-trips are tens of
        // microseconds each, too short to time steadily on a shared host.
        t.op_ms.push(session_s * 1e3);
        t.sample("drain_s", session.drain_s);
        for f in session.failures {
            t.fail(f);
        }
        match &self.first_summary {
            None => self.first_summary = Some(session.summary.clone()),
            Some(first) if *first != session.summary => {
                t.failed += jobs;
                t.failures
                    .push("drain summary differs from the first session's".into());
            }
            Some(_) => {}
        }
        let makespan = json::parse(&session.summary)
            .ok()
            .and_then(|j| j.get("makespan").and_then(Json::as_num));
        t.pass_sim_s += makespan.unwrap_or(f64::NAN);

        let cfg = Self::batch_config();
        for size in [BATCH_SMALL, BATCH_LARGE] {
            let op = t.op();
            let t0 = Instant::now();
            let r = rec.span("ooc-sched.run_workload", 0, op, |_| {
                run_workload(&self.specs[..size], &cfg)
            });
            // Not added to `timed_s`: `ops_per_s` is the daemon's
            // throughput alone, and the replays have `batch_s` and
            // `scale_ratio`.
            let host = t0.elapsed().as_secs_f64();
            match r {
                Ok(rep) => t.pass_sim_s += rep.makespan(),
                Err(e) => t.fail(format!("batch of {size}: {e}")),
            }
            t.scale(size == BATCH_LARGE, 0, host, size as f64);
            if size == BATCH_LARGE {
                t.sample("batch_s", host);
            }
        }
    }

    fn gate(&mut self, rec: &Recorder, t: &mut Tally) {
        let specs = self.drained_specs();
        let mut log = EventLog::default();
        let rep = match run_workload_guarded_observed(
            &specs,
            &self.cfg.domain,
            self.cfg.sample_every,
            &mut log,
        ) {
            Ok(r) => r,
            Err(e) => {
                t.fail(format!("in-process guarded run refused: {e}"));
                return;
            }
        };
        let card = SloScorecard::from_guarded(&rep);
        let count = |f: fn(&JobOutcome) -> bool| rep.jobs.iter().filter(|j| f(&j.outcome)).count();
        let jobs = rep.jobs.len() as f64;

        // The daemon's drain must report what the in-process run reports.
        let summary = self
            .first_summary
            .as_deref()
            .and_then(|s| json::parse(s).ok());
        let num = |k: &str| {
            summary
                .as_ref()
                .and_then(|j| j.get(k))
                .and_then(Json::as_num)
        };
        let expect = [
            ("jobs", jobs),
            ("completed", rep.completed() as f64),
            (
                "recovered",
                count(|o| matches!(o, JobOutcome::Recovered { .. })) as f64,
            ),
            (
                "killed",
                count(|o| matches!(o, JobOutcome::Killed { .. })) as f64,
            ),
            (
                "quarantined",
                count(|o| matches!(o, JobOutcome::Quarantined { .. })) as f64,
            ),
            ("makespan", wire(rep.makespan())),
            ("deadline_hit_rate", wire(card.deadline_hit_rate())),
        ];
        for (k, want) in expect {
            if num(k) != Some(want) {
                t.fail(format!("drain {k} {:?}, in-process {want}", num(k)));
            }
        }
        let fnv = format!("{:016x}", fnv64(log.render().as_bytes()));
        let got = summary
            .as_ref()
            .and_then(|j| j.get("stream_fnv"))
            .and_then(Json::as_str);
        if got != Some(fnv.as_str()) {
            t.fail(format!("drain stream fnv {got:?}, in-process {fnv}"));
        }

        // One farm replay of the batch prefix's admission schedule must
        // reproduce the batch runtime's completions.
        let cfg = Self::batch_config();
        let prefix = &self.specs[..BATCH_LARGE];
        let farm_cfg = FarmConfig {
            policy: cfg.policy,
            seek_penalty: cfg.seek_penalty,
            trace: false,
            observe: false,
        };
        match run_workload(prefix, &cfg) {
            Ok(batch) => {
                let farm_jobs: Vec<FarmJob> = batch
                    .jobs
                    .iter()
                    .zip(prefix)
                    .map(|(j, s)| FarmJob {
                        base: j.admit,
                        weight: s.weight,
                        qos_slack: s.qos_slack,
                        ..FarmJob::new(j.job, &s.profile)
                    })
                    .collect();
                let mut farm_s = Vec::new();
                for _ in 0..3 {
                    let op = t.op();
                    let t0 = Instant::now();
                    let farm = rec.span("ooc-sched.simulate", 0, op, |_| {
                        simulate(&farm_jobs, &farm_cfg)
                    });
                    farm_s.push(t0.elapsed().as_secs_f64());
                    let same = farm
                        .jobs
                        .iter()
                        .zip(&batch.jobs)
                        .all(|(f, b)| f.completion.to_bits() == b.completion.to_bits());
                    if !same || farm.jobs.len() != batch.jobs.len() {
                        t.fail("farm replay of the batch schedule differs".into());
                    }
                }
                t.fixed.insert("ooc-sched.farm_s", median(&farm_s));
            }
            Err(e) => t.fail(format!("batch gate run refused: {e}")),
        }

        t.fixed
            .insert("deadline_hit_ratio", card.deadline_hit_rate());
        t.fixed
            .insert("jobs_done_ratio", rep.completed() as f64 / jobs);
        t.fixed
            .insert("sim_p95_turnaround_s", card.p95_turnaround.unwrap_or(0.0));
        if !rec.on() {
            return;
        }
        t.fixed.insert("ooc-sched.events", log.events.len() as f64);
        t.fixed
            .insert("ooc-sched.samples", log.samples.len() as f64);
        let retries: u32 = rep
            .jobs
            .iter()
            .map(|j| j.attempts.saturating_sub(1 + j.preemptions))
            .sum();
        t.fixed.insert("ooc-sched.retries", retries as f64);
        let preemptions: u32 = rep.jobs.iter().map(|j| j.preemptions).sum();
        t.fixed.insert("ooc-sched.preemptions", preemptions as f64);
        t.fixed.insert(
            "ooc-sched.killed",
            count(|o| matches!(o, JobOutcome::Killed { .. })) as f64,
        );
        t.fixed.insert(
            "ooc-sched.quarantined",
            count(|o| matches!(o, JobOutcome::Quarantined { .. })) as f64,
        );
        t.fixed.insert("ooc-sched.sim_makespan_s", rep.makespan());

        // The guarded runtime alone, untraced and with its own trace on.
        let mut guarded = |trace: bool| {
            let domain = ooc_sched::DomainConfig {
                trace,
                ..self.cfg.domain.clone()
            };
            let op = t.op();
            let t0 = Instant::now();
            let r = rec.span("ooc-sched.run_workload_guarded", 0, op, |_| {
                run_workload_guarded(&specs, &domain)
            });
            (
                t0.elapsed().as_secs_f64(),
                r.ok().and_then(|r| r.domain_trace),
            )
        };
        let mut off = Vec::new();
        let mut on = Vec::new();
        let mut trace = None;
        for _ in 0..3 {
            off.push(guarded(false).0);
            let (s, tr) = guarded(true);
            on.push(s);
            trace = tr;
        }
        t.fixed.insert("ooc-sched.guarded_s", median(&off));
        t.add("ooc-trace.on_s", median(&on));
        t.add("ooc-trace.off_s", median(&off));
        let trace = trace.map(|rt| dmsim::Trace { ranks: vec![rt] });
        crate::layers::finish_trace_metrics(t, rec, trace);
    }
}
