//! `rank_ladder`: the `scale` microbench body run solo at 64 to 4096
//! simulated ranks on one worker pool. Per-rank work is trivial, so the
//! host time is the fabric's and the pool's.

use std::time::Instant;

use dmsim::{CostModel, Machine, MachineConfig, Payload, ProcCtx, RunReport, Tag, WorkerPool};

use crate::spans::Recorder;
use crate::stats::Rng;
use crate::{Tally, Workload};

const RUNGS: [usize; 4] = [64, 256, 1024, 4096];
/// Layer metric names, one per rung.
const US_PER_RANK: [&str; 4] = [
    "dmsim.us_per_rank.64",
    "dmsim.us_per_rank.256",
    "dmsim.us_per_rank.1024",
    "dmsim.us_per_rank.4096",
];

pub struct RankLadder {
    pool: WorkerPool,
    /// Seed-derived offset of every rank's compute charge.
    salt: u64,
    /// Rung runs' simulated results from the first pass, for the parity
    /// gate against a one-worker pool.
    first: Vec<Option<Obs>>,
    /// Host seconds of each rung run, per rung.
    rung_s: [Vec<f64>; 4],
}

#[derive(Debug, PartialEq)]
struct Obs {
    per_proc: Vec<dmsim::proc::ProcReport>,
    elapsed_bits: u64,
    values: Vec<u64>,
}

/// Compute, a ring send/recv, disk charges with yields, an allreduce and
/// a barrier.
fn workout(ctx: &ProcCtx, salt: u64) -> u64 {
    let p = ctx.nprocs();
    let me = ctx.rank();
    ctx.charge_flops((me as u64 * 7919 + salt) % 10_000 + 100);
    if p > 1 {
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        ctx.send(next, Tag(1), Payload::U64(vec![me as u64; 4]));
        let got = ctx.recv(prev, Tag(1)).ok().map(|m| m.into_u64());
        if got != Some(vec![prev as u64; 4]) {
            return u64::MAX;
        }
    }
    ctx.charge_io_read(2, 1 << 14);
    ctx.io_yield();
    ctx.charge_io_write(1, 1 << 12);
    ctx.io_yield();
    let sum = ctx.allreduce_sum_f64(&[me as f64 + 1.0]);
    ctx.barrier();
    sum[0].to_bits()
}

/// The `scale` bench's zero-cost machine, except that compute is priced
/// as on the Delta, so every run has a nonzero simulated time.
fn machine_config(ranks: usize) -> MachineConfig {
    let cost = CostModel {
        flop_time: CostModel::delta(ranks).flop_time,
        ..CostModel::free(ranks)
    };
    MachineConfig::new(ranks, cost)
}

fn run_rung(pool: &WorkerPool, ranks: usize, salt: u64) -> (RunReport, Vec<u64>) {
    Machine::new(machine_config(ranks)).run_on(pool, move |ctx| workout(ctx, salt))
}

fn observe(report: &RunReport, values: Vec<u64>) -> Obs {
    Obs {
        per_proc: report.per_proc().to_vec(),
        elapsed_bits: report.elapsed().to_bits(),
        values,
    }
}

/// Runs of each rung per pass. The median run is a 256-rank one and the
/// 95th percentile a 1024-rank one: the 1 ms 64-rank runs are too short
/// to time steadily, and the single 4096-rank run is the workload's tail.
const REPS: [usize; 4] = [16, 32, 4, 1];

impl Workload for RankLadder {
    fn setup(seed: u64, workers: usize) -> Self {
        let salt = Rng::new(seed, 0x1add).below(10_000);
        let pool = WorkerPool::new(workers);
        // Warm-up: every rung below the top once.
        for &ranks in &RUNGS[..RUNGS.len() - 1] {
            std::hint::black_box(run_rung(&pool, ranks, salt));
        }
        RankLadder {
            pool,
            salt,
            first: (0..RUNGS.len()).map(|_| None).collect(),
            rung_s: Default::default(),
        }
    }

    fn pass(&mut self, rec: &Recorder, t: &mut Tally) {
        for (k, &ranks) in RUNGS.iter().enumerate() {
            for _ in 0..REPS[k] {
                let op = t.op();
                let t0 = Instant::now();
                let (report, values) = rec.span("dmsim.run_on", 0, op, |_| {
                    run_rung(&self.pool, ranks, self.salt)
                });
                let host = t0.elapsed().as_secs_f64();
                t.done(host, ranks as f64);
                t.pass_sim_s += report.elapsed();
                self.rung_s[k].push(host);
                let s = report.totals();
                t.add("dmsim.msgs", s.msgs_sent as f64);
                t.add("dmsim.mib_sent", s.bytes_sent as f64 / 1048576.0);
                t.add("dmsim.flops", s.flops as f64);
                t.add("dmsim.sim_comm_s", s.time_comm);
                t.add("pario.sim_io_s", s.time_io);
                if k == 0 || k == RUNGS.len() - 1 {
                    t.scale(k > 0, 0, host, ranks as f64);
                }
                if values.contains(&u64::MAX) {
                    t.fail(format!("{ranks} ranks: a ring message arrived wrong"));
                }
                let obs = observe(&report, values);
                match &self.first[k] {
                    None => self.first[k] = Some(obs),
                    Some(f) if *f != obs => {
                        t.fail(format!("{ranks} ranks: run differs from the first run"))
                    }
                    Some(_) => {}
                }
            }
        }
    }

    fn gate(&mut self, rec: &Recorder, t: &mut Tally) {
        // Bitwise parity: one worker serializes every rank on one thread
        // and must produce the same bits as the pooled runs.
        let solo = WorkerPool::new(1);
        for (k, &ranks) in RUNGS.iter().enumerate() {
            let (report, values) = run_rung(&solo, ranks, self.salt);
            if self.first[k].as_ref() != Some(&observe(&report, values)) {
                t.fail(format!(
                    "{ranks} ranks: Pool({}) differs from Pool(1)",
                    self.pool.workers()
                ));
            }
        }
        if !rec.on() {
            return;
        }
        for (k, name) in US_PER_RANK.iter().enumerate() {
            let per_rank = crate::stats::median(&self.rung_s[k]) / RUNGS[k] as f64;
            t.fixed.insert(name, per_rank * 1e6);
        }
        // The fabric's own tracing: the 256-rank rung traced vs not.
        let traced = |on: bool| {
            let mut cfg = machine_config(256);
            if on {
                cfg.trace = dmsim::TraceConfig::on();
            }
            let salt = self.salt;
            let t0 = Instant::now();
            let (mut report, _) =
                Machine::new(cfg).run_on(&self.pool, move |ctx| workout(ctx, salt));
            (t0.elapsed().as_secs_f64(), report.take_trace())
        };
        let mut off = Vec::new();
        let mut on = Vec::new();
        let mut trace = None;
        for _ in 0..5 {
            off.push(traced(false).0);
            let (s, tr) = traced(true);
            on.push(s);
            trace = tr;
        }
        t.add("ooc-trace.on_s", crate::stats::median(&on));
        t.add("ooc-trace.off_s", crate::stats::median(&off));
        crate::layers::finish_trace_metrics(t, rec, trace);
    }
}
