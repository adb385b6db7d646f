//! The simulated machine: configuration and SPMD execution.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ooc_trace::{RankTrace, Trace, TraceConfig, Tracer};
use serde::{Deserialize, Serialize};

use crate::comm::{build_fabric, Endpoints, Fabric, PoolWake};
use crate::costmodel::CostModel;
use crate::fault::{FaultConfig, FaultDomain, FaultInjector};
use crate::pool::{CoroHook, RankBody, RunCore, TaskToken, WorkerPool};
use crate::proc::{Blocker, ProcCtx, ProcReport, RunReport};

/// Which execution engine carries the simulated ranks.
///
/// Both engines produce **bitwise-identical** results — clocks, stats,
/// traces, fault streams — because every per-rank quantity is a pure
/// function of the rank's own event sequence and messages carry their
/// arrival timestamps. The engines differ only in host-resource shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Engine {
    /// One OS thread per simulated rank — the legacy engine and the
    /// exact-parity oracle. Simple, but caps out at OS thread limits.
    #[default]
    Threads,
    /// Ranks are coroutines scheduled on a fixed pool of this many worker
    /// threads (`0` = host parallelism). Scales to thousands of ranks and
    /// lets concurrent runs share one pool.
    Pool(usize),
}

/// Configuration of a simulated distributed-memory machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of compute processors.
    pub nprocs: usize,
    /// Cost model converting counted operations into simulated seconds.
    pub cost: CostModel,
    /// Simulated-clock event tracing; off by default, and when off the
    /// machine runs the exact untraced path.
    pub trace: TraceConfig,
    /// Job identity when this machine runs as part of a multi-job workload
    /// (`ooc-sched`). Seeds fault/RNG streams per (job, rank) pair; job 0 —
    /// the default — is bit-identical to the pre-workload derivation.
    pub job: u32,
    /// Execution engine carrying the ranks; results are engine-invariant.
    pub engine: Engine,
}

impl MachineConfig {
    /// A machine with `nprocs` nodes and an explicit cost model.
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        assert!(nprocs > 0, "machine needs at least one processor");
        MachineConfig {
            nprocs,
            cost,
            trace: TraceConfig::default(),
            job: 0,
            engine: Engine::default(),
        }
    }

    /// Enable simulated-clock tracing on every processor.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Select the execution engine (results are engine-invariant).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Intel Touchstone Delta calibration (see [`CostModel::delta`]).
    pub fn delta(nprocs: usize) -> Self {
        Self::new(nprocs, CostModel::delta(nprocs))
    }

    /// Zero-cost machine for functional tests.
    pub fn free(nprocs: usize) -> Self {
        Self::new(nprocs, CostModel::free(nprocs))
    }

    /// Modern cluster calibration (see [`CostModel::cluster`]).
    pub fn cluster(nprocs: usize) -> Self {
        Self::new(nprocs, CostModel::cluster(nprocs))
    }
}

/// A simulated machine ready to run SPMD regions.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    fault: Option<FaultConfig>,
}

impl Machine {
    /// Build a machine from its configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            config,
            fault: None,
        }
    }

    /// Enable deterministic fault injection on the message fabric. Each rank
    /// derives its own stream from `cfg.seed`, so same-seed runs perturb
    /// identically. (Disk faults are wired separately, through
    /// `pario::LogicalDisk::enable_faults`, from the same config.)
    pub fn with_fault_injection(mut self, cfg: FaultConfig) -> Self {
        self.fault = Some(cfg);
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Run `body` as an SPMD region on the configured [`Engine`], each
    /// processor receiving its own [`ProcCtx`]. Returns the
    /// timing/statistics report. Panics in any processor propagate after
    /// the region completes, lowest rank first.
    pub fn run<F>(&self, body: F) -> RunReport
    where
        F: Fn(&ProcCtx) + Send + Sync,
    {
        self.run_with(|ctx| body(ctx)).0
    }

    /// Like [`Machine::run`] but also collects a value from each processor,
    /// returned in rank order.
    pub fn run_with<F, T>(&self, body: F) -> (RunReport, Vec<T>)
    where
        F: Fn(&ProcCtx) -> T + Send + Sync,
        T: Send,
    {
        match self.config.engine {
            Engine::Threads => self.run_threaded(body),
            Engine::Pool(workers) => {
                if !crate::coro::supported() {
                    // No coroutine backend on this target; the threaded
                    // engine is bitwise-identical, only less scalable.
                    return self.run_threaded(body);
                }
                let pool = WorkerPool::new(workers);
                self.run_on(&pool, body)
            }
        }
    }

    /// The legacy engine: one OS thread per simulated processor.
    fn run_threaded<F, T>(&self, body: F) -> (RunReport, Vec<T>)
    where
        F: Fn(&ProcCtx) -> T + Send + Sync,
        T: Send,
    {
        let n = self.config.nprocs;
        let fabric = build_fabric(n);
        let started = Instant::now();

        let tracing = self.config.trace.enabled;
        let mut joined: Vec<(usize, ProcReport, Option<RankTrace>, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, endpoints) in fabric.into_iter().enumerate() {
                let cost = self.config.cost.clone();
                let faults = self
                    .fault
                    .as_ref()
                    .map(|fc| FaultInjector::for_job(fc, self.config.job, rank, FaultDomain::Msg));
                let tracer = tracing.then(|| Tracer::new(rank, self.config.trace));
                let job = self.config.job;
                let body = &body;
                handles.push(scope.spawn(move || {
                    // A panic unwinds through `ctx`, dropping its endpoints,
                    // which marks the rank exited and unblocks its peers.
                    let ctx = ProcCtx::new(
                        rank,
                        n,
                        cost,
                        endpoints,
                        faults,
                        tracer,
                        job,
                        Blocker::Thread,
                    );
                    let value = body(&ctx);
                    let (report, trace) = ctx.finish();
                    (rank, report, trace, value)
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(t) => joined.push(t),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });

        let wall = started.elapsed().as_secs_f64();
        joined.sort_by_key(|(r, _, _, _)| *r);
        let mut reports = Vec::with_capacity(n);
        let mut rank_traces = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for (_, rep, rt, val) in joined {
            reports.push(rep);
            rank_traces.extend(rt);
            values.push(val);
        }
        let trace = tracing.then_some(Trace { ranks: rank_traces });
        (RunReport::new(reports, wall, trace), values)
    }

    /// Run the SPMD region as rank coroutines on an existing [`WorkerPool`],
    /// blocking until every rank finished. Several `run_on` calls (from
    /// different OS threads) may share one pool; their tasks interleave on
    /// the workers without affecting each other's results.
    ///
    /// Panics if the simulated program deadlocks (every rank parked with no
    /// wake possible) — the threaded engine would hang forever instead.
    pub fn run_on<F, T>(&self, pool: &WorkerPool, body: F) -> (RunReport, Vec<T>)
    where
        F: Fn(&ProcCtx) -> T + Send + Sync,
        T: Send,
    {
        if !crate::coro::supported() {
            return self.run_threaded(body);
        }
        // `&F` implements `Fn(&ProcCtx) -> T` and is `Copy`; the staged
        // tasks borrow `body` only until `wait()` returns (see the safety
        // argument in `stage_generic`).
        self.stage_generic(pool, &body).wait()
    }

    /// Start the SPMD region on `pool` without blocking: the returned
    /// handle collects the report. Lets a driver thread keep many runs
    /// in flight on one shared pool (multi-job workloads).
    pub fn start_on<F, T>(&self, pool: &WorkerPool, body: F) -> RunHandle<T>
    where
        F: Fn(&ProcCtx) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        assert!(
            crate::coro::supported(),
            "start_on requires the coroutine backend (x86_64/aarch64)"
        );
        let body = Arc::new(body);
        let staged = self.stage_generic(pool, move |ctx: &ProcCtx| body(ctx));
        RunHandle {
            staged,
            pool: pool.clone(),
        }
    }

    /// Stage one coroutine per rank on `pool` and launch them. `body` is
    /// cloned per rank (a borrow for `run_on`, an `Arc`-capturing closure
    /// for `start_on`).
    fn stage_generic<'env, T, B>(&self, pool: &WorkerPool, body: B) -> StagedRun<T>
    where
        T: Send + 'env,
        B: Fn(&ProcCtx) -> T + Send + Clone + 'env,
    {
        let n = self.config.nprocs;
        let started = Instant::now();
        let tracing = self.config.trace.enabled;
        let fabric = Fabric::new(n);
        let run = pool.new_run(n);
        let results: SharedResults<T> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));

        let mut bodies: Vec<ErasedBody<'env>> = Vec::with_capacity(n);
        for rank in 0..n {
            let cost = self.config.cost.clone();
            let faults = self
                .fault
                .as_ref()
                .map(|fc| FaultInjector::for_job(fc, self.config.job, rank, FaultDomain::Msg));
            let tracer = tracing.then(|| Tracer::new(rank, self.config.trace));
            let job = self.config.job;
            let fabric = fabric.clone();
            let run = run.clone();
            let results = results.clone();
            let body = body.clone();
            bodies.push(Box::new(move |y, token| {
                let hook = CoroHook::new(y, token);
                let ctx = ProcCtx::new(
                    rank,
                    n,
                    cost,
                    Endpoints::on(fabric, rank),
                    faults,
                    tracer,
                    job,
                    Blocker::Coro(hook),
                );
                match std::panic::catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
                    Ok(value) => {
                        let (report, trace) = ctx.finish();
                        results.lock().unwrap()[rank] = Some((report, trace, value));
                    }
                    Err(payload) => {
                        // Dropping the context disconnects the rank's
                        // endpoints, unblocking any peer waiting on it.
                        drop(ctx);
                        run.record_panic(rank, payload);
                    }
                }
            }));
        }

        // SAFETY: lifetime erasure of the rank closures, which may borrow
        // `body` from the caller's frame ('env). `StagedRun::wait` blocks
        // until every task of the run is accounted for: a finished task has
        // consumed its closure (captures dropped on its own stack), and a
        // deadlock-killed task's suspended stack is *leaked* — its borrows
        // are never touched again — after which `wait` panics. `run_on`
        // calls `wait` before 'env can end, and `start_on` only accepts
        // 'static bodies, so no erased borrow is ever dangling when used.
        let bodies: Vec<RankBody> = unsafe { std::mem::transmute(bodies) };
        let tids = pool.submit(&run, bodies);
        fabric.set_wake(PoolWake {
            shared: pool.shared_arc(),
        });
        pool.launch(&tids);
        StagedRun {
            run,
            results,
            started,
            tracing,
            n,
        }
    }
}

type RankDone<T> = (ProcReport, Option<RankTrace>, T);
type SharedResults<T> = Arc<Mutex<Vec<Option<RankDone<T>>>>>;
/// A rank closure before lifetime erasure (see the SAFETY comment in
/// [`Machine::stage_generic`]); `RankBody` is its `'static` counterpart.
type ErasedBody<'env> = Box<dyn FnOnce(&crate::coro::Yielder, TaskToken) + Send + 'env>;

/// How a pooled run died instead of completing: detected simulated
/// deadlock, or an explicit [`RunHandle::kill`] (e.g. a workload watchdog
/// evicting a hung job). Either way the victims' suspended coroutine
/// stacks are leaked and the rest of the pool is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunDeath {
    /// Every live rank of the run was parked with no possible wake; the
    /// listed ranks were reaped.
    Deadlock { ranks: Vec<usize> },
    /// The run was torn down via [`RunHandle::kill`]; the listed ranks were
    /// reaped before finishing (ranks that completed earlier are absent).
    Killed { ranks: Vec<usize> },
}

impl std::fmt::Display for RunDeath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunDeath::Deadlock { ranks } => {
                write!(f, "simulated program deadlocked (ranks {ranks:?} parked)")
            }
            RunDeath::Killed { ranks } => {
                write!(f, "run killed (ranks {ranks:?} reaped)")
            }
        }
    }
}

/// A launched pooled run: owns the completion state and result slots.
struct StagedRun<T> {
    run: Arc<RunCore>,
    results: SharedResults<T>,
    started: Instant,
    tracing: bool,
    n: usize,
}

impl<T: Send> StagedRun<T> {
    fn wait(self) -> (RunReport, Vec<T>) {
        match self.wait_outcome() {
            Ok(done) => done,
            Err(RunDeath::Deadlock { ranks }) => panic!(
                "dmsim: simulated program deadlocked on the pooled engine: \
                 ranks {ranks:?} were parked with no possible wake \
                 (their coroutine stacks were leaked)"
            ),
            Err(RunDeath::Killed { ranks }) => panic!(
                "dmsim: pooled run was killed (ranks {ranks:?} reaped); \
                 use wait_outcome() to observe kills without panicking"
            ),
        }
    }

    /// Block until every task is accounted for; a deadlocked or killed run
    /// comes back as a typed [`RunDeath`] instead of a panic. Rank panics
    /// still propagate (lowest rank first) — they are program bugs, not
    /// simulated faults.
    fn wait_outcome(self) -> Result<(RunReport, Vec<T>), RunDeath> {
        self.run.wait();
        if self.run.was_killed() {
            let mut ranks = self.run.killed_ranks();
            ranks.sort_unstable();
            return Err(RunDeath::Killed { ranks });
        }
        if self.run.failed() {
            let mut ranks = self.run.deadlocked_ranks();
            ranks.sort_unstable();
            return Err(RunDeath::Deadlock { ranks });
        }
        if let Some((_rank, payload)) = self.run.take_panic() {
            std::panic::resume_unwind(payload);
        }
        let wall = self.started.elapsed().as_secs_f64();
        let slots = match Arc::try_unwrap(self.results) {
            Ok(m) => m.into_inner().unwrap(),
            // Every task finished cleanly (no deadlock, no panic), so every
            // per-rank clone of the results handle has been dropped.
            Err(_) => unreachable!("result slots still shared after completion"),
        };
        let mut reports = Vec::with_capacity(self.n);
        let mut rank_traces = Vec::with_capacity(self.n);
        let mut values = Vec::with_capacity(self.n);
        for (rank, slot) in slots.into_iter().enumerate() {
            let (rep, rt, val) =
                slot.unwrap_or_else(|| panic!("rank {rank} finished without a result"));
            reports.push(rep);
            rank_traces.extend(rt);
            values.push(val);
        }
        let trace = self.tracing.then_some(Trace { ranks: rank_traces });
        Ok((RunReport::new(reports, wall, trace), values))
    }
}

/// Handle to a run started with [`Machine::start_on`]. Keeps the worker
/// pool alive until the run is collected.
pub struct RunHandle<T> {
    staged: StagedRun<T>,
    pool: WorkerPool,
}

impl<T: Send> RunHandle<T> {
    /// Block until the run completes and collect its report and per-rank
    /// values. Propagates rank panics (lowest rank first) and turns
    /// simulated deadlocks into a diagnostic panic.
    pub fn wait(self) -> (RunReport, Vec<T>) {
        self.staged.wait()
    }

    /// Like [`RunHandle::wait`], but a deadlocked or killed run comes back
    /// as a typed [`RunDeath`] instead of a panic. Rank panics (program
    /// bugs) still propagate.
    pub fn wait_outcome(self) -> Result<(RunReport, Vec<T>), RunDeath> {
        self.staged.wait_outcome()
    }

    /// Tear down the run: unfinished ranks are reaped (suspended coroutine
    /// stacks leaked, like deadlock kills) without touching other runs on
    /// the pool, and any partial results are discarded. Blocks until every
    /// task is accounted for, then reports which ranks were reaped.
    pub fn kill(self) -> RunDeath {
        self.pool.kill_run(&self.staged.run);
        self.staged.run.wait();
        let mut ranks = self.staged.run.killed_ranks();
        ranks.sort_unstable();
        RunDeath::Killed { ranks }
    }

    /// Whether every rank of the run has already finished.
    pub fn is_done(&self) -> bool {
        self.staged.run.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::comm::{Payload, Tag};

    #[test]
    fn spmd_region_runs_every_rank_once() {
        let m = Machine::new(MachineConfig::free(5));
        let (_, ranks) = m.run_with(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn point_to_point_transfers_data_and_time() {
        let m = Machine::new(MachineConfig::delta(2));
        let report = m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.charge_flops(4_000_000); // 1 simulated second of work
                ctx.send(1, Tag(9), Payload::F64(vec![2.5; 8]));
            } else {
                let data = ctx.recv(0, Tag(9)).unwrap().into_f64();
                assert_eq!(data, vec![2.5; 8]);
            }
        });
        // Rank 1 waited for rank 0's second of compute plus the message.
        let r1 = report.per_proc()[1];
        assert!(r1.finish_time > 1.0, "finish = {}", r1.finish_time);
        assert_eq!(r1.stats.msgs_received, 1);
        assert_eq!(r1.stats.bytes_received, 64);
    }

    #[test]
    fn allreduce_sums_across_all_ranks() {
        for p in [1, 2, 3, 4, 7, 8] {
            let m = Machine::new(MachineConfig::free(p));
            m.run(|ctx| {
                let v = vec![ctx.rank() as f64, 1.0];
                let sum = ctx.allreduce_sum_f64(&v);
                let expect: f64 = (0..ctx.nprocs()).map(|r| r as f64).sum();
                assert_eq!(sum, vec![expect, p as f64]);
            });
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let m = Machine::new(MachineConfig::free(6));
        m.run(|ctx| {
            let v = vec![1.0f32];
            let got = ctx.global_sum_f32(&v, 4);
            if ctx.rank() == 4 {
                assert_eq!(got, Some(vec![6.0]));
            } else {
                assert_eq!(got, None);
            }
        });
    }

    #[test]
    fn broadcast_from_any_root() {
        for root in 0..5 {
            let m = Machine::new(MachineConfig::free(5));
            m.run(move |ctx| {
                let data = if ctx.rank() == root {
                    vec![root as u64 * 10, 7]
                } else {
                    Vec::new()
                };
                let got = ctx.broadcast(data, root);
                assert_eq!(got, vec![root as u64 * 10, 7]);
            });
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let m = Machine::new(MachineConfig::free(4));
        m.run(|ctx| {
            let mine = vec![ctx.rank() as u64; 2];
            if let Some(all) = ctx.gather(&mine, 0) {
                assert_eq!(all, vec![0, 0, 1, 1, 2, 2, 3, 3]);
            }
        });
    }

    #[test]
    fn scatter_distributes_chunks() {
        let m = Machine::new(MachineConfig::free(4));
        m.run(|ctx| {
            let data = if ctx.rank() == 0 {
                (0..8u64).collect()
            } else {
                Vec::new()
            };
            let mine = ctx.scatter(data, 0);
            let r = ctx.rank() as u64;
            assert_eq!(mine, vec![2 * r, 2 * r + 1]);
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let m = Machine::new(MachineConfig::delta(4));
        let report = m.run(|ctx| {
            if ctx.rank() == 2 {
                ctx.charge_seconds(5.0);
            }
            ctx.barrier();
        });
        for p in report.per_proc() {
            assert!(
                p.finish_time >= 5.0,
                "rank {} finished at {}",
                p.rank,
                p.finish_time
            );
        }
    }

    #[test]
    fn reduce_max_and_min() {
        let m = Machine::new(MachineConfig::free(5));
        m.run(|ctx| {
            let v = vec![ctx.rank() as f64];
            let mx = ctx.allreduce(&v, ReduceOp::Max);
            let mn = ctx.allreduce(&v, ReduceOp::Min);
            assert_eq!(mx, vec![4.0]);
            assert_eq!(mn, vec![0.0]);
        });
    }

    #[test]
    fn io_charges_show_up_in_report() {
        let m = Machine::new(MachineConfig::delta(2));
        let report = m.run(|ctx| {
            ctx.charge_io_read(10, 1 << 20);
            ctx.charge_io_write(2, 1 << 10);
        });
        let totals = report.totals();
        assert_eq!(totals.io_read_requests, 20);
        assert_eq!(totals.io_write_requests, 4);
        assert_eq!(report.io_requests_per_proc(), 12);
        assert!(report.elapsed() > 0.0);
    }

    #[test]
    fn message_faults_delay_but_never_corrupt() {
        let body = |ctx: &ProcCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag(3), Payload::F64(vec![1.5; 64]));
                Vec::new()
            } else {
                ctx.recv(0, Tag(3)).unwrap().into_f64()
            }
        };
        let clean = Machine::new(MachineConfig::delta(2));
        let (clean_rep, clean_vals) = clean.run_with(body);
        let chaotic = Machine::new(MachineConfig::delta(2))
            .with_fault_injection(crate::fault::FaultConfig::chaos(11));
        let (rep, vals) = chaotic.run_with(body);
        // Payloads are identical; only timing and fault counters differ.
        assert_eq!(vals, clean_vals);
        let t = rep.totals();
        assert_eq!(t.msgs_sent, clean_rep.totals().msgs_sent);
        assert_eq!(t.bytes_sent, clean_rep.totals().bytes_sent);
        // Same seed => bit-identical rerun.
        let (rep2, vals2) = Machine::new(MachineConfig::delta(2))
            .with_fault_injection(crate::fault::FaultConfig::chaos(11))
            .run_with(body);
        assert_eq!(vals2, vals);
        assert_eq!(rep2.per_proc(), rep.per_proc());
        assert_eq!(rep2.elapsed(), rep.elapsed());
    }

    #[test]
    fn dropped_messages_charge_retries_into_time() {
        let cfg = crate::fault::FaultConfig {
            msg_drop: 1.0, // every attempt up to the bound is dropped
            ..crate::fault::FaultConfig::quiet(5)
        };
        let m = Machine::new(MachineConfig::delta(2)).with_fault_injection(cfg);
        let rep = m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag(1), Payload::U64(vec![7; 16]));
            } else {
                assert_eq!(ctx.recv(0, Tag(1)).unwrap().into_u64(), vec![7; 16]);
            }
        });
        let t = rep.totals();
        assert_eq!(t.msgs_sent, 1, "logical count unchanged");
        assert_eq!(t.msg_retries, 7, "max_attempts-1 retransmissions");
        assert!(t.faults_injected >= 7);
        assert!(t.time_faults > 0.0);
        // The clean run's send costs one message time; this one cost 8.
        let clean = Machine::new(MachineConfig::delta(2)).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag(1), Payload::U64(vec![7; 16]));
            } else {
                let _ = ctx.recv(0, Tag(1)).unwrap();
            }
        });
        assert!(rep.elapsed() > clean.elapsed());
    }

    #[test]
    fn fault_free_machine_is_bit_identical_with_quiet_injector() {
        let body = |ctx: &ProcCtx| {
            ctx.charge_flops(1000);
            let v = vec![ctx.rank() as f64; 32];
            let s = ctx.allreduce_sum_f64(&v);
            ctx.barrier();
            s
        };
        let (rep_a, vals_a) = Machine::new(MachineConfig::delta(4)).run_with(body);
        let (rep_b, vals_b) = Machine::new(MachineConfig::delta(4))
            .with_fault_injection(crate::fault::FaultConfig::quiet(99))
            .run_with(body);
        assert_eq!(vals_a, vals_b);
        assert_eq!(rep_a.per_proc(), rep_b.per_proc());
        assert_eq!(rep_a.elapsed(), rep_b.elapsed());
    }

    #[test]
    fn kill_tears_down_hung_run_without_poisoning_pool() {
        if !crate::coro::supported() {
            return;
        }
        let pool = WorkerPool::new(2);
        let m = Machine::new(MachineConfig::free(2));
        // Mutual recv: both ranks park forever. Whether our kill or the
        // deadlock detector reaps them first, `kill` must return promptly
        // and the pool must stay healthy.
        let handle = m.start_on(&pool, |ctx| {
            let peer = 1 - ctx.rank();
            let _ = ctx.recv(peer, Tag(42));
        });
        let death = handle.kill();
        assert!(matches!(death, RunDeath::Killed { .. }));
        let (_, vals) = m.run_on(&pool, |ctx| ctx.rank());
        assert_eq!(vals, vec![0, 1]);
    }

    #[test]
    fn wait_outcome_reports_deadlock_instead_of_panicking() {
        if !crate::coro::supported() {
            return;
        }
        let pool = WorkerPool::new(2);
        let m = Machine::new(MachineConfig::free(2));
        let handle = m.start_on(&pool, |ctx| {
            let peer = 1 - ctx.rank();
            let _ = ctx.recv(peer, Tag(42));
        });
        match handle.wait_outcome() {
            Err(RunDeath::Deadlock { ranks }) => assert_eq!(ranks, vec![0, 1]),
            other => panic!("expected deadlock, got {:?}", other.err()),
        }
        // A clean run on the same pool comes back Ok.
        let handle = m.start_on(&pool, |ctx| ctx.rank() * 10);
        let (_, vals) = handle.wait_outcome().expect("clean run");
        assert_eq!(vals, vec![0, 10]);
    }

    #[test]
    fn simulated_time_is_deterministic() {
        let run = || {
            let m = Machine::new(MachineConfig::delta(8));
            m.run(|ctx| {
                ctx.charge_flops((ctx.rank() as u64 + 1) * 12345);
                let v = vec![ctx.rank() as f64; 100];
                let _ = ctx.allreduce_sum_f64(&v);
                ctx.barrier();
            })
            .elapsed()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulated time must not depend on scheduling");
    }
}
