//! Top-level execution: SPMD region setup, plan dispatch, result
//! collection.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dmsim::{Engine, FaultConfig, Machine, MachineConfig, ProcCtx, RunReport, WorkerPool};
use ooc_array::{OocEnv, OocError, Section, Shape};
use ooc_core::{CompiledProgram, ExecPlan};

/// Per-element initializer: global index → value.
pub type InitFn = Arc<dyn Fn(&[usize]) -> f32 + Send + Sync>;

/// Wrap a closure as an [`InitFn`].
pub fn init_fn(f: impl Fn(&[usize]) -> f32 + Send + Sync + 'static) -> InitFn {
    Arc::new(f)
}

/// Where local array files live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// In-memory logical disks (fast; the default for experiments).
    #[default]
    Memory,
    /// Real scratch files (demonstrates the system against a filesystem).
    Disk,
}

/// Execution configuration.
#[derive(Clone, Default)]
pub struct RunConfig {
    /// Storage backend for local array files.
    pub backend: Backend,
    /// Data-sieving policy for strided reads (PASSION-style runtime
    /// optimization; `Direct` keeps measured I/O equal to the compiler's
    /// estimate).
    pub sieve: Option<pario::SievePolicy>,
    /// Overlap slab fetches with the previous slab's computation (software
    /// pipelining). Leaves the I/O metrics untouched; only time shrinks.
    pub prefetch: bool,
    /// Initial values per array (missing arrays start zeroed). Loading is
    /// not charged — the paper amortizes initial distribution.
    pub init: HashMap<String, InitFn>,
    /// Arrays imported from exported `.laf` files before execution
    /// (array name -> directory). Takes precedence over `init`.
    pub import: Vec<(String, std::path::PathBuf)>,
    /// Arrays exported to `.laf` files after execution
    /// (array name -> directory).
    pub export: Vec<(String, std::path::PathBuf)>,
    /// Arrays to gather into global buffers after the run (verification).
    pub collect: Vec<String>,
    /// Byte budget of a slab reuse cache in front of each logical disk
    /// (`None` = uncached, the default). The cache is enabled after the
    /// uncharged setup (allocation, init, import) so it starts cold, and
    /// flushed — charged — after every plan, so dirty slabs always reach
    /// disk inside the timed region.
    pub cache_budget: Option<usize>,
    /// Deterministic fault injection (`None` = off, bit-identical to a
    /// build without the fault subsystem). The same config seeds both the
    /// per-rank disk injectors and the message-fabric injectors; transient
    /// faults are absorbed by the retry policy, permanent faults trigger a
    /// bounded checkpoint/restart recovery of the whole program with hard
    /// faults quiesced.
    pub fault: Option<FaultConfig>,
    /// Directory for slab-granular recovery checkpoints. With faults on,
    /// executors that support it (GAXPY) checkpoint their output here at
    /// slab boundaries, and a recovery re-run resumes from the agreed
    /// watermark instead of from scratch.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Simulated-clock tracing for this run (`None` = off, the default).
    pub trace: Option<dmsim::TraceConfig>,
    /// Override the compiler's per-access I/O method selection for every
    /// remap-style access (pre-statement redistributions, transposes).
    /// `Sieved` additionally sets the environment's sieve policy to
    /// `Always`, so strided section reads sieve everywhere. `None` (the
    /// default) runs what the compiler chose.
    pub io_method: Option<pario::IoMethod>,
    /// Workload job tag. Job 0 (the default) is bit-identical to a build
    /// without the workload runtime; a nonzero tag gives this run its own
    /// fault/RNG streams per (job, rank) and labels its requests for the
    /// `ooc-sched` disk-farm scheduler.
    pub job: u32,
    /// Execution engine: OS threads (`None`, the default) or a transient
    /// worker pool hosting the ranks as cooperative tasks. Purely a hosting
    /// choice — reports are bit-identical across engines.
    pub engine: Option<Engine>,
    /// Host the ranks on this existing worker pool instead of building a
    /// transient one per run. Implies the pooled engine regardless of
    /// `engine`; required for running many programs concurrently on one
    /// fixed set of OS threads (see [`start`]).
    pub pool: Option<WorkerPool>,
}

/// Bound on whole-program recovery re-runs after a permanent fault.
const MAX_RECOVERIES: usize = 2;

/// Execution failure.
#[derive(Debug)]
pub enum RunError {
    /// An I/O layer operation failed.
    Io(pario::IoError),
    /// A communication operation failed (typically a peer rank lost to a
    /// permanent fault) and recovery was exhausted or disabled.
    Comm(dmsim::CommError),
    /// The configuration is inconsistent with the compiled program.
    Config(String),
    /// The run died on the pool without completing: a simulated deadlock
    /// was detected, or the run was explicitly killed (a workload watchdog
    /// evicting a hung job). Not retried by the recovery loop — the
    /// workload layer decides whether to resubmit or quarantine.
    Hung(dmsim::RunDeath),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io(e) => write!(f, "I/O error: {e}"),
            RunError::Comm(e) => write!(f, "communication error: {e}"),
            RunError::Config(m) => write!(f, "configuration error: {m}"),
            RunError::Hung(d) => write!(f, "run died without completing: {d}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<pario::IoError> for RunError {
    fn from(e: pario::IoError) -> Self {
        RunError::Io(e)
    }
}

impl From<OocError> for RunError {
    fn from(e: OocError) -> Self {
        match e {
            OocError::Io(e) => RunError::Io(e),
            OocError::Comm(e) => RunError::Comm(e),
        }
    }
}

/// Result of executing a compiled program.
#[derive(Debug)]
pub struct RunOutcome {
    /// Timing and operation counters from the simulated machine.
    pub report: RunReport,
    /// Gathered global arrays (column-major), for the names requested in
    /// [`RunConfig::collect`].
    pub collected: HashMap<String, (Shape, Vec<f32>)>,
    /// Largest number of in-core elements any processor held at once.
    pub peak_elems: usize,
}

/// What each rank hands back from the SPMD region.
pub(crate) struct RankResult {
    pub collected: Vec<(String, Vec<f32>)>,
    pub peak_elems: usize,
}

/// Build and validate the machine configuration for one run of `compiled`
/// under `cfg`.
fn machine_config(compiled: &CompiledProgram, cfg: &RunConfig) -> Result<MachineConfig, RunError> {
    let mut machine_cfg = MachineConfig::new(compiled.nprocs(), compiled.model.clone())
        .with_trace(cfg.trace.unwrap_or_default())
        .with_engine(cfg.engine.unwrap_or_default());
    machine_cfg.job = cfg.job;
    for name in &cfg.collect {
        if compiled.hir.array(name).is_none() {
            return Err(RunError::Config(format!(
                "cannot collect unknown array `{name}`"
            )));
        }
    }
    for (name, _) in cfg.import.iter().chain(cfg.export.iter()) {
        if compiled.hir.array(name).is_none() {
            return Err(RunError::Config(format!(
                "cannot import/export unknown array `{name}`"
            )));
        }
    }
    Ok(machine_cfg)
}

/// What one attempt's per-rank results amount to.
enum Sift {
    /// Every rank succeeded.
    Done(Vec<RankResult>),
    /// At least one rank failed recoverably and the recovery budget is not
    /// exhausted: re-run with hard faults quiesced.
    Retry,
}

/// Separate an attempt's results into success / retry / hard failure.
fn sift_attempt(
    results: Vec<Result<RankResult, OocError>>,
    recoveries: usize,
) -> Result<Sift, RunError> {
    let mut ok = Vec::with_capacity(results.len());
    let mut first_err: Option<OocError> = None;
    let mut all_recoverable = true;
    for r in results {
        match r {
            Ok(v) => ok.push(v),
            Err(e) => {
                all_recoverable &= e.is_recoverable();
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        None => Ok(Sift::Done(ok)),
        Some(e) => {
            if !all_recoverable || recoveries >= MAX_RECOVERIES {
                Err(e.into())
            } else {
                Ok(Sift::Retry)
            }
        }
    }
}

/// Quiesce hard faults for a recovery re-run.
fn quiesce(fault: &mut Option<FaultConfig>) {
    if let Some(fc) = fault.as_mut() {
        fc.hard_read = 0.0;
        fc.hard_write = 0.0;
    }
}

/// Assemble the final outcome (collected arrays, peak) outside the timed
/// region.
fn assemble_outcome(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
    report: RunReport,
    rank_results: Vec<RankResult>,
) -> RunOutcome {
    let mut collected = HashMap::new();
    for name in &cfg.collect {
        let id = compiled
            .hir
            .arrays
            .iter()
            .position(|a| a.name == *name)
            .expect("validated");
        let desc = &compiled.descs[id];
        let per_rank: Vec<&[f32]> = rank_results
            .iter()
            .map(|r| {
                r.collected
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.as_slice())
                    .expect("collected on every rank")
            })
            .collect();
        collected.insert(
            name.clone(),
            crate::verify::assemble_global(desc, &per_rank),
        );
    }
    let peak_elems = rank_results.iter().map(|r| r.peak_elems).max().unwrap_or(0);
    RunOutcome {
        report,
        collected,
        peak_elems,
    }
}

/// Execute every plan of `compiled` in order on the simulated machine.
pub fn run(compiled: &CompiledProgram, cfg: &RunConfig) -> Result<RunOutcome, RunError> {
    let machine_cfg = machine_config(compiled, cfg)?;

    // Fault-recovery loop: a permanent fault (or the resulting loss of a
    // peer mid-collective) triggers a bounded re-run with hard faults
    // quiesced; checkpointed executors resume from their last slab
    // watermark. Everything is deterministic — the re-run is as much a
    // pure function of the seed as the first attempt.
    let mut fault = cfg.fault.clone();
    let mut recoveries = 0usize;
    let (report, rank_results) = loop {
        let mut machine = Machine::new(machine_cfg.clone());
        if let Some(fc) = &fault {
            machine = machine.with_fault_injection(fc.clone());
        }
        let rank_fault = fault.clone();
        let body = |ctx: &ProcCtx| execute_rank(ctx, compiled, cfg, rank_fault.as_ref());
        let (report, results) = match &cfg.pool {
            Some(pool) => machine.run_on(pool, body),
            None => machine.run_with(body),
        };
        match sift_attempt(results, recoveries)? {
            Sift::Done(ok) => break (report, ok),
            Sift::Retry => {
                recoveries += 1;
                quiesce(&mut fault);
            }
        }
    };
    Ok(assemble_outcome(compiled, cfg, report, rank_results))
}

/// A program submitted to a shared worker pool, running in the background.
///
/// Produced by [`start`]; redeem with [`StartedRun::wait`]. Many started
/// runs coexist on one pool — that is the whole point: a fixed set of OS
/// threads hosts every rank of every job as cooperative tasks.
pub struct StartedRun {
    compiled: Arc<CompiledProgram>,
    cfg: Arc<RunConfig>,
    pool: WorkerPool,
    machine_cfg: MachineConfig,
    fault: Option<FaultConfig>,
    recoveries: usize,
    handle: dmsim::RunHandle<Result<RankResult, OocError>>,
}

/// Submit one attempt of `compiled` to the pool without blocking.
fn launch_attempt(
    compiled: &Arc<CompiledProgram>,
    cfg: &Arc<RunConfig>,
    machine_cfg: &MachineConfig,
    fault: &Option<FaultConfig>,
    pool: &WorkerPool,
) -> dmsim::RunHandle<Result<RankResult, OocError>> {
    let mut machine = Machine::new(machine_cfg.clone());
    if let Some(fc) = fault {
        machine = machine.with_fault_injection(fc.clone());
    }
    let compiled = Arc::clone(compiled);
    let cfg = Arc::clone(cfg);
    let fault = fault.clone();
    machine.start_on(pool, move |ctx| {
        execute_rank(ctx, &compiled, &cfg, fault.as_ref())
    })
}

/// Start executing `compiled` on `pool` and return without waiting.
///
/// The non-blocking counterpart of [`run`]: the program's ranks join the
/// pool's run queue immediately and execute interleaved with every other
/// started run. Call [`StartedRun::wait`] to block for the outcome; fault
/// recovery (the same bounded re-run loop as [`run`]) happens inside
/// `wait`. `cfg.pool` is ignored — the explicit `pool` argument hosts the
/// run. Requires the pooled engine's platform support (x86_64/aarch64).
pub fn start(
    compiled: Arc<CompiledProgram>,
    cfg: Arc<RunConfig>,
    pool: &WorkerPool,
) -> Result<StartedRun, RunError> {
    let machine_cfg = machine_config(&compiled, &cfg)?;
    let fault = cfg.fault.clone();
    let handle = launch_attempt(&compiled, &cfg, &machine_cfg, &fault, pool);
    Ok(StartedRun {
        compiled,
        cfg,
        pool: pool.clone(),
        machine_cfg,
        fault,
        recoveries: 0,
        handle,
    })
}

impl StartedRun {
    /// True once every rank of the current attempt has finished (cheap,
    /// non-blocking; a recovery re-run resets it).
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// Block until the program completes, running the bounded
    /// fault-recovery loop if attempts fail recoverably. A run that dies on
    /// the pool (deadlock, external kill) surfaces as [`RunError::Hung`]
    /// instead of a panic.
    pub fn wait(self) -> Result<RunOutcome, RunError> {
        let StartedRun {
            compiled,
            cfg,
            pool,
            machine_cfg,
            mut fault,
            mut recoveries,
            mut handle,
        } = self;
        loop {
            let (report, results) = handle.wait_outcome().map_err(RunError::Hung)?;
            match sift_attempt(results, recoveries)? {
                Sift::Done(ok) => return Ok(assemble_outcome(&compiled, &cfg, report, ok)),
                Sift::Retry => {
                    recoveries += 1;
                    quiesce(&mut fault);
                    handle = launch_attempt(&compiled, &cfg, &machine_cfg, &fault, &pool);
                }
            }
        }
    }

    /// Tear the run down: unfinished ranks are reaped without touching
    /// other runs on the pool, partial results are discarded. Returns which
    /// ranks were reaped.
    pub fn abort(self) -> dmsim::RunDeath {
        self.handle.kill()
    }

    /// Preempt the run: tear down the current attempt but keep its
    /// configuration — and any slab checkpoints it has written under
    /// [`RunConfig::checkpoint_dir`] — so [`PreemptedRun::resume`] can
    /// resubmit it later. Checkpointing executors resume from their last
    /// agreed slab watermark; work past the watermark is lost (re-done).
    pub fn preempt(self) -> PreemptedRun {
        let StartedRun {
            compiled,
            cfg,
            pool,
            machine_cfg,
            fault,
            recoveries,
            handle,
        } = self;
        let death = handle.kill();
        PreemptedRun {
            compiled,
            cfg,
            pool,
            machine_cfg,
            fault,
            recoveries,
            death,
        }
    }
}

/// A program preempted off the pool: its current attempt was torn down,
/// but its configuration and checkpoints survive for a later [`resume`].
///
/// [`resume`]: PreemptedRun::resume
pub struct PreemptedRun {
    compiled: Arc<CompiledProgram>,
    cfg: Arc<RunConfig>,
    pool: WorkerPool,
    machine_cfg: MachineConfig,
    fault: Option<FaultConfig>,
    recoveries: usize,
    death: dmsim::RunDeath,
}

impl PreemptedRun {
    /// Which ranks the preemption reaped mid-flight.
    pub fn death(&self) -> &dmsim::RunDeath {
        &self.death
    }

    /// Resubmit the program to its pool. With a checkpoint directory
    /// configured, checkpointing executors skip the slabs already agreed
    /// complete; without one the program restarts from scratch.
    pub fn resume(self) -> StartedRun {
        let PreemptedRun {
            compiled,
            cfg,
            pool,
            machine_cfg,
            fault,
            recoveries,
            death: _,
        } = self;
        let handle = launch_attempt(&compiled, &cfg, &machine_cfg, &fault, &pool);
        StartedRun {
            compiled,
            cfg,
            pool,
            machine_cfg,
            fault,
            recoveries,
            handle,
        }
    }
}

/// Stable phase name for statement `i`: position plus what it computes, so
/// trace consumers (and the divergence report) can align phases with the
/// compiler's per-statement estimates.
pub(crate) fn phase_label(i: usize, plan: &ExecPlan) -> String {
    match plan {
        ExecPlan::Gaxpy(g) => format!("s{i}:gaxpy({})", g.c.name),
        ExecPlan::Elementwise(e) => format!("s{i}:forall({})", e.lhs.name),
        ExecPlan::Transpose(t) => format!("s{i}:transpose({})", t.dst.name),
        ExecPlan::Spmv(s) => format!("s{i}:spmv({})", s.y.name),
    }
}

fn execute_rank(
    ctx: &ProcCtx,
    compiled: &CompiledProgram,
    cfg: &RunConfig,
    fault: Option<&FaultConfig>,
) -> Result<RankResult, OocError> {
    let rank = ctx.rank();
    let mut env = match cfg.backend {
        Backend::Memory => OocEnv::in_memory(rank),
        Backend::Disk => OocEnv::on_disk(rank)?,
    };
    if let Some(policy) = cfg.sieve {
        env.set_sieve_policy(policy);
    }
    if cfg.io_method == Some(pario::IoMethod::Sieved) {
        env.set_sieve_policy(pario::SievePolicy::Always);
    }
    for desc in &compiled.descs {
        env.alloc(desc)?;
        if let Some(init) = cfg.init.get(&desc.name) {
            let f = init.clone();
            env.load_global(desc, &move |g| f(g))?;
        }
    }
    // Statement-local temporaries (e.g. remap targets) carry fresh ids
    // beyond the declared arrays.
    for plan in &compiled.plans {
        for desc in plan.arrays() {
            env.alloc(desc)?;
        }
    }
    for (name, dir) in &cfg.import {
        let desc = compiled
            .descs
            .iter()
            .find(|d| d.name == *name)
            .expect("validated by run()");
        ooc_array::import_array(&mut env, desc, dir)?;
    }

    // Setup (allocation, init, import) is uncharged and must stay uncached
    // so the cache starts cold and only captures the plans' reuse.
    if let Some(budget) = cfg.cache_budget {
        env.enable_cache(budget);
    }
    // Faults arm only after setup: the measured region is where the paper's
    // I/O happens, and initial distribution is amortized (and assumed
    // reliable) anyway.
    if let Some(fc) = fault {
        env.enable_faults_for_job(fc, ctx.job());
    }

    let mut peak = 0usize;
    for (i, plan) in compiled.plans.iter().enumerate() {
        // One phase span per compiled statement, labeled by what it does;
        // every charge inside (including the cache flush below, which is
        // part of the statement's I/O) is attributed to this phase.
        let _phase = ctx.trace_phase(&phase_label(i, plan));
        let used = match plan {
            ExecPlan::Gaxpy(g) => {
                let opts = crate::gaxpy::RecoveryOpts {
                    checkpoint_dir: cfg.checkpoint_dir.as_deref(),
                    model: Some(&compiled.model),
                    cache_budget: cfg.cache_budget,
                };
                crate::gaxpy::execute(ctx, &mut env, g, cfg.prefetch, ctx, &opts)?
            }
            ExecPlan::Elementwise(e) => {
                let plan;
                let e = match cfg.io_method {
                    Some(m) => {
                        plan = ooc_core::plan::ElwPlan {
                            pre_remaps: e
                                .pre_remaps
                                .iter()
                                .map(|r| ooc_core::plan::RemapSpec {
                                    method: m,
                                    ..r.clone()
                                })
                                .collect(),
                            ..e.clone()
                        };
                        &plan
                    }
                    None => e,
                };
                crate::elementwise::execute(ctx, &mut env, e, cfg.prefetch)?
            }
            ExecPlan::Transpose(t) => {
                let plan;
                let t = match cfg.io_method {
                    Some(m) => {
                        plan = ooc_core::plan::TransposePlan {
                            method: m,
                            ..t.clone()
                        };
                        &plan
                    }
                    None => t,
                };
                crate::transpose::execute(ctx, &mut env, t)?
            }
            ExecPlan::Spmv(s) => {
                // A forced method (run config or compile-time forcing)
                // pins the gather; otherwise the executor re-selects from
                // the inspected schedule's allreduced statistics.
                let plan;
                let (s, model) = match cfg.io_method {
                    Some(m) => {
                        plan = ooc_core::plan::SpmvPlan {
                            method: m,
                            ..(**s).clone()
                        };
                        (&plan, None)
                    }
                    None => (&**s, Some(&compiled.model)),
                };
                crate::spmv::execute(ctx, &mut env, s, model)?
            }
        };
        peak = peak.max(used);
        // Dirty slabs are part of the statement's I/O: write them back,
        // charged, before the next statement (or collection) observes them.
        env.flush_cache(ctx)?;
    }

    for (name, dir) in &cfg.export {
        let desc = compiled
            .descs
            .iter()
            .find(|d| d.name == *name)
            .expect("validated by run()");
        ooc_array::export_array(&mut env, desc, dir)?;
    }

    // Collection (uncharged reads, no communication: data returns through
    // the thread join).
    let mut collected = Vec::new();
    for name in &cfg.collect {
        let id = compiled
            .hir
            .arrays
            .iter()
            .position(|a| a.name == *name)
            .expect("validated by run()");
        let desc = &compiled.descs[id];
        let local = env.read_section_uncharged(desc, &Section::full(&desc.local_shape(rank)))?;
        collected.push((name.clone(), local));
    }
    Ok(RankResult {
        collected,
        peak_elems: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_core::{compile_source, CompilerOptions};

    #[test]
    fn unknown_collect_array_is_a_config_error() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let cfg = RunConfig {
            collect: vec!["nope".into()],
            ..RunConfig::default()
        };
        let err = run(&compiled, &cfg).unwrap_err();
        assert!(matches!(err, RunError::Config(_)));
    }
}
