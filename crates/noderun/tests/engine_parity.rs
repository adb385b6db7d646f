//! End-to-end engine parity: a compiled program run through
//! `noderun::run` produces bit-identical outcomes whether the ranks are OS
//! threads or cooperative tasks on a worker pool — results, clocks, stats,
//! traces, and fault behaviour all included.

use std::sync::Arc;

use dmsim::{Engine, FaultConfig, WorkerPool};
use noderun::{init_fn, run, start, RunConfig, RunOutcome};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use ooc_trace::TraceConfig;

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

fn gaxpy() -> (CompiledProgram, RunConfig) {
    let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
    let mut cfg = RunConfig {
        trace: Some(TraceConfig::detailed()),
        ..RunConfig::default()
    };
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.init.insert("b".into(), init_fn(fb));
    cfg.collect.push("c".into());
    (compiled, cfg)
}

// CSR fixture matching SPMV_SOURCE (n=64, nnz=512): rowptr holds 0-based
// half-open nonzero offsets, colidx 0-based scattered column indices.
const SN: usize = 64;
const SNNZ: usize = 512;
fn f_rowptr(g: &[usize]) -> f32 {
    (g[0] * (SNNZ / SN)) as f32
}
fn f_colidx(g: &[usize]) -> f32 {
    ((g[0] * 37 + (g[0] / 3) * 11) % SN) as f32
}
fn f_vals(g: &[usize]) -> f32 {
    ((g[0] % 89) as f32) * 0.25 + 1.0
}
fn f_x(g: &[usize]) -> f32 {
    (g[0] % 17) as f32 * 0.5 + 0.125
}

fn spmv() -> (CompiledProgram, RunConfig) {
    let compiled = compile_source(hpf::SPMV_SOURCE, &CompilerOptions::default()).unwrap();
    let mut cfg = RunConfig {
        trace: Some(TraceConfig::detailed()),
        ..RunConfig::default()
    };
    cfg.init.insert("rowptr".into(), init_fn(f_rowptr));
    cfg.init.insert("colidx".into(), init_fn(f_colidx));
    cfg.init.insert("vals".into(), init_fn(f_vals));
    cfg.init.insert("x".into(), init_fn(f_x));
    cfg.collect.push("y".into());
    (compiled, cfg)
}

fn assert_same_outcome(a: &mut RunOutcome, b: &mut RunOutcome, what: &str) {
    assert_eq!(a.report.per_proc(), b.report.per_proc(), "{what}: per-proc");
    assert_eq!(
        a.report.elapsed().to_bits(),
        b.report.elapsed().to_bits(),
        "{what}: elapsed"
    );
    assert_eq!(
        a.report.take_trace(),
        b.report.take_trace(),
        "{what}: trace"
    );
    assert_eq!(a.collected, b.collected, "{what}: collected arrays");
    assert_eq!(a.peak_elems, b.peak_elems, "{what}: peak elements");
}

#[test]
fn pooled_run_is_bit_identical_to_threaded_run() {
    let (compiled, cfg) = gaxpy();
    let mut threaded = run(&compiled, &cfg).unwrap();
    let pooled_cfg = RunConfig {
        engine: Some(Engine::Pool(2)),
        ..cfg.clone()
    };
    let mut pooled = run(&compiled, &pooled_cfg).unwrap();
    assert_same_outcome(&mut pooled, &mut threaded, "plain gaxpy");
}

#[test]
fn pooled_run_with_faults_is_bit_identical_to_threaded_run() {
    let (compiled, mut cfg) = gaxpy();
    cfg.fault = Some(FaultConfig::chaos(7));
    let mut threaded = run(&compiled, &cfg).unwrap();
    let pooled_cfg = RunConfig {
        engine: Some(Engine::Pool(3)),
        ..cfg.clone()
    };
    let mut pooled = run(&compiled, &pooled_cfg).unwrap();
    assert_same_outcome(&mut pooled, &mut threaded, "gaxpy under chaos faults");
}

#[test]
fn spmv_pooled_run_is_bit_identical_to_threaded_run() {
    // The inspector–executor path — inspection, runtime method
    // re-selection from allreduced stats, gather, reduce — is part of the
    // engine-parity contract like every affine plan.
    let (compiled, cfg) = spmv();
    let mut threaded = run(&compiled, &cfg).unwrap();
    let pooled_cfg = RunConfig {
        engine: Some(Engine::Pool(3)),
        ..cfg.clone()
    };
    let mut pooled = run(&compiled, &pooled_cfg).unwrap();
    assert_same_outcome(&mut pooled, &mut threaded, "spmv");
    let (_, y) = &threaded.collected["y"];
    assert!(y.iter().any(|v| *v != 0.0), "product is non-trivial");
}

#[test]
fn spmv_pooled_run_under_chaos_is_bit_identical_to_threaded_run() {
    let (compiled, mut cfg) = spmv();
    cfg.fault = Some(FaultConfig::chaos(11));
    let mut threaded = run(&compiled, &cfg).unwrap();
    let pooled_cfg = RunConfig {
        engine: Some(Engine::Pool(2)),
        ..cfg.clone()
    };
    let mut pooled = run(&compiled, &pooled_cfg).unwrap();
    assert_same_outcome(&mut pooled, &mut threaded, "spmv under chaos faults");
}

#[test]
fn concurrent_started_runs_match_sequential_runs() {
    let (compiled, cfg) = gaxpy();
    let compiled = Arc::new(compiled);
    let pool = WorkerPool::new(2);
    // Start several jobs before waiting on any: their ranks interleave
    // arbitrarily on the two workers, yet each job's outcome must equal its
    // solo threaded run.
    let started: Vec<_> = (0..4)
        .map(|i| {
            let job_cfg = RunConfig {
                job: i,
                ..cfg.clone()
            };
            start(Arc::clone(&compiled), Arc::new(job_cfg), &pool).unwrap()
        })
        .collect();
    for (i, s) in started.into_iter().enumerate() {
        let mut got = s.wait().unwrap();
        let job_cfg = RunConfig {
            job: i as u32,
            ..cfg.clone()
        };
        let mut solo = run(&compiled, &job_cfg).unwrap();
        assert_same_outcome(&mut got, &mut solo, &format!("job {i}"));
    }
}

#[test]
fn preempted_and_resumed_run_matches_an_uninterrupted_run() {
    let (compiled, cfg) = gaxpy();
    let mut baseline = run(&compiled, &cfg).unwrap();
    let compiled = Arc::new(compiled);
    let pool = WorkerPool::new(2);
    // Preempt at an arbitrary host moment: which ranks get reaped is a
    // host-scheduling race, but the resumed attempt re-executes on a fresh
    // simulated machine, so the outcome is still bit-identical.
    let started = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool).unwrap();
    let preempted = started.preempt();
    match preempted.death() {
        dmsim::RunDeath::Killed { .. } | dmsim::RunDeath::Deadlock { .. } => {}
    }
    let mut resumed = preempted.resume().wait().unwrap();
    assert_same_outcome(&mut resumed, &mut baseline, "preempt + resume");
}

#[test]
fn preempt_resume_under_chaos_faults_stays_bit_identical() {
    let (compiled, mut cfg) = gaxpy();
    cfg.fault = Some(FaultConfig::chaos(23));
    let mut baseline = run(&compiled, &cfg).unwrap();
    let compiled = Arc::new(compiled);
    let pool = WorkerPool::new(3);
    let started = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool).unwrap();
    let mut resumed = started.preempt().resume().wait().unwrap();
    assert_same_outcome(&mut resumed, &mut baseline, "chaos preempt + resume");
}

#[test]
fn aborting_one_run_leaves_the_pool_healthy_for_others() {
    let (compiled, cfg) = gaxpy();
    let compiled = Arc::new(compiled);
    let pool = WorkerPool::new(2);
    // A victim and a bystander share the pool; the victim is torn down.
    let victim = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool).unwrap();
    let bystander = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool).unwrap();
    let _death = victim.abort();
    let mut got = bystander.wait().unwrap();
    let mut solo = run(&compiled, &cfg).unwrap();
    assert_same_outcome(&mut got, &mut solo, "bystander after abort");
    // And the pool accepts new work after the abort.
    let mut after = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool)
        .unwrap()
        .wait()
        .unwrap();
    let mut solo2 = run(&compiled, &cfg).unwrap();
    assert_same_outcome(&mut after, &mut solo2, "fresh run after abort");
}
