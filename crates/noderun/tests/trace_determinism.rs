//! The tracing layer's contract: deterministic, well-formed, transparent,
//! and reconciled with the machine's own accounting.
//!
//! - Two identical seeded runs — including chaos-grade fault injection —
//!   emit byte-identical Perfetto JSON.
//! - Every rank's timeline is well-nested per track, with no backwards
//!   clocks, and validates against the checked-in schema.
//! - Enabling tracing changes nothing observable: stats, elapsed time and
//!   computed results are identical to an untraced run.
//! - Summed span durations per category group equal the per-rank
//!   `time_compute`/`time_comm`/`time_io`/`time_faults` within float
//!   rounding.
//! - The divergence report is a zero-gap baseline wherever the cost
//!   estimators are exact (uncached runs, GAXPY under a slab cache).

use dmsim::{FaultConfig, TraceConfig};
use noderun::{divergence_report, init_fn, run, RunConfig};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use ooc_trace::perfetto::to_chrome_json;
use ooc_trace::{check_well_nested, EventKind, TimeGroup, Trace};

const N: usize = 32;
const P: usize = 4;

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

fn gaxpy(options: &CompilerOptions) -> (CompiledProgram, RunConfig) {
    let compiled = compile_source(hpf::GAXPY_SOURCE, options).unwrap();
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.init.insert("b".into(), init_fn(fb));
    cfg.collect.push("c".into());
    (compiled, cfg)
}

fn transpose(options: &CompilerOptions) -> (CompiledProgram, RunConfig) {
    let src = format!(
        "
      parameter (n={N})
      real a(n, n), b(n, n)
!hpf$ processors pr({P})
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    );
    let compiled = compile_source(&src, options).unwrap();
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.collect.push("b".into());
    (compiled, cfg)
}

fn jacobi(options: &CompilerOptions) -> (CompiledProgram, RunConfig) {
    let src = format!(
        "
      parameter (n={N})
      real u(n, n), v(n, n)
!hpf$ processors pr({P})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
"
    );
    let compiled = compile_source(&src, options).unwrap();
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(fa));
    cfg.init.insert("v".into(), init_fn(fa));
    cfg.collect.push("v".into());
    (compiled, cfg)
}

/// Run `cfg` with tracing on and return the trace.
fn run_trace(compiled: &CompiledProgram, cfg: &RunConfig) -> Trace {
    let cfg = RunConfig {
        trace: Some(TraceConfig::on()),
        ..cfg.clone()
    };
    let mut outcome = run(compiled, &cfg).unwrap();
    outcome.report.take_trace().expect("tracing was enabled")
}

#[test]
fn chaos_trace_is_byte_identical_across_runs() {
    let options = CompilerOptions::default();
    let (compiled, base_cfg) = gaxpy(&options);
    let once = || {
        let mut cfg = base_cfg.clone();
        cfg.fault = Some(FaultConfig::chaos(7));
        to_chrome_json(&run_trace(&compiled, &cfg))
    };
    let a = once();
    let b = once();
    assert!(!a.is_empty());
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "chaos trace is nondeterministic"
    );

    // The emitted JSON must also be structurally valid: parseable, schema
    // keys present, finite timestamps, monotone per-thread clocks.
    let parsed = ooc_trace::json::parse(&a).expect("trace JSON parses");
    let schema = ooc_trace::json::parse(ooc_trace::json::DEFAULT_SCHEMA).unwrap();
    let check = ooc_trace::json::validate_chrome_trace(&parsed, &schema).expect("trace validates");
    assert!(check.spans > 0, "a chaos gaxpy run must emit spans");
    assert_eq!(check.ranks, P);
}

#[test]
fn per_rank_timelines_are_well_nested() {
    let options = CompilerOptions::default();
    for (name, compiled, mut cfg) in [
        ("gaxpy", gaxpy(&options).0, gaxpy(&options).1),
        ("transpose", transpose(&options).0, transpose(&options).1),
        ("jacobi", jacobi(&options).0, jacobi(&options).1),
    ] {
        for (prefetch, cache) in [(false, None), (true, None), (false, Some(1 << 16))] {
            cfg.prefetch = prefetch;
            cfg.cache_budget = cache;
            let trace = run_trace(&compiled, &cfg);
            assert_eq!(trace.ranks.len(), P);
            for rt in &trace.ranks {
                check_well_nested(rt).unwrap_or_else(|e| {
                    panic!(
                        "{name} prefetch={prefetch} cache={cache:?} rank {}: {e}",
                        rt.rank
                    )
                });
            }
        }
    }
}

#[test]
fn tracing_is_transparent_to_the_simulation() {
    let (compiled, cfg) = gaxpy(&CompilerOptions::default());
    let plain = run(&compiled, &cfg).unwrap();
    assert!(plain.report.trace().is_none(), "tracing is off by default");

    let mut traced_cfg = cfg.clone();
    traced_cfg.trace = Some(TraceConfig::on());
    let traced = run(&compiled, &traced_cfg).unwrap();
    assert!(traced.report.trace().is_some());

    assert_eq!(plain.report.elapsed(), traced.report.elapsed());
    for (p, t) in plain.report.per_proc().iter().zip(traced.report.per_proc()) {
        assert_eq!(p.stats, t.stats, "tracing perturbed rank {}", t.rank);
    }
    assert_eq!(plain.collected["c"], traced.collected["c"]);
}

/// Per-rank sums of span durations, bucketed by time group.
fn span_sums(trace: &Trace) -> Vec<[f64; 4]> {
    trace
        .ranks
        .iter()
        .map(|rt| {
            let mut sums = [0.0f64; 4];
            for ev in &rt.events {
                if ev.kind != EventKind::Span {
                    continue;
                }
                let Some(group) = ev.cat.time_group() else {
                    continue;
                };
                let slot = match group {
                    TimeGroup::Compute => 0,
                    TimeGroup::Comm => 1,
                    TimeGroup::Io => 2,
                    TimeGroup::Faults => 3,
                };
                sums[slot] += ev.dur();
            }
            sums
        })
        .collect()
}

fn assert_close(label: &str, rank: usize, spans: f64, stats: f64) {
    let tol = 1e-9 + 1e-9 * stats.abs();
    assert!(
        (spans - stats).abs() <= tol,
        "rank {rank} {label}: span sum {spans} != stats {stats}"
    );
}

#[test]
fn span_durations_reconcile_with_machine_stats() {
    let options = CompilerOptions::default();
    for (name, (compiled, base_cfg)) in [
        ("gaxpy", gaxpy(&options)),
        ("transpose", transpose(&options)),
    ] {
        for (prefetch, cache, fault) in [
            (false, None, None),
            (true, None, None),
            (false, Some(1 << 16), None),
            (false, None, Some(FaultConfig::chaos(11))),
        ] {
            let mut cfg = base_cfg.clone();
            cfg.prefetch = prefetch;
            cfg.cache_budget = cache;
            cfg.fault = fault.clone();
            cfg.trace = Some(TraceConfig::on());
            let mut outcome = run(&compiled, &cfg).unwrap();
            let trace = outcome.report.take_trace().unwrap();
            let sums = span_sums(&trace);
            for (rank, per) in outcome.report.per_proc().iter().enumerate() {
                let label = format!("{name} prefetch={prefetch} cache={cache:?}");
                assert_close(
                    &format!("{label} compute"),
                    rank,
                    sums[rank][0],
                    per.stats.time_compute,
                );
                assert_close(
                    &format!("{label} comm"),
                    rank,
                    sums[rank][1],
                    per.stats.time_comm,
                );
                assert_close(
                    &format!("{label} io"),
                    rank,
                    sums[rank][2],
                    per.stats.time_io,
                );
                assert_close(
                    &format!("{label} faults"),
                    rank,
                    sums[rank][3],
                    per.stats.time_faults,
                );
            }
        }
    }
}

#[test]
fn divergence_report_is_zero_gap_where_estimates_are_exact() {
    // Uncached GAXPY and elementwise: the nest walk is exact.
    let options = CompilerOptions::default();
    for (name, (compiled, cfg)) in [("gaxpy", gaxpy(&options)), ("jacobi", jacobi(&options))] {
        let trace = run_trace(&compiled, &cfg);
        let report = divergence_report(&compiled, &trace);
        assert!(!report.rows.is_empty(), "{name}: report has rows");
        assert!(
            report.is_zero_gap(),
            "{name}: estimators are exact uncached, but:\n{}",
            report.render()
        );
    }

    // Transpose, default compile: the access-method selector picks the
    // two-phase path (one coalesced write beats the fragmented per-piece
    // writes), whose request arithmetic is exact — a zero-gap report.
    let (compiled, cfg) = transpose(&options);
    let choice = &compiled.io_choices[0][0];
    assert_eq!(choice.chosen, pario::IoMethod::TwoPhase);
    assert!(!choice.forced);
    let trace = run_trace(&compiled, &cfg);
    let report = divergence_report(&compiled, &trace);
    assert!(
        report.is_zero_gap(),
        "two-phase transpose is exact, but:\n{}",
        report.render()
    );

    // Transpose forced onto the direct path: the estimator prices each
    // remap piece as one write request, but the executor's section writes
    // fragment pieces into column runs. The report must surface exactly
    // that — write_requests diverges, every byte count and the read side
    // stay exact — and sort it first.
    let direct_options = CompilerOptions {
        io_method: Some(pario::IoMethod::Direct),
        ..CompilerOptions::default()
    };
    let (compiled, cfg) = transpose(&direct_options);
    assert!(compiled.io_choices[0][0].forced);
    let trace = run_trace(&compiled, &cfg);
    let report = divergence_report(&compiled, &trace);
    let divergent: Vec<_> = report.divergent().collect();
    assert_eq!(
        divergent.len(),
        1,
        "only the write-request model diverges:\n{}",
        report.render()
    );
    assert_eq!(divergent[0].metric, "write_requests");
    assert!(divergent[0].measured > divergent[0].estimated);
    assert_eq!(
        report.rows[0], *divergent[0],
        "worst divergence sorts first"
    );

    // GAXPY under a slab cache: the reuse-aware estimator replays the cache,
    // so estimate == measured still holds when compile-time and run-time
    // budgets agree.
    let budget = 1 << 16;
    let cached_options = CompilerOptions {
        cache_budget: Some(budget),
        ..CompilerOptions::default()
    };
    let (compiled, mut cfg) = gaxpy(&cached_options);
    cfg.cache_budget = Some(budget);
    let trace = run_trace(&compiled, &cfg);
    let report = divergence_report(&compiled, &trace);
    assert!(
        report.is_zero_gap(),
        "cached gaxpy baseline diverged:\n{}",
        report.render()
    );
    assert_eq!(report.max_rel_gap(), 0.0);
}
