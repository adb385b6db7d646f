//! Chaos-determinism properties of the fault-injection harness.
//!
//! The contract under test: transient faults perturb *when* things happen,
//! never *what* is computed. A chaos schedule that eventually permits
//! success must yield byte-identical results and identical logical I/O and
//! message counts to the fault-free run; the recovery costs live only in
//! the dedicated fault counters and `time_faults`. And because every fate
//! is drawn from per-(rank, domain) seeded streams, rerunning the same
//! seed replays the entire schedule — stats, retries and simulated times
//! included — bit for bit.

use dmsim::{FaultConfig, RunReport, StatsSnapshot, TraceConfig};
use noderun::{
    divergence_report, init_fn, max_abs_diff, ref_transpose, run, RunConfig, RunOutcome,
};
use ooc_bench::gaxpy_hir;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_hir, compile_source, CompiledProgram, CompilerOptions, SlabStrategy};
use proptest::prelude::*;

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

fn gaxpy_compiled(n: usize, p: usize) -> CompiledProgram {
    compile_hir(gaxpy_hir(n, p), &CompilerOptions::default()).unwrap()
}

fn gaxpy_outcome(
    compiled: &CompiledProgram,
    fault: Option<FaultConfig>,
    checkpoint_dir: Option<std::path::PathBuf>,
) -> RunOutcome {
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.init.insert("b".into(), init_fn(fb));
    cfg.collect.push("c".into());
    cfg.fault = fault;
    cfg.checkpoint_dir = checkpoint_dir;
    run(compiled, &cfg).unwrap()
}

/// The logical (fault-independent) half of a stats snapshot.
fn logical_counts(s: &StatsSnapshot) -> [u64; 12] {
    [
        s.flops,
        s.msgs_sent,
        s.bytes_sent,
        s.msgs_received,
        s.bytes_received,
        s.io_read_requests,
        s.io_bytes_read,
        s.io_write_requests,
        s.io_bytes_written,
        s.cache_hits,
        s.write_back_requests,
        s.write_back_bytes,
    ]
}

#[track_caller]
fn assert_logical_counts_equal(chaos: &RunReport, clean: &RunReport) {
    for (c, b) in chaos.per_proc().iter().zip(clean.per_proc()) {
        assert_eq!(
            logical_counts(&c.stats),
            logical_counts(&b.stats),
            "rank {}: chaos must not change logical request/byte/message counts",
            c.rank
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any transient-only chaos schedule leaves the computed array
    /// byte-identical to the fault-free run with identical logical counts,
    /// and the same seed replays the whole run — stats and simulated
    /// times included — exactly.
    #[test]
    fn chaos_schedules_preserve_results_and_replay_exactly(seed in 0u64..1 << 20) {
        let compiled = gaxpy_compiled(16, 4);
        let clean = gaxpy_outcome(&compiled, None, None);
        let chaos = gaxpy_outcome(&compiled, Some(FaultConfig::chaos(seed)), None);

        // Faults never change what is computed.
        prop_assert_eq!(&chaos.collected["c"], &clean.collected["c"]);
        assert_logical_counts_equal(&chaos.report, &clean.report);

        // The chaos preset actually exercises the harness, and its costs
        // land in the fault counters, charged into the simulated clock.
        let t = chaos.report.totals();
        prop_assert!(t.faults_injected > 0, "seed {} drew no faults", seed);
        prop_assert!(t.time_faults > 0.0);
        prop_assert!(chaos.report.elapsed() > clean.report.elapsed());

        // Same seed => identical replay, down to retry counts and clocks.
        let again = gaxpy_outcome(&compiled, Some(FaultConfig::chaos(seed)), None);
        prop_assert_eq!(&again.collected["c"], &chaos.collected["c"]);
        prop_assert_eq!(again.report.elapsed(), chaos.report.elapsed());
        for (x, y) in again.report.per_proc().iter().zip(chaos.report.per_proc()) {
            prop_assert_eq!(x.stats, y.stats, "rank {} replay diverged", x.rank);
        }
    }
}

fn transpose_compiled(n: usize, method: pario::IoMethod) -> CompiledProgram {
    let src = format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr(4)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    );
    let options = CompilerOptions {
        io_method: Some(method),
        ..CompilerOptions::default()
    };
    compile_source(&src, &options).unwrap()
}

fn transpose_outcome(compiled: &CompiledProgram, fault: Option<FaultConfig>) -> RunOutcome {
    let mut cfg = RunConfig {
        trace: Some(TraceConfig::on()),
        fault,
        ..RunConfig::default()
    };
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.collect.push("b".into());
    run(compiled, &cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The two-phase collective access method is transparent: it produces
    /// byte-identical array contents to the direct method, with and without
    /// chaos-grade fault injection, and its cost model stays exact — the
    /// divergence report reconciles estimated against measured request
    /// counts with zero gap even on a chaos run.
    #[test]
    fn two_phase_matches_direct_under_chaos_and_reconciles(seed in 0u64..1 << 20) {
        let n = 16;
        let direct = transpose_compiled(n, pario::IoMethod::Direct);
        let two = transpose_compiled(n, pario::IoMethod::TwoPhase);

        let d_clean = transpose_outcome(&direct, None);
        let t_clean = transpose_outcome(&two, None);
        let d_chaos = transpose_outcome(&direct, Some(FaultConfig::chaos(seed)));
        let mut t_chaos = transpose_outcome(&two, Some(FaultConfig::chaos(seed)));

        // Byte-identical contents across methods, clean and under chaos.
        prop_assert_eq!(&t_clean.collected["b"], &d_clean.collected["b"]);
        prop_assert_eq!(&d_chaos.collected["b"], &d_clean.collected["b"]);
        prop_assert_eq!(&t_chaos.collected["b"], &d_clean.collected["b"]);

        // Chaos never changes the two-phase logical request/message counts.
        assert_logical_counts_equal(&t_chaos.report, &t_clean.report);

        // Estimate == measured for the two-phase cost path, even on the
        // chaos schedule: the report has rows and every gap is zero.
        let trace = t_chaos.report.take_trace().expect("compiled with tracing");
        let report = divergence_report(&two, &trace);
        prop_assert!(!report.rows.is_empty());
        prop_assert!(
            report.is_zero_gap(),
            "two-phase estimates must reconcile exactly:\n{}",
            report.render()
        );
    }
}

/// With injection disabled — whether by omitting the config or by arming a
/// quiet (all-rates-zero) one — the run is bit-identical to the pre-fault
/// substrate: same results, same stats, same simulated time.
#[test]
fn disabled_injection_is_bit_transparent() {
    let compiled = gaxpy_compiled(24, 4);
    let off = gaxpy_outcome(&compiled, None, None);
    let quiet = gaxpy_outcome(&compiled, Some(FaultConfig::quiet(99)), None);

    assert_eq!(quiet.collected["c"], off.collected["c"]);
    assert_eq!(quiet.report.elapsed(), off.report.elapsed());
    for (q, o) in quiet.report.per_proc().iter().zip(off.report.per_proc()) {
        assert_eq!(q.stats, o.stats, "rank {}", q.rank);
    }
    assert_eq!(quiet.report.totals().faults_injected, 0);
}

/// Permanent faults abort the machine run; with a checkpoint directory the
/// executor restarts, agrees on the saved watermark, and still produces the
/// fault-free answer. The checkpoints themselves are cleaned up on success.
#[test]
fn hard_faults_recover_through_checkpoints() {
    let compiled = gaxpy_compiled(16, 4);
    let clean = gaxpy_outcome(&compiled, None, None);

    let dir = std::env::temp_dir().join(format!("ooc-chaos-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Guaranteed first-attempt failure: every read draw is a permanent
    // fault. Recovery quiesces the hard rates and re-runs under the
    // remaining transient chaos.
    let cfg = FaultConfig {
        hard_read: 1.0,
        ..FaultConfig::chaos(3)
    };
    let recovered = gaxpy_outcome(&compiled, Some(cfg), Some(dir.clone()));
    assert_eq!(recovered.collected["c"], clean.collected["c"]);

    // Moderate hard rates: some progress lands in checkpoints before the
    // abort, and the restart resumes from the agreed watermark.
    let cfg = FaultConfig {
        hard_read: 0.01,
        hard_write: 0.01,
        ..FaultConfig::chaos(17)
    };
    let recovered = gaxpy_outcome(&compiled, Some(cfg), Some(dir.clone()));
    assert_eq!(recovered.collected["c"], clean.collected["c"]);

    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert!(
        leftover.is_empty(),
        "successful runs must remove their checkpoints: {leftover:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk marked degraded mid-run triggers a cost-model re-plan of the slab
/// sizes; the replanned run still computes the fault-free answer. Two-column
/// slabs give several outer slabs, so the re-plan check runs after the disk
/// degrades, and the changed read-request count shows that it fired. The
/// cached run prices the re-plan through the cache-aware split.
#[test]
fn degraded_disk_replans_and_stays_correct() {
    let options = CompilerOptions {
        sizing: SlabSizing::Explicit { a: 2, b: 2 },
        force_strategy: Some(SlabStrategy::ColumnSlab),
        ..CompilerOptions::default()
    };
    let compiled = compile_hir(gaxpy_hir(24, 4), &options).unwrap();
    let degrade = FaultConfig {
        read_error: 0.25,
        degrade_after: 2,
        ..FaultConfig::quiet(5)
    };
    let clean = gaxpy_outcome(&compiled, None, None);
    for cache_budget in [None, Some(1 << 12)] {
        let outcome = |fault: Option<FaultConfig>| {
            let mut cfg = RunConfig {
                fault,
                cache_budget,
                ..RunConfig::default()
            };
            cfg.init.insert("a".into(), init_fn(fa));
            cfg.init.insert("b".into(), init_fn(fb));
            cfg.collect.push("c".into());
            run(&compiled, &cfg).unwrap()
        };
        let healthy = outcome(None);
        let degraded = outcome(Some(degrade.clone()));
        let reads = |o: &RunOutcome| o.report.totals().io_read_requests;
        assert_eq!(
            degraded.collected["c"], clean.collected["c"],
            "{cache_budget:?}"
        );
        assert_eq!(
            healthy.collected["c"], clean.collected["c"],
            "{cache_budget:?}"
        );
        assert!(degraded.report.totals().faults_injected >= 2);
        assert!(degraded.report.elapsed() > healthy.report.elapsed());
        assert_ne!(
            reads(&degraded),
            reads(&healthy),
            "{cache_budget:?}: the degraded disk must re-plan the slabs"
        );
    }
}

/// Chaos transparency holds for the stencil executor (ghost-cell p2p
/// exchanges under message drops/delays) end to end from HPF source.
#[test]
fn jacobi_under_chaos_matches_fault_free_run() {
    let n = 24;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      forall (i = 2:n-1, j = 2:n-1)
        u(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(fa));
    cfg.init.insert("v".into(), init_fn(fa));
    cfg.collect.push("u".into());
    let clean = run(&compiled, &cfg).unwrap();
    cfg.fault = Some(FaultConfig::chaos(41));
    let chaos = run(&compiled, &cfg).unwrap();

    assert_eq!(chaos.collected["u"], clean.collected["u"]);
    assert_logical_counts_equal(&chaos.report, &clean.report);
    assert!(chaos.report.totals().faults_injected > 0);
}

/// Chaos transparency holds for the all-to-all remap executor, whose
/// p2p traffic is the densest in the suite.
#[test]
fn transpose_under_chaos_matches_reference() {
    let n = 32;
    let src = format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr(4)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let init = |g: &[usize]| (g[0] * 1000 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(init));
    cfg.collect.push("b".into());
    cfg.fault = Some(FaultConfig::chaos(12));
    let outcome = run(&compiled, &cfg).unwrap();

    let (_, b) = &outcome.collected["b"];
    assert_eq!(max_abs_diff(b, &ref_transpose(n, &init)), 0.0);
    assert!(outcome.report.totals().faults_injected > 0);
}
