//! GAXPY executor: Figures 9 (column slabs) and 12 (row slabs) as real node
//! programs.
//!
//! Every processor runs the same stripmined loop nest the compiler
//! generated symbolically: slabs are fetched through the charged I/O path,
//! partial products accumulate into an in-core temporary, and each result
//! (sub)column is combined with a global-sum reduction whose root is the
//! owner of the column, which buffers and writes it to C's local array
//! file. Returns the peak number of in-core elements held, so tests can
//! check the plan's memory accounting.

use dmsim::{ProcCtx, ReduceOp};
use ooc_array::{DimRange, OocEnv, OocError, Section};
use ooc_core::plan::{GaxpyPlan, SlabStrategy};
use pario::{IoError, PendingIo};

/// Fault-recovery options for a GAXPY statement. All fields default to off,
/// in which case execution is bit-identical to the pre-fault-subsystem
/// executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOpts<'a> {
    /// Directory for slab-granular checkpoints of C's progress. When set,
    /// each rank checkpoints its local C after every outer slab, and a
    /// restarted statement resumes from the *minimum* watermark across
    /// ranks (agreed by an allreduce) so the collective sequences stay in
    /// lockstep.
    pub checkpoint_dir: Option<&'a std::path::Path>,
    /// Cost model used to re-plan slab sizes when the disk degrades
    /// mid-run (graceful degradation). `None` disables re-planning.
    pub model: Option<&'a dmsim::CostModel>,
    /// Slab-cache budget the re-planner should assume (must match the
    /// budget the environment actually runs with).
    pub cache_budget: Option<usize>,
}

/// Execute the plan on this processor. Returns peak in-core elements.
///
/// With `prefetch` enabled the runtime overlaps each slab fetch with the
/// still-pending computation of the previous slab (software pipelining):
/// the I/O *counts* are identical, only the modeled time shrinks.
/// Non-prefetched I/O is charged through `charge` — `ctx` itself, or the
/// seam [`crate::trace::TracingCharge`] uses to record the operation
/// sequence (prefetched fetches charge through the context's overlapped
/// path, so trace with `prefetch = false`). `opts` turns on checkpointing
/// and degraded-disk re-planning.
pub fn execute(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    prefetch: bool,
    charge: &dyn pario::IoCharge,
    opts: &RecoveryOpts<'_>,
) -> Result<usize, OocError> {
    match plan.strategy {
        SlabStrategy::ColumnSlab => column_version(ctx, env, plan, prefetch, charge, opts),
        SlabStrategy::RowSlab => row_version(ctx, env, plan, prefetch, charge, opts),
    }
}

/// Checkpoint tag for a GAXPY statement writing `c`.
fn ckpt_tag(plan: &GaxpyPlan) -> String {
    format!("gaxpy-{}", plan.c.name)
}

/// Restore this statement's checkpoint (if any) and agree on the restart
/// watermark: every rank resumes from the minimum progress any rank saved,
/// so the per-column reduces below stay in lockstep. Ranks ahead of the
/// minimum recompute the gap idempotently.
fn agree_restart(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    dir: &std::path::Path,
) -> Result<usize, OocError> {
    let _span = ctx.trace_span(ooc_trace::Category::Checkpoint, "restore");
    let c_local = plan.c.local_shape(ctx.rank());
    let full = Section::full(&c_local);
    let saved =
        ooc_array::restore_checkpoint(env, &plan.c, &full, dir, &ckpt_tag(plan))?.unwrap_or(0);
    let min = ctx.try_allreduce(&[saved], ReduceOp::Min)?[0];
    Ok(min as usize)
}

/// Re-plan slab thicknesses against a degraded disk: once the fault layer
/// marks the disk degraded, the remaining slabs are re-split with the I/O
/// bandwidth derated by the injector's factor. Returns `None` while the
/// disk is healthy.
fn replan_degraded(
    env: &OocEnv,
    plan: &GaxpyPlan,
    opts: &RecoveryOpts<'_>,
) -> Option<(usize, usize)> {
    let model = opts.model?;
    if !env.disk_degraded() {
        return None;
    }
    let degraded = model.degrade_io(env.degrade_factor());
    Some(ooc_core::memory::split_gaxpy_budget(
        plan.strategy,
        plan.n,
        plan.nprocs,
        plan.memory_elems(),
        ooc_core::memory::MemoryPolicy::Search,
        &degraded,
        opts.cache_budget,
    ))
}

/// Pipelined slab fetch: accumulate the read, then charge it overlapped
/// with the flops deferred since the previous fetch.
fn read_overlapped(
    env: &mut OocEnv,
    desc: &ooc_array::ArrayDesc,
    sec: &Section,
    ctx: &ProcCtx,
    pending_flops: &mut u64,
) -> Result<Vec<f32>, IoError> {
    let pend = PendingIo::new();
    let data = env.read_section(desc, sec, &pend)?;
    let (r, b) = pend.reads();
    ctx.charge_prefetched_read(r, b, *pending_flops);
    *pending_flops = 0;
    Ok(data)
}

/// Deferred-or-immediate flop charge.
fn charge_or_defer(ctx: &ProcCtx, prefetch: bool, pending: &mut u64, flops: u64) {
    if prefetch {
        *pending += flops;
    } else {
        ctx.charge_flops(flops);
    }
}

/// Flush deferred flops (before a reduction that needs the results).
fn flush_pending(ctx: &ProcCtx, pending: &mut u64) {
    if *pending > 0 {
        ctx.charge_flops(*pending);
        *pending = 0;
    }
}

/// Owner (rank) of global column `j` of C.
fn owner_of(plan: &GaxpyPlan, j: usize) -> usize {
    plan.c.dist.owner(&[0, j])
}

/// The column-slab translation (Figure 9).
fn column_version(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    prefetch: bool,
    charge: &dyn pario::IoCharge,
    opts: &RecoveryOpts<'_>,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let n = plan.n;
    let a_local = plan.a.local_shape(rank);
    let b_local = plan.b.local_shape(rank);
    let c_local = plan.c.local_shape(rank);
    let lc_a = a_local.extent(1); // local columns of A
    let lr_b = b_local.extent(0); // local rows of B (== lc_a)
    let lc_c = c_local.extent(1); // owned columns of C

    // Checkpointed restart: resume the outer loop at the agreed watermark
    // (global column index every rank has completed and persisted).
    let start_b = match opts.checkpoint_dir {
        Some(dir) => agree_restart(ctx, env, plan, dir)?,
        None => 0,
    };

    // Slab thicknesses may shrink mid-run under graceful degradation; both
    // are communication-transparent here because the reduce sequence is one
    // reduce per global column j in ascending order, whatever the slabbing.
    let mut slab_a = plan.slab_a;
    let mut slab_b = plan.slab_b;
    let mut replanned = false;

    // C write buffer: up to slab_c columns of n elements.
    let mut cbuf: Vec<f32> = Vec::with_capacity(n * plan.slab_c);
    // Columns with global index below the watermark are already on disk.
    let done_cols = (0..start_b).filter(|&j| owner_of(plan, j) == rank).count();
    let mut cbuf_start_col = done_cols; // first local C column in the buffer
    let mut next_c_col = done_cols; // next local C column to be produced

    let mut peak = 0usize;
    let mut pending_flops = 0u64;

    // Outer loop: slabs of B (columns of B's OCLA are global columns of C).
    let mut slab_idx = 0u64;
    let mut b_lo = start_b;
    while b_lo < n {
        let _slab = ctx.trace_slab_span("b_slab", slab_idx);
        let b_hi = (b_lo + slab_b).min(n);
        let b_sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(b_lo, b_hi)]);
        let b_icla = if prefetch {
            read_overlapped(env, &plan.b, &b_sec, ctx, &mut pending_flops)?
        } else {
            env.read_section(&plan.b, &b_sec, charge)?
        };

        for m in 0..(b_hi - b_lo) {
            let j = b_lo + m; // global column of C
            let mut temp = vec![0.0f32; n];

            // Inner loop: stream the slabs of A; with prefetch, each fetch
            // overlaps the previous slab's multiply.
            let mut a_lo = 0usize;
            while a_lo < lc_a {
                let a_hi = (a_lo + slab_a).min(lc_a);
                let a_sec = Section::new(vec![DimRange::new(0, n), DimRange::new(a_lo, a_hi)]);
                let a_icla = if prefetch {
                    read_overlapped(env, &plan.a, &a_sec, ctx, &mut pending_flops)?
                } else {
                    env.read_section(&plan.a, &a_sec, charge)?
                };
                let wa = a_hi - a_lo;
                for ii in 0..wa {
                    // A's local column a_lo+ii pairs with B's local row of
                    // the same index (both are block slices of 1..n).
                    let bval = b_icla[(a_lo + ii) + m * lr_b];
                    let col = &a_icla[ii * n..(ii + 1) * n];
                    for (t, &av) in temp.iter_mut().zip(col) {
                        *t += av * bval;
                    }
                }
                charge_or_defer(ctx, prefetch, &mut pending_flops, (2 * n * wa) as u64);
                peak = peak.max(b_icla.len() + a_icla.len() + temp.len() + cbuf.capacity());
                a_lo = a_hi;
            }

            // Global sum to the owner of column j (needs temp complete:
            // flush any deferred work first).
            flush_pending(ctx, &mut pending_flops);
            let owner = owner_of(plan, j);
            let summed = ctx.try_reduce(&temp, ReduceOp::Sum, owner)?;
            if rank == owner {
                let column = summed.expect("root receives the sum");
                debug_assert_eq!(plan.c.dist.local_index(1, j), next_c_col);
                cbuf.extend_from_slice(&column);
                next_c_col += 1;
                if next_c_col - cbuf_start_col == plan.slab_c {
                    flush_c_columns(
                        env,
                        plan,
                        rank,
                        &mut cbuf,
                        cbuf_start_col,
                        next_c_col,
                        charge,
                    )?;
                    cbuf_start_col = next_c_col;
                }
            }
        }
        if let Some(dir) = opts.checkpoint_dir {
            let _ckpt = ctx.trace_span(ooc_trace::Category::Checkpoint, "checkpoint");
            // Persist every finished column, then checkpoint the local C
            // with the new watermark. The cbuf flush here only changes the
            // flush cadence when checkpointing is on.
            if next_c_col > cbuf_start_col {
                flush_c_columns(
                    env,
                    plan,
                    rank,
                    &mut cbuf,
                    cbuf_start_col,
                    next_c_col,
                    charge,
                )?;
                cbuf_start_col = next_c_col;
            }
            ooc_array::checkpoint_section(
                env,
                &plan.c,
                &Section::full(&c_local),
                dir,
                &ckpt_tag(plan),
                b_hi as u64,
            )?;
        }
        if !replanned {
            if let Some((sa, sb)) = replan_degraded(env, plan, opts) {
                slab_a = sa;
                slab_b = sb;
                replanned = true;
            }
        }
        slab_idx += 1;
        b_lo = b_hi;
    }

    // Ragged final C buffer.
    if next_c_col > cbuf_start_col {
        flush_c_columns(
            env,
            plan,
            rank,
            &mut cbuf,
            cbuf_start_col,
            next_c_col,
            charge,
        )?;
    }
    debug_assert_eq!(next_c_col, lc_c, "every owned column produced");
    if let Some(dir) = opts.checkpoint_dir {
        ooc_array::remove_checkpoint(dir, &ckpt_tag(plan), rank)?;
    }
    Ok(peak)
}

fn flush_c_columns(
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    rank: usize,
    cbuf: &mut Vec<f32>,
    lo_col: usize,
    hi_col: usize,
    charge: &dyn pario::IoCharge,
) -> Result<(), IoError> {
    let n = plan.n;
    let c_local = plan.c.local_shape(rank);
    let sec = Section::new(vec![DimRange::new(0, n), DimRange::new(lo_col, hi_col)]);
    debug_assert_eq!(cbuf.len(), sec.len());
    debug_assert!(hi_col <= c_local.extent(1));
    env.write_section(&plan.c, &sec, cbuf, charge)?;
    cbuf.clear();
    Ok(())
}

/// The row-slab translation (Figure 12): A reorganized row-major and
/// streamed exactly once.
fn row_version(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    prefetch: bool,
    charge: &dyn pario::IoCharge,
    opts: &RecoveryOpts<'_>,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let n = plan.n;
    let a_local = plan.a.local_shape(rank);
    let b_local = plan.b.local_shape(rank);
    let lc = a_local.extent(1); // local columns of A (== local rows of B)
    let lr_b = b_local.extent(0);

    let mut peak = 0usize;

    // Checkpointed restart at the agreed row watermark. Row-slab height is
    // part of the collective structure (one reduce per (row slab, column)),
    // so every saved watermark lies on a shared `slab_a` boundary and so
    // does their minimum.
    let start_r = match opts.checkpoint_dir {
        Some(dir) => agree_restart(ctx, env, plan, dir)?,
        None => 0,
    };

    // Graceful degradation can re-plan only B's streaming thickness here:
    // changing `slab_a` would change the reduce sequence and desynchronize
    // ranks that degrade at different times.
    let mut slab_b = plan.slab_b;
    let mut replanned = false;

    // Loop-invariant I/O motion: a B ICLA covering the whole OCLA is read
    // once, before the A-slab loop, and stays resident.
    let b_resident: Option<Vec<f32>> = if plan.slab_b >= n {
        let sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(0, n)]);
        Some(env.read_section(&plan.b, &sec, charge)?)
    } else {
        None
    };

    let mut pending_flops = 0u64;
    let mut slab_idx = 0u64;
    let mut r_lo = start_r;
    while r_lo < n {
        let _slab = ctx.trace_slab_span("a_row_slab", slab_idx);
        let r_hi = (r_lo + plan.slab_a).min(n);
        let h = r_hi - r_lo;
        let a_sec = Section::new(vec![DimRange::new(r_lo, r_hi), DimRange::new(0, lc)]);
        // h x lc, CM; with prefetch this fetch overlaps deferred work.
        let a_icla = if prefetch {
            read_overlapped(env, &plan.a, &a_sec, ctx, &mut pending_flops)?
        } else {
            env.read_section(&plan.a, &a_sec, charge)?
        };

        // One row slab of C's owned columns accumulates here.
        let c_cols = plan.c.local_shape(rank).extent(1);
        let mut cbuf = vec![0.0f32; h * c_cols];

        let mut b_lo = 0usize;
        while b_lo < n {
            let b_hi = (b_lo + slab_b).min(n);
            let b_icla_local;
            let b_icla: &[f32] = match &b_resident {
                Some(whole) => whole,
                None => {
                    let b_sec =
                        Section::new(vec![DimRange::new(0, lr_b), DimRange::new(b_lo, b_hi)]);
                    b_icla_local = env.read_section(&plan.b, &b_sec, charge)?;
                    &b_icla_local
                }
            };

            for m in 0..(b_hi - b_lo) {
                let j = b_lo + m;
                let mut temp = vec![0.0f32; h];
                for i in 0..lc {
                    let bval = b_icla[i + m * lr_b];
                    let col = &a_icla[i * h..(i + 1) * h];
                    for (t, &av) in temp.iter_mut().zip(col) {
                        *t += av * bval;
                    }
                }
                charge_or_defer(ctx, prefetch, &mut pending_flops, (2 * h * lc) as u64);
                peak = peak.max(a_icla.len() + b_icla.len() + temp.len() + cbuf.len());

                flush_pending(ctx, &mut pending_flops);
                let owner = owner_of(plan, j);
                let summed = ctx.try_reduce(&temp, ReduceOp::Sum, owner)?;
                if rank == owner {
                    let sub = summed.expect("root receives the sum");
                    let local_j = plan.c.dist.local_index(1, j);
                    cbuf[local_j * h..(local_j + 1) * h].copy_from_slice(&sub);
                }
            }
            b_lo = b_hi;
        }

        // Write this row slab of C (rows r_lo..r_hi of all owned columns).
        let c_sec = Section::new(vec![DimRange::new(r_lo, r_hi), DimRange::new(0, c_cols)]);
        env.write_section(&plan.c, &c_sec, &cbuf, charge)?;
        if let Some(dir) = opts.checkpoint_dir {
            let _ckpt = ctx.trace_span(ooc_trace::Category::Checkpoint, "checkpoint");
            ooc_array::checkpoint_section(
                env,
                &plan.c,
                &Section::full(&plan.c.local_shape(rank)),
                dir,
                &ckpt_tag(plan),
                r_hi as u64,
            )?;
        }
        if !replanned {
            if let Some((_, sb)) = replan_degraded(env, plan, opts) {
                slab_b = sb;
                replanned = true;
            }
        }
        slab_idx += 1;
        r_lo = r_hi;
    }
    if let Some(dir) = opts.checkpoint_dir {
        ooc_array::remove_checkpoint(dir, &ckpt_tag(plan), rank)?;
    }
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assemble_global, max_abs_diff, ref_gaxpy};
    use dmsim::{Machine, MachineConfig};
    use ooc_array::{ArrayDesc, ArrayId, Distribution, FileLayout, Shape};
    use pario::ElemKind;

    fn make_plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
        let col = Distribution::column_block(Shape::matrix(n, n), p);
        let row = Distribution::row_block(Shape::matrix(n, n), p);
        let (la, lc) = match strategy {
            SlabStrategy::ColumnSlab => (FileLayout::column_major(2), FileLayout::column_major(2)),
            SlabStrategy::RowSlab => (FileLayout::row_major(2), FileLayout::row_major(2)),
        };
        GaxpyPlan {
            strategy,
            a: ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone()).with_layout(la),
            b: ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row),
            c: ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col).with_layout(lc),
            n,
            nprocs: p,
            slab_a: sa,
            slab_b: sb,
            slab_c: sa.min(n / p),
        }
    }

    fn fa(g: &[usize]) -> f32 {
        ((g[0] * 7 + g[1] * 3) % 11) as f32 - 5.0
    }
    fn fb(g: &[usize]) -> f32 {
        ((g[0] * 5 + g[1]) % 13) as f32 - 6.0
    }

    fn run_plan(plan: &GaxpyPlan) -> (Vec<f32>, dmsim::RunReport) {
        let p = plan.nprocs;
        let machine = Machine::new(MachineConfig::delta(p));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            env.load_global(&plan.a, &fa).unwrap();
            env.load_global(&plan.b, &fb).unwrap();
            execute(ctx, &mut env, plan, false, ctx, &RecoveryOpts::default()).unwrap();
            env.read_local_all(&plan.c).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        let (_, c) = assemble_global(&plan.c, &locals);
        (c, report)
    }

    #[test]
    fn both_versions_compute_the_same_correct_product() {
        let n = 16;
        let p = 4;
        let expect = ref_gaxpy(n, &fa, &fb);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = make_plan(strategy, n, p, 2, 4);
            let (c, _) = run_plan(&plan);
            assert!(
                max_abs_diff(&c, &expect) < 1e-3,
                "{strategy:?} wrong result"
            );
        }
    }

    #[test]
    fn measured_io_matches_the_estimator_exactly() {
        for (strategy, sa, sb) in [
            (SlabStrategy::ColumnSlab, 2, 4),
            (SlabStrategy::ColumnSlab, 3, 5), // ragged
            (SlabStrategy::RowSlab, 4, 4),
            (SlabStrategy::RowSlab, 5, 7), // ragged
        ] {
            let plan = make_plan(strategy, 16, 4, sa, sb);
            let nest = ooc_core::nodegen::gaxpy_nest(&plan);
            let predicted = ooc_core::ir::totals(&nest);
            let (_, report) = run_plan(&plan);
            let per0 = report.per_proc()[0].stats;
            assert_eq!(
                per0.io_read_requests,
                predicted.per_array["a"].read_requests + predicted.per_array["b"].read_requests,
                "{strategy:?} sa={sa} sb={sb} read requests"
            );
            assert_eq!(
                per0.io_bytes_read / 4,
                predicted.per_array["a"].read_elems + predicted.per_array["b"].read_elems,
                "{strategy:?} read elems"
            );
            assert_eq!(
                per0.io_write_requests, predicted.per_array["c"].write_requests,
                "{strategy:?} write requests"
            );
            assert_eq!(
                per0.io_bytes_written / 4,
                predicted.per_array["c"].write_elems,
                "{strategy:?} write elems"
            );
        }
    }

    fn run_plan_cached(plan: &GaxpyPlan, budget: usize) -> (Vec<f32>, dmsim::RunReport) {
        let p = plan.nprocs;
        let machine = Machine::new(MachineConfig::delta(p));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            env.load_global(&plan.a, &fa).unwrap();
            env.load_global(&plan.b, &fb).unwrap();
            // Cache goes live after the uncharged setup, cold — exactly
            // what the reuse predictor models.
            env.enable_cache(budget);
            execute(ctx, &mut env, plan, false, ctx, &RecoveryOpts::default()).unwrap();
            env.flush_cache(ctx).unwrap();
            env.read_local_all(&plan.c).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        let (_, c) = assemble_global(&plan.c, &locals);
        (c, report)
    }

    #[test]
    fn cached_measured_io_matches_the_reuse_predictor_exactly() {
        let n = 16;
        let p = 4;
        let expect = ref_gaxpy(n, &fa, &fb);
        for (strategy, sa, sb, budget) in [
            // One resident A slab (sa = lc): budget of A + B slab + C buffer
            // turns all A re-reads into hits.
            (
                SlabStrategy::ColumnSlab,
                4,
                4,
                (16 * 4 + 4 * 4 + 16 * 4) * 4,
            ),
            // Generous budget, small slabs.
            (SlabStrategy::ColumnSlab, 2, 4, 1 << 20),
            (SlabStrategy::ColumnSlab, 3, 5, 1 << 20), // ragged
            (SlabStrategy::RowSlab, 4, 4, 1 << 20),
            (SlabStrategy::RowSlab, 5, 7, 1 << 20), // ragged
            // Tiny budget: constant eviction, still exact.
            (SlabStrategy::ColumnSlab, 2, 4, 256),
            (SlabStrategy::RowSlab, 4, 4, 0),
        ] {
            let plan = make_plan(strategy, n, p, sa, sb);
            let predicted = ooc_core::reuse::gaxpy_cached_totals(&plan, 0, budget);
            let (c, report) = run_plan_cached(&plan, budget);
            assert!(
                max_abs_diff(&c, &expect) < 1e-3,
                "{strategy:?} budget={budget} wrong result"
            );
            let per0 = report.per_proc()[0].stats;
            assert_eq!(
                per0.io_read_requests,
                predicted.per_array["a"].read_requests + predicted.per_array["b"].read_requests,
                "{strategy:?} sa={sa} sb={sb} budget={budget} read requests"
            );
            assert_eq!(
                per0.io_bytes_read / 4,
                predicted.per_array["a"].read_elems + predicted.per_array["b"].read_elems,
                "{strategy:?} budget={budget} read elems"
            );
            assert_eq!(
                per0.io_write_requests, predicted.per_array["c"].write_requests,
                "{strategy:?} budget={budget} write requests"
            );
            assert_eq!(
                per0.io_bytes_written / 4,
                predicted.per_array["c"].write_elems,
                "{strategy:?} budget={budget} write elems"
            );
        }
    }

    #[test]
    fn a_resident_cache_budget_cuts_requests_and_time() {
        // slab_a = lc makes A one slab revisited for every column of C; a
        // budget holding A + a B slab + the C buffer captures all of that
        // reuse. Requests and simulated time must strictly drop.
        let n = 16;
        let p = 4;
        let plan = make_plan(SlabStrategy::ColumnSlab, n, p, n / p, 4);
        let budget = (n * (n / p) + (n / p) * plan.slab_b + n * plan.slab_c) * 4;
        let (_, base) = run_plan(&plan);
        let (_, cached) = run_plan_cached(&plan, budget);
        let (b0, c0) = (base.per_proc()[0].stats, cached.per_proc()[0].stats);
        assert!(
            c0.io_requests() < b0.io_requests(),
            "cached {} !< uncached {}",
            c0.io_requests(),
            b0.io_requests()
        );
        assert!(c0.cache_hits > 0, "reuse must register as hits");
        assert!(
            cached.elapsed() < base.elapsed(),
            "cached {} !< uncached {}",
            cached.elapsed(),
            base.elapsed()
        );
    }

    #[test]
    fn row_version_does_an_order_of_magnitude_less_io() {
        let n = 64;
        let p = 4;
        let col = make_plan(SlabStrategy::ColumnSlab, n, p, 4, 16);
        let row = make_plan(SlabStrategy::RowSlab, n, p, 16, 16); // same slab elems
        let (_, rc) = run_plan(&col);
        let (_, rr) = run_plan(&row);
        let col_bytes = rc.per_proc()[0].stats.io_bytes_read;
        let row_bytes = rr.per_proc()[0].stats.io_bytes_read;
        assert!(
            col_bytes > 10 * row_bytes,
            "col {col_bytes} vs row {row_bytes}"
        );
    }

    #[test]
    fn prefetch_shrinks_time_but_not_counts() {
        let plan = make_plan(SlabStrategy::ColumnSlab, 32, 4, 2, 8);
        let run_with = |prefetch: bool| {
            let machine = Machine::new(MachineConfig::delta(4));
            machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                env.load_global(&plan.a, &fa).unwrap();
                env.load_global(&plan.b, &fb).unwrap();
                execute(
                    ctx,
                    &mut env,
                    &plan,
                    prefetch,
                    ctx,
                    &RecoveryOpts::default(),
                )
                .unwrap();
            })
        };
        let base = run_with(false);
        let pre = run_with(true);
        assert!(
            pre.elapsed() < base.elapsed(),
            "prefetch {} !< base {}",
            pre.elapsed(),
            base.elapsed()
        );
        let (b0, p0) = (base.per_proc()[0].stats, pre.per_proc()[0].stats);
        assert_eq!(b0.io_requests(), p0.io_requests());
        assert_eq!(b0.io_bytes(), p0.io_bytes());
        assert_eq!(b0.flops, p0.flops);
    }

    #[test]
    fn prefetched_result_is_still_correct() {
        let n = 16;
        let expect = ref_gaxpy(n, &fa, &fb);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = make_plan(strategy, n, 4, 3, 5);
            let machine = Machine::new(MachineConfig::free(4));
            let (_, results) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                env.load_global(&plan.a, &fa).unwrap();
                env.load_global(&plan.b, &fb).unwrap();
                execute(ctx, &mut env, &plan, true, ctx, &RecoveryOpts::default()).unwrap();
                env.read_local_all(&plan.c).unwrap()
            });
            let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
            let (_, c) = assemble_global(&plan.c, &locals);
            assert!(max_abs_diff(&c, &expect) < 1e-3, "{strategy:?}");
        }
    }

    #[test]
    fn peak_memory_within_plan_budget() {
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = make_plan(strategy, 16, 4, 2, 4);
            let machine = Machine::new(MachineConfig::free(4));
            let (_, peaks) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                execute(ctx, &mut env, &plan, false, ctx, &RecoveryOpts::default()).unwrap()
            });
            let budget = plan.memory_elems();
            for peak in peaks {
                assert!(
                    peak <= budget,
                    "{strategy:?}: peak {peak} exceeds budget {budget}"
                );
            }
        }
    }
}
