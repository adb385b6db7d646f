//! Per-rank estimator exactness, including processor counts that do not
//! divide the matrix order (ragged local extents, empty trailing ranks).
//!
//! `gaxpy_nest_for(plan, rank)` must predict each rank's measured I/O
//! requests, bytes and flops exactly.

use dmsim::{Machine, MachineConfig};
use noderun::{assemble_global, max_abs_diff, ref_gaxpy};
use ooc_array::{ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Shape};
use ooc_core::ir::totals;
use ooc_core::nodegen::gaxpy_nest_for;
use ooc_core::plan::{GaxpyPlan, SlabStrategy};
use pario::ElemKind;

fn make_plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
    let col = Distribution::column_block(Shape::matrix(n, n), p);
    let row = Distribution::row_block(Shape::matrix(n, n), p);
    let (la, lcl) = match strategy {
        SlabStrategy::ColumnSlab => (FileLayout::column_major(2), FileLayout::column_major(2)),
        SlabStrategy::RowSlab => (FileLayout::row_major(2), FileLayout::row_major(2)),
    };
    GaxpyPlan {
        strategy,
        a: ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone()).with_layout(la),
        b: ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row),
        c: ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col).with_layout(lcl),
        n,
        nprocs: p,
        slab_a: sa,
        slab_b: sb,
        slab_c: sa.min(n.div_ceil(p)),
    }
}

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.25 - 1.0
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.25 - 1.0
}

#[test]
fn every_rank_matches_its_own_nest_even_when_p_does_not_divide_n() {
    for (strategy, n, p, sa, sb) in [
        (SlabStrategy::ColumnSlab, 13, 4, 2, 4),
        (SlabStrategy::ColumnSlab, 17, 3, 3, 5),
        (SlabStrategy::RowSlab, 13, 4, 5, 4),
        (SlabStrategy::RowSlab, 19, 5, 4, 7),
        // p > n/2: trailing ranks own nothing.
        (SlabStrategy::ColumnSlab, 5, 4, 1, 2),
        (SlabStrategy::RowSlab, 5, 4, 2, 2),
    ] {
        let plan = make_plan(strategy, n, p, sa, sb);
        let machine = Machine::new(MachineConfig::delta(p));
        let (report, locals) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            env.load_global(&plan.a, &fa).unwrap();
            env.load_global(&plan.b, &fb).unwrap();
            noderun::gaxpy::execute(ctx, &mut env, &plan, false, ctx, &Default::default()).unwrap();
            env.read_local_all(&plan.c).unwrap()
        });

        for rank in 0..p {
            let predicted = totals(&gaxpy_nest_for(&plan, rank));
            let measured = report.per_proc()[rank].stats;
            let pred_read_reqs: u64 = predicted.per_array.values().map(|a| a.read_requests).sum();
            let pred_read_elems: u64 = predicted.per_array.values().map(|a| a.read_elems).sum();
            let pred_write_reqs: u64 = predicted.per_array.values().map(|a| a.write_requests).sum();
            let pred_write_elems: u64 = predicted.per_array.values().map(|a| a.write_elems).sum();
            let tag = format!("{strategy:?} n={n} p={p} sa={sa} sb={sb} rank={rank}");
            assert_eq!(measured.io_read_requests, pred_read_reqs, "{tag} read reqs");
            assert_eq!(
                measured.io_bytes_read / 4,
                pred_read_elems,
                "{tag} read elems"
            );
            assert_eq!(
                measured.io_write_requests, pred_write_reqs,
                "{tag} write reqs"
            );
            assert_eq!(
                measured.io_bytes_written / 4,
                pred_write_elems,
                "{tag} write elems"
            );
            // Flops: the nest counts kernel flops; the executor additionally
            // charges the reduction-combine flops inside the collectives, so
            // measured >= predicted with the gap bounded by the reduce work.
            assert!(
                measured.flops >= predicted.flops,
                "{tag} flops {} < predicted {}",
                measured.flops,
                predicted.flops
            );
        }

        // And the product is still right.
        let refs: Vec<&[f32]> = locals.iter().map(|v| v.as_slice()).collect();
        let (_, c) = assemble_global(&plan.c, &refs);
        let expect = ref_gaxpy(n, &fa, &fb);
        assert!(max_abs_diff(&c, &expect) < 1e-3, "{strategy:?} n={n} p={p}");
    }
}
