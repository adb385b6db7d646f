//! The generated node program is an *operation sequence*, not just a cost
//! total: the executor's I/O trace must match the symbolic nest (Figures
//! 9/12) operation for operation — same order, same request counts, same
//! byte counts. Reads and writes are compared as separate sequences: the
//! column version's C-buffer flushes happen while the *owning* rank's
//! columns stream by, so their interleaving position is rank-dependent,
//! while the read stream and the write stream themselves are identical on
//! every rank.

use dmsim::{Machine, MachineConfig};
use noderun::trace::{expected_io_sequence, TracingCharge};
use ooc_array::{ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Shape};
use ooc_core::nodegen::gaxpy_nest;
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
        slab_c: sa.min(n / p),
    }
}

#[test]
fn executor_io_sequence_matches_the_node_program() {
    for (strategy, sa, sb) in [
        (SlabStrategy::ColumnSlab, 2, 4),
        (SlabStrategy::ColumnSlab, 3, 5), // ragged everywhere
        (SlabStrategy::RowSlab, 4, 4),
        (SlabStrategy::RowSlab, 5, 7),  // ragged
        (SlabStrategy::RowSlab, 4, 16), // B resident (hoisted read)
    ] {
        let n = 16;
        let p = 4;
        let plan = make_plan(strategy, n, p, sa, sb);
        let expected = expected_io_sequence(&gaxpy_nest(&plan), 4, 100_000)
            .expect("nest small enough to flatten");

        let machine = Machine::new(MachineConfig::free(p));
        let (_, traces) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            let tracer = TracingCharge::new(ctx);
            noderun::gaxpy::execute(ctx, &mut env, &plan, false, &tracer, &Default::default())
                .unwrap();
            tracer.into_events()
        });

        let expected_reads: Vec<_> = expected.iter().filter(|o| o.read).collect();
        let expected_writes: Vec<_> = expected.iter().filter(|o| !o.read).collect();
        for (rank, trace) in traces.iter().enumerate() {
            let reads: Vec<_> = trace.iter().filter(|o| o.read).collect();
            let writes: Vec<_> = trace.iter().filter(|o| !o.read).collect();
            assert_eq!(
                reads, expected_reads,
                "{strategy:?} sa={sa} sb={sb}: rank {rank} read sequence \
                 diverges from the generated node program"
            );
            assert_eq!(
                writes, expected_writes,
                "{strategy:?} sa={sa} sb={sb}: rank {rank} write sequence \
                 diverges from the generated node program"
            );
        }
    }
}

#[test]
fn sequence_differs_between_strategies() {
    // Sanity: the two translations are genuinely different programs.
    let a = expected_io_sequence(
        &gaxpy_nest(&make_plan(SlabStrategy::ColumnSlab, 16, 4, 2, 4)),
        4,
        100_000,
    )
    .unwrap();
    let b = expected_io_sequence(
        &gaxpy_nest(&make_plan(SlabStrategy::RowSlab, 16, 4, 4, 4)),
        4,
        100_000,
    )
    .unwrap();
    assert_ne!(a, b);
    assert!(a.len() > b.len(), "column version issues more operations");
}
