//! Out-of-core phase, step 1: stripmining (§3.3).
//!
//! "The iteration space of a FORALL statement is sectioned (stripmined) so
//! that each iteration operates on the data that can fit in the processor's
//! memory." This module turns a sizing policy into concrete slab
//! thicknesses for the GAXPY translation and elementwise statements.

use serde::{Deserialize, Serialize};

use crate::memory::MemoryPolicy;
use crate::plan::SlabStrategy;

/// How slab sizes are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlabSizing {
    /// Explicit thicknesses: columns-of-OCLA for B, and columns (column
    /// version) or rows (row version) for A — the knobs Table 2 sweeps.
    Explicit {
        /// A's slab thickness.
        a: usize,
        /// B's slab thickness.
        b: usize,
    },
    /// The paper's slab ratio: thickness = ratio × slab-dimension extent,
    /// applied to both A and B (Figure 10 / Table 1 use 1, 1/2, 1/4, 1/8).
    Ratio(f64),
    /// A total in-core element budget split between the competing arrays by
    /// a [`MemoryPolicy`].
    Budget {
        /// Total elements of node memory available for slabs.
        elems: usize,
        /// Split policy.
        policy: MemoryPolicy,
    },
}

impl Default for SlabSizing {
    fn default() -> Self {
        // A sensible default node memory: 1M elements (4 MB of reals).
        SlabSizing::Budget {
            elems: 1 << 20,
            policy: MemoryPolicy::AccessWeighted,
        }
    }
}

/// Concrete slab thicknesses for a GAXPY plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaxpySlabs {
    /// A's thickness along its slab dimension.
    pub a: usize,
    /// B's thickness (columns of B's OCLA).
    pub b: usize,
    /// C's write-buffer thickness (columns, column version only).
    pub c: usize,
}

/// The extent A's slab dimension has under `strategy` (columns of the OCLA
/// for the column version, global rows for the row version).
pub fn a_slab_extent(strategy: SlabStrategy, n: usize, p: usize) -> usize {
    match strategy {
        SlabStrategy::ColumnSlab => n.div_ceil(p),
        SlabStrategy::RowSlab => n,
    }
}

/// Resolve a sizing policy into thicknesses.
pub fn size_gaxpy(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    sizing: SlabSizing,
    model: &dmsim::CostModel,
) -> GaxpySlabs {
    let lc = n.div_ceil(p);
    let a_extent = a_slab_extent(strategy, n, p);
    let (a, b) = match sizing {
        SlabSizing::Explicit { a, b } => (a.clamp(1, a_extent), b.clamp(1, n)),
        SlabSizing::Ratio(r) => {
            assert!(r > 0.0 && r <= 1.0, "slab ratio in (0,1]");
            let a = ((a_extent as f64 * r).round() as usize).clamp(1, a_extent);
            let b = ((n as f64 * r).round() as usize).clamp(1, n);
            (a, b)
        }
        SlabSizing::Budget { elems, policy } => {
            crate::memory::split_gaxpy_budget(strategy, n, p, elems, policy, model, None)
        }
    };
    // C's write buffer: matches A's thickness in the column version (bounded
    // by the owned columns); the row version writes one row slab per A slab.
    let c = match strategy {
        SlabStrategy::ColumnSlab => a.min(lc),
        SlabStrategy::RowSlab => a,
    };
    GaxpySlabs { a, b, c }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_sizing_matches_paper() {
        // 1K arrays on 4 procs: OCLA of A is 1024x256.
        let s = size_gaxpy(
            SlabStrategy::ColumnSlab,
            1024,
            4,
            SlabSizing::Ratio(0.25),
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s.a, 64); // 256/4 columns
        assert_eq!(s.b, 256); // 1024/4 columns of B
        let s1 = size_gaxpy(
            SlabStrategy::ColumnSlab,
            1024,
            4,
            SlabSizing::Ratio(1.0),
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s1.a, 256); // whole OCLA in one slab
    }

    #[test]
    fn row_version_ratio_uses_rows() {
        let s = size_gaxpy(
            SlabStrategy::RowSlab,
            1024,
            4,
            SlabSizing::Ratio(0.125),
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s.a, 128); // 1024/8 rows
    }

    #[test]
    fn explicit_sizes_are_clamped() {
        let s = size_gaxpy(
            SlabStrategy::ColumnSlab,
            64,
            4,
            SlabSizing::Explicit { a: 9999, b: 0 },
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s.a, 16); // OCLA has 16 columns
        assert_eq!(s.b, 1);
    }

    #[test]
    fn c_buffer_bounded_by_owned_columns() {
        let s = size_gaxpy(
            SlabStrategy::RowSlab,
            64,
            4,
            SlabSizing::Explicit { a: 32, b: 8 },
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s.c, 32); // row version: one row slab of C per A slab
        let s2 = size_gaxpy(
            SlabStrategy::ColumnSlab,
            64,
            4,
            SlabSizing::Explicit { a: 32, b: 8 },
            &dmsim::CostModel::delta(4),
        );
        assert_eq!(s2.c, 16); // clamped to lc
    }

    #[test]
    #[should_panic(expected = "slab ratio")]
    fn zero_ratio_rejected() {
        size_gaxpy(
            SlabStrategy::ColumnSlab,
            64,
            4,
            SlabSizing::Ratio(0.0),
            &dmsim::CostModel::delta(4),
        );
    }
}
