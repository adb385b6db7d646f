//! Access-pattern analysis (§4.1, Figure 14).
//!
//! "For each array used in the array assignment statement, for each
//! dimension of the out-of-core array: use index variables to analyze
//! access patterns; compute the I/O costs for stripmining using slabs along
//! this dimension." This module scores the candidate stripminings of an
//! elementwise statement and tabulates the GAXPY analysis; the cost
//! estimator ([`crate::cost`]) scores each GAXPY candidate's full loop nest
//! and [`crate::reorg`] selects the cheapest.

use serde::{Deserialize, Serialize};

use ooc_array::{ArrayDesc, DimRange, SlabPlan};

use crate::hir::ElwStmt;
use crate::plan::SlabStrategy;

/// Score stripmining an elementwise statement along each dimension: the
/// request count for reading one slab of every referenced array (given the
/// arrays' current file layouts), summed, lower is better. Returns
/// `(dim, requests_per_stage)` pairs in dimension order.
pub fn elw_dim_scores(
    stmt: &ElwStmt,
    lhs_desc: &ArrayDesc,
    rhs_descs: &[ArrayDesc],
    rank: usize,
    slab_thickness: usize,
) -> Vec<(usize, u64)> {
    let local = lhs_desc.local_shape(rank);
    let ndims = local.ndims();
    let mut scores = Vec::with_capacity(ndims);
    for d in 0..ndims {
        let plan = SlabPlan::new(
            local.clone(),
            d,
            slab_thickness.max(1).min(local.extent(d).max(1)),
        );
        let slab = plan.slab(0);
        let mut requests = lhs_desc.layout.count_section_runs(&local, &slab);
        let shifts = stmt.max_shift(ndims);
        for rd in rhs_descs {
            // The read section is the slab widened by the ghost width along
            // the slab dimension (clamped to the local extent).
            let r = slab.range(d);
            let lo = r.lo.saturating_sub(shifts[d]);
            let hi = (r.hi + shifts[d]).min(local.extent(d));
            let widened = slab.clone().with_range(d, DimRange::new(lo, hi));
            requests += rd
                .layout
                .count_section_runs(&rd.local_shape(rank), &widened);
        }
        scores.push((d, requests));
    }
    scores
}

/// Best stripmining dimension for an elementwise statement: the one with
/// the fewest requests per stage; ties break toward the highest dimension
/// (whose slabs are contiguous under the default column-major layout).
pub fn best_elw_slab_dim(
    stmt: &ElwStmt,
    lhs_desc: &ArrayDesc,
    rhs_descs: &[ArrayDesc],
    rank: usize,
    slab_thickness: usize,
) -> usize {
    elw_dim_scores(stmt, lhs_desc, rhs_descs, rank, slab_thickness)
        .into_iter()
        .rev()
        .min_by_key(|&(_, req)| req)
        .map(|(d, _)| d)
        .unwrap_or(0)
}

/// One row of the Figure 14 analysis: the I/O cost of stripmining one array
/// along one dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig14Row {
    /// Array name.
    pub array: String,
    /// Dimension whose slabs are analyzed.
    pub dim: usize,
    /// The slab orientation this corresponds to for the GAXPY statement.
    pub strategy: SlabStrategy,
    /// `T_fetch`: read requests per processor (equations 3/5).
    pub t_fetch: u64,
    /// `T_data`: elements read per processor (equations 4/6).
    pub t_data: u64,
}

/// The paper's Figure 14 algorithm, instantiated for the GAXPY statement:
/// "for each array … for each dimension … compute the I/O costs for
/// stripmining using slabs along this dimension", then "determine which
/// array requires the largest amount of I/O" — always A here — and pick the
/// orientation that minimizes its cost. The returned rows are the analysis
/// table; selection itself happens in [`crate::reorg`].
pub fn fig14_table(
    estimates: &[(SlabStrategy, crate::cost::CostEstimate)],
    a_name: &str,
    b_name: &str,
) -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for (strategy, est) in estimates {
        // Stripmining A along dim 1 == column slabs; along dim 0 == row
        // slabs (Figure 11).
        let a_dim = match strategy {
            SlabStrategy::ColumnSlab => 1,
            SlabStrategy::RowSlab => 0,
        };
        rows.push(Fig14Row {
            array: a_name.to_string(),
            dim: a_dim,
            strategy: *strategy,
            t_fetch: est.fetches_of(a_name),
            t_data: est.data_of(a_name),
        });
        rows.push(Fig14Row {
            array: b_name.to_string(),
            dim: 1, // B is always sliced along its columns
            strategy: *strategy,
            t_fetch: est.fetches_of(b_name),
            t_data: est.data_of(b_name),
        });
    }
    rows
}

/// The array with the largest `T_data` across the analysis — the paper's
/// "array that requires the largest amount of I/O".
pub fn dominant_array(rows: &[Fig14Row]) -> Option<&str> {
    rows.iter()
        .max_by_key(|r| r.t_data)
        .map(|r| r.array.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::ElwExpr;
    use ooc_array::{ArrayId, Distribution, FileLayout, Section, Shape};
    use pario::ElemKind;

    fn desc(layout: FileLayout) -> ArrayDesc {
        ArrayDesc::new(
            ArrayId(0),
            "u",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(16, 16), 4),
        )
        .with_layout(layout)
    }

    fn copy_stmt() -> ElwStmt {
        ElwStmt {
            lhs: "u".into(),
            region: Section::full(&Shape::matrix(16, 16)),
            rhs: ElwExpr::aref("v", 2),
        }
    }

    #[test]
    fn elw_prefers_contiguous_dim_for_cm_layout() {
        // Local 16x4, column-major: slabs along dim 1 are contiguous
        // (1 request), along dim 0 strided (4 requests per array).
        let lhs = desc(FileLayout::column_major(2));
        let rhs = vec![desc(FileLayout::column_major(2))];
        let best = best_elw_slab_dim(&copy_stmt(), &lhs, &rhs, 0, 2);
        assert_eq!(best, 1);
        let scores = elw_dim_scores(&copy_stmt(), &lhs, &rhs, 0, 2);
        assert!(scores[0].1 > scores[1].1);
    }

    #[test]
    fn elw_prefers_rows_for_rm_layout() {
        let lhs = desc(FileLayout::row_major(2));
        let rhs = vec![desc(FileLayout::row_major(2))];
        let best = best_elw_slab_dim(&copy_stmt(), &lhs, &rhs, 0, 2);
        assert_eq!(best, 0);
    }
}
