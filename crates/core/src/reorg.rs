//! Data access reorganization: candidate generation and selection (§4).
//!
//! For the GAXPY statement the compiler builds both translations — the
//! column-slab version (the straightforward extension of in-core
//! compilation, Figure 9) and the row-slab version (storage reorganized so
//! A streams once, Figure 12) — estimates each one's I/O cost from its
//! symbolic node program, and selects the cheaper (the algorithm of
//! Figure 14).

use serde::{Deserialize, Serialize};

use dmsim::CostModel;
use ooc_array::{ArrayDesc, ArrayId, FileLayout};
use pario::ElemKind;

use crate::cost::CostEstimate;
use crate::hir::HirArray;
use crate::ir::NestNode;
use crate::nodegen::gaxpy_nest;
use crate::plan::{GaxpyPlan, SlabStrategy};
use crate::stripmine::{size_gaxpy, SlabSizing};

/// The layouts a strategy wants for (A, B, C) when storage reorganization
/// is permitted.
pub fn desired_layouts(strategy: SlabStrategy) -> (FileLayout, FileLayout, FileLayout) {
    match strategy {
        SlabStrategy::ColumnSlab => (
            FileLayout::column_major(2),
            FileLayout::column_major(2),
            FileLayout::column_major(2),
        ),
        // Row slabs of A and row-slab writes of C are contiguous only when
        // those files are stored row-major — the reorganization.
        SlabStrategy::RowSlab => (
            FileLayout::row_major(2),
            FileLayout::column_major(2),
            FileLayout::row_major(2),
        ),
    }
}

/// Build a fully-sized GAXPY plan for one strategy.
///
/// `layouts` are the actual file layouts to use (callers pass the desired
/// ones, or the already-locked ones when another statement fixed an array's
/// storage, or column-major when reorganization is disabled — the ablation).
#[allow(clippy::too_many_arguments)]
pub fn build_gaxpy_plan(
    ids: (ArrayId, ArrayId, ArrayId),
    arrays: (&HirArray, &HirArray, &HirArray),
    n: usize,
    p: usize,
    strategy: SlabStrategy,
    sizing: SlabSizing,
    layouts: (FileLayout, FileLayout, FileLayout),
    model: &CostModel,
) -> GaxpyPlan {
    let slabs = size_gaxpy(strategy, n, p, sizing, model);
    let (a, b, c) = arrays;
    let desc = |id: ArrayId, arr: &HirArray, layout: FileLayout| {
        ArrayDesc::new(id, arr.name.clone(), ElemKind::F32, arr.dist.clone()).with_layout(layout)
    };
    GaxpyPlan {
        strategy,
        a: desc(ids.0, a, layouts.0),
        b: desc(ids.1, b, layouts.1),
        c: desc(ids.2, c, layouts.2),
        n,
        nprocs: p,
        slab_a: slabs.a,
        slab_b: slabs.b,
        slab_c: slabs.c,
    }
}

/// Outcome of strategy selection for one GAXPY statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaxpyChoice {
    /// The selected plan.
    pub plan: GaxpyPlan,
    /// Its symbolic node program.
    pub nest: Vec<NestNode>,
    /// Cost estimates of every candidate, in candidate order.
    pub estimates: Vec<(SlabStrategy, CostEstimate)>,
}

/// Selection parameters.
pub struct GaxpySelection<'a> {
    /// Array ids of (a, b, c).
    pub ids: (ArrayId, ArrayId, ArrayId),
    /// HIR arrays of (a, b, c).
    pub arrays: (&'a HirArray, &'a HirArray, &'a HirArray),
    /// Matrix order.
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// Slab sizing policy.
    pub sizing: SlabSizing,
    /// When false, all layouts stay column-major (the ablation showing the
    /// reorganization is what makes row slabs cheap).
    pub reorganize: bool,
    /// Per-array layout already fixed by an earlier statement.
    pub locked: (Option<FileLayout>, Option<FileLayout>, Option<FileLayout>),
    /// Force a strategy instead of selecting by cost (used by the
    /// experiment harness to produce both columns of Table 1).
    pub force: Option<SlabStrategy>,
}

/// Run the Figure 14 selection: build candidates, estimate, choose.
pub fn choose_gaxpy(sel: &GaxpySelection<'_>, model: &CostModel) -> GaxpyChoice {
    let candidates = [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab];
    let mut scored: Vec<(SlabStrategy, GaxpyPlan, Vec<NestNode>, CostEstimate)> = Vec::new();
    for strategy in candidates {
        let desired = if sel.reorganize {
            desired_layouts(strategy)
        } else {
            (
                FileLayout::column_major(2),
                FileLayout::column_major(2),
                FileLayout::column_major(2),
            )
        };
        let layouts = (
            sel.locked.0.clone().unwrap_or(desired.0),
            sel.locked.1.clone().unwrap_or(desired.1),
            sel.locked.2.clone().unwrap_or(desired.2),
        );
        let plan = build_gaxpy_plan(
            sel.ids, sel.arrays, sel.n, sel.p, strategy, sel.sizing, layouts, model,
        );
        let nest = gaxpy_nest(&plan);
        let est = CostEstimate::from_nest(&nest, model, 4);
        scored.push((strategy, plan, nest, est));
    }
    let estimates: Vec<(SlabStrategy, CostEstimate)> =
        scored.iter().map(|(s, _, _, e)| (*s, e.clone())).collect();
    let pick = match sel.force {
        Some(f) => scored
            .iter()
            .position(|(s, _, _, _)| *s == f)
            .expect("forced strategy is a candidate"),
        None => scored
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.3.time().partial_cmp(&b.3.time()).expect("finite times"))
            .map(|(i, _)| i)
            .expect("two candidates"),
    };
    let (_, plan, nest, _) = scored.swap_remove(pick);
    GaxpyChoice {
        plan,
        nest,
        estimates,
    }
}

/// Outcome of access-method selection for one remap-style access (a
/// pre-statement redistribution or a transpose): every candidate method
/// priced under the machine model, cheapest wins unless forced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoMethodChoice {
    /// What the access is, e.g. `remap b` or `transpose d`.
    pub access: String,
    /// The selected method.
    pub chosen: pario::IoMethod,
    /// Cost estimates of every candidate, in [`pario::IoMethod::ALL`]
    /// order.
    pub estimates: Vec<(pario::IoMethod, CostEstimate)>,
    /// True when [`crate::CompilerOptions::io_method`] forced the choice.
    pub forced: bool,
}

/// Select the access method for one remap-style access: build the candidate
/// nest for each [`pario::IoMethod`] via `nest_for`, price it under
/// `model`, and pick the cheapest — or `force`, when set. All estimates are
/// kept for the report.
pub fn choose_io_method<F>(
    access: impl Into<String>,
    model: &CostModel,
    force: Option<pario::IoMethod>,
    nest_for: F,
) -> IoMethodChoice
where
    F: Fn(pario::IoMethod) -> Vec<NestNode>,
{
    let estimates: Vec<(pario::IoMethod, CostEstimate)> = pario::IoMethod::ALL
        .into_iter()
        .map(|m| (m, CostEstimate::from_nest(&nest_for(m), model, 4)))
        .collect();
    let chosen = match force {
        Some(f) => f,
        None => {
            estimates
                .iter()
                .min_by(|(_, a), (_, b)| a.time().partial_cmp(&b.time()).expect("finite times"))
                .expect("three candidates")
                .0
        }
    };
    IoMethodChoice {
        access: access.into(),
        chosen,
        estimates,
        forced: force.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_array::{Distribution, Shape};

    fn arrays(n: usize, p: usize) -> (HirArray, HirArray, HirArray) {
        let col = Distribution::column_block(Shape::matrix(n, n), p);
        let row = Distribution::row_block(Shape::matrix(n, n), p);
        (
            HirArray {
                name: "a".into(),
                shape: Shape::matrix(n, n),
                dist: col.clone(),
            },
            HirArray {
                name: "b".into(),
                shape: Shape::matrix(n, n),
                dist: row,
            },
            HirArray {
                name: "c".into(),
                shape: Shape::matrix(n, n),
                dist: col,
            },
        )
    }

    fn selection<'a>(
        arrs: &'a (HirArray, HirArray, HirArray),
        n: usize,
        p: usize,
    ) -> GaxpySelection<'a> {
        GaxpySelection {
            ids: (ArrayId(0), ArrayId(1), ArrayId(2)),
            arrays: (&arrs.0, &arrs.1, &arrs.2),
            n,
            p,
            sizing: SlabSizing::Ratio(0.25),
            reorganize: true,
            locked: (None, None, None),
            force: None,
        }
    }

    #[test]
    fn selector_picks_row_slabs_on_delta() {
        let arrs = arrays(256, 4);
        let sel = selection(&arrs, 256, 4);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.strategy, SlabStrategy::RowSlab);
        // And the estimate gap is roughly an order of magnitude in data.
        let col = &choice.estimates[0].1;
        let row = &choice.estimates[1].1;
        assert!(col.io_bytes() > 10 * row.io_bytes());
    }

    #[test]
    fn forced_strategy_is_respected() {
        let arrs = arrays(64, 4);
        let mut sel = selection(&arrs, 64, 4);
        sel.force = Some(SlabStrategy::ColumnSlab);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.strategy, SlabStrategy::ColumnSlab);
        // Both estimates still reported for the comparison table.
        assert_eq!(choice.estimates.len(), 2);
    }

    #[test]
    fn row_plan_reorganizes_a_and_c() {
        let arrs = arrays(64, 4);
        let sel = selection(&arrs, 64, 4);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.a.layout, FileLayout::row_major(2));
        assert_eq!(choice.plan.c.layout, FileLayout::row_major(2));
        assert_eq!(choice.plan.b.layout, FileLayout::column_major(2));
    }

    #[test]
    fn no_reorg_ablation_shrinks_the_gap() {
        let arrs = arrays(256, 4);
        let mut sel = selection(&arrs, 256, 4);
        let with = choose_gaxpy(&sel, &CostModel::delta(4));
        sel.reorganize = false;
        let without = choose_gaxpy(&sel, &CostModel::delta(4));
        // Without reorganization the row version's A reads are strided, so
        // whatever is selected costs more than the reorganized row version.
        let best_with = with
            .estimates
            .iter()
            .map(|(_, e)| e.time())
            .fold(f64::INFINITY, f64::min);
        let best_without = without
            .estimates
            .iter()
            .map(|(_, e)| e.time())
            .fold(f64::INFINITY, f64::min);
        assert!(best_without > best_with);
    }

    #[test]
    fn locked_layout_is_honored() {
        let arrs = arrays(64, 4);
        let mut sel = selection(&arrs, 64, 4);
        sel.locked.0 = Some(FileLayout::column_major(2));
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.a.layout, FileLayout::column_major(2));
    }
}
