//! In-core phase, step 2: communication detection.
//!
//! Array assignment statements are analyzed for the communication they
//! induce (Figure 7, "Determine Communication"):
//!
//! * the GAXPY reduction needs a **global sum** per result column;
//! * shifted references in an elementwise forall need **ghost exchanges**
//!   when the shift runs along a distributed dimension;
//! * a transpose between distributed arrays is a full **remap**.

use serde::{Deserialize, Serialize};

use ooc_array::DimDist;

use crate::hir::{ElwStmt, HirProgram};
use crate::plan::GhostSpec;

/// The communication a statement requires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommRequirement {
    /// No interprocessor communication.
    None,
    /// A global sum of vectors of the given element count per result
    /// column (GAXPY).
    GlobalSum {
        /// Elements reduced per operation.
        length: usize,
    },
    /// Boundary strips exchanged with grid neighbors before computation.
    Ghost(Vec<GhostSpec>),
    /// Full data remapping (every processor may send to every other).
    Remap,
    /// A runtime-determined gather/scatter exchange: the pattern depends on
    /// an indirection array, so the inspector discovers the actual peers
    /// and volumes; statically every processor may send to every other,
    /// plus a reduction of partial results to the owners.
    Irregular,
}

/// Ghost analysis for an elementwise statement: every referenced array must
/// share the lhs distribution; shifts along distributed dimensions become
/// ghost strips of the shift width.
pub fn analyze_elw(stmt: &ElwStmt, prog: &HirProgram) -> Result<CommRequirement, String> {
    let lhs = prog
        .array(&stmt.lhs)
        .ok_or_else(|| format!("undeclared array `{}`", stmt.lhs))?;
    for (name, _) in stmt.rhs_refs() {
        let arr = prog
            .array(&name)
            .ok_or_else(|| format!("undeclared array `{name}`"))?;
        if arr.dist != lhs.dist {
            return Err(format!(
                "elementwise statement mixes distributions: `{}` and `{name}` \
                 are distributed differently (a remap would be needed)",
                stmt.lhs
            ));
        }
        if arr.shape != lhs.shape {
            return Err(format!(
                "elementwise statement mixes shapes: `{}` vs `{name}`",
                stmt.lhs
            ));
        }
    }
    let ndims = lhs.shape.ndims();
    let mut ghosts = Vec::new();
    for d in 0..ndims {
        let kind = match lhs.dist.dims()[d] {
            DimDist::Collapsed => continue, // shifts stay on-processor
            DimDist::Distributed { kind, .. } => kind,
        };
        let mut lo = 0usize;
        let mut hi = 0usize;
        for (_, offs) in stmt.rhs_refs() {
            let o = offs[d];
            if o < 0 {
                lo = lo.max(o.unsigned_abs());
            } else {
                hi = hi.max(o as usize);
            }
        }
        if lo > 0 || hi > 0 {
            // Ghost strips assume adjacent global indices live on adjacent
            // processors — true only for block distributions.
            if kind != ooc_array::DistKind::Block {
                return Err(format!(
                    "shift along dimension {d} of `{}` which is distributed \
                     {kind:?}: ghost exchange requires a block distribution",
                    stmt.lhs
                ));
            }
            ghosts.push(GhostSpec {
                dim: d,
                lo_width: lo,
                hi_width: hi,
            });
        }
    }
    if ghosts.is_empty() {
        Ok(CommRequirement::None)
    } else {
        Ok(CommRequirement::Ghost(ghosts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::{ElwExpr, HirArray};
    use ooc_array::{DimRange, Distribution, Section, Shape};

    fn prog_two_arrays(p: usize, same_dist: bool) -> HirProgram {
        let shape = Shape::matrix(8, 8);
        let d1 = Distribution::column_block(shape.clone(), p);
        let d2 = if same_dist {
            d1.clone()
        } else {
            Distribution::row_block(shape.clone(), p)
        };
        HirProgram {
            arrays: vec![
                HirArray {
                    name: "u".into(),
                    shape: shape.clone(),
                    dist: d1,
                },
                HirArray {
                    name: "v".into(),
                    shape,
                    dist: d2,
                },
            ],
            stmts: vec![],
            nprocs: p,
        }
    }

    fn stencil(offsets: Vec<Vec<isize>>) -> ElwStmt {
        let mut expr = ElwExpr::Const(0.0);
        for o in offsets {
            expr = ElwExpr::add(expr, ElwExpr::shifted("v", o));
        }
        ElwStmt {
            lhs: "u".into(),
            region: Section::new(vec![DimRange::new(1, 7), DimRange::new(1, 7)]),
            rhs: expr,
        }
    }

    #[test]
    fn no_shift_no_comm() {
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![0, 0]]);
        assert_eq!(analyze_elw(&s, &prog).unwrap(), CommRequirement::None);
    }

    #[test]
    fn shift_along_collapsed_dim_is_local() {
        // Column-block: dim 0 collapsed, shifts along rows need no comm.
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![-1, 0], vec![1, 0]]);
        assert_eq!(analyze_elw(&s, &prog).unwrap(), CommRequirement::None);
    }

    #[test]
    fn shift_along_distributed_dim_needs_ghosts() {
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![0, -2], vec![0, 1]]);
        let CommRequirement::Ghost(g) = analyze_elw(&s, &prog).unwrap() else {
            panic!("expected ghosts");
        };
        assert_eq!(
            g,
            vec![GhostSpec {
                dim: 1,
                lo_width: 2,
                hi_width: 1
            }]
        );
    }

    #[test]
    fn mixed_distributions_are_rejected() {
        let prog = prog_two_arrays(4, false);
        let s = stencil(vec![vec![0, 0]]);
        let err = analyze_elw(&s, &prog).unwrap_err();
        assert!(err.contains("distributed differently"));
    }
}
