//! Slab plans: stripmining an out-of-core local array into in-core slabs.
//!
//! A slab (§3.3) is the portion of the OCLA fetched into memory for one
//! computation stage: the full extent in every dimension except the *slab
//! dimension*, which is cut into pieces of a chosen thickness. Column slabs
//! are slabs along dimension 1 of a matrix; row slabs along dimension 0
//! (Figure 11).

use serde::{Deserialize, Serialize};

use crate::section::{DimRange, Section};
use crate::shape::Shape;

/// A stripmining plan over one local array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlabPlan {
    local_shape: Shape,
    slab_dim: usize,
    thickness: usize,
}

impl SlabPlan {
    /// Plan with an explicit thickness (indices of `slab_dim` per slab).
    pub fn new(local_shape: Shape, slab_dim: usize, thickness: usize) -> Self {
        assert!(slab_dim < local_shape.ndims(), "slab dim out of range");
        assert!(thickness > 0, "slab thickness must be positive");
        SlabPlan {
            local_shape,
            slab_dim,
            thickness,
        }
    }

    /// Plan sized so one slab holds at most `max_elems` elements (the ICLA
    /// memory budget of §3.3). Thickness is clamped to at least one index.
    pub fn from_memory(local_shape: Shape, slab_dim: usize, max_elems: usize) -> Self {
        let others: usize = (0..local_shape.ndims())
            .filter(|&d| d != slab_dim)
            .map(|d| local_shape.extent(d))
            .fold(1, |a, b| a * b.max(1));
        let thickness = (max_elems / others.max(1)).clamp(1, local_shape.extent(slab_dim).max(1));
        SlabPlan::new(local_shape, slab_dim, thickness)
    }

    /// The local array shape being stripmined.
    pub fn local_shape(&self) -> &Shape {
        &self.local_shape
    }

    /// The dimension being cut.
    pub fn slab_dim(&self) -> usize {
        self.slab_dim
    }

    /// Indices of the slab dimension per slab.
    pub fn thickness(&self) -> usize {
        self.thickness
    }

    /// Number of slabs (stages of the stripmined loop).
    pub fn num_slabs(&self) -> usize {
        self.local_shape
            .extent(self.slab_dim)
            .div_ceil(self.thickness)
    }

    /// Maximum elements of any slab — the ICLA size this plan requires.
    pub fn max_slab_elems(&self) -> usize {
        let others: usize = (0..self.local_shape.ndims())
            .filter(|&d| d != self.slab_dim)
            .map(|d| self.local_shape.extent(d))
            .product();
        others * self.thickness.min(self.local_shape.extent(self.slab_dim))
    }

    /// The `i`-th slab as a local section.
    pub fn slab(&self, i: usize) -> Section {
        assert!(i < self.num_slabs(), "slab index out of range");
        let lo = i * self.thickness;
        let hi = ((i + 1) * self.thickness).min(self.local_shape.extent(self.slab_dim));
        Section::full(&self.local_shape).with_range(self.slab_dim, DimRange::new(lo, hi))
    }

    /// Iterate all slabs in order.
    pub fn iter(&self) -> impl Iterator<Item = Section> + '_ {
        (0..self.num_slabs()).map(|i| self.slab(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn column_slabs_of_paper_example() {
        // OCLA of A on 4 procs for 64x64: 64 x 16. Column slabs of 4.
        let plan = SlabPlan::new(Shape::matrix(64, 16), 1, 4);
        assert_eq!(plan.num_slabs(), 4);
        assert_eq!(plan.max_slab_elems(), 256);
        let s1 = plan.slab(1);
        assert_eq!(s1.range(0), DimRange::full(64));
        assert_eq!(s1.range(1), DimRange::new(4, 8));
    }

    #[test]
    fn ragged_final_slab() {
        let plan = SlabPlan::new(Shape::matrix(4, 10), 1, 3);
        assert_eq!(plan.num_slabs(), 4);
        assert_eq!(plan.slab(3).range(1), DimRange::new(9, 10));
    }

    #[test]
    fn from_memory_respects_budget() {
        // 64 x 16 local array, budget 300 elements: thickness = 300/16... no,
        // slab over dim 0: others = 16, thickness = 300/16 = 18.
        let plan = SlabPlan::from_memory(Shape::matrix(64, 16), 0, 300);
        assert_eq!(plan.thickness(), 18);
        assert!(plan.max_slab_elems() <= 300);
        // Tiny budget still yields a workable plan.
        let tiny = SlabPlan::from_memory(Shape::matrix(64, 16), 0, 1);
        assert_eq!(tiny.thickness(), 1);
    }

    proptest! {
        #[test]
        fn slabs_partition_the_local_array(
            rows in 1usize..20, cols in 1usize..20,
            dim in 0usize..2, t in 1usize..8
        ) {
            let shape = Shape::matrix(rows, cols);
            let plan = SlabPlan::new(shape.clone(), dim, t);
            let mut seen = vec![false; shape.len()];
            for slab in plan.iter() {
                for idx in slab.indices() {
                    let off = shape.linear(&idx);
                    prop_assert!(!seen[off], "element visited twice");
                    seen[off] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "element missed");
        }

        #[test]
        fn max_slab_elems_is_max(
            rows in 1usize..16, cols in 1usize..16, dim in 0usize..2, t in 1usize..6
        ) {
            let plan = SlabPlan::new(Shape::matrix(rows, cols), dim, t);
            let biggest = plan.iter().map(|s| s.len()).max().unwrap();
            prop_assert_eq!(biggest, plan.max_slab_elems());
        }
    }
}
