//! In-core phase, step 1: computation partitioning and local bounds.
//!
//! The compiler partitions iteration spaces by the owner-computes rule: the
//! processor owning the assigned element executes the iteration. For the
//! regular distributions of the subset this reduces to intersecting the
//! global iteration region with each processor's owned section and
//! translating to local indices (Figure 7, "Partition Computation /
//! Determine Local Space Bounds").

use ooc_array::{local_section_of_global, Distribution, Section};

/// The local iteration space of `rank` for an elementwise statement
/// assigning `region` of an array with distribution `dist`. `None` when the
/// processor executes nothing.
pub fn local_iteration_space(
    dist: &Distribution,
    rank: usize,
    region: &Section,
) -> Option<Section> {
    local_section_of_global(dist, rank, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_array::{DimRange, Distribution, Shape};

    /// Iterations each rank executes for `region` under `d`.
    fn per_rank(d: &Distribution, region: &Section) -> Vec<usize> {
        (0..d.nprocs())
            .map(|r| local_iteration_space(d, r, region).map_or(0, |s| s.len()))
            .collect()
    }

    #[test]
    fn partition_covers_region_exactly() {
        let d = Distribution::column_block(Shape::matrix(8, 8), 4);
        let region = Section::new(vec![DimRange::new(1, 7), DimRange::new(1, 7)]);
        let counts = per_rank(&d, &region);
        assert_eq!(counts.iter().sum::<usize>(), region.len());
        // Columns 1..7: procs own 2 cols each -> counts 6, 12, 12, 6.
        assert_eq!(counts, vec![6, 12, 12, 6]);
    }

    #[test]
    fn full_region_is_balanced() {
        let d = Distribution::column_block(Shape::matrix(8, 8), 4);
        assert_eq!(
            per_rank(&d, &Section::full(&Shape::matrix(8, 8))),
            vec![16; 4]
        );
    }

    #[test]
    fn empty_processor_gets_none() {
        let d = Distribution::column_block(Shape::matrix(4, 4), 4);
        let region = Section::new(vec![DimRange::new(0, 4), DimRange::new(0, 1)]);
        assert!(local_iteration_space(&d, 3, &region).is_none());
        assert!(local_iteration_space(&d, 0, &region).is_some());
    }
}
