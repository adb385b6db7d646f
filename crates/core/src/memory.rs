//! Out-of-core phase: memory allocation among competing arrays (§4.2.1).
//!
//! "Instead of dividing the available memory equally among all arrays, the
//! best performance is obtained when the most frequently accessed array is
//! allocated a larger slab size." Table 2 demonstrates this empirically;
//! this module implements three policies the ablation benches compare:
//!
//! * [`MemoryPolicy::EqualSplit`] — the naive half/half baseline;
//! * [`MemoryPolicy::AccessWeighted`] — closed-form √-weighted split: with
//!   request counts `R_X(m) = K_X / m_X` and `m_A + m_B = M`, total
//!   requests are minimized at `m_X ∝ √K_X`, which allocates more memory
//!   to the more frequently streamed array (the paper's heuristic made
//!   precise);
//! * [`MemoryPolicy::Search`] — exhaustive split search scored by the cost
//!   estimator (the reference optimum).

use serde::{Deserialize, Serialize};

use dmsim::CostModel;

use crate::plan::SlabStrategy;
use crate::stripmine::a_slab_extent;

/// Policy for splitting the node memory budget between A and B slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Equal halves.
    EqualSplit,
    /// √-weighted by streaming frequency.
    AccessWeighted,
    /// Grid search over split fractions, minimizing estimated requests.
    Search,
}

/// Elements one index of A's slab dimension occupies.
fn a_elems_per_index(strategy: SlabStrategy, n: usize, p: usize) -> usize {
    match strategy {
        SlabStrategy::ColumnSlab => n,          // a column of the OCLA
        SlabStrategy::RowSlab => n.div_ceil(p), // a row of the OCLA
    }
}

/// Memory-to-thickness clamp shared by the split policies.
fn clamp_split(strategy: SlabStrategy, n: usize, p: usize, ma: usize, mb: usize) -> (usize, usize) {
    let epi_a = a_elems_per_index(strategy, n, p);
    let epi_b = n.div_ceil(p); // a column of B's OCLA
    let a_extent = a_slab_extent(strategy, n, p);
    ((ma / epi_a).clamp(1, a_extent), (mb / epi_b).clamp(1, n))
}

/// Split `elems` of memory into `(slab_a, slab_b)` thicknesses.
///
/// When the target runs with a slab cache of `cache_budget` bytes, the
/// [`MemoryPolicy::Search`] grid is scored by *replaying* each candidate
/// split through the reuse predictor ([`crate::reuse::gaxpy_cached_totals`])
/// instead of the closed-form request counts — cached executions reward
/// splits the uncached formulas undervalue (e.g. an A slab that fits
/// residently). The other policies ignore the budget. The replay walks the
/// full access sequence per grid point, so a cached search is meant for
/// compile-time use over moderate problem sizes, not inner loops.
pub fn split_gaxpy_budget(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    elems: usize,
    policy: MemoryPolicy,
    model: &CostModel,
    cache_budget: Option<usize>,
) -> (usize, usize) {
    let clamp = |ma: usize, mb: usize| clamp_split(strategy, n, p, ma, mb);
    match policy {
        MemoryPolicy::EqualSplit => clamp(elems / 2, elems / 2),
        MemoryPolicy::AccessWeighted => {
            let (ka, kb) = stream_weights(strategy, n, p, elems);
            let wa = (ka as f64).sqrt();
            let wb = (kb as f64).sqrt();
            let fa = wa / (wa + wb);
            let ma = (elems as f64 * fa) as usize;
            clamp(ma, elems - ma)
        }
        MemoryPolicy::Search => {
            let mut best: Option<(f64, (usize, usize))> = None;
            for pct in (5..=95).step_by(5) {
                let ma = elems * pct / 100;
                let (sa, sb) = clamp(ma, elems - ma);
                let time = match cache_budget {
                    Some(budget) => cached_time_estimate(strategy, n, p, sa, sb, budget, model),
                    None => time_estimate(strategy, n, p, sa, sb, model),
                };
                if best.map(|(t, _)| time < t).unwrap_or(true) {
                    best = Some((time, (sa, sb)));
                }
            }
            best.expect("non-empty search").1
        }
    }
}

/// Modeled I/O time of a cached execution of the canonical plan at this
/// split — the cache-aware search objective (reads and write-backs both
/// priced; hits are free).
fn cached_time_estimate(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    sa: usize,
    sb: usize,
    budget: usize,
    model: &CostModel,
) -> f64 {
    let plan = crate::reuse::canonical_gaxpy_plan(strategy, n, p, sa, sb);
    let t = crate::reuse::gaxpy_cached_totals(&plan, 0, budget);
    let (mut r_req, mut r_el, mut w_req, mut w_el) = (0u64, 0u64, 0u64, 0u64);
    for a in t.per_array.values() {
        r_req += a.read_requests;
        r_el += a.read_elems;
        w_req += a.write_requests;
        w_el += a.write_elems;
    }
    model.io_time(r_req, r_el * 4) + model.io_write_time(w_req, w_el * 4)
}

/// Streaming weights `K_X`: total elements of X moved from disk over the
/// whole computation, as a function of the loop structure. Requests are
/// `K_X / m_X` for slab memory `m_X`.
fn stream_weights(strategy: SlabStrategy, n: usize, p: usize, elems: usize) -> (u64, u64) {
    let lc = n.div_ceil(p) as u64;
    let n64 = n as u64;
    let ocla = n64 * lc;
    match strategy {
        // Column version: A streams once per column of C (N times); B once.
        SlabStrategy::ColumnSlab => (n64 * ocla, ocla),
        // Row version: A itself streams once, but *all of B's traffic* is
        // proportional to A's slab count n/s_a — so in the paper's terms A
        // is the most frequently "acting" array and its slab size carries
        // the weight of B's whole restreamed volume. B's own knob only
        // divides its per-stream request count (k_a streams, seeded from an
        // equal split).
        SlabStrategy::RowSlab => {
            let epi_a = a_elems_per_index(strategy, n, p).max(1) as u64;
            let sa = ((elems as u64 / 2) / epi_a).max(1);
            let ka = n64.div_ceil(sa);
            (n64 * ocla, ka * ocla)
        }
    }
}

/// Read request count as a function of the split (writes do not depend on
/// the A/B split).
fn request_estimate(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> u64 {
    let n64 = n as u64;
    match strategy {
        SlabStrategy::ColumnSlab => {
            let lc = n.div_ceil(p);
            let ka = (lc as u64).div_ceil(sa as u64);
            let kb = n64.div_ceil(sb as u64);
            // A streamed per column of B; B streamed once.
            n64 * ka + kb
        }
        SlabStrategy::RowSlab => {
            let ka = n64.div_ceil(sa as u64);
            let kb = n64.div_ceil(sb as u64);
            // A once; B once per A slab; B fully resident is read once.
            if sb >= n {
                ka + 1
            } else {
                ka + ka * kb
            }
        }
    }
}

/// Read *bytes* as a function of the split.
fn byte_estimate(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> u64 {
    let lc = n.div_ceil(p) as u64;
    let n64 = n as u64;
    let ocla = n64 * lc * 4;
    match strategy {
        // A streamed N times, B once — independent of the split.
        SlabStrategy::ColumnSlab => n64 * ocla + ocla,
        SlabStrategy::RowSlab => {
            let ka = n64.div_ceil(sa as u64);
            let b_streams = if sb >= n { 1 } else { ka };
            ocla + b_streams * ocla
        }
    }
}

/// Modeled read time of the split — the search policy's objective.
fn time_estimate(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    sa: usize,
    sb: usize,
    model: &CostModel,
) -> f64 {
    model.io_time(
        request_estimate(strategy, n, p, sa, sb),
        byte_estimate(strategy, n, p, sa, sb),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 2048;
    const P: usize = 16;

    #[test]
    fn equal_split_halves_memory() {
        let elems = 2 * 256 * 128; // Table 2's 512-column budget (x128 elems)
        let (sa, sb) = split_gaxpy_budget(
            SlabStrategy::RowSlab,
            N,
            P,
            elems,
            MemoryPolicy::EqualSplit,
            &CostModel::delta(P),
            None,
        );
        // epi are both 128 for 2K/16: equal thicknesses.
        assert_eq!(sa, sb);
        assert_eq!(sa, 256);
    }

    #[test]
    fn access_weighted_gives_dominant_array_more() {
        // Column version: A streams N times, B once -> A gets more memory.
        let elems = 1 << 18;
        let (sa, sb) = split_gaxpy_budget(
            SlabStrategy::ColumnSlab,
            N,
            P,
            elems,
            MemoryPolicy::AccessWeighted,
            &CostModel::delta(P),
            None,
        );
        let epi_a = N;
        let epi_b = N / P;
        assert!(
            sa * epi_a > sb * epi_b,
            "A should get more memory: {} vs {}",
            sa * epi_a,
            sb * epi_b
        );
    }

    #[test]
    fn search_beats_or_matches_equal_split() {
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let elems = 1 << 17;
            let (ea, eb) = split_gaxpy_budget(
                strategy,
                N,
                P,
                elems,
                MemoryPolicy::EqualSplit,
                &CostModel::delta(P),
                None,
            );
            let (oa, ob) = split_gaxpy_budget(
                strategy,
                N,
                P,
                elems,
                MemoryPolicy::Search,
                &CostModel::delta(P),
                None,
            );
            let m = CostModel::delta(P);
            assert!(
                time_estimate(strategy, N, P, oa, ob, &m)
                    <= time_estimate(strategy, N, P, ea, eb, &m) + 1e-9,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn thicknesses_stay_in_bounds() {
        for policy in [
            MemoryPolicy::EqualSplit,
            MemoryPolicy::AccessWeighted,
            MemoryPolicy::Search,
        ] {
            for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                for elems in [16usize, 1 << 10, 1 << 24] {
                    let (sa, sb) = split_gaxpy_budget(
                        strategy,
                        64,
                        4,
                        elems,
                        policy,
                        &CostModel::delta(4),
                        None,
                    );
                    assert!(sa >= 1 && sa <= a_slab_extent(strategy, 64, 4));
                    assert!((1..=64).contains(&sb));
                }
            }
        }
    }

    #[test]
    fn only_search_reads_the_cache_budget() {
        let m = CostModel::delta(4);
        for policy in [MemoryPolicy::EqualSplit, MemoryPolicy::AccessWeighted] {
            for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                let plain = split_gaxpy_budget(strategy, 64, 4, 1 << 10, policy, &m, None);
                let cached =
                    split_gaxpy_budget(strategy, 64, 4, 1 << 10, policy, &m, Some(1 << 14));
                assert_eq!(plain, cached, "{policy:?} {strategy:?}");
            }
        }
    }

    #[test]
    fn cache_aware_search_is_no_worse_under_the_cached_objective() {
        // Small problem so the replay-based grid search stays fast.
        let (n, p) = (32, 4);
        let m = CostModel::delta(p);
        let budget = 1 << 14;
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for elems in [256usize, 1 << 11] {
                let (ua, ub) =
                    split_gaxpy_budget(strategy, n, p, elems, MemoryPolicy::Search, &m, None);
                let (ca, cb) = split_gaxpy_budget(
                    strategy,
                    n,
                    p,
                    elems,
                    MemoryPolicy::Search,
                    &m,
                    Some(budget),
                );
                assert!(
                    cached_time_estimate(strategy, n, p, ca, cb, budget, &m)
                        <= cached_time_estimate(strategy, n, p, ua, ub, budget, &m) + 1e-9,
                    "{strategy:?} elems={elems}: cache-aware split ({ca},{cb}) \
                     worse than uncached-scored split ({ua},{ub})"
                );
                assert!(ca >= 1 && cb >= 1);
            }
        }
    }

    #[test]
    fn row_version_weights_favor_a() {
        // The paper's heuristic: A's slab size controls B's restreaming,
        // so A carries the larger weight and gets the larger slab.
        let (ka, kb) = stream_weights(SlabStrategy::RowSlab, N, P, 2 * 256 * 128);
        assert!(ka >= kb, "A weight {ka} must not be below B weight {kb}");
        let (sa, sb) = split_gaxpy_budget(
            SlabStrategy::RowSlab,
            N,
            P,
            1 << 18,
            MemoryPolicy::AccessWeighted,
            &CostModel::delta(P),
            None,
        );
        // epi is equal for both at 2K/16, so thickness compares memory.
        assert!(sa >= sb, "A slab {sa} must not be below B slab {sb}");
    }
}
