//! I/O cost estimation (§4.1).
//!
//! The estimator evaluates a symbolic node program ([`crate::ir::NestNode`])
//! into the paper's two I/O metrics — requests per processor and data per
//! processor — plus communication and compute totals, and converts them to
//! simulated seconds under a [`dmsim::CostModel`]. Because the executor
//! charges the very same quantities through the same model, unit tests can
//! assert estimator == measurement exactly.

use serde::{Deserialize, Serialize};

use dmsim::CostModel;

use crate::ir::{totals, ArrayIoTotals, NestNode, NestTotals};

/// Per-array I/O estimate (re-export of the nest totals entry).
pub type IoEstimate = ArrayIoTotals;

/// A fully evaluated cost estimate for one candidate translation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Raw counters from the loop-nest walk.
    pub totals: NestTotals,
    /// Element size used to convert elements to bytes.
    pub elem_size: usize,
    /// Modeled seconds of disk I/O.
    pub io_time: f64,
    /// Modeled seconds of communication.
    pub comm_time: f64,
    /// Modeled seconds of computation.
    pub compute_time: f64,
}

impl CostEstimate {
    /// Evaluate a nest under a cost model. Reads and writes are priced
    /// separately (writes are buffered by the I/O nodes).
    pub fn from_nest(nest: &[NestNode], model: &CostModel, elem_size: usize) -> Self {
        Self::from_totals(totals(nest), model, elem_size)
    }

    /// Price already-computed totals — the entry point for reuse-aware
    /// estimation, where the totals come from a cache replay
    /// ([`crate::reuse::gaxpy_cached_totals`]) rather than a nest walk.
    pub fn from_totals(t: NestTotals, model: &CostModel, elem_size: usize) -> Self {
        let (mut r_req, mut r_el, mut w_req, mut w_el) = (0u64, 0u64, 0u64, 0u64);
        for a in t.per_array.values() {
            r_req += a.read_requests;
            r_el += a.read_elems;
            w_req += a.write_requests;
            w_el += a.write_elems;
        }
        let io_time = model.io_time(r_req, r_el * elem_size as u64)
            + model.io_write_time(w_req, w_el * elem_size as u64);
        let comm_time =
            t.comm_messages as f64 * model.msg_latency + t.comm_bytes as f64 / model.msg_bandwidth;
        let compute_time = model.compute_time(t.flops);
        CostEstimate {
            totals: t,
            elem_size,
            io_time,
            comm_time,
            compute_time,
        }
    }

    /// Total modeled seconds (the selection criterion; I/O dominates on the
    /// Delta profile, so the ranking matches the paper's I/O-cost ranking).
    pub fn time(&self) -> f64 {
        self.io_time + self.comm_time + self.compute_time
    }

    /// Total I/O requests per processor — the paper's first metric.
    pub fn io_requests(&self) -> u64 {
        self.totals.io_requests()
    }

    /// Total I/O bytes per processor — the paper's second metric.
    pub fn io_bytes(&self) -> u64 {
        self.totals.io_elems() * self.elem_size as u64
    }

    /// `T_fetch` for one array (equations 3/5).
    pub fn fetches_of(&self, array: &str) -> u64 {
        self.totals
            .per_array
            .get(array)
            .map(|a| a.read_requests)
            .unwrap_or(0)
    }

    /// `T_data` in elements for one array (equations 4/6).
    pub fn data_of(&self, array: &str) -> u64 {
        self.totals
            .per_array
            .get(array)
            .map(|a| a.read_elems)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::NestNode;

    fn nest() -> Vec<NestNode> {
        vec![
            NestNode::loop_(
                "outer",
                10,
                vec![
                    NestNode::read("a", 1, 1000),
                    NestNode::Compute {
                        label: "k".into(),
                        flops: 2000,
                    },
                ],
            ),
            NestNode::Comm {
                label: "sum".into(),
                messages: 4,
                bytes: 4096,
            },
        ]
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let model = CostModel::delta(4);
        let est = CostEstimate::from_nest(&nest(), &model, 4);
        assert_eq!(est.io_requests(), 10);
        assert_eq!(est.io_bytes(), 10 * 1000 * 4);
        assert_eq!(est.fetches_of("a"), 10);
        assert_eq!(est.data_of("a"), 10_000);
        let expect_io = model.io_time(10, 40_000);
        assert!((est.io_time - expect_io).abs() < 1e-12);
        let expect_comm = 4.0 * model.msg_latency + 4096.0 / model.msg_bandwidth;
        assert!((est.comm_time - expect_comm).abs() < 1e-12);
        let expect_comp = model.compute_time(20_000);
        assert!((est.compute_time - expect_comp).abs() < 1e-12);
        assert!((est.time() - (expect_io + expect_comm + expect_comp)).abs() < 1e-12);
    }

    #[test]
    fn free_model_zeroes_time_but_keeps_metrics() {
        let est = CostEstimate::from_nest(&nest(), &CostModel::free(4), 4);
        assert_eq!(est.time(), 0.0);
        assert_eq!(est.io_requests(), 10);
    }

    #[test]
    fn unknown_array_has_zero_cost() {
        let est = CostEstimate::from_nest(&nest(), &CostModel::delta(4), 4);
        assert_eq!(est.fetches_of("zzz"), 0);
    }

    #[test]
    fn contended_estimate_degrades_io_only() {
        let model = CostModel::delta(4);
        let base = CostEstimate::from_nest(&nest(), &model, 4);
        let priced = |jobs| {
            CostEstimate::from_nest(
                &nest(),
                &model.contended(&dmsim::BackgroundLoad::jobs(jobs)),
                4,
            )
        };
        assert_eq!(priced(0), base, "zero competitors is bit-identical");
        let busy = priced(3);
        assert!(busy.io_time > base.io_time, "contention slows the farm");
        assert_eq!(busy.comm_time, base.comm_time);
        assert_eq!(busy.compute_time, base.compute_time);
        assert_eq!(
            busy.io_requests(),
            base.io_requests(),
            "metrics are load-blind"
        );
    }
}
