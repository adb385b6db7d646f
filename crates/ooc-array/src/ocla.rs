//! Out-of-core local arrays and the per-processor array environment.
//!
//! An [`ArrayDesc`] is the compile-time description of one out-of-core
//! array: global shape, element kind, distribution and on-disk layout. The
//! [`OocEnv`] is the runtime side: it lives on one simulated processor and
//! owns the logical disk plus one Local Array File per array (§2.3's model —
//! a processor can only touch its own LAF).
//!
//! Section reads and writes move data between the LAF and in-core buffers.
//! In-core buffers (ICLAs) are always in *section column-major order*
//! regardless of the file layout, so compute kernels never care how the
//! compiler chose to organize the bytes on disk; the reorder between layout
//! order and section order happens during the copy, as a PASSION-style
//! runtime does.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pario::{ElemKind, IoCharge, IoError, LocalArrayFile, LogicalDisk, NoCharge};

use crate::dist::Distribution;
use crate::layout::FileLayout;

use crate::section::Section;
use crate::shape::Shape;

/// Identifier of an out-of-core array within one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

/// Compile-time description of an out-of-core array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDesc {
    /// Program-unique id.
    pub id: ArrayId,
    /// Source-level name (for diagnostics and reports).
    pub name: String,
    /// Element kind stored in the LAF.
    pub elem: ElemKind,
    /// HPF distribution of the global array.
    pub dist: Distribution,
    /// Linearization of each OCLA inside its LAF — the compiler's storage
    /// reorganization decision.
    pub layout: FileLayout,
}

impl ArrayDesc {
    /// Descriptor with a column-major default layout.
    pub fn new(id: ArrayId, name: impl Into<String>, elem: ElemKind, dist: Distribution) -> Self {
        let ndims = dist.global().ndims();
        ArrayDesc {
            id,
            name: name.into(),
            elem,
            dist,
            layout: FileLayout::column_major(ndims),
        }
    }

    /// Replace the file layout (builder style).
    pub fn with_layout(mut self, layout: FileLayout) -> Self {
        assert_eq!(layout.ndims(), self.dist.global().ndims());
        self.layout = layout;
        self
    }

    /// Global shape.
    pub fn global_shape(&self) -> &Shape {
        self.dist.global()
    }

    /// OCLA shape on `rank`.
    pub fn local_shape(&self, rank: usize) -> Shape {
        self.dist.local_shape(rank)
    }
}

/// Per-processor out-of-core array environment: the logical disk and the
/// local array files living on it.
pub struct OocEnv {
    rank: usize,
    disk: LogicalDisk,
    files: HashMap<ArrayId, LocalArrayFile>,
    sieve: pario::SievePolicy,
}

impl OocEnv {
    /// Environment backed by memory (the default for experiments).
    pub fn in_memory(rank: usize) -> Self {
        OocEnv {
            rank,
            disk: LogicalDisk::in_memory(),
            files: HashMap::new(),
            sieve: pario::SievePolicy::Direct,
        }
    }

    /// Environment backed by real scratch files.
    pub fn on_disk(rank: usize) -> Result<Self, IoError> {
        Ok(OocEnv {
            rank,
            disk: LogicalDisk::on_disk(&format!("rank{rank}"))?,
            files: HashMap::new(),
            sieve: pario::SievePolicy::Direct,
        })
    }

    /// Service strided section reads by data sieving according to `policy`
    /// (PASSION-style: one spanning request, unwanted bytes discarded).
    pub fn set_sieve_policy(&mut self, policy: pario::SievePolicy) {
        self.sieve = policy;
    }

    /// The sieve policy currently in force (so callers can save/restore it
    /// around a method-forced access).
    pub fn sieve_policy(&self) -> pario::SievePolicy {
        self.sieve
    }

    /// Put a slab reuse cache of `budget` bytes in front of this
    /// processor's logical disk. Section reads covered by cached slabs are
    /// free; section writes are buffered until eviction or
    /// [`OocEnv::flush_cache`]. Enable only after uncharged setup
    /// (allocation, `load_global`) so the cache starts cold with the
    /// measured region.
    pub fn enable_cache(&mut self, budget: usize) {
        self.disk.enable_cache(budget);
    }

    /// True when a slab cache is active on the logical disk.
    pub fn cache_enabled(&self) -> bool {
        self.disk.cache_enabled()
    }

    /// Write back all dirty cached slabs, charging the write-backs to
    /// `charge`. Call after each plan so buffered output reaches the LAFs
    /// before anything else reads them uncached.
    pub fn flush_cache(&mut self, charge: &dyn IoCharge) -> Result<(), IoError> {
        self.disk.flush_cache(charge)
    }

    /// Enable deterministic fault injection on this processor's logical
    /// disk. The injector draws from a per-rank stream derived from
    /// `cfg.seed`, so two runs with the same config see the same fault
    /// schedule. A quiet config (all probabilities zero) leaves every
    /// request bit-identical to a fault-free environment.
    pub fn enable_faults(&mut self, cfg: &dmsim::FaultConfig) {
        self.disk.enable_faults(cfg, self.rank);
    }

    /// Like [`OocEnv::enable_faults`] but for workload job `job`: the fate
    /// stream is derived from the (job, rank) pair, so concurrent jobs in a
    /// shared-farm workload keep independent fault schedules. Job 0
    /// reproduces the legacy per-rank streams bit-for-bit.
    pub fn enable_faults_for_job(&mut self, cfg: &dmsim::FaultConfig, job: u32) {
        self.disk.enable_faults_for_job(cfg, job, self.rank);
    }

    /// True once the fault layer has injected enough disk faults to mark
    /// this disk degraded; executors should re-plan slab sizes against
    /// reduced I/O bandwidth.
    pub fn disk_degraded(&self) -> bool {
        self.disk.is_degraded()
    }

    /// Bandwidth derating factor the cost model should apply once
    /// [`OocEnv::disk_degraded`] reports true (1.0 without an injector).
    pub fn degrade_factor(&self) -> f64 {
        self.disk
            .fault_injector()
            .map_or(1.0, |fi| fi.degrade_factor())
    }

    /// This environment's processor rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The underlying logical disk (for stats inspection).
    pub fn disk(&self) -> &LogicalDisk {
        &self.disk
    }

    /// Allocate the LAF for `desc` on this processor. Idempotent per id.
    pub fn alloc(&mut self, desc: &ArrayDesc) -> Result<(), IoError> {
        if self.files.contains_key(&desc.id) {
            return Ok(());
        }
        let len = desc.local_shape(self.rank).len() as u64;
        let laf = LocalArrayFile::create(&mut self.disk, desc.elem, len)?;
        self.files.insert(desc.id, laf);
        Ok(())
    }

    fn laf(&self, id: ArrayId) -> LocalArrayFile {
        *self
            .files
            .get(&id)
            .unwrap_or_else(|| panic!("array {id:?} not allocated on rank {}", self.rank))
    }

    /// Read a section of the OCLA (local index space) into a fresh ICLA
    /// buffer in section column-major order. I/O is charged to `charge`.
    pub fn read_section(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
        charge: &dyn IoCharge,
    ) -> Result<Vec<f32>, IoError> {
        let local_shape = desc.local_shape(self.rank);
        let runs = desc.layout.section_runs(&local_shape, section);
        let laf = self.laf(desc.id);
        charge.io_array(&desc.name, laf.file_id().0);
        self.disk.note_array(laf.file_id(), &desc.name);
        let raw = laf.read_f32_with(&mut self.disk, &runs, charge, self.sieve)?;
        Ok(reorder_layout_to_cm(&desc.layout, section, raw))
    }

    /// Write an ICLA buffer (section column-major order) into a section of
    /// the OCLA. I/O is charged to `charge`.
    pub fn write_section(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
        data: &[f32],
        charge: &dyn IoCharge,
    ) -> Result<(), IoError> {
        assert_eq!(data.len(), section.len(), "ICLA buffer/section mismatch");
        let local_shape = desc.local_shape(self.rank);
        let runs = desc.layout.section_runs(&local_shape, section);
        let raw = reorder_cm_to_layout(&desc.layout, section, data);
        let laf = self.laf(desc.id);
        charge.io_array(&desc.name, laf.file_id().0);
        self.disk.note_array(laf.file_id(), &desc.name);
        laf.write_f32_with(&mut self.disk, &runs, &raw, charge, self.sieve)
    }

    /// Read raw byte runs of `desc`'s LAF, one request per coalesced run,
    /// bypassing the section/reorder machinery. This is the service read of
    /// the two-phase collective path: the runs are the *file-conforming
    /// union* of several pieces, already coalesced by the union planner, so
    /// sieving never applies. Bytes come back concatenated in run order.
    pub fn read_byte_runs(
        &mut self,
        desc: &ArrayDesc,
        runs: &[pario::ByteRun],
        charge: &dyn IoCharge,
    ) -> Result<Vec<u8>, IoError> {
        let laf = self.laf(desc.id);
        charge.io_array(&desc.name, laf.file_id().0);
        self.disk.note_array(laf.file_id(), &desc.name);
        let mut out = Vec::with_capacity(runs.iter().map(|r| r.len as usize).sum());
        self.disk.read_runs(laf.file_id(), runs, &mut out, charge)?;
        Ok(out)
    }

    /// Populate the whole OCLA from a global-index generator function —
    /// model of the initial distribution of data onto the local array files.
    /// Not charged (the paper amortizes this setup).
    pub fn load_global(
        &mut self,
        desc: &ArrayDesc,
        f: &dyn Fn(&[usize]) -> f32,
    ) -> Result<(), IoError> {
        let local_shape = desc.local_shape(self.rank);
        let ndims = local_shape.ndims();
        let total = local_shape.len();
        // Precompute per-dimension local -> global maps so the fill loop is
        // allocation-free (this runs once per element of every array).
        let coords = desc.dist.grid().coords(self.rank);
        let maps: Vec<Vec<usize>> = (0..ndims)
            .map(|d| {
                let coord = match desc.dist.dims()[d] {
                    crate::dist::DimDist::Collapsed => 0,
                    crate::dist::DimDist::Distributed { axis, .. } => coords[axis],
                };
                (0..local_shape.extent(d))
                    .map(|l| desc.dist.global_index(d, coord, l))
                    .collect()
            })
            .collect();
        let order = desc.layout.order().to_vec();
        let mut idx = vec![0usize; ndims];
        let mut g = vec![0usize; ndims];
        let mut buf = Vec::with_capacity(total);
        for _ in 0..total {
            for d in 0..ndims {
                g[d] = maps[d][idx[d]];
            }
            buf.push(f(&g));
            for &d in &order {
                idx[d] += 1;
                if idx[d] < local_shape.extent(d) {
                    break;
                }
                idx[d] = 0;
            }
        }
        let laf = self.laf(desc.id);
        laf.write_all_f32(&mut self.disk, &buf, &NoCharge)
    }

    /// Read the whole OCLA in *local column-major* order (for verification;
    /// not charged).
    pub fn read_local_all(&mut self, desc: &ArrayDesc) -> Result<Vec<f32>, IoError> {
        let local_shape = desc.local_shape(self.rank);
        self.read_section_uncharged(desc, &Section::full(&local_shape))
    }

    /// Read a section without charging (setup/verification).
    pub fn read_section_uncharged(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
    ) -> Result<Vec<f32>, IoError> {
        self.read_section(desc, section, &NoCharge)
    }
}

/// Reorder a buffer delivered in `layout` order of `section` into section
/// column-major order.
pub(crate) fn reorder_layout_to_cm(
    layout: &FileLayout,
    section: &Section,
    raw: Vec<f32>,
) -> Vec<f32> {
    if layout_is_cm(layout) {
        return raw;
    }
    let mut out = vec![0.0f32; raw.len()];
    for (k, cm) in LayoutCmMap::new(layout, section).enumerate() {
        out[cm] = raw[k];
    }
    out
}

/// Reorder a section-column-major buffer into `layout` order for writing.
/// Borrows the input unchanged when the layout already is column-major.
pub(crate) fn reorder_cm_to_layout<'a>(
    layout: &FileLayout,
    section: &Section,
    data: &'a [f32],
) -> std::borrow::Cow<'a, [f32]> {
    if layout_is_cm(layout) {
        return std::borrow::Cow::Borrowed(data);
    }
    let mut out = vec![0.0f32; data.len()];
    for (k, cm) in LayoutCmMap::new(layout, section).enumerate() {
        out[k] = data[cm];
    }
    std::borrow::Cow::Owned(out)
}

fn layout_is_cm(layout: &FileLayout) -> bool {
    layout.order().iter().enumerate().all(|(i, &d)| i == d)
}

/// Iterator yielding, for each position `k` in layout order, the position of
/// the same element in section column-major order. Allocation-free
/// odometer.
struct LayoutCmMap {
    counts: Vec<usize>,     // per layout position
    cm_strides: Vec<usize>, // per layout position (stride in CM of that dim)
    odo: Vec<usize>,
    cm_pos: usize,
    remaining: usize,
    first: bool,
}

impl LayoutCmMap {
    fn new(layout: &FileLayout, section: &Section) -> Self {
        let sec_shape = section.shape();
        let sec_strides = sec_shape.strides();
        let counts: Vec<usize> = layout
            .order()
            .iter()
            .map(|&d| section.range(d).len())
            .collect();
        let cm_strides: Vec<usize> = layout.order().iter().map(|&d| sec_strides[d]).collect();
        let remaining = counts.iter().product();
        LayoutCmMap {
            odo: vec![0; counts.len()],
            counts,
            cm_strides,
            cm_pos: 0,
            remaining,
            first: true,
        }
    }
}

impl Iterator for LayoutCmMap {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        if self.first {
            self.first = false;
            self.remaining -= 1;
            return Some(self.cm_pos);
        }
        for pos in 0..self.counts.len() {
            self.odo[pos] += 1;
            self.cm_pos += self.cm_strides[pos];
            if self.odo[pos] < self.counts[pos] {
                self.remaining -= 1;
                return Some(self.cm_pos);
            }
            self.cm_pos -= self.counts[pos] * self.cm_strides[pos];
            self.odo[pos] = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::section::DimRange;

    fn desc_col_block(n: usize, p: usize, layout: FileLayout) -> ArrayDesc {
        ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(n, n), p),
        )
        .with_layout(layout)
    }

    #[test]
    fn load_and_read_back_cm_layout() {
        let desc = desc_col_block(8, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(1);
        env.alloc(&desc).unwrap();
        // Global value = 100*row + col.
        env.load_global(&desc, &|g| (100 * g[0] + g[1]) as f32)
            .unwrap();
        // Rank 1 owns columns 4..8. Read local column 1 (global col 5).
        let s = Section::new(vec![DimRange::full(8), DimRange::single(1)]);
        let col = env.read_section_uncharged(&desc, &s).unwrap();
        let expect: Vec<f32> = (0..8).map(|r| (100 * r + 5) as f32).collect();
        assert_eq!(col, expect);
    }

    #[test]
    fn icla_order_is_layout_independent() {
        // The same section must come back identical under any file layout.
        for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
            let desc = desc_col_block(6, 3, layout);
            let mut env = OocEnv::in_memory(2);
            env.alloc(&desc).unwrap();
            env.load_global(&desc, &|g| (10 * g[0] + g[1]) as f32)
                .unwrap();
            let s = Section::new(vec![DimRange::new(1, 4), DimRange::new(0, 2)]);
            let buf = env.read_section_uncharged(&desc, &s).unwrap();
            // Section CM order: rows fastest. Rank 2 owns global cols 4..6.
            let expect: Vec<f32> = vec![
                (10 + 4) as f32,
                (10 * 2 + 4) as f32,
                (10 * 3 + 4) as f32,
                (10 + 5) as f32,
                (10 * 2 + 5) as f32,
                (10 * 3 + 5) as f32,
            ];
            assert_eq!(buf, expect, "layout changed ICLA contents");
        }
    }

    #[test]
    fn write_then_read_roundtrip_any_layout() {
        for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
            let desc = desc_col_block(8, 2, layout);
            let mut env = OocEnv::in_memory(0);
            env.alloc(&desc).unwrap();
            let s = Section::new(vec![DimRange::new(2, 5), DimRange::new(1, 4)]);
            let data: Vec<f32> = (0..s.len()).map(|i| i as f32 * 1.5).collect();
            env.write_section(&desc, &s, &data, &NoCharge).unwrap();
            let back = env.read_section_uncharged(&desc, &s).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn io_request_counts_depend_on_layout() {
        let n = 16;
        let row_slab = Section::new(vec![DimRange::new(0, 2), DimRange::full(n)]);
        // Column-major file: a row slab is n strided runs.
        let cm = desc_col_block(n, 1, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&cm).unwrap();
        let _ = env.read_section_uncharged(&cm, &row_slab).unwrap();
        assert_eq!(env.disk().stats().read_requests, n as u64);
        // Row-major file: one run.
        let rm = desc_col_block(n, 1, FileLayout::row_major(2));
        let mut env2 = OocEnv::in_memory(0);
        env2.alloc(&rm).unwrap();
        let _ = env2.read_section_uncharged(&rm, &row_slab).unwrap();
        assert_eq!(env2.disk().stats().read_requests, 1);
    }

    #[test]
    fn sieving_trades_requests_for_bytes() {
        let n = 16;
        // Row slab of a column-major file: n strided runs of 2 elements.
        let row_slab = Section::new(vec![DimRange::new(4, 6), DimRange::full(n)]);
        let desc = desc_col_block(n, 1, FileLayout::column_major(2));

        let mut direct = OocEnv::in_memory(0);
        direct.alloc(&desc).unwrap();
        direct
            .load_global(&desc, &|g| (g[0] * 100 + g[1]) as f32)
            .unwrap();
        let want = direct.read_section_uncharged(&desc, &row_slab).unwrap();
        let direct_stats = direct.disk().stats();

        let mut sieved = OocEnv::in_memory(0);
        sieved.alloc(&desc).unwrap();
        sieved
            .load_global(&desc, &|g| (g[0] * 100 + g[1]) as f32)
            .unwrap();
        sieved.set_sieve_policy(pario::SievePolicy::Always);
        let got = sieved.read_section_uncharged(&desc, &row_slab).unwrap();
        let sieved_stats = sieved.disk().stats();

        assert_eq!(got, want, "sieving must not change the data");
        assert_eq!(direct_stats.read_requests, n as u64);
        assert_eq!(sieved_stats.read_requests, 1);
        assert!(sieved_stats.bytes_read > direct_stats.bytes_read);
    }

    #[test]
    fn cached_reads_hit_and_writes_buffer() {
        let desc = desc_col_block(8, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&desc).unwrap();
        env.load_global(&desc, &|g| (g[0] * 10 + g[1]) as f32)
            .unwrap();
        env.enable_cache(1 << 16);
        assert!(env.cache_enabled());
        let s = Section::new(vec![DimRange::full(8), DimRange::new(0, 2)]);
        let first = env.read_section_uncharged(&desc, &s).unwrap();
        let base = env.disk().stats();
        let second = env.read_section_uncharged(&desc, &s).unwrap();
        assert_eq!(first, second, "cache must not change section contents");
        let after = env.disk().stats();
        assert_eq!(after.read_requests, base.read_requests, "repeat read hits");
        assert_eq!(after.cache_hits, base.cache_hits + 1);
        // Writes buffer until flushed and stay visible to reads meanwhile.
        // (`load_global` already issued one uncached setup write.)
        let writes_before = env.disk().stats().write_requests;
        let data: Vec<f32> = (0..s.len()).map(|i| i as f32).collect();
        env.write_section(&desc, &s, &data, &NoCharge).unwrap();
        assert_eq!(env.disk().stats().write_requests, writes_before);
        let back = env.read_section_uncharged(&desc, &s).unwrap();
        assert_eq!(back, data);
        env.flush_cache(&NoCharge).unwrap();
        assert_eq!(env.disk().stats().write_requests, writes_before + 1);
        assert_eq!(env.disk().stats().write_back_requests, 1);
    }

    #[test]
    fn alloc_is_idempotent() {
        let desc = desc_col_block(4, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&desc).unwrap();
        env.alloc(&desc).unwrap();
        assert_eq!(env.rank(), 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unallocated_array_panics() {
        let desc = desc_col_block(4, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        let _ = env.read_local_all(&desc);
    }
}
