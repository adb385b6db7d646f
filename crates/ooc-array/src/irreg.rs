//! Inspector–executor for irregular (indirection-array) accesses.
//!
//! Affine accesses let the compiler enumerate every rank's file regions
//! statically; an `A(idx(i))`-style gather cannot — the regions depend on
//! runtime data. The classic answer (and the original motivation for
//! two-phase collective I/O) is the inspector–executor split: the
//! **inspector** reads the indirection array once, bins every target by its
//! owning rank, exchanges the per-owner want-lists, and coalesces each
//! owner's serve-list into [`ByteRun`]s; the resulting [`IrregSchedule`] is
//! reusable across iterations, so its cost amortizes. The **executor**
//! ([`gather_with`]) then drives the schedule through any of the three
//! access methods — direct piece-wise reads, data sieving, or a two-phase
//! union read + all-to-all — and [`irreg_counts`] replays each
//! schedule's request arithmetic exactly, so estimate == measured holds for
//! the inspected schedule just as it does for the affine paths.

use dmsim::{Payload, ProcCtx, Tag};
use ooc_trace::{fnv1a64, FNV_OFFSET};
use pario::{plan_union, ByteRun, IoCharge, IoMethod};
use serde::{Deserialize, Serialize};

use crate::error::OocError;
use crate::localize::global_to_local;
use crate::ocla::{ArrayDesc, OocEnv};
use crate::section::Section;

/// Tag used by the executor's point-to-point gather messages.
const IRREG_TAG: Tag = Tag(0x16A7);

/// What an [`IrregSchedule`] was inspected against. A cached schedule is
/// only valid while every ingredient the inspector consumed is unchanged:
/// the data array's descriptor (distribution *and* file layout — either
/// moves bytes), the indirection array's descriptor, the processor count,
/// and the indirection contents themselves (fingerprinted per rank).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStamp {
    /// Descriptor of the gathered (data) array.
    pub data: ArrayDesc,
    /// Descriptor of the indirection array.
    pub index: ArrayDesc,
    /// Rank the schedule was inspected on.
    pub rank: usize,
    /// Processor count of the inspecting machine.
    pub nprocs: usize,
    /// FNV-1a fingerprint of this rank's local indirection values.
    pub index_hash: u64,
}

/// The cached product of one inspection on one rank: where every gathered
/// element lives, which peers serve it, and the coalesced byte runs this
/// rank must service for each peer. Reused across iterations while
/// [`IrregSchedule::is_valid_for`] holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrregSchedule {
    /// Validity stamp — see [`ScheduleStamp`].
    pub stamp: ScheduleStamp,
    /// Gather output length: this rank's local indirection entries.
    pub nout: usize,
    /// Per output element: `(owner peer, slot in that peer's payload)`.
    pub out_slot: Vec<(u32, u32)>,
    /// Per peer `j`: distinct element offsets (ascending) this rank wants
    /// from `j`'s local data file. Payloads arrive in exactly this order.
    pub want: Vec<Vec<u64>>,
    /// Per peer `j`: distinct element offsets (ascending) of *this* rank's
    /// local data file that `j` wants — the pack order of outgoing payloads.
    pub serve_elems: Vec<Vec<u64>>,
    /// Per peer `j`: the coalesced byte runs covering `serve_elems[j]`.
    pub serve_runs: Vec<Vec<ByteRun>>,
}

impl IrregSchedule {
    /// True while this schedule may be reused without re-inspection:
    /// descriptors and machine shape unchanged. The indirection *contents*
    /// are only fingerprinted — callers that rewrite the indirection array
    /// must re-run [`inspect`] (or compare hashes themselves).
    pub fn is_valid_for(
        &self,
        data: &ArrayDesc,
        index: &ArrayDesc,
        rank: usize,
        nprocs: usize,
    ) -> bool {
        self.stamp.data == *data
            && self.stamp.index == *index
            && self.stamp.rank == rank
            && self.stamp.nprocs == nprocs
    }

    /// Run-length statistics of the inspected index set, as one flat u64
    /// vector so ranks can allreduce them into identical global statistics
    /// (the runtime method selector must make the same choice everywhere).
    /// Layout: see [`crate::irreg::IrregStats`] field order.
    pub fn stats(&self) -> IrregStats {
        let me = self.stamp.rank;
        let es = self.stamp.data.elem.size() as u64;
        let mut s = IrregStats {
            nprocs: self.stamp.nprocs as u64,
            index_elems: self.nout as u64,
            index_requests: if self.nout > 0 { 1 } else { 0 },
            gather_elems: self.nout as u64,
            ..IrregStats::default()
        };
        for (j, elems) in self.serve_elems.iter().enumerate() {
            if elems.is_empty() {
                continue;
            }
            s.serve_elems += elems.len() as u64;
            s.serve_runs += self.serve_runs[j].len() as u64;
            s.peers_with_data += 1;
            let lo = self.serve_runs[j].first().expect("non-empty runs").offset;
            let hi = self.serve_runs[j].last().expect("non-empty runs").end();
            s.span_bytes += hi - lo;
            if j != me {
                s.remote_served_elems += elems.len() as u64;
            }
        }
        for (j, w) in self.want.iter().enumerate() {
            if j != me {
                s.remote_want_elems += w.len() as u64;
            }
        }
        let union = plan_union(&self.serve_runs);
        s.union_runs = union.requests();
        s.union_bytes = union.bytes();
        s.elem_size = es;
        s
    }
}

/// Sufficient statistics of an inspected index set: everything the cost
/// model needs to price the inspector and all three executor methods.
/// All fields are u64 so a set of per-rank stats can be summed with one
/// `allreduce` into machine-global statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IrregStats {
    /// Processor count (take `max` when merging, not sum).
    pub nprocs: u64,
    /// Element size of the data array in bytes (merge: max).
    pub elem_size: u64,
    /// Indirection entries the inspector reads on this rank.
    pub index_elems: u64,
    /// Requests that indirection read issues.
    pub index_requests: u64,
    /// Gathered output elements (== `index_elems`: one per entry).
    pub gather_elems: u64,
    /// Distinct local data elements this rank serves, over all peers.
    pub serve_elems: u64,
    /// Coalesced serve runs over all peers — the direct read request count.
    pub serve_runs: u64,
    /// Peers (self included) with a non-empty serve list — the sieved
    /// request count, one spanning read per peer.
    pub peers_with_data: u64,
    /// Total bytes of those per-peer sieve spans.
    pub span_bytes: u64,
    /// Runs in the union of every peer's serve runs — the two-phase
    /// request count.
    pub union_runs: u64,
    /// Bytes the union read moves.
    pub union_bytes: u64,
    /// Distinct elements this rank sends to *other* ranks (direct/sieved
    /// message payload; two-phase moves the same bytes via all-to-all).
    pub remote_served_elems: u64,
    /// Distinct elements this rank requests from other ranks (the
    /// inspector's want-list exchange payload, 8 bytes each).
    pub remote_want_elems: u64,
}

impl IrregStats {
    /// Merge another rank's stats into machine-global totals.
    pub fn merge(&mut self, other: &IrregStats) {
        self.nprocs = self.nprocs.max(other.nprocs);
        self.elem_size = self.elem_size.max(other.elem_size);
        self.index_elems += other.index_elems;
        self.index_requests += other.index_requests;
        self.gather_elems += other.gather_elems;
        self.serve_elems += other.serve_elems;
        self.serve_runs += other.serve_runs;
        self.peers_with_data += other.peers_with_data;
        self.span_bytes += other.span_bytes;
        self.union_runs += other.union_runs;
        self.union_bytes += other.union_bytes;
        self.remote_served_elems += other.remote_served_elems;
        self.remote_want_elems += other.remote_want_elems;
    }

    /// Flatten for an `allreduce` (field order is the struct order).
    pub fn to_vec(&self) -> Vec<u64> {
        vec![
            self.nprocs,
            self.elem_size,
            self.index_elems,
            self.index_requests,
            self.gather_elems,
            self.serve_elems,
            self.serve_runs,
            self.peers_with_data,
            self.span_bytes,
            self.union_runs,
            self.union_bytes,
            self.remote_served_elems,
            self.remote_want_elems,
        ]
    }

    /// Inverse of [`Self::to_vec`]. `nprocs`/`elem_size` arrive summed from
    /// an allreduce; divide by the rank count before calling, or pass the
    /// true values back in afterwards.
    pub fn from_vec(v: &[u64]) -> IrregStats {
        IrregStats {
            nprocs: v[0],
            elem_size: v[1],
            index_elems: v[2],
            index_requests: v[3],
            gather_elems: v[4],
            serve_elems: v[5],
            serve_runs: v[6],
            peers_with_data: v[7],
            span_bytes: v[8],
            union_runs: v[9],
            union_bytes: v[10],
            remote_served_elems: v[11],
            remote_want_elems: v[12],
        }
    }
}

/// Run the inspector: read this rank's slice of the indirection array once
/// (charged), bin each target by its owning rank, exchange the per-owner
/// want-lists (one u64 all-to-all), and coalesce every incoming want-list
/// into the byte runs this rank will service. Collective — every rank must
/// call it with the same descriptors.
///
/// Both arrays must be one-dimensional (the paper's `A(idx(i))` shape);
/// indirection values are global element indices stored as `f32` and must
/// lie in `[0, n)`.
pub fn inspect(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    data: &ArrayDesc,
    index: &ArrayDesc,
    charge: &dyn IoCharge,
) -> Result<IrregSchedule, OocError> {
    assert_eq!(data.global_shape().ndims(), 1, "inspect: 1-D data arrays");
    assert_eq!(index.global_shape().ndims(), 1, "inspect: 1-D index arrays");
    let me = ctx.rank();
    let p = ctx.nprocs();
    assert_eq!(data.dist.nprocs(), p, "inspect: machine/distribution shape");
    let _span = ctx.trace_span(ooc_trace::Category::Inspector, "inspect");

    // Read the local indirection slice once — the whole point of caching
    // the schedule is never paying this again while it stays valid.
    let local_shape = index.local_shape(me);
    let vals = if local_shape.is_empty() {
        Vec::new()
    } else {
        env.read_section(index, &Section::full(&local_shape), charge)?
    };
    let n = data.global_shape().extent(0);
    let index_hash = vals
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a64(h, &(*v as u64).to_le_bytes()));

    // Bin every target by owner; collapse duplicates to one wire slot.
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut targets = Vec::with_capacity(vals.len());
    for v in &vals {
        let g = *v as usize;
        assert!(g < n, "indirection value {g} out of range 0..{n}");
        let (owner, local) = global_to_local(&data.dist, &[g]);
        targets.push((owner as u32, local[0] as u64));
        want[owner].push(local[0] as u64);
    }
    for w in &mut want {
        w.sort_unstable();
        w.dedup();
    }
    let out_slot = targets
        .iter()
        .map(|&(owner, off)| {
            let slot = want[owner as usize]
                .binary_search(&off)
                .expect("dedup kept every wanted offset");
            (owner, slot as u32)
        })
        .collect();

    // Tell every owner what we want from it; learn what we must serve.
    let serve_elems = ctx.try_alltoallv::<u64>(want.clone())?;
    let es = data.elem.size() as u64;
    let serve_runs = serve_elems
        .iter()
        .map(|elems| {
            let unit: Vec<ByteRun> = elems
                .iter()
                .map(|&off| ByteRun::new(off * es, es))
                .collect();
            pario::coalesce_runs(&unit)
        })
        .collect();

    Ok(IrregSchedule {
        stamp: ScheduleStamp {
            data: data.clone(),
            index: index.clone(),
            rank: me,
            nprocs: p,
            index_hash,
        },
        nout: vals.len(),
        out_slot,
        want,
        serve_elems,
        serve_runs,
    })
}

/// Execute a cached schedule: gather `data[idx[i]]` for every local
/// indirection entry, returning the values in entry order. Collective —
/// every rank drives its own schedule with the same `method`.
///
/// * `Direct` — one read per coalesced serve run, one message per peer
///   with data.
/// * `Sieved` — one spanning read per peer with data (trading bytes for
///   requests), same messages as direct.
/// * `TwoPhase` — one coalesced union read covering every peer's serve
///   list, then an all-to-all exchange.
///
/// All three produce identical outputs; they differ only in the request and
/// message schedule, which [`irreg_counts`] replays exactly.
pub fn gather_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    sched: &IrregSchedule,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<Vec<f32>, OocError> {
    let me = ctx.rank();
    let p = ctx.nprocs();
    assert!(
        sched.is_valid_for(&sched.stamp.data, &sched.stamp.index, me, p),
        "gather_with: schedule inspected on a different rank or machine"
    );
    let data = &sched.stamp.data;
    let _m = ctx.trace_io_method(method.label());
    let _span = ctx.trace_span(ooc_trace::Category::Gather, "gather");

    // Serve phase: read what each peer wants and ship it (keep our own).
    let mut local_part: Vec<f32> = Vec::new();
    match method {
        IoMethod::Direct | IoMethod::Sieved => {
            for (j, runs) in sched.serve_runs.iter().enumerate() {
                if runs.is_empty() {
                    continue;
                }
                let bytes = match method {
                    // One request per coalesced run, exact bytes.
                    IoMethod::Direct => env.read_byte_runs(data, runs, charge)?,
                    // One spanning request, unwanted bytes discarded here.
                    IoMethod::Sieved => {
                        let lo = runs.first().expect("non-empty").offset;
                        let hi = runs.last().expect("non-empty").end();
                        let span =
                            env.read_byte_runs(data, &[ByteRun::new(lo, hi - lo)], charge)?;
                        let mut picked =
                            Vec::with_capacity(runs.iter().map(|r| r.len as usize).sum());
                        for r in runs {
                            let s = (r.offset - lo) as usize;
                            picked.extend_from_slice(&span[s..s + r.len as usize]);
                        }
                        picked
                    }
                    IoMethod::TwoPhase => unreachable!(),
                };
                let vals = pario::bytes_to_f32(&bytes)?;
                if j == me {
                    local_part = vals;
                } else {
                    ctx.send(j, IRREG_TAG, Payload::F32(vals));
                }
            }
        }
        IoMethod::TwoPhase => {
            let plan = plan_union(&sched.serve_runs);
            let union_buf = if plan.buffer_len() > 0 {
                env.read_byte_runs(data, &plan.union, charge)?
            } else {
                Vec::new()
            };
            let mut sends: Vec<Vec<f32>> = Vec::with_capacity(p);
            for j in 0..p {
                if sched.serve_runs[j].is_empty() {
                    sends.push(Vec::new());
                } else {
                    sends.push(pario::bytes_to_f32(&plan.carve(j, &union_buf))?);
                }
            }
            let mut received = {
                let _x = ctx.trace_span(ooc_trace::Category::Exchange, "exchange");
                ctx.try_alltoallv::<f32>(sends)?
            };
            // Receive-side assembly happens below from `got`; stash every
            // peer's payload now (the all-to-all already delivered them).
            let mut got: Vec<Vec<f32>> = Vec::with_capacity(p);
            for (j, payload) in received.iter_mut().enumerate() {
                assert_eq!(
                    payload.len(),
                    sched.want[j].len(),
                    "two-phase gather payload size from peer {j}"
                );
                got.push(std::mem::take(payload));
            }
            return Ok(assemble(sched, got));
        }
    }

    // Receive phase (direct/sieved): one message per peer we want from.
    let mut got: Vec<Vec<f32>> = vec![Vec::new(); p];
    got[me] = local_part;
    for (j, slot) in got.iter_mut().enumerate() {
        if j == me || sched.want[j].is_empty() {
            continue;
        }
        let vals = ctx.try_recv_f32(j, IRREG_TAG)?;
        assert_eq!(vals.len(), sched.want[j].len(), "gather payload size");
        *slot = vals;
    }
    Ok(assemble(sched, got))
}

/// Place every received slot at its output positions (entry order).
fn assemble(sched: &IrregSchedule, got: Vec<Vec<f32>>) -> Vec<f32> {
    sched
        .out_slot
        .iter()
        .map(|&(peer, slot)| got[peer as usize][slot as usize])
        .collect()
}

/// Predicted I/O and message traffic of one executor invocation on this
/// schedule's rank — an exact replay of [`gather_with`]'s request
/// arithmetic (same runs, same union planner, same span arithmetic), so
/// estimate == measurement holds by construction for every method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrregCounts {
    /// Disk read requests issued against the data array on this rank.
    pub read_requests: u64,
    /// Bytes those reads move (sieved spans count whole).
    pub read_bytes: u64,
    /// Messages this rank sends.
    pub messages: u64,
    /// Payload bytes this rank sends.
    pub msg_bytes: u64,
}

/// Replay the request schedule of `gather_with(.., method, ..)` without
/// touching any data.
pub fn irreg_counts(sched: &IrregSchedule, method: IoMethod) -> IrregCounts {
    let me = sched.stamp.rank;
    let es = sched.stamp.data.elem.size() as u64;
    let mut c = IrregCounts::default();
    match method {
        IoMethod::Direct => {
            for (j, runs) in sched.serve_runs.iter().enumerate() {
                if runs.is_empty() {
                    continue;
                }
                c.read_requests += runs.len() as u64;
                c.read_bytes += runs.iter().map(|r| r.len).sum::<u64>();
                if j != me {
                    c.messages += 1;
                    c.msg_bytes += sched.serve_elems[j].len() as u64 * es;
                }
            }
        }
        IoMethod::Sieved => {
            for (j, runs) in sched.serve_runs.iter().enumerate() {
                if runs.is_empty() {
                    continue;
                }
                let lo = runs.first().expect("non-empty").offset;
                let hi = runs.last().expect("non-empty").end();
                c.read_requests += 1;
                c.read_bytes += hi - lo;
                if j != me {
                    c.messages += 1;
                    c.msg_bytes += sched.serve_elems[j].len() as u64 * es;
                }
            }
        }
        IoMethod::TwoPhase => {
            let plan = plan_union(&sched.serve_runs);
            c.read_requests = plan.requests();
            c.read_bytes = plan.bytes();
            // alltoallv posts to every peer, empty pieces included.
            c.messages = sched.stamp.nprocs.saturating_sub(1) as u64;
            for (j, elems) in sched.serve_elems.iter().enumerate() {
                if j != me {
                    c.msg_bytes += elems.len() as u64 * es;
                }
            }
        }
    }
    c
}

/// Replay the inspector's own request schedule for this rank: the one
/// charged indirection read plus the want-list all-to-all.
pub fn inspect_counts(sched: &IrregSchedule) -> IrregCounts {
    let me = sched.stamp.rank;
    let es = sched.stamp.index.elem.size() as u64;
    let mut c = IrregCounts::default();
    if sched.nout > 0 {
        let local = sched.stamp.index.local_shape(me);
        c.read_requests = sched
            .stamp
            .index
            .layout
            .count_section_runs(&local, &Section::full(&local));
        c.read_bytes = sched.nout as u64 * es;
    }
    c.messages = sched.stamp.nprocs.saturating_sub(1) as u64;
    for (j, w) in sched.want.iter().enumerate() {
        if j != me {
            c.msg_bytes += w.len() as u64 * 8;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DimDist, DistKind, Distribution, ProcGrid};
    use crate::ocla::ArrayId;
    use crate::shape::Shape;
    use dmsim::{Machine, MachineConfig};
    use pario::{ElemKind, NoCharge};

    fn vec_dist(n: usize, p: usize) -> Distribution {
        Distribution::new(
            Shape::new(vec![n]),
            vec![DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            }],
            ProcGrid::line(p),
        )
    }

    fn descs(n: usize, nidx: usize, p: usize) -> (ArrayDesc, ArrayDesc) {
        let x = ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, vec_dist(n, p));
        let idx = ArrayDesc::new(ArrayId(1), "idx", ElemKind::F32, vec_dist(nidx, p));
        (x, idx)
    }

    /// A scattered-but-deterministic index stream with repeats.
    fn index_value(g: usize, n: usize) -> usize {
        (g * 37 + (g / 3) * 11) % n
    }

    fn run_gather(n: usize, nidx: usize, p: usize, method: IoMethod) -> Vec<(usize, Vec<f32>)> {
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        let outs = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let outs_c = std::sync::Arc::clone(&outs);
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32 * 0.5)
                .unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();

            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let before = env.disk().stats();
            let out = gather_with(ctx, &mut env, &sched, method, &NoCharge).unwrap();
            let after = env.disk().stats();

            // Exact replay: measured disk deltas equal the counts.
            let c = irreg_counts(&sched, method);
            assert_eq!(
                after.read_requests - before.read_requests,
                c.read_requests,
                "{method:?} rank {} read requests",
                ctx.rank()
            );
            assert_eq!(
                after.bytes_read - before.bytes_read,
                c.read_bytes,
                "{method:?} rank {} read bytes",
                ctx.rank()
            );

            outs_c.lock().unwrap().push((ctx.rank(), out));
        });
        let mut v = std::sync::Arc::try_unwrap(outs)
            .unwrap()
            .into_inner()
            .unwrap();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    #[test]
    fn every_method_gathers_the_right_values_and_matches_its_replay() {
        let (n, nidx, p) = (48, 96, 3);
        for method in IoMethod::ALL {
            let outs = run_gather(n, nidx, p, method);
            for (rank, out) in &outs {
                let (_, idx) = descs(n, nidx, p);
                let local = idx.local_shape(*rank);
                assert_eq!(out.len(), local.extent(0), "{method:?}");
                for (k, v) in out.iter().enumerate() {
                    let g = crate::localize::local_to_global(&idx.dist, *rank, &[k]);
                    let want = index_value(g[0], n) as f32 * 0.5;
                    assert_eq!(*v, want, "{method:?} rank {rank} entry {k}");
                }
            }
        }
    }

    #[test]
    fn methods_agree_bitwise() {
        let (n, nidx, p) = (40, 80, 4);
        let direct = run_gather(n, nidx, p, IoMethod::Direct);
        for method in [IoMethod::Sieved, IoMethod::TwoPhase] {
            assert_eq!(run_gather(n, nidx, p, method), direct, "{method:?}");
        }
    }

    #[test]
    fn two_phase_issues_no_more_requests_than_direct() {
        let (n, nidx, p) = (64, 128, 4);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32).unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let d = irreg_counts(&sched, IoMethod::Direct);
            let t = irreg_counts(&sched, IoMethod::TwoPhase);
            assert!(t.read_requests <= d.read_requests);
            assert!(t.read_bytes <= d.read_bytes, "union never over-reads");
        });
    }

    #[test]
    fn schedule_reuse_skips_the_indirection_read() {
        let (n, nidx, p) = (32, 64, 2);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32).unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            assert!(sched.is_valid_for(&x, &idx, ctx.rank(), ctx.nprocs()));

            // Reusing across iterations: the executor alone never touches
            // the indirection file.
            let a = gather_with(ctx, &mut env, &sched, IoMethod::TwoPhase, &NoCharge).unwrap();
            let b = gather_with(ctx, &mut env, &sched, IoMethod::TwoPhase, &NoCharge).unwrap();
            assert_eq!(a, b);
            let ic = inspect_counts(&sched);
            assert!(ic.read_bytes > 0, "inspector pays the indirection read");

            // A different data distribution invalidates the stamp.
            let moved = ArrayDesc::new(
                ArrayId(0),
                "x",
                ElemKind::F32,
                Distribution::new(
                    Shape::new(vec![n]),
                    vec![DimDist::Distributed {
                        kind: DistKind::Cyclic,
                        axis: 0,
                    }],
                    ProcGrid::line(ctx.nprocs()),
                ),
            );
            assert!(!sched.is_valid_for(&moved, &idx, ctx.rank(), ctx.nprocs()));
        });
    }

    #[test]
    fn repeated_indices_collapse_to_one_wire_slot() {
        // Every entry points at element 0: one distinct target per rank's
        // want list, and the union charges its bytes once.
        let (n, nidx, p) = (16, 64, 2);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32 + 7.0)
                .unwrap();
            env.load_global(&idx, &|_: &[usize]| 0.0).unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let owner_want: usize = sched.want.iter().map(Vec::len).sum();
            assert_eq!(owner_want, 1, "duplicates must dedup on the wire");
            let c = irreg_counts(&sched, IoMethod::TwoPhase);
            if ctx.rank() == 0 {
                assert_eq!(c.read_bytes, 4, "element 0 charged once");
            } else {
                assert_eq!(c.read_bytes, 0);
            }
            let out = gather_with(ctx, &mut env, &sched, IoMethod::Direct, &NoCharge).unwrap();
            assert!(out.iter().all(|v| *v == 7.0));
            assert_eq!(out.len(), nidx / p);
        });
    }
}
