//! Point-to-point message fabric.
//!
//! Every rank owns one *mailbox*; inside it, per-source FIFO queues are
//! materialized lazily on the first message from that source. A receive
//! from a *specific* source scans only that source's queue, so matching is
//! race-free and deterministic, and a 1024-rank machine whose ranks talk
//! to `O(log n)` peers allocates `O(n log n)` queues instead of the `n²`
//! channel pairs the previous eager fabric built up front.
//!
//! Message payloads are real data (the simulator computes real results);
//! each message also carries its simulated arrival time so the receiver
//! can synchronize its virtual clock.
//!
//! Timing semantics: a send advances the sender's clock by the full message
//! transfer time (latency + bytes/bandwidth) — a conservative store-and-
//! forward model that matches the blocking `csend`/`crecv` style of the
//! paper's era. The message arrives at the sender's post-send clock; a
//! receive moves the receiver's clock to `max(own clock, arrival)`.
//!
//! Blocking works for both execution engines: an OS-thread rank waits on
//! the mailbox condvar, a pooled rank registers its task id in the mailbox
//! and parks its coroutine on the [`crate::WorkerPool`]. Senders and
//! exiting ranks wake whichever kind of waiter they find. Registration
//! happens under the same lock as the queue scan, so wakeups cannot be
//! lost.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::pool::{CoroHook, PoolShared};
use crate::time::SimTime;

/// Message tag for matching sends with receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// Tag used by the collective algorithms; user code should avoid it.
    pub const COLLECTIVE: Tag = Tag(u32::MAX);
}

/// A typed message payload.
///
/// The simulator moves real data; a small closed set of element types covers
/// everything the out-of-core runtime needs (raw bytes for file blocks,
/// floats for reductions, integers for control information).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Raw bytes (array sections in storage form).
    Bytes(Vec<u8>),
    /// 32-bit floats (the paper's `real` arrays).
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 64-bit unsigned integers (control data, indices).
    U64(Vec<u64>),
}

impl Payload {
    /// Payload size in bytes as charged to the network.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::Bytes(v) => v.len() as u64,
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U64(v) => 8 * v.len() as u64,
        }
    }

    /// Name of the payload variant, for protocol diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Bytes(_) => "Bytes",
            Payload::F32(_) => "F32",
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
        }
    }

    /// Unwrap an `F32` payload.
    pub fn try_into_f32(self) -> Result<Vec<f32>, ProtocolError> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(ProtocolError::mismatch("F32", &other)),
        }
    }

    /// Unwrap an `F64` payload.
    pub fn try_into_f64(self) -> Result<Vec<f64>, ProtocolError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(ProtocolError::mismatch("F64", &other)),
        }
    }

    /// Unwrap a `U64` payload.
    pub fn try_into_u64(self) -> Result<Vec<u64>, ProtocolError> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(ProtocolError::mismatch("U64", &other)),
        }
    }

    /// Unwrap a `Bytes` payload.
    pub fn try_into_bytes(self) -> Result<Vec<u8>, ProtocolError> {
        match self {
            Payload::Bytes(v) => Ok(v),
            other => Err(ProtocolError::mismatch("Bytes", &other)),
        }
    }

    /// Unwrap an `F32` payload; panics with a protocol error otherwise.
    pub fn into_f32(self) -> Vec<f32> {
        self.try_into_f32().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap an `F64` payload; panics with a protocol error otherwise.
    pub fn into_f64(self) -> Vec<f64> {
        self.try_into_f64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap a `U64` payload; panics with a protocol error otherwise.
    pub fn into_u64(self) -> Vec<u64> {
        self.try_into_u64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap a `Bytes` payload; panics with a protocol error otherwise.
    pub fn into_bytes(self) -> Vec<u8> {
        self.try_into_bytes().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A received payload did not have the variant the protocol step expected —
/// the SPMD program's send and receive sides disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolError {
    /// The payload variant the receiver expected.
    pub expected: &'static str,
    /// The variant that actually arrived.
    pub got: &'static str,
}

impl ProtocolError {
    fn mismatch(expected: &'static str, got: &Payload) -> Self {
        ProtocolError {
            expected,
            got: got.kind(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol error: expected {} payload, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ProtocolError {}

/// A message in flight.
#[derive(Debug, PartialEq)]
pub struct Msg {
    /// Matching tag.
    pub tag: Tag,
    /// The data.
    pub payload: Payload,
    /// Simulated time at which the message arrives at the receiver.
    pub arrival: SimTime,
}

/// Error returned when a receive cannot complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The sending processor finished the SPMD region without sending.
    Disconnected {
        /// The source rank that is gone.
        from: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected { from } => {
                write!(f, "receive failed: processor {from} exited without sending")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// How the pooled engine wakes a parked rank task: a parked receiver
/// registers its task id in its mailbox, and senders hand that id to the
/// scheduler through this route.
pub(crate) struct PoolWake {
    pub(crate) shared: Arc<PoolShared>,
}

struct MailState {
    /// Per-source queues, materialized on the first message from a source.
    queues: HashMap<usize, VecDeque<Msg>>,
    /// Task id of a pooled rank parked on this mailbox (OS-thread ranks
    /// wait on the condvar instead and leave this `None`).
    waiting: Option<usize>,
}

struct Mailbox {
    state: Mutex<MailState>,
    arrived: Condvar,
}

/// The machine-wide fabric: one mailbox and one exited flag per rank.
pub(crate) struct Fabric {
    mailboxes: Vec<Mailbox>,
    exited: Vec<AtomicBool>,
    wake: OnceLock<PoolWake>,
}

impl Fabric {
    pub(crate) fn new(n: usize) -> Arc<Fabric> {
        Arc::new(Fabric {
            mailboxes: (0..n)
                .map(|_| Mailbox {
                    state: Mutex::new(MailState {
                        queues: HashMap::new(),
                        waiting: None,
                    }),
                    arrived: Condvar::new(),
                })
                .collect(),
            exited: (0..n).map(|_| AtomicBool::new(false)).collect(),
            wake: OnceLock::new(),
        })
    }

    /// Install the pooled-engine wake route. Called once, after the run's
    /// tasks are staged (so the rank→task-id map exists) and before they
    /// are launched.
    pub(crate) fn set_wake(&self, wake: PoolWake) {
        if self.wake.set(wake).is_err() {
            panic!("fabric wake route installed twice");
        }
    }

    fn wake_task(&self, tid: usize) {
        if let Some(w) = self.wake.get() {
            w.shared.wake(tid);
        }
    }

    /// Deliver `msg` from `src` into `dst`'s mailbox; returns `false` if
    /// `dst` already exited (the message is dropped on the floor, matching
    /// a send into a dropped channel).
    fn send(&self, src: usize, dst: usize, msg: Msg) -> bool {
        if self.exited[dst].load(Ordering::Acquire) {
            return false;
        }
        let mb = &self.mailboxes[dst];
        let waiter = {
            let mut st = mb.state.lock().unwrap();
            st.queues.entry(src).or_default().push_back(msg);
            st.waiting.take()
        };
        mb.arrived.notify_all();
        if let Some(tid) = waiter {
            self.wake_task(tid);
        }
        true
    }

    /// Blocking receive for rank `me` of the next message from `src` with
    /// tag `tag`. `hook` selects the blocking style: condvar wait for
    /// OS-thread ranks, park-the-coroutine for pooled ranks.
    fn recv(
        &self,
        me: usize,
        src: usize,
        tag: Tag,
        hook: Option<&CoroHook>,
    ) -> Result<Msg, RecvError> {
        let mb = &self.mailboxes[me];
        let mut st = mb.state.lock().unwrap();
        loop {
            if let Some(q) = st.queues.get_mut(&src) {
                if let Some(pos) = q.iter().position(|m| m.tag == tag) {
                    return Ok(q.remove(pos).expect("position valid"));
                }
            }
            // Checked *after* draining matches and *inside* the lock: an
            // exiting sender stores the flag before sweeping mailbox locks,
            // so a receiver that misses the flag here is guaranteed to be
            // registered (or condvar-waiting) when the sweep reaches it.
            if self.exited[src].load(Ordering::Acquire) {
                return Err(RecvError::Disconnected { from: src });
            }
            match hook {
                None => st = mb.arrived.wait(st).unwrap(),
                Some(h) => {
                    st.waiting = Some(h.tid());
                    drop(st);
                    h.park();
                    st = mb.state.lock().unwrap();
                }
            }
        }
    }

    /// Mark `rank` exited and wake every waiter in the machine so blocked
    /// receivers re-check their sources. Spurious wakes re-park; receivers
    /// actually waiting on `rank` observe the flag and error out.
    pub(crate) fn mark_exited(&self, rank: usize) {
        if self.exited[rank].swap(true, Ordering::AcqRel) {
            return;
        }
        for mb in &self.mailboxes {
            let waiter = { mb.state.lock().unwrap().waiting.take() };
            mb.arrived.notify_all();
            if let Some(tid) = waiter {
                self.wake_task(tid);
            }
        }
    }
}

/// One processor's handle into the fabric. Dropping it marks the rank
/// exited (waking any peer blocked on it), which is how a finished — or
/// panicked and unwound — rank disconnects.
pub struct Endpoints {
    fabric: Arc<Fabric>,
    rank: usize,
}

impl Endpoints {
    pub(crate) fn on(fabric: Arc<Fabric>, rank: usize) -> Endpoints {
        Endpoints { fabric, rank }
    }

    /// Blocking receive of the next message from `src` with tag `tag`,
    /// waiting as an OS thread.
    ///
    /// Messages with other tags that arrive first stay queued and are
    /// delivered to later receives, so independent protocols (e.g. a
    /// collective and a user exchange) can interleave safely.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Result<Msg, RecvError> {
        self.fabric.recv(self.rank, src, tag, None)
    }

    /// Blocking receive with an engine-selected wait: `hook` is `None` on
    /// the threaded engine, `Some` (park the coroutine) on the pooled one.
    pub(crate) fn recv_as(
        &self,
        src: usize,
        tag: Tag,
        hook: Option<&CoroHook>,
    ) -> Result<Msg, RecvError> {
        self.fabric.recv(self.rank, src, tag, hook)
    }

    /// Send `msg` to `dst`. Returns `false` if `dst` has already exited.
    ///
    /// In a healthy SPMD program that never happens; under fault injection a
    /// peer may have aborted on a permanent fault, in which case the message
    /// is dropped on the floor — the sender keeps running and the aborted
    /// rank's error drives machine-level recovery. Panicking here instead
    /// would tear down every surviving rank's thread.
    pub fn send(&self, dst: usize, msg: Msg) -> bool {
        self.fabric.send(self.rank, dst, msg)
    }
}

impl Drop for Endpoints {
    fn drop(&mut self) {
        self.fabric.mark_exited(self.rank);
    }
}

/// Build the full fabric for `n` processors: a vector of per-rank endpoint
/// handles over one shared lazy mailbox fabric.
pub fn build_fabric(n: usize) -> Vec<Endpoints> {
    let fabric = Fabric::new(n);
    (0..n)
        .map(|rank| Endpoints::on(fabric.clone(), rank))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(tag: u32, val: u64) -> Msg {
        Msg {
            tag: Tag(tag),
            payload: Payload::U64(vec![val]),
            arrival: SimTime(1.0),
        }
    }

    #[test]
    fn fabric_delivers_point_to_point() {
        let mut eps = build_fabric(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(7, 42));
        let got = b.recv(0, Tag(7)).expect("message delivered");
        assert_eq!(got.tag, Tag(7));
        assert_eq!(got.arrival, SimTime(1.0));
        assert_eq!(got.payload.into_u64(), vec![42]);
    }

    #[test]
    fn recv_buffers_mismatched_tags() {
        let mut eps = build_fabric(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(1, 10));
        a.send(1, msg(2, 20));
        // Ask for tag 2 first: tag 1 must stay queued, not get lost.
        let second = b.recv(0, Tag(2)).unwrap();
        assert_eq!(second.payload.into_u64(), vec![20]);
        let first = b.recv(0, Tag(1)).unwrap();
        assert_eq!(first.payload.into_u64(), vec![10]);
    }

    #[test]
    fn recv_from_dead_sender_errors() {
        let mut eps = build_fabric(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(a);
        assert_eq!(b.recv(0, Tag(0)), Err(RecvError::Disconnected { from: 0 }));
    }

    #[test]
    fn messages_sent_before_exit_survive_the_exit() {
        let mut eps = build_fabric(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(4, 77));
        drop(a);
        // The queued message is still deliverable; only *after* draining it
        // does the disconnect surface.
        assert_eq!(b.recv(0, Tag(4)).unwrap().payload.into_u64(), vec![77]);
        assert_eq!(b.recv(0, Tag(4)), Err(RecvError::Disconnected { from: 0 }));
    }

    #[test]
    fn send_to_exited_rank_reports_failure() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b);
        assert!(!a.send(1, msg(0, 1)));
    }

    #[test]
    fn large_fabrics_are_cheap_to_build() {
        // The eager predecessor allocated n² channel pairs here; the lazy
        // fabric is O(n) until messages actually flow.
        let eps = build_fabric(1024);
        assert_eq!(eps.len(), 1024);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Bytes(vec![0; 10]).size_bytes(), 10);
        assert_eq!(Payload::F32(vec![0.0; 10]).size_bytes(), 40);
        assert_eq!(Payload::F64(vec![0.0; 10]).size_bytes(), 80);
        assert_eq!(Payload::U64(vec![0; 10]).size_bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn wrong_payload_unwrap_panics() {
        Payload::F32(vec![1.0]).into_u64();
    }

    #[test]
    fn try_unwrap_returns_typed_mismatch() {
        let err = Payload::F32(vec![1.0]).try_into_u64().unwrap_err();
        assert_eq!(err.expected, "U64");
        assert_eq!(err.got, "F32");
        assert!(err.to_string().contains("protocol error"));
        assert_eq!(Payload::U64(vec![3]).try_into_u64().unwrap(), vec![3]);
        assert_eq!(Payload::Bytes(vec![1]).try_into_bytes().unwrap(), vec![1]);
        assert_eq!(Payload::F64(vec![2.0]).try_into_f64().unwrap(), vec![2.0]);
    }
}
