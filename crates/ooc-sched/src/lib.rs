//! # ooc-sched — disk-farm I/O scheduling and multi-job workloads
//!
//! The paper prices disk contention *statically*: the cost model's
//! `shared_disks` / aggregate-bandwidth parameters divide the farm's
//! bandwidth evenly among the processors before a single request is
//! issued. That is exact for one well-balanced program, but it cannot say
//! anything about a *workload* — several compiled programs sharing the
//! same physical disks, each seeing the others only through queueing
//! delay. This crate adds that missing layer:
//!
//! * [`capture`] — profile a compiled program solo (one deterministic
//!   traced run) and extract its per-rank disk request streams.
//! * [`farm`] — a modeled disk-farm server: per-disk request queues on the
//!   simulated clock with pluggable [`Policy`]s (FIFO, offset-coalescing
//!   elevator, deadline, weighted fair share) and the legacy static
//!   divide as the byte-identical fallback. Replays are closed-loop and
//!   bit-deterministic; the solo FIFO replay reproduces the original
//!   simulated times exactly.
//! * [`live`] — capture a whole fleet of programs concurrently on one
//!   shared worker pool ([`profile_all_on`]), every profile bit-identical
//!   to its solo capture.
//! * [`workload`] — a multi-job runtime that admits, batches and runs
//!   several programs concurrently against the shared farm, with
//!   deterministic admission control, per-job isolation (fault/RNG
//!   streams derive from the `(job, rank)` pair via
//!   [`noderun::RunConfig::job`]) and per-job queue-depth / wait-time
//!   metrics, exportable as a Perfetto timeline.
//! * [`obs`] — the workload observatory: a typed, time-ordered event bus
//!   ([`WorkloadObserver`]), a deterministic fixed-cadence sampler, a
//!   bounded crash flight recorder, and SLO scorecards — all guaranteed
//!   never to perturb the replay they watch.
//! * [`mod@serve`] — `oocd`, the persistent multi-tenant I/O daemon: it owns
//!   the farm, accepts length-prefixed JSON submissions over Unix-domain
//!   or TCP sockets from many tenants, seals the virtual timeline on
//!   `drain`, maps the session onto the guarded observed runtime, and
//!   streams the observatory to subscribers — deterministically, so two
//!   daemons fed the same logical submissions emit byte-identical
//!   artifacts.
//!
//! The compiler side of the story is
//! [`ooc_core::CompilerOptions::background`] /
//! [`dmsim::CostModel::contended`]: planning a job against the bandwidth
//! share the farm will actually give it.
//!
//! ```
//! use ooc_sched::{profile, run_workload, JobSpec, Policy, WorkloadConfig};
//!
//! let compiled = ooc_core::compile_source(
//!     hpf::GAXPY_SOURCE,
//!     &ooc_core::CompilerOptions::default(),
//! )
//! .unwrap();
//! let p = profile(&compiled, &noderun::RunConfig::default()).unwrap();
//! let specs = vec![
//!     JobSpec::new("a", p.clone()),
//!     JobSpec::new("b", p).with_weight(2.0),
//! ];
//! let report = run_workload(
//!     &specs,
//!     &WorkloadConfig {
//!         policy: Policy::FairShare,
//!         max_concurrent: 2,
//!         ..WorkloadConfig::default()
//!     },
//! )
//! .unwrap();
//! assert!(report.jobs[0].completion >= report.jobs[0].solo_makespan);
//! ```

pub mod capture;
pub mod domain;
pub mod farm;
pub mod live;
pub mod obs;
pub mod policy;
pub mod serve;
pub mod workload;

pub use capture::{profile, IoReq, JobProfile};
pub use domain::{
    run_workload_guarded, run_workload_guarded_observed, DomainConfig, GuardedJobReport,
    GuardedReport, JobOutcome,
};
pub use farm::{simulate, FarmConfig, FarmJob, FarmReport, FarmSim, JobQueueStats, Served};
pub use live::{profile_all_on, ProgramJob};
pub use obs::{
    EventLog, FlightRecorder, NullObserver, ObsEvent, ObsKind, Sample, Sampler, SloScorecard,
    WorkloadObserver,
};
pub use policy::Policy;
pub use serve::{
    read_frame, serve, submit_json, write_frame, Client, Conn, DaemonHandle, Listener, ProtoError,
    ServeConfig, DEFAULT_MAX_FRAME,
};
pub use workload::{
    run_workload, AdmissionError, JobReport, JobSpec, WorkloadConfig, WorkloadReport,
};
