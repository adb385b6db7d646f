//! Live capture: profile many compiled programs *concurrently* on one
//! shared worker pool, ready to schedule against the disk farm.
//!
//! [`crate::capture::profile`] runs one program at a time, each on its own
//! simulated machine with one OS thread per rank. That is fine for a
//! handful of jobs but cannot express the target workload — a hundred-plus
//! programs in flight at once would need thousands of OS threads. Here the
//! pooled engine hosts every rank of every job as a cooperative task on a
//! fixed set of workers: [`profile_all_on`] submits all captures up front
//! via [`noderun::start`] and only then waits, so the whole fleet
//! interleaves on the pool. Each job's simulated machine is still private —
//! clocks never entangle across jobs — so every profile is bit-identical
//! to the one [`crate::capture::profile`] would have captured solo.

use std::sync::Arc;

use dmsim::WorkerPool;
use noderun::{start, RunConfig, RunError, StartedRun};
use ooc_core::CompiledProgram;
use ooc_trace::TraceConfig;

use crate::capture::JobProfile;

/// One program of a live capture: what to run and how.
#[derive(Clone)]
pub struct ProgramJob {
    /// Display name (job type, bench label…).
    pub name: String,
    /// The compiled program (shared — many jobs typically run the same
    /// binary with different tags).
    pub compiled: Arc<CompiledProgram>,
    /// Execution configuration for the capture run. The job tag
    /// ([`RunConfig::job`]) gives the job its own fault/RNG streams; leave
    /// it 0 for bit-identity with an untagged solo run.
    pub cfg: RunConfig,
}

impl ProgramJob {
    /// A job with default configuration.
    pub fn new(name: impl Into<String>, compiled: Arc<CompiledProgram>) -> ProgramJob {
        ProgramJob {
            name: name.into(),
            compiled,
            cfg: RunConfig::default(),
        }
    }

    /// Same job with a different execution configuration.
    pub fn with_cfg(mut self, cfg: RunConfig) -> ProgramJob {
        self.cfg = cfg;
        self
    }

    /// Same job with a workload job tag (its own fault/RNG streams, see
    /// [`RunConfig::job`]).
    pub fn with_job_tag(mut self, job: u32) -> ProgramJob {
        self.cfg.job = job;
        self
    }
}

/// Capture every job's solo profile, with all captures in flight at once on
/// `pool`.
///
/// All jobs are submitted before any is waited on, so the pool interleaves
/// their ranks freely; profiles come back in job order and are bit-identical
/// to sequential [`crate::capture::profile`] calls with the same configs.
///
/// Two jobs sharing a nonzero job tag would draw from the same fault/RNG
/// streams, so such a batch is refused with [`RunError::Config`] before
/// anything runs.
pub fn profile_all_on(jobs: &[ProgramJob], pool: &WorkerPool) -> Result<Vec<JobProfile>, RunError> {
    let mut tags: Vec<u32> = jobs.iter().map(|j| j.cfg.job).filter(|&t| t != 0).collect();
    tags.sort_unstable();
    if let Some(w) = tags.windows(2).find(|w| w[0] == w[1]) {
        return Err(RunError::Config(format!(
            "job tag {} is shared by more than one job",
            w[0]
        )));
    }
    let started: Vec<StartedRun> = jobs
        .iter()
        .map(|job| {
            start(
                Arc::clone(&job.compiled),
                Arc::new(RunConfig {
                    trace: Some(TraceConfig::detailed()),
                    ..job.cfg.clone()
                }),
                pool,
            )
        })
        .collect::<Result<_, _>>()?;
    started
        .into_iter()
        .map(|s| {
            let mut out = s.wait()?;
            let trace = out
                .report
                .take_trace()
                .expect("tracing was enabled for profiling");
            let rank_finish = out
                .report
                .per_proc()
                .iter()
                .map(|p| p.finish_time)
                .collect();
            Ok(JobProfile::from_trace(&trace, rank_finish).with_counters(&out.report.totals()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::profile;
    use ooc_core::{compile_source, CompilerOptions};

    fn small_program() -> Arc<CompiledProgram> {
        Arc::new(compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap())
    }

    #[test]
    fn concurrent_capture_matches_solo_capture_bit_for_bit() {
        let compiled = small_program();
        let pool = WorkerPool::new(2);
        let jobs: Vec<ProgramJob> = (0..4)
            .map(|i| {
                ProgramJob::new(format!("j{i}"), Arc::clone(&compiled)).with_job_tag(i as u32 + 1)
            })
            .collect();
        let live = profile_all_on(&jobs, &pool).unwrap();
        for (job, got) in jobs.iter().zip(&live) {
            let solo = profile(&job.compiled, &job.cfg).unwrap();
            assert_eq!(got, &solo, "job {} profile diverged", job.name);
        }
    }
}
