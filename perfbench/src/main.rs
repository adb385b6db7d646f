//! Host-clock benchmark of the out-of-core HPF workspace.
//!
//! ```text
//! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_gaxpy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload in its own process: it builds the
//! workload's inputs from `--seed`, sets up, runs whole passes of the
//! workload's op mix until `--seconds` have passed (setting up again
//! between passes; the median set-up time is `setup_s`), checks every
//! output against an independent reference and
//! prints one metric per line, then a JSON result as the last line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! passes untraced and under the benchmark's span recorder and reports
//! the per-layer metrics (see `perfbench/README.md`). `--workload all`
//! runs every workload in turn as child processes and prints their lines.

mod burst;
mod gaxpy;
mod ladder;
mod layers;
mod remap;
mod report;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use spans::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Host seconds of untimed passes before the timed phase (at least one
/// pass); `peak_rss_mib` is the lowest of their peaks.
const MEMORY_SECONDS: f64 = 3.0;

/// Everything one run measures, summed over its passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Host latency of each op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Units completed (cells, programs, simulated ranks or jobs).
    pub units: f64,
    /// Host seconds of timed work (checks excluded).
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
    /// Simulated seconds of the current pass, and of the first pass.
    pub pass_sim_s: f64,
    pub first_sim_s: Option<f64>,
    /// Units per timed host second, one rate per pass.
    pub pass_rates: Vec<f64>,
    /// At the workload's smallest (`[0]`) and largest (`[1]`) size: per
    /// repeated item, its fastest host time and its units.
    pub scale: [BTreeMap<usize, (f64, f64)>; 2],
    /// Per-layer counters, summed over passes.
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload-specific host timings, one sample per pass.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-specific values reported as measured once.
    pub fixed: BTreeMap<&'static str, f64>,
    /// What failed, for the log.
    pub failures: Vec<String>,
    next_op: u64,
    /// `(units, timed_s)` when the current pass began.
    pass_start: (f64, f64),
}

impl Tally {
    /// A fresh op id for span grouping.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Reserve `n` consecutive op ids; returns the first.
    pub fn reserve_ops(&mut self, n: u64) -> u64 {
        let first = self.next_op + 1;
        self.next_op += n;
        first
    }

    /// Record one completed op of `units` units that took `secs`.
    pub fn done(&mut self, secs: f64, units: f64) {
        self.op_ms.push(secs * 1e3);
        self.units += units;
        self.timed_s += secs;
        self.attempted += 1;
    }

    /// Count one failure (an error, a refusal or a wrong output).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.layer.entry(key).or_default() += v;
    }

    /// Record `host` seconds for `item` (`units` units of work) at the
    /// smallest or the largest size; each item keeps its fastest time.
    pub fn scale(&mut self, largest: bool, item: usize, host: f64, units: f64) {
        let e = self.scale[usize::from(largest)]
            .entry(item)
            .or_insert((f64::INFINITY, units));
        e.0 = e.0.min(host);
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Close a pass: its simulated seconds must repeat bit for bit.
    pub fn end_pass(&mut self) {
        self.passes += 1;
        let (units, timed) = (
            self.units - self.pass_start.0,
            self.timed_s - self.pass_start.1,
        );
        if timed > 0.0 {
            self.pass_rates.push(units / timed);
        }
        self.pass_start = (self.units, self.timed_s);
        let s = std::mem::take(&mut self.pass_sim_s);
        match self.first_sim_s {
            None => self.first_sim_s = Some(s),
            Some(f) if f.to_bits() != s.to_bits() => self.fail(format!(
                "pass {} simulated {s} s, first pass {f} s",
                self.passes
            )),
            Some(_) => {}
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generate inputs from `seed`, start pools or daemons, warm up.
    fn setup(seed: u64, workers: usize) -> Self;
    /// One pass over the op mix. Only op bodies count as timed work;
    /// output checks run between ops, off the clock.
    fn pass(&mut self, rec: &Recorder, t: &mut Tally);
    /// Checks that need the whole run, plus (when `rec` is on) the
    /// per-layer measurements that are not spans of the timed passes.
    fn gate(&mut self, rec: &Recorder, t: &mut Tally);
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {val}"))?
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// The set-up timings of one run. The first set-up builds the workload
/// the run measures; the others are built and dropped between timed
/// passes, spread evenly over the run, so `setup_s` samples the host over
/// the whole run and not only during its first second.
struct Setups {
    seed: u64,
    workers: usize,
    secs: Vec<f64>,
}

impl Setups {
    fn time<W: Workload>(&mut self) -> W {
        let t0 = Instant::now();
        let w = W::setup(self.seed, self.workers);
        self.secs.push(t0.elapsed().as_secs_f64());
        w
    }

    /// Set up and drop until `share` (0 to 1) of the set-ups are done.
    fn keep_pace<W: Workload>(&mut self, share: f64) {
        let due = 1 + ((SETUPS - 1) as f64 * share.min(1.0)) as usize;
        while self.secs.len() < due {
            drop(self.time::<W>());
        }
    }
}

/// Run whole passes until `seconds` of wall time and at least
/// `min_passes` passes have gone by, with the remaining set-ups between
/// them. With a second recorder and tally, passes alternate between the
/// two.
fn timed_phase<W: Workload>(
    w: &mut W,
    setups: &mut Setups,
    sides: &mut [(&Recorder, &mut Tally)],
    seconds: f64,
    min_passes: usize,
) {
    let t0 = Instant::now();
    for k in 0.. {
        let (rec, t) = &mut sides[k % sides.len()];
        w.pass(rec, t);
        t.end_pass();
        let elapsed = t0.elapsed().as_secs_f64();
        setups.keep_pace::<W>(elapsed / seconds);
        let done = k + 1 >= min_passes && (k + 1) % sides.len() == 0;
        if done && elapsed >= seconds {
            break;
        }
    }
    setups.keep_pace::<W>(1.0);
}

fn run<W: Workload>(args: &Args, spec: &report::WorkloadSpec) -> report::Outcome {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setups = Setups {
        seed: args.seed,
        workers,
        secs: Vec::with_capacity(SETUPS),
    };
    let mut w = setups.time::<W>();

    let mut t = Tally::default();
    let rec = Recorder::new(args.trace);
    if !args.trace {
        // Passes for the memory they need, untimed and before any other
        // set-up runs, so no dropped set-up's threads and arenas are part
        // of the peak. Their outputs are checked like every other pass's.
        // Leftover arena fragments only ever add to a pass's peak (one
        // process's peaks drifted from 14 to 20 MiB over 15 passes), so
        // the lowest peak is the steady figure, and short passes get more
        // tries at it.
        let mut extra = Tally::default();
        let mut peak = f64::INFINITY;
        let t0 = Instant::now();
        while peak.is_infinite() || t0.elapsed().as_secs_f64() < MEMORY_SECONDS {
            peak = peak.min(stats::peak_rss_mib_of(|| w.pass(&rec, &mut extra)));
        }
        t.fixed.insert("peak_rss_mib", peak);
        t.attempted += extra.attempted;
        t.failed += extra.failed;
        t.failures.extend(extra.failures);
    }
    let mut untraced = None;
    if args.trace {
        // Passes alternate between untraced and traced: the gap between
        // the two is the span recorder's overhead.
        let mut plain = Tally::default();
        let off = Recorder::new(false);
        let sides = &mut [(&off, &mut plain), (&rec, &mut t)];
        timed_phase(&mut w, &mut setups, sides, args.seconds, spec.min_passes);
        untraced = Some(plain);
    } else {
        timed_phase(
            &mut w,
            &mut setups,
            &mut [(&rec, &mut t)],
            args.seconds,
            spec.min_passes,
        );
    }
    w.gate(&rec, &mut t);
    drop(w);
    report::Outcome {
        spec: *spec,
        workers,
        setup_s: stats::median(&setups.secs),
        tally: t,
        untraced,
        spans: rec.spans(),
    }
}

/// Run every workload as a child process of this binary and echo their
/// metric lines: the one-command view of the whole benchmark.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for spec in report::WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(o) if o.status.success() => {
                let text = String::from_utf8_lossy(&o.stdout);
                for line in text.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                }
                ok &= text
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\":true"));
            }
            Ok(o) => {
                eprintln!("perfbench: {} exited with {}", spec.name, o.status);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: {} did not start: {e}", spec.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                report::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(spec) = report::WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match spec.name {
        "paper_gaxpy" => run::<gaxpy::PaperGaxpy>(&args, spec),
        "remap_mix" => run::<remap::RemapMix>(&args, spec),
        "rank_ladder" => run::<ladder::RankLadder>(&args, spec),
        "job_burst" => run::<burst::JobBurst>(&args, spec),
        other => unreachable!("workload table lists {other}"),
    };
    outcome.print(&args);
    ExitCode::SUCCESS
}
