//! `remap_mix`: the write-and-exchange side of the out-of-core layers.
//! Transpose and Jacobi under a slab cache smaller than their working set,
//! redistribution under all three access methods, the irregular
//! inspector–executor (one-shot and reused schedules) and compiled CSR
//! SpMV on two index-set shapes, each at 4 and at 16 processors.

use std::sync::Arc;
use std::time::Instant;

use dmsim::{Machine, MachineConfig, WorkerPool};
use noderun::{init_fn, RunConfig};
use ooc_array::irreg::{gather_with, inspect, irreg_counts};
use ooc_array::{
    redist_counts, redistribute_with, ArrayDesc, ArrayId, DimDist, DistKind, Distribution,
    FileLayout, OocEnv, ProcGrid, Shape,
};
use ooc_core::{CompiledProgram, CompilerOptions};
use pario::{ElemKind, IoMethod};

use crate::layers::{add_counters, add_estimate, compile, estimate_and_trace_check};
use crate::spans::Recorder;
use crate::stats::Rng;
use crate::{Tally, Workload};

const PROCS: [usize; 2] = [4, 16];
/// Matrix order of the transpose, Jacobi and redistribution programs.
const N: usize = 256;
const SWEEPS: usize = 4;
/// Irregular gather: data extent, index entries per rank, iterations and
/// the width of the hot window the indices fall in.
const N_DATA: usize = 16_384;
const IDX_PER_RANK: usize = 4096;
const ITERS: usize = 4;
const WINDOW: u64 = 1536;
/// SpMV order and nonzeros per row; the banded shape's half-width.
const SPMV_N: usize = 4096;
const SPMV_ROW: usize = 8;
const BAND: u64 = 24;

type Values = Arc<Vec<f32>>;

/// Serial reference of one compiled program's collected array.
enum Check {
    /// Bitwise equality.
    Exact(Vec<f32>),
    /// Within an absolute tolerance.
    Near(Vec<f32>, f32),
}

struct Program {
    label: String,
    p: usize,
    source: String,
    options: CompilerOptions,
    cfg: RunConfig,
    collect: &'static str,
    check: Check,
}

struct Csr {
    rowptr: Values,
    colidx: Values,
    vals: Values,
}

pub struct RemapMix {
    pool: WorkerPool,
    programs: Vec<Program>,
    /// Redistribution source values and the irregular gather's inputs.
    redist_value: Values,
    x: Values,
    idx: [Values; 2],
}

fn vec_desc(id: u32, name: &str, n: usize, p: usize) -> ArrayDesc {
    let axis = DimDist::Distributed {
        kind: DistKind::Block,
        axis: 0,
    };
    ArrayDesc::new(
        ArrayId(id),
        name,
        ElemKind::F32,
        Distribution::new(Shape::new(vec![n]), vec![axis], ProcGrid::line(p)),
    )
}

fn transpose_source(p: usize) -> String {
    format!(
        "
      parameter (n={N})
      real a(n, n), b(n, n)
!hpf$ processors pr({p})
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    )
}

fn jacobi_source(p: usize) -> String {
    format!(
        "
      parameter (n={N}, half={half})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      do it = 1, half
        forall (i = 2:n-1, j = 2:n-1)
          v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
        end forall
        forall (i = 2:n-1, j = 2:n-1)
          u(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
        end forall
      end do
      end
",
        half = SWEEPS / 2
    )
}

fn spmv_source(p: usize) -> String {
    hpf::SPMV_SOURCE.replace(
        "parameter (n=64, nnz=512, nprocs=4)",
        &format!(
            "parameter (n={SPMV_N}, nnz={}, nprocs={p})",
            SPMV_N * SPMV_ROW
        ),
    )
}

/// A CSR matrix with `SPMV_ROW` entries per row: banded around the
/// diagonal, or scattered over the whole row.
fn csr(rng: &mut Rng, banded: bool) -> Csr {
    let n = SPMV_N as u64;
    let rowptr = (0..=SPMV_N).map(|i| (i * SPMV_ROW) as f32).collect();
    let colidx = (0..SPMV_N * SPMV_ROW)
        .map(|k| {
            let row = (k / SPMV_ROW) as u64;
            let col = if banded {
                (row + n + rng.below(2 * BAND + 1) - BAND) % n
            } else {
                rng.below(n)
            };
            col as f32
        })
        .collect();
    let vals = (0..SPMV_N * SPMV_ROW)
        .map(|_| rng.below(16) as f32 * 0.125 - 1.0)
        .collect();
    Csr {
        rowptr: Arc::new(rowptr),
        colidx: Arc::new(colidx),
        vals: Arc::new(vals),
    }
}

/// The serial CSR product the SpMV output is checked against.
fn serial_spmv(m: &Csr, x: &[f32]) -> Vec<f32> {
    (0..SPMV_N)
        .map(|i| {
            let (lo, hi) = (m.rowptr[i] as usize, m.rowptr[i + 1] as usize);
            (lo..hi).map(|k| m.vals[k] * x[m.colidx[k] as usize]).sum()
        })
        .collect()
}

fn table_init(v: &Values) -> noderun::InitFn {
    let v = Arc::clone(v);
    init_fn(move |g| v[g[0]])
}

/// `sweeps` serial Jacobi sweeps from `f`, chaining `ref_jacobi`.
fn serial_jacobi(f: &dyn Fn(&[usize]) -> f32) -> Vec<f32> {
    let mut u = noderun::ref_jacobi(N, f);
    for _ in 1..SWEEPS {
        let prev = u.clone();
        u = noderun::ref_jacobi(N, &|g: &[usize]| prev[g[0] + g[1] * N]);
    }
    u
}

fn programs(pool: &WorkerPool, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed, 0x7e3a);
    let st = rng.below(1000) as usize;
    let transpose_init = move |g: &[usize]| ((g[0] * 1000 + g[1] + st) % 65_536) as f32;
    let sj = rng.below(7) as usize;
    let jacobi_init = move |g: &[usize]| {
        let hot = (N / 4..3 * N / 4).contains(&g[0]) && (N / 4..3 * N / 4).contains(&g[1]);
        f32::from(u8::from(hot)) * 100.0 + ((g[0] * 31 + g[1] * 17 + sj) % 7) as f32 * 0.5
    };
    let x: Values = Arc::new((0..SPMV_N).map(|_| rng.below(33) as f32 * 0.0625).collect());
    let banded = csr(&mut rng, true);
    let scattered = csr(&mut rng, false);

    let transpose_ref = noderun::ref_transpose(N, &transpose_init);
    let jacobi_ref = serial_jacobi(&jacobi_init);
    let spmv_refs = [serial_spmv(&banded, &x), serial_spmv(&scattered, &x)];

    let mut out = Vec::new();
    for p in PROCS {
        // Slabs a quarter of a local panel; the cache holds half of one
        // rank's two local arrays.
        let panel = N * N / p;
        let cache = panel * 4;
        let options = CompilerOptions {
            elw_slab_elems: panel / 4,
            cache_budget: Some(cache),
            ..CompilerOptions::default()
        };
        let base = RunConfig {
            pool: Some(pool.clone()),
            cache_budget: Some(cache),
            ..RunConfig::default()
        };

        let mut cfg = base.clone();
        cfg.init.insert("a".into(), init_fn(transpose_init));
        cfg.collect.push("b".into());
        out.push(Program {
            label: format!("transpose p{p}"),
            p,
            source: transpose_source(p),
            options: options.clone(),
            cfg,
            collect: "b",
            check: Check::Exact(transpose_ref.clone()),
        });

        let mut cfg = base.clone();
        cfg.init.insert("u".into(), init_fn(jacobi_init));
        cfg.init.insert("v".into(), init_fn(jacobi_init));
        cfg.collect.push("u".into());
        out.push(Program {
            label: format!("jacobi p{p}"),
            p,
            source: jacobi_source(p),
            options: options.clone(),
            cfg,
            collect: "u",
            check: Check::Near(jacobi_ref.clone(), 1e-3),
        });

        for (shape, m, reference) in [
            ("banded", &banded, &spmv_refs[0]),
            ("scattered", &scattered, &spmv_refs[1]),
        ] {
            let mut cfg = RunConfig {
                pool: Some(pool.clone()),
                ..RunConfig::default()
            };
            cfg.init.insert("rowptr".into(), table_init(&m.rowptr));
            cfg.init.insert("colidx".into(), table_init(&m.colidx));
            cfg.init.insert("vals".into(), table_init(&m.vals));
            cfg.init.insert("x".into(), table_init(&x));
            cfg.collect.push("y".into());
            out.push(Program {
                label: format!("spmv {shape} p{p}"),
                p,
                source: spmv_source(p),
                options: CompilerOptions::default(),
                cfg,
                collect: "y",
                check: Check::Near(reference.clone(), 1e-3),
            });
        }
    }
    out
}

impl RemapMix {
    /// Compile and run one program; returns its simulated seconds.
    fn run_program(&self, i: usize, rec: &Recorder, t: &mut Tally) -> Result<(f64, f64), String> {
        let prog = &self.programs[i];
        let op = t.op();
        let t0 = Instant::now();
        let compiled = compile(rec, 0, op, &prog.source, &prog.options, t)?;
        let outcome = rec.span("noderun.run", 0, op, |_| noderun::run(&compiled, &prog.cfg));
        let host = t0.elapsed().as_secs_f64();
        let mut outcome = outcome.map_err(|e| format!("{}: {e}", prog.label))?;
        add_counters(t, &outcome.report);
        add_estimate(t, &compiled, &outcome.report);
        let (_, got) = outcome
            .collected
            .remove(prog.collect)
            .ok_or(format!("{}: {} not collected", prog.label, prog.collect))?;
        let ok = match &prog.check {
            Check::Exact(want) => got == *want,
            Check::Near(want, tol) => noderun::max_abs_diff(&got, want) <= *tol,
        };
        if !ok {
            t.fail(format!(
                "{}: output differs from the serial reference",
                prog.label
            ));
        }
        Ok((outcome.report.elapsed(), host))
    }

    /// Row-major row-block file read into a column-block distribution.
    fn redistribute(
        &self,
        p: usize,
        method: IoMethod,
        rec: &Recorder,
        t: &mut Tally,
    ) -> Result<(f64, f64), String> {
        let shape = Shape::matrix(N, N);
        let src = ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::row_block(shape.clone(), p),
        )
        .with_layout(FileLayout::row_major(2));
        let dst = ArrayDesc::new(
            ArrayId(1),
            "a'",
            ElemKind::F32,
            Distribution::column_block(shape, p),
        );
        let value = Arc::clone(&self.redist_value);
        let op = t.op();
        let t0 = Instant::now();
        let (report, locals) = rec.span("dmsim.run_on", 0, op, |run| {
            Machine::new(MachineConfig::delta(p)).run_on(&self.pool, |ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&src).map_err(|e| e.to_string())?;
                env.alloc(&dst).map_err(|e| e.to_string())?;
                env.load_global(&src, &|g: &[usize]| value[g[0] + g[1] * N])
                    .map_err(|e| e.to_string())?;
                rec.span("ooc-array.redistribute_with", run, op, |_| {
                    redistribute_with(ctx, &mut env, &src, &dst, method, ctx)
                })
                .map_err(|e| e.to_string())?;
                env.read_local_all(&dst).map_err(|e| e.to_string())
            })
        });
        let host = t0.elapsed().as_secs_f64();
        add_counters(t, &report);
        let locals: Vec<Vec<f32>> = locals.into_iter().collect::<Result<_, _>>()?;
        let slices: Vec<&[f32]> = locals.iter().map(Vec::as_slice).collect();
        let (_, got) = noderun::assemble_global(&dst, &slices);
        if got != *self.redist_value {
            t.fail(format!(
                "redistribute {} p{p}: data moved wrong",
                method.label()
            ));
        }
        if method == IoMethod::Sieved {
            let useful: u64 = (0..p)
                .map(|r| redist_counts(&src, &dst, r, IoMethod::Direct).read_bytes)
                .sum();
            t.add("pario.sieve_useful_bytes", useful as f64);
            t.add(
                "pario.sieve_read_bytes",
                report.totals().io_bytes_read as f64,
            );
        }
        Ok((report.elapsed(), host))
    }

    /// `ITERS` gathers of `x(idx(i))`, re-inspecting every time or reusing
    /// the first schedule.
    fn gather(
        &self,
        p: usize,
        method: IoMethod,
        reuse: bool,
        rec: &Recorder,
        t: &mut Tally,
    ) -> Result<(f64, f64), String> {
        let x = vec_desc(0, "x", N_DATA, p);
        let idx = vec_desc(1, "idx", IDX_PER_RANK * p, p);
        let values = Arc::clone(&self.x);
        let index = Arc::clone(&self.idx[usize::from(p == PROCS[1])]);
        let op = t.op();
        let t0 = Instant::now();
        let (report, per_rank) = rec.span("dmsim.run_on", 0, op, |run| {
            Machine::new(MachineConfig::delta(p)).run_on(&self.pool, |ctx| {
                let err = |e: ooc_array::OocError| e.to_string();
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&x).map_err(|e| e.to_string())?;
                env.alloc(&idx).map_err(|e| e.to_string())?;
                env.load_global(&x, &|g: &[usize]| values[g[0]])
                    .map_err(|e| e.to_string())?;
                env.load_global(&idx, &|g: &[usize]| index[g[0]])
                    .map_err(|e| e.to_string())?;
                let mut sched = None;
                let mut last = Vec::new();
                let mut reused = 0u64;
                for _ in 0..ITERS {
                    if !reuse || sched.is_none() {
                        let s = rec
                            .span("ooc-array.inspect", run, op, |_| {
                                inspect(ctx, &mut env, &x, &idx, ctx)
                            })
                            .map_err(err)?;
                        sched = Some(s);
                    } else {
                        reused += 1;
                    }
                    let s = sched.as_ref().expect("inspected above");
                    last = rec
                        .span("ooc-array.gather_with", run, op, |_| {
                            gather_with(ctx, &mut env, s, method, ctx)
                        })
                        .map_err(err)?;
                }
                let s = sched.as_ref().expect("at least one iteration");
                let direct = irreg_counts(s, IoMethod::Direct).read_bytes;
                let sieved = irreg_counts(s, IoMethod::Sieved).read_bytes;
                Ok::<_, String>((last, reused, direct, sieved))
            })
        });
        let host = t0.elapsed().as_secs_f64();
        add_counters(t, &report);
        for (rank, r) in per_rank.into_iter().enumerate() {
            let (got, reused, direct, sieved) = r?;
            let base = rank * IDX_PER_RANK;
            let want: Vec<f32> = (base..base + IDX_PER_RANK)
                .map(|g| self.x[index[g] as usize])
                .collect();
            if got != want {
                t.fail(format!(
                    "gather {} p{p} rank {rank}: wrong values",
                    method.label()
                ));
            }
            t.add("ooc-array.gathers", ITERS as f64);
            t.add("ooc-array.gathers_reused", reused as f64);
            if method == IoMethod::Sieved {
                t.add("pario.sieve_useful_bytes", direct as f64);
                t.add("pario.sieve_read_bytes", sieved as f64);
            }
        }
        Ok((report.elapsed(), host))
    }

    /// Book one op; `item` names it among the pass's ops at its size.
    fn record(&self, p: usize, item: usize, r: Result<(f64, f64), String>, t: &mut Tally) {
        match r {
            Ok((sim, host)) => {
                t.done(host, 1.0);
                t.pass_sim_s += sim;
                t.scale(p == PROCS[1], item, host, 1.0);
            }
            Err(e) => {
                t.attempted += 1;
                t.fail(e);
            }
        }
    }
}

impl Workload for RemapMix {
    fn setup(seed: u64, workers: usize) -> Self {
        let pool = WorkerPool::new(workers);
        let mut rng = Rng::new(seed, 0x4ed1);
        let redist_value: Values =
            Arc::new((0..N * N).map(|_| rng.below(1 << 20) as f32).collect());
        let x: Values = Arc::new(
            (0..N_DATA)
                .map(|_| rng.below(389) as f32 * 0.25 - 48.0)
                .collect(),
        );
        // Hot-window indices: each entry lands in a window of `WINDOW`
        // elements centred on a seeded boundary between two owners'
        // blocks, so every seed gathers from exactly two owners.
        let idx = PROCS.map(|p| {
            let block = (N_DATA / p) as u64;
            let start = block * (1 + rng.below(p as u64 - 1)) - WINDOW / 2;
            let v: Vec<f32> = (0..IDX_PER_RANK * p)
                .map(|_| (start + rng.below(WINDOW)) as f32)
                .collect();
            Arc::new(v)
        });
        let w = RemapMix {
            programs: programs(&pool, seed),
            pool,
            redist_value,
            x,
            idx,
        };
        // Warm-up: one redistribution per machine size.
        let mut scratch = Tally::default();
        let off = Recorder::new(false);
        for p in PROCS {
            let _ = w.redistribute(p, IoMethod::TwoPhase, &off, &mut scratch);
        }
        w
    }

    fn pass(&mut self, rec: &Recorder, t: &mut Tally) {
        for p in PROCS {
            let mut item = 0..;
            let mut next = || item.next().expect("unbounded");
            for i in (0..self.programs.len()).filter(|&i| self.programs[i].p == p) {
                let r = self.run_program(i, rec, t);
                self.record(p, next(), r, t);
            }
            for method in IoMethod::ALL {
                let r = self.redistribute(p, method, rec, t);
                self.record(p, next(), r, t);
                for reuse in [false, true] {
                    let r = self.gather(p, method, reuse, rec, t);
                    self.record(p, next(), r, t);
                }
            }
        }
    }

    fn gate(&mut self, rec: &Recorder, t: &mut Tally) {
        if !rec.on() {
            return;
        }
        let mut export = None;
        for prog in &self.programs {
            let compiled: Result<CompiledProgram, _> =
                ooc_core::compile_source(&prog.source, &prog.options);
            let Ok(compiled) = compiled else {
                t.fail(format!("gate: {} no longer compiles", prog.label));
                continue;
            };
            let trace = estimate_and_trace_check(&compiled, &prog.cfg, t);
            if export.is_none() {
                export = trace;
            }
        }
        crate::layers::finish_trace_metrics(t, rec, export);
    }
}
