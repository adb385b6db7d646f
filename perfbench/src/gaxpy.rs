//! `paper_gaxpy`: the paper's Table 1 grid, its in-core reference row and
//! the Table 2 memory-allocation cells, each compiled from the Figure 3
//! HPF source and run on the simulated Touchstone Delta.

use std::sync::Arc;
use std::time::Instant;

use dmsim::{Machine, MachineConfig, ReduceOp, WorkerPool};
use noderun::{init_fn, RunConfig};
use ooc_array::{ArrayDesc, ArrayId, DimRange, Distribution, OocEnv, Section, Shape};
use ooc_core::stripmine::SlabSizing;
use ooc_core::{CompilerOptions, MemoryPolicy, SlabStrategy};
use pario::ElemKind;

use crate::layers::{
    add_counters, add_estimate, compile, estimate_and_trace_check, finish_trace_metrics,
};
use crate::spans::Recorder;
use crate::stats::Rng;
use crate::{Tally, Workload};

/// Matrix order of every cell.
const N: usize = 256;
const PROCS: [usize; 4] = [4, 16, 32, 64];
const RATIOS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
/// Table 2 runs on 16 processors.
const T2_PROCS: usize = 16;

type Init = Arc<dyn Fn(&[usize]) -> f32 + Send + Sync>;

enum Cell {
    /// Out-of-core cell compiled from the Figure 3 source.
    Compiled {
        label: String,
        p: usize,
        source: String,
        options: Box<CompilerOptions>,
    },
    /// The hand-coded in-core reference (Figure 5).
    InCore { p: usize },
}

pub struct PaperGaxpy {
    pool: WorkerPool,
    cells: Vec<Cell>,
    init_a: Init,
    init_b: Init,
    reference: Option<Vec<f32>>,
}

fn figure3(n: usize, p: usize) -> String {
    hpf::GAXPY_SOURCE.replace(
        "parameter (n=64, nprocs=4)",
        &format!("parameter (n={n}, nprocs={p})"),
    )
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let compiled = |label: String, p, sizing, strategy| Cell::Compiled {
        label,
        p,
        source: figure3(N, p),
        options: Box::new(CompilerOptions {
            sizing,
            force_strategy: Some(strategy),
            ..CompilerOptions::default()
        }),
    };
    for ratio in RATIOS {
        for p in PROCS {
            for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                let label = format!("t1 {} ratio {ratio} p{p}", strategy.name());
                cells.push(compiled(label, p, SlabSizing::Ratio(ratio), strategy));
            }
        }
    }
    for p in PROCS {
        cells.push(Cell::InCore { p });
    }
    // Table 2: one slab fixed, the other swept, at equal total memory.
    let fixed = 256 * N / 2048;
    for s in [256, 512, 1024, 2048].map(|s| s * N / 2048) {
        for (a, b) in [(fixed, s), (s, fixed)] {
            let label = format!("t2 slab a {a} b {b}");
            let sizing = SlabSizing::Explicit { a, b };
            cells.push(compiled(label, T2_PROCS, sizing, SlabStrategy::RowSlab));
        }
    }
    let budget = (fixed + N) * (N / T2_PROCS);
    for policy in [
        MemoryPolicy::EqualSplit,
        MemoryPolicy::AccessWeighted,
        MemoryPolicy::Search,
    ] {
        let label = format!("t2 budget {policy:?}");
        let sizing = SlabSizing::Budget {
            elems: budget,
            policy,
        };
        cells.push(compiled(label, T2_PROCS, sizing, SlabStrategy::RowSlab));
    }
    cells
}

impl PaperGaxpy {
    fn run_cfg(&self) -> RunConfig {
        let mut cfg = RunConfig {
            pool: Some(self.pool.clone()),
            ..RunConfig::default()
        };
        let (a, b) = (self.init_a.clone(), self.init_b.clone());
        cfg.init.insert("a".into(), init_fn(move |g| a(g)));
        cfg.init.insert("b".into(), init_fn(move |g| b(g)));
        cfg.collect.push("c".into());
        cfg
    }

    /// One cell: returns (simulated seconds, global C) or the error.
    fn run_cell(
        &self,
        i: usize,
        rec: &Recorder,
        t: &mut Tally,
    ) -> Result<(f64, Vec<f32>, f64), String> {
        let op = t.op();
        let cfg = self.run_cfg();
        let t0 = Instant::now();
        let out = match &self.cells[i] {
            Cell::Compiled {
                source, options, ..
            } => {
                let compiled = compile(rec, 0, op, source, options, t)?;
                let outcome = rec.span("noderun.run", 0, op, |_| noderun::run(&compiled, &cfg));
                let host = t0.elapsed().as_secs_f64();
                let mut outcome = outcome.map_err(|e| e.to_string())?;
                add_counters(t, &outcome.report);
                add_estimate(t, &compiled, &outcome.report);
                let (_, c) = outcome.collected.remove("c").ok_or("c not collected")?;
                (outcome.report.elapsed(), c, host)
            }
            Cell::InCore { p } => {
                let (report, c) = rec.span("dmsim.run_on", 0, op, |_| {
                    incore(&self.pool, N, *p, &self.init_a, &self.init_b)
                });
                let host = t0.elapsed().as_secs_f64();
                add_counters(t, &report);
                (report.elapsed(), c, host)
            }
        };
        Ok(out)
    }
}

/// The in-core reference: local arrays read once, C written once, the
/// product reduced column by column. Returns the global C (column-major;
/// C is column-block distributed, so ranks' panels concatenate).
fn incore(
    pool: &WorkerPool,
    n: usize,
    p: usize,
    fa: &Init,
    fb: &Init,
) -> (dmsim::RunReport, Vec<f32>) {
    let shape = Shape::matrix(n, n);
    let col = Distribution::column_block(shape.clone(), p);
    let row = Distribution::row_block(shape, p);
    let a = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone());
    let b = ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row);
    let c = ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col);
    let machine = Machine::new(MachineConfig::delta(p));
    let (report, panels) = machine.run_on(pool, |ctx| {
        let rank = ctx.rank();
        let mut env = OocEnv::in_memory(rank);
        for d in [&a, &b, &c] {
            env.alloc(d).expect("alloc");
        }
        env.load_global(&a, &|g: &[usize]| fa(g)).expect("load a");
        env.load_global(&b, &|g: &[usize]| fb(g)).expect("load b");
        let la = a.local_shape(rank);
        let lb = b.local_shape(rank);
        let a_in = env
            .read_section(&a, &Section::full(&la), ctx)
            .expect("read a");
        let b_in = env
            .read_section(&b, &Section::full(&lb), ctx)
            .expect("read b");
        let lc = la.extent(1);
        let lr_b = lb.extent(0);
        let mut c_out = vec![0.0f32; la.len()];
        let mut next_col = 0usize;
        for j in 0..n {
            let mut temp = vec![0.0f32; n];
            for i in 0..lc {
                let bval = b_in[i + j * lr_b];
                for (t, &av) in temp.iter_mut().zip(&a_in[i * n..(i + 1) * n]) {
                    *t += av * bval;
                }
            }
            ctx.charge_flops((2 * n * lc) as u64);
            let owner = c.dist.owner(&[0, j]);
            let summed = ctx.reduce(&temp, ReduceOp::Sum, owner);
            if rank == owner {
                let v = summed.expect("reduce root holds the sum");
                c_out[next_col * n..(next_col + 1) * n].copy_from_slice(&v);
                next_col += 1;
            }
        }
        let sec = Section::new(vec![DimRange::new(0, n), DimRange::new(0, lc)]);
        env.write_section(&c, &sec, &c_out, ctx).expect("write c");
        c_out
    });
    (report, panels.concat())
}

impl Workload for PaperGaxpy {
    fn setup(seed: u64, workers: usize) -> Self {
        // Entries are multiples of 1/4 in [-1, 1], so every partial sum of
        // the 256-term products is exact in f32: any summation order must
        // reproduce the serial reference bit for bit.
        let mut r = Rng::new(seed, 0x6a78);
        let (sa, sb) = (r.below(8) as usize, r.below(9) as usize);
        let init_a: Init = Arc::new(move |g| ((g[0] * 7 + g[1] * 3 + sa) % 8) as f32 * 0.25 - 1.0);
        let init_b: Init = Arc::new(move |g| ((g[0] * 5 + g[1] + sb) % 9) as f32 * 0.25 - 1.0);
        let w = PaperGaxpy {
            pool: WorkerPool::new(workers),
            cells: cells(),
            init_a,
            init_b,
            reference: None,
        };
        // Warm-up: one cell per machine size fills the pool's stacks.
        let mut scratch = Tally::default();
        let off = Recorder::new(false);
        for i in (0..w.cells.len()).filter(|&i| matches!(w.cells[i], Cell::InCore { .. })) {
            let _ = w.run_cell(i, &off, &mut scratch);
        }
        w
    }

    fn pass(&mut self, rec: &Recorder, t: &mut Tally) {
        for i in 0..self.cells.len() {
            let p = match &self.cells[i] {
                Cell::Compiled { p, .. } | Cell::InCore { p } => *p,
            };
            match self.run_cell(i, rec, t) {
                Ok((sim, c, host)) => {
                    t.done(host, 1.0);
                    t.pass_sim_s += sim;
                    if let Cell::Compiled { label, .. } = &self.cells[i] {
                        // Table 1 at 4 against 64 processors: same flops.
                        let t1 = label.starts_with("t1");
                        if t1 && (p == PROCS[0] || p == PROCS[3]) {
                            t.scale(p == PROCS[3], i, host, 1.0);
                        }
                    }
                    if self.reference.is_none() {
                        let (fa, fb) = (&self.init_a, &self.init_b);
                        self.reference = Some(noderun::ref_gaxpy(N, &|g| fa(g), &|g| fb(g)));
                    }
                    let reference = self.reference.as_ref().expect("computed above");
                    if c != *reference {
                        let name = match &self.cells[i] {
                            Cell::Compiled { label, .. } => label.clone(),
                            Cell::InCore { p } => format!("in-core p{p}"),
                        };
                        let diff = noderun::max_abs_diff(&c, reference);
                        t.fail(format!("{name}: C differs from ref_gaxpy by {diff}"));
                    }
                }
                Err(e) => {
                    t.attempted += 1;
                    t.fail(format!("cell {i}: {e}"));
                }
            }
        }
    }

    fn gate(&mut self, rec: &Recorder, t: &mut Tally) {
        if !rec.on() {
            return;
        }
        let cfg = self.run_cfg();
        let mut export = None;
        for cell in &self.cells {
            if let Cell::Compiled {
                source, options, ..
            } = cell
            {
                let Ok(compiled) = ooc_core::compile_source(source, options) else {
                    t.fail("gate: a cell no longer compiles".to_string());
                    continue;
                };
                let trace = estimate_and_trace_check(&compiled, &cfg, t);
                if export.is_none() {
                    export = trace;
                }
            }
        }
        finish_trace_metrics(t, rec, export);
    }
}
