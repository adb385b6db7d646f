//! The end-to-end compilation pipeline.
//!
//! `source → parse → analyze → lower → [per statement: partition,
//! communication analysis, reorganization, stripmining, node generation]
//! → CompiledProgram` — Figure 7 of the paper, as one function call.

use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use dmsim::CostModel;
use hpf::FrontError;
use ooc_array::{ArrayDesc, ArrayId, FileLayout, SlabPlan};
use pario::ElemKind;

use crate::access::best_elw_slab_dim;
use crate::comm::{analyze_elw, CommRequirement};
use crate::cost::CostEstimate;
use crate::hir::{HirProgram, HirStmt};
use crate::ir::{render, NestNode};
use crate::lower::lower;
use crate::nodegen::nest_of;
use crate::plan::{ElwPlan, ExecPlan, SlabStrategy, SpmvPlan, TransposePlan};
use crate::reorg::{choose_gaxpy, GaxpyChoice, GaxpySelection};
use crate::stripmine::SlabSizing;

/// Cost-model profile the compiler optimizes for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MachineProfile {
    /// Intel Touchstone Delta calibration (the paper's machine).
    Delta,
    /// A modern cluster profile (ablations).
    Cluster,
    /// Zero-cost machine (functional tests).
    Free,
    /// Explicit model; its `nprocs` is overwritten with the program's.
    Custom(CostModel),
}

impl MachineProfile {
    /// Instantiate the cost model for `p` processors.
    pub fn model(&self, p: usize) -> CostModel {
        match self {
            MachineProfile::Delta => CostModel::delta(p),
            MachineProfile::Cluster => CostModel::cluster(p),
            MachineProfile::Free => CostModel::free(p),
            MachineProfile::Custom(m) => {
                let mut m = m.clone();
                m.nprocs = p;
                m
            }
        }
    }
}

/// Compiler options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Slab sizing policy for GAXPY statements.
    pub sizing: SlabSizing,
    /// Machine the cost estimator targets.
    pub profile: MachineProfile,
    /// Force a GAXPY slab strategy instead of cost-based selection.
    pub force_strategy: Option<SlabStrategy>,
    /// Allow the compiler to reorganize array storage on disk (file
    /// layouts). Disabling this is the paper's implicit baseline where row
    /// slabs would be strided.
    pub reorganize_storage: bool,
    /// In-core element budget for elementwise and transpose statements.
    pub elw_slab_elems: usize,
    /// Byte budget of the runtime slab cache, when the target runs with one
    /// (`None` = uncached, the default). GAXPY estimates become reuse-aware:
    /// instead of walking the symbolic nest, the estimator replays the access
    /// sequence through a predictor-mode cache so estimate == measurement
    /// still holds under caching.
    pub cache_budget: Option<usize>,
    /// Force one I/O access method for every remap-style access (pre-
    /// statement redistributions and transposes) instead of per-access
    /// cost-based selection (`None`, the default).
    pub io_method: Option<pario::IoMethod>,
    /// Background disk-farm load the compiled program will run against
    /// (concurrent workload jobs sharing the physical disks). `Some` prices
    /// every estimate — and therefore every strategy and access-method
    /// selection — under this job's fair bandwidth share via
    /// [`dmsim::CostModel::contended`]; `None` (the default, and any load
    /// with zero competitors) is bit-identical to the uncontended compiler.
    pub background: Option<dmsim::BackgroundLoad>,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            sizing: SlabSizing::default(),
            profile: MachineProfile::Delta,
            force_strategy: None,
            reorganize_storage: true,
            elw_slab_elems: 1 << 20,
            cache_budget: None,
            io_method: None,
            background: None,
        }
    }
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing, parsing or semantic analysis failed.
    Front(FrontError),
    /// A statement is outside the supported subset.
    Lower(String),
    /// Plan construction failed (communication analysis, sizing…).
    Plan(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Front(e) => write!(f, "front end: {e}"),
            CompileError::Lower(m) => write!(f, "lowering: {m}"),
            CompileError::Plan(m) => write!(f, "planning: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<FrontError> for CompileError {
    fn from(e: FrontError) -> Self {
        CompileError::Front(e)
    }
}

/// A compiled out-of-core program: one executable plan per statement, plus
/// the symbolic node programs and cost estimates behind the choices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// The lowered program.
    pub hir: HirProgram,
    /// Final array descriptors (ids are indices into `hir.arrays`).
    pub descs: Vec<ArrayDesc>,
    /// One plan per statement.
    pub plans: Vec<ExecPlan>,
    /// One symbolic node program per statement.
    pub nests: Vec<Vec<NestNode>>,
    /// One cost estimate per statement.
    pub estimates: Vec<CostEstimate>,
    /// For GAXPY statements, the per-strategy estimates that drove
    /// selection.
    pub alternatives: Vec<Option<Vec<(SlabStrategy, CostEstimate)>>>,
    /// Per statement, the I/O access-method selections made for its
    /// remap-style accesses (pre-statement redistributions, transposes);
    /// empty for statements without any.
    pub io_choices: Vec<Vec<crate::reorg::IoMethodChoice>>,
    /// The cost model used.
    pub model: CostModel,
}

impl CompiledProgram {
    /// Number of processors the program runs on.
    pub fn nprocs(&self) -> usize {
        self.hir.nprocs
    }

    /// Pseudo-code of statement `i`'s node program (Figures 9/12 style).
    pub fn node_program_text(&self, i: usize) -> String {
        render(&self.nests[i])
    }

    /// Human-readable compilation report: arrays, layouts, per-statement
    /// strategy choices and estimates.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "out-of-core compilation report ({} processors)",
            self.nprocs()
        );
        let _ = writeln!(out, "arrays:");
        for d in &self.descs {
            let exts: Vec<String> = d
                .global_shape()
                .extents()
                .iter()
                .map(|e| e.to_string())
                .collect();
            let layout = if d.layout == FileLayout::column_major(d.layout.ndims()) {
                "column-major".to_string()
            } else if d.layout == FileLayout::row_major(d.layout.ndims()) {
                "row-major (reorganized)".to_string()
            } else {
                format!("{:?}", d.layout.order())
            };
            let _ = writeln!(out, "  {}: {} file layout {layout}", d.name, exts.join("x"));
        }
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                ExecPlan::Gaxpy(g) => {
                    let _ = writeln!(
                        out,
                        "statement {}: gaxpy {} = {} * {} (n={}) -> {} selected \
                         (slab_a={}, slab_b={}, {} elements in-core)",
                        i + 1,
                        g.c.name,
                        g.a.name,
                        g.b.name,
                        g.n,
                        g.strategy.name(),
                        g.slab_a,
                        g.slab_b,
                        g.memory_elems()
                    );
                    if let Some(alts) = &self.alternatives[i] {
                        for (s, e) in alts {
                            let _ = writeln!(
                                out,
                                "  {:12}: {:>12} requests, {:>14} bytes, est {:>10.2} s",
                                s.name(),
                                e.io_requests(),
                                e.io_bytes(),
                                e.time()
                            );
                        }
                        // The Figure 14 analysis behind the choice.
                        let rows = crate::access::fig14_table(alts, &g.a.name, &g.b.name);
                        let _ = writeln!(
                            out,
                            "  access analysis (T_fetch = requests, T_data = elements per processor):"
                        );
                        for r in &rows {
                            let _ = writeln!(
                                out,
                                "    slabs of `{}` along dim {} ({:12}): T_fetch {:>10}, T_data {:>12}",
                                r.array,
                                r.dim,
                                r.strategy.name(),
                                r.t_fetch,
                                r.t_data
                            );
                        }
                        if let Some(dom) = crate::access::dominant_array(&rows) {
                            let _ = writeln!(
                                out,
                                "  dominant array: `{dom}` (largest amount of I/O; Figure 14)"
                            );
                        }
                    }
                }
                ExecPlan::Elementwise(e) => {
                    let _ = writeln!(
                        out,
                        "statement {}: elementwise {} (slab dim {}, thickness {}, {} ghost exchange(s))",
                        i + 1,
                        e.lhs.name,
                        e.slab_dim,
                        e.slab_thickness,
                        e.ghosts.len()
                    );
                }
                ExecPlan::Transpose(t) => {
                    let _ = writeln!(
                        out,
                        "statement {}: transpose {} = {}^T (slab thickness {}, {} I/O)",
                        i + 1,
                        t.dst.name,
                        t.src.name,
                        t.slab_thickness,
                        t.method.label()
                    );
                }
                ExecPlan::Spmv(s) => {
                    let _ = writeln!(
                        out,
                        "statement {}: spmv {} = A * {} (n={}, {} nonzeros, \
                         inspector-executor, {} gather I/O)",
                        i + 1,
                        s.y.name,
                        s.x.name,
                        s.n,
                        s.nnz,
                        s.method.label()
                    );
                }
            }
            for ch in &self.io_choices[i] {
                let forced = if ch.forced { " (forced)" } else { "" };
                let _ = writeln!(
                    out,
                    "  {}: {} I/O selected{}",
                    ch.access,
                    ch.chosen.label(),
                    forced
                );
                for (m, e) in &ch.estimates {
                    let _ = writeln!(
                        out,
                        "    {:10}: {:>10} requests, {:>12} bytes, est {:>10.4} s",
                        m.label(),
                        e.io_requests(),
                        e.io_bytes(),
                        e.time()
                    );
                }
            }
        }
        out
    }
}

/// Block-cyclic locals are not regular sections; plans over them would
/// silently compute nothing, so reject at compile time.
fn require_regular_dist(desc: &ArrayDesc, what: &str) -> Result<(), CompileError> {
    use ooc_array::{DimDist, DistKind};
    for (d, dd) in desc.dist.dims().iter().enumerate() {
        if let DimDist::Distributed {
            kind: DistKind::BlockCyclic(_),
            ..
        } = dd
        {
            return Err(CompileError::Plan(format!(
                "{what}: dimension {d} of `{}` is block-cyclic distributed; \
                 only block, cyclic and collapsed dimensions are supported",
                desc.name
            )));
        }
    }
    Ok(())
}

/// The transpose remap relies on contiguous owned ranges (block/collapsed).
fn require_block_or_collapsed(desc: &ArrayDesc, what: &str) -> Result<(), CompileError> {
    use ooc_array::{DimDist, DistKind};
    for (d, dd) in desc.dist.dims().iter().enumerate() {
        match dd {
            DimDist::Collapsed
            | DimDist::Distributed {
                kind: DistKind::Block,
                ..
            } => {}
            other => {
                return Err(CompileError::Plan(format!(
                    "{what}: dimension {d} of `{}` is distributed {other:?}; \
                     only block or collapsed dimensions are supported",
                    desc.name
                )))
            }
        }
    }
    Ok(())
}

/// Compile HPF source text.
pub fn compile_source(
    source: &str,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let prog = hpf::parse_program(source)?;
    let info = hpf::analyze(&prog)?;
    let hir = lower(&info).map_err(CompileError::Lower)?;
    compile_hir(hir, options)
}

/// Compile an already-lowered program (the programmatic API used by
/// examples and benches).
pub fn compile_hir(
    hir: HirProgram,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let p = hir.nprocs;
    // Under background load the whole compilation — strategy selection,
    // access-method selection, estimates, and the model the executor's
    // machine charges — is priced at this job's static bandwidth share.
    // This is the legacy `shared_disks`-style static divide; the `ooc-sched`
    // farm instead models contention dynamically from queues and should be
    // fed programs compiled *without* a background load.
    let model = match &options.background {
        Some(load) => options.profile.model(p).contended(load),
        None => options.profile.model(p),
    };

    let id_of = |name: &str| -> Result<ArrayId, CompileError> {
        hir.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
            .ok_or_else(|| CompileError::Plan(format!("undeclared array `{name}`")))
    };

    // Pass 1: walk statements in order deciding strategies and locking
    // layouts (first statement to care about an array's storage wins).
    let mut locked: Vec<Option<FileLayout>> = vec![None; hir.arrays.len()];
    let mut gaxpy_choices: Vec<Option<GaxpyChoice>> = Vec::with_capacity(hir.stmts.len());
    for stmt in &hir.stmts {
        match stmt {
            HirStmt::Gaxpy { a, b, c, n, .. } => {
                let (ia, ib, ic) = (id_of(a)?, id_of(b)?, id_of(c)?);
                let sel = GaxpySelection {
                    ids: (ia, ib, ic),
                    arrays: (
                        hir.array(a).expect("id_of checked"),
                        hir.array(b).expect("id_of checked"),
                        hir.array(c).expect("id_of checked"),
                    ),
                    n: *n,
                    p,
                    sizing: options.sizing,
                    reorganize: options.reorganize_storage,
                    locked: (
                        locked[ia.0 as usize].clone(),
                        locked[ib.0 as usize].clone(),
                        locked[ic.0 as usize].clone(),
                    ),
                    force: options.force_strategy,
                };
                let choice = choose_gaxpy(&sel, &model);
                for (id, layout) in [
                    (ia, choice.plan.a.layout.clone()),
                    (ib, choice.plan.b.layout.clone()),
                    (ic, choice.plan.c.layout.clone()),
                ] {
                    locked[id.0 as usize].get_or_insert(layout);
                }
                gaxpy_choices.push(Some(choice));
            }
            _ => gaxpy_choices.push(None),
        }
    }

    // Freeze descriptors: locked layout or column-major default.
    let descs: Vec<ArrayDesc> = hir
        .arrays
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let layout = locked[i]
                .clone()
                .unwrap_or_else(|| FileLayout::column_major(a.shape.ndims()));
            ArrayDesc::new(
                ArrayId(i as u32),
                a.name.clone(),
                ElemKind::F32,
                a.dist.clone(),
            )
            .with_layout(layout)
        })
        .collect();

    // Pass 2: build plans against frozen descriptors.
    let mut next_tmp_id = hir.arrays.len() as u32;
    let mut plans = Vec::with_capacity(hir.stmts.len());
    let mut nests = Vec::with_capacity(hir.stmts.len());
    let mut estimates = Vec::with_capacity(hir.stmts.len());
    let mut alternatives = Vec::with_capacity(hir.stmts.len());
    let mut io_choices = Vec::with_capacity(hir.stmts.len());
    for (si, stmt) in hir.stmts.iter().enumerate() {
        match stmt {
            HirStmt::Gaxpy { .. } => {
                let choice = gaxpy_choices[si].clone().expect("pass 1 recorded");
                // Descriptors in the plan must match the frozen table.
                let mut plan = choice.plan;
                plan.a = descs[plan.a.id.0 as usize].clone();
                plan.b = descs[plan.b.id.0 as usize].clone();
                plan.c = descs[plan.c.id.0 as usize].clone();
                let nest = crate::nodegen::gaxpy_nest(&plan);
                let est = match options.cache_budget {
                    // Reuse-aware estimate: replay rank 0's access sequence
                    // through a predictor-mode slab cache.
                    Some(budget) => CostEstimate::from_totals(
                        crate::reuse::gaxpy_cached_totals(&plan, 0, budget),
                        &model,
                        4,
                    ),
                    None => CostEstimate::from_nest(&nest, &model, 4),
                };
                plans.push(ExecPlan::Gaxpy(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(Some(choice.estimates));
                io_choices.push(Vec::new());
            }
            HirStmt::Elementwise(e) => {
                let lhs_id = id_of(&e.lhs)?;
                let lhs_desc = descs[lhs_id.0 as usize].clone();
                require_regular_dist(&lhs_desc, "elementwise")?;
                // FORALL has copy-in-copy-out semantics; a shifted self-
                // reference would read slabs already overwritten by earlier
                // stages of the stripmined loop. (Unshifted self-reference
                // is safe: each stage reads its inputs before writing.)
                for (name, offs) in e.rhs_refs() {
                    if name == e.lhs && offs.iter().any(|&o| o != 0) {
                        return Err(CompileError::Plan(format!(
                            "elementwise: `{name}` is assigned and referenced \
                             with a shift; the stripmined translation cannot \
                             preserve forall copy-in semantics (use a second \
                             array)"
                        )));
                    }
                    // Every shifted reference must stay inside the global
                    // array over the whole iteration region.
                    let arr = hir
                        .array(&name)
                        .ok_or_else(|| CompileError::Plan(format!("undeclared array `{name}`")))?;
                    for (d, &off) in offs.iter().enumerate().take(e.region.ndims()) {
                        let r = e.region.range(d);
                        let lo = r.lo as isize + off;
                        let hi = (r.hi - 1) as isize + off;
                        if lo < 0 || hi >= arr.shape.extent(d) as isize {
                            return Err(CompileError::Plan(format!(
                                "elementwise: reference `{name}` shifted by \
                                 {off} along dimension {d} leaves the array \
                                 bounds for part of the iteration region \
                                 ({}..{} of extent {})",
                                lo,
                                hi + 1,
                                arr.shape.extent(d)
                            )));
                        }
                    }
                }
                // Right-hand sides in a different distribution are legal:
                // the compiler inserts a redistribution into a statement-
                // local temporary with the lhs's distribution (the remap an
                // HPF compiler schedules for misaligned operands).
                let mut rhs_descs: Vec<ArrayDesc> = Vec::new();
                let mut pre_remaps = Vec::new();
                for (name, _) in e.rhs_refs() {
                    let id = id_of(&name)?;
                    let d = descs[id.0 as usize].clone();
                    if rhs_descs.iter().any(|x| x.name == d.name) {
                        continue;
                    }
                    if d.dist == lhs_desc.dist {
                        rhs_descs.push(d);
                    } else {
                        require_regular_dist(&d, "elementwise remap")?;
                        if d.global_shape() != lhs_desc.global_shape() {
                            return Err(CompileError::Plan(format!(
                                "elementwise: `{name}` and `{}` have different                                  shapes",
                                e.lhs
                            )));
                        }
                        let tmp = ArrayDesc::new(
                            ArrayId(next_tmp_id),
                            d.name.clone(),
                            ElemKind::F32,
                            lhs_desc.dist.clone(),
                        );
                        next_tmp_id += 1;
                        pre_remaps.push(crate::plan::RemapSpec {
                            src: d,
                            tmp: tmp.clone(),
                            method: pario::IoMethod::Direct,
                        });
                        rhs_descs.push(tmp);
                    }
                }
                // Per-remap access-method selection: price the exact
                // request replay of each method, keep the cheapest.
                let mut stmt_choices = Vec::new();
                for r in &mut pre_remaps {
                    let choice = crate::reorg::choose_io_method(
                        format!("remap {}", r.src.name),
                        &model,
                        options.io_method,
                        |m| {
                            crate::nodegen::remap_nodes(
                                &crate::plan::RemapSpec {
                                    method: m,
                                    ..r.clone()
                                },
                                0,
                            )
                        },
                    );
                    r.method = choice.chosen;
                    stmt_choices.push(choice);
                }
                // Ghost analysis runs against the post-remap distributions.
                let hir_view = {
                    let mut v = hir.clone();
                    for r in &pre_remaps {
                        if let Some(a) = v.arrays.iter_mut().find(|a| a.name == r.src.name) {
                            a.dist = lhs_desc.dist.clone();
                        }
                    }
                    v
                };
                let ghosts = match analyze_elw(e, &hir_view).map_err(CompileError::Plan)? {
                    CommRequirement::Ghost(g) => g,
                    CommRequirement::None => Vec::new(),
                    other => {
                        return Err(CompileError::Plan(format!(
                            "elementwise statement needs unsupported communication {other:?}"
                        )))
                    }
                };
                // Budget per array, then pick the cheapest slab dimension.
                let narr = 1 + rhs_descs.len();
                let per_array = (options.elw_slab_elems / narr).max(1);
                let local = lhs_desc.local_shape(0);
                let probe = SlabPlan::from_memory(local.clone(), local.ndims() - 1, per_array);
                let slab_dim = best_elw_slab_dim(e, &lhs_desc, &rhs_descs, 0, probe.thickness());
                let plan_sized = SlabPlan::from_memory(local, slab_dim, per_array);
                let plan = ElwPlan {
                    pre_remaps,
                    lhs: lhs_desc,
                    rhs_arrays: rhs_descs,
                    expr: e.rhs.clone(),
                    region: e.region.clone(),
                    slab_dim,
                    slab_thickness: plan_sized.thickness(),
                    ghosts,
                    flops_per_point: e.rhs.flops_per_point(),
                };
                let nest = nest_of(&ExecPlan::Elementwise(plan.clone()));
                let est = CostEstimate::from_nest(&nest, &model, 4);
                plans.push(ExecPlan::Elementwise(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(stmt_choices);
            }
            HirStmt::Transpose { src, dst } => {
                let src_desc = descs[id_of(src)?.0 as usize].clone();
                let dst_desc = descs[id_of(dst)?.0 as usize].clone();
                require_block_or_collapsed(&src_desc, "transpose")?;
                require_block_or_collapsed(&dst_desc, "transpose")?;
                let local = src_desc.local_shape(0);
                let slab_dim = src_desc.layout.slowest_dim();
                let sp = SlabPlan::from_memory(local, slab_dim, options.elw_slab_elems.max(1));
                let mut plan = TransposePlan {
                    src: src_desc,
                    dst: dst_desc,
                    slab_thickness: sp.thickness(),
                    method: pario::IoMethod::Direct,
                };
                let choice = crate::reorg::choose_io_method(
                    format!("transpose {}", plan.dst.name),
                    &model,
                    options.io_method,
                    |m| {
                        crate::nodegen::transpose_nest(&TransposePlan {
                            method: m,
                            ..plan.clone()
                        })
                    },
                );
                plan.method = choice.chosen;
                let nest = nest_of(&ExecPlan::Transpose(plan.clone()));
                let est = CostEstimate::from_nest(&nest, &model, 4);
                plans.push(ExecPlan::Transpose(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(vec![choice]);
            }
            HirStmt::Spmv {
                y,
                rowptr,
                colidx,
                vals,
                x,
                n,
                nnz,
            } => {
                let mut plan = SpmvPlan {
                    y: descs[id_of(y)?.0 as usize].clone(),
                    rowptr: descs[id_of(rowptr)?.0 as usize].clone(),
                    colidx: descs[id_of(colidx)?.0 as usize].clone(),
                    vals: descs[id_of(vals)?.0 as usize].clone(),
                    x: descs[id_of(x)?.0 as usize].clone(),
                    n: *n,
                    nnz: *nnz,
                    nprocs: p,
                    method: pario::IoMethod::Direct,
                };
                // The index set is unknown at compile time: price the gather
                // over the fully-scattered member of the irregular cost-term
                // family. The executor re-selects at run time from the
                // inspected schedule's measured statistics.
                let stats = crate::irreg::scattered_stats(*n, *nnz, p, 4, 1);
                let choice = crate::reorg::choose_io_method(
                    format!("gather {x}({colidx}(k))"),
                    &model,
                    options.io_method,
                    |m| crate::irreg::spmv_nest_with(&plan, m, &stats, 0),
                );
                plan.method = choice.chosen;
                let nest = nest_of(&ExecPlan::Spmv(Box::new(plan.clone())));
                let est = CostEstimate::from_nest(&nest, &model, 4);
                plans.push(ExecPlan::Spmv(Box::new(plan)));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(vec![choice]);
            }
        }
    }

    Ok(CompiledProgram {
        hir,
        descs,
        plans,
        nests,
        estimates,
        alternatives,
        io_choices,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_compiles_and_selects_row_slabs() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
            panic!("expected gaxpy plan");
        };
        assert_eq!(g.strategy, SlabStrategy::RowSlab);
        let report = compiled.report();
        assert!(report.contains("row slab"), "{report}");
        assert!(report.contains("reorganized"), "{report}");
        // Both alternatives were scored.
        let alts = compiled.alternatives[0].as_ref().unwrap();
        assert_eq!(alts.len(), 2);
        assert!(alts[0].1.io_requests() > alts[1].1.io_requests());
    }

    #[test]
    fn forced_column_strategy() {
        let opts = CompilerOptions {
            force_strategy: Some(SlabStrategy::ColumnSlab),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(hpf::GAXPY_SOURCE, &opts).unwrap();
        let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
            panic!()
        };
        assert_eq!(g.strategy, SlabStrategy::ColumnSlab);
    }

    #[test]
    fn report_includes_figure14_analysis() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let report = compiled.report();
        assert!(report.contains("access analysis"), "{report}");
        assert!(report.contains("dominant array: `a`"), "{report}");
        assert!(report.contains("T_fetch"), "{report}");
    }

    #[test]
    fn node_program_text_looks_like_figure_12() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let text = compiled.node_program_text(0);
        assert!(text.contains("row slabs of a"), "{text}");
        assert!(text.contains("global_sum"), "{text}");
        assert!(text.contains("read_slab(b)"), "{text}");
    }

    #[test]
    fn jacobi_program_compiles_to_elementwise() {
        let src = "
      parameter (n=32)
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
";
        let compiled = compile_source(src, &CompilerOptions::default()).unwrap();
        let ExecPlan::Elementwise(e) = &compiled.plans[0] else {
            panic!("expected elementwise plan");
        };
        // Row-block distribution: shifts along dim 0 need ghosts.
        assert_eq!(e.ghosts.len(), 1);
        assert_eq!(e.ghosts[0].dim, 0);
        assert!(compiled.estimates[0].io_requests() > 0);
    }

    #[test]
    fn out_of_bounds_shift_is_rejected_at_compile_time() {
        // u(i, j+1) over the full region walks off the last column.
        let src = "
      parameter (n=8)
      real u(n, n), v(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = u(i, j+1)
      end forall
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("leaves the array bounds"), "{err}");
        // Restricting the region makes it legal.
        let ok = src.replace("j = 1:n)", "j = 1:n-1)");
        assert!(compile_source(&ok, &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn shifted_self_reference_is_rejected() {
        let src = "
      parameter (n=16)
      real u(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
      forall (i = 2:n-1, j = 1:n)
        u(i, j) = u(i-1, j)
      end forall
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("copy-in"), "{err}");
        // Unshifted in-place update stays legal.
        let ok_src = src.replace("u(i-1, j)", "2.0 * u(i, j)");
        assert!(compile_source(&ok_src, &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn background_load_degrades_estimates_without_changing_metrics() {
        let base = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let idle = compile_source(
            hpf::GAXPY_SOURCE,
            &CompilerOptions {
                background: Some(dmsim::BackgroundLoad::jobs(0)),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(idle, base, "zero competitors is bit-identical");
        let busy = compile_source(
            hpf::GAXPY_SOURCE,
            &CompilerOptions {
                background: Some(dmsim::BackgroundLoad::jobs(3)),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        assert!(busy.estimates[0].io_time > base.estimates[0].io_time);
        assert_eq!(
            busy.estimates[0].io_requests(),
            base.estimates[0].io_requests(),
            "the paper's metrics are load-blind"
        );
    }

    #[test]
    fn spmv_compiles_and_selects_two_phase_unforced() {
        let compiled = compile_source(hpf::SPMV_SOURCE, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let ExecPlan::Spmv(s) = &compiled.plans[0] else {
            panic!("expected spmv plan, got {:?}", compiled.plans[0]);
        };
        // A scattered index set with heavy requester overlap: the deduped
        // two-phase union read must win on cost, not by force.
        assert_eq!(s.method, pario::IoMethod::TwoPhase);
        let choice = &compiled.io_choices[0][0];
        assert!(!choice.forced);
        assert_eq!(choice.estimates.len(), 3, "all three methods priced");
        let report = compiled.report();
        assert!(report.contains("spmv"), "{report}");
        assert!(report.contains("two-phase"), "{report}");
        assert!(compiled.estimates[0].io_requests() > 0);
    }

    #[test]
    fn spmv_gather_method_can_be_forced() {
        let opts = CompilerOptions {
            io_method: Some(pario::IoMethod::Sieved),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(hpf::SPMV_SOURCE, &opts).unwrap();
        let ExecPlan::Spmv(s) = &compiled.plans[0] else {
            panic!()
        };
        assert_eq!(s.method, pario::IoMethod::Sieved);
        assert!(compiled.io_choices[0][0].forced);
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = compile_source("this is not hpf $$$", &CompilerOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Front(_)));
    }

    #[test]
    fn unsupported_patterns_are_reported() {
        let src = "
      parameter (n=8)
      real a(n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
      do i = 1, n
        a(i) = i
      end do
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Lower(_)), "{err}");
    }
}
