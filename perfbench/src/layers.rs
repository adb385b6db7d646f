//! Calls into the workspace crates that more than one workload makes,
//! with their spans and per-layer counters.

use std::time::Instant;

use noderun::RunConfig;
use ooc_core::{CompiledProgram, CompilerOptions};

use crate::spans::{Recorder, SpanId};
use crate::Tally;

/// Parse, analyze, lower and compile one HPF source, with the front end
/// and the compiler in separate spans.
pub fn compile(
    rec: &Recorder,
    parent: SpanId,
    op: u64,
    source: &str,
    options: &CompilerOptions,
    t: &mut Tally,
) -> Result<CompiledProgram, String> {
    let info = rec.span("hpf.parse", parent, op, |_| {
        let prog = hpf::parse_program(source).map_err(|e| e.to_string())?;
        let info = hpf::analyze(&prog).map_err(|e| e.to_string())?;
        Ok::<_, String>((info, prog.stmts.len()))
    });
    let (info, stmts) = info?;
    t.add("hpf.stmts", stmts as f64);
    rec.span("ooc-core.compile", parent, op, |_| {
        let hir = ooc_core::lower::lower(&info)?;
        ooc_core::compile_hir(hir, options).map_err(|e| e.to_string())
    })
}

/// Fold a finished run's counters into the per-layer totals.
pub fn add_counters(t: &mut Tally, report: &dmsim::RunReport) {
    let s = report.totals();
    t.add("pario.read_requests", s.io_read_requests as f64);
    t.add("pario.write_requests", s.io_write_requests as f64);
    t.add("pario.mib_read", s.io_bytes_read as f64 / 1048576.0);
    t.add("pario.mib_written", s.io_bytes_written as f64 / 1048576.0);
    t.add("pario.sim_io_s", s.time_io);
    t.add("pario.io_retries", s.io_retries as f64);
    t.add("pario.cache_hits", s.cache_hits as f64);
    t.add("dmsim.msgs", s.msgs_sent as f64);
    t.add("dmsim.mib_sent", s.bytes_sent as f64 / 1048576.0);
    t.add("dmsim.flops", s.flops as f64);
    t.add("dmsim.sim_comm_s", s.time_comm);
}

/// Fold a compiled program's estimate-vs-simulated gap into the totals.
pub fn add_estimate(t: &mut Tally, compiled: &CompiledProgram, report: &dmsim::RunReport) {
    let est: f64 = compiled.estimates.iter().map(|e| e.time()).sum();
    let sim = report.elapsed();
    if sim > 0.0 {
        t.add("ooc-core.est_rel_err_sum", (est - sim).abs() / sim);
        t.add("ooc-core.est_ops", 1.0);
    }
}

/// Run `compiled` untraced and traced once each: counts whether every
/// estimated I/O counter equals the measured one, and the host cost of the
/// program's own tracing. Returns the trace for export.
pub fn estimate_and_trace_check(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
    t: &mut Tally,
) -> Option<dmsim::Trace> {
    let t0 = Instant::now();
    let plain = noderun::run(compiled, cfg).ok()?;
    let off = t0.elapsed().as_secs_f64();
    let traced_cfg = RunConfig {
        trace: Some(dmsim::TraceConfig::on()),
        ..cfg.clone()
    };
    let t0 = Instant::now();
    let mut traced = noderun::run(compiled, &traced_cfg).ok()?;
    let on = t0.elapsed().as_secs_f64();
    t.add("ooc-trace.on_s", on);
    t.add("ooc-trace.off_s", off);
    let trace = traced.report.take_trace()?;
    let exact = noderun::divergence_report(compiled, &trace).is_zero_gap();
    t.add("ooc-core.est_checked", 1.0);
    t.add("ooc-core.est_exact", f64::from(u8::from(exact)));
    if plain.report.elapsed().to_bits() != traced.report.elapsed().to_bits() {
        t.fail("tracing changed a program's simulated time".to_string());
    }
    Some(trace)
}

/// Settle the ratios the gates accumulated and time one Perfetto export.
pub fn finish_trace_metrics(t: &mut Tally, rec: &Recorder, trace: Option<dmsim::Trace>) {
    let sum = |t: &Tally, k: &str| t.layer.get(k).copied().unwrap_or(0.0);
    let r = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let exact = r(sum(t, "ooc-core.est_exact"), sum(t, "ooc-core.est_checked"));
    t.fixed.insert("ooc-core.est_io_exact_ratio", exact);
    let overhead = r(sum(t, "ooc-trace.on_s"), sum(t, "ooc-trace.off_s"));
    t.fixed.insert("ooc-trace.overhead_ratio", overhead);
    if let Some(trace) = trace {
        t.fixed
            .insert("ooc-trace.spans", trace.event_count() as f64);
        let op = t.op();
        let t0 = Instant::now();
        let json = rec.span("ooc-trace.export", 0, op, |_| {
            ooc_trace::perfetto::to_chrome_json(&trace)
        });
        t.fixed
            .insert("ooc-trace.export_s", t0.elapsed().as_secs_f64());
        std::hint::black_box(json);
    }
}
