//! Trace a paper kernel on the simulated machine and export its per-rank
//! timeline as Perfetto-loadable Chrome trace JSON, plus a terminal flame
//! summary, metric histograms and the estimate-vs-measured divergence
//! report.
//!
//! ```text
//! cargo run --release -p ooc-bench --bin tracerun -- \
//!     [gaxpy|transpose|jacobi] [--out trace.json] [--cache BYTES] \
//!     [--prefetch] [--chaos SEED] [--check]
//! ```
//!
//! `--check` validates the emitted JSON against the checked-in schema
//! (`crates/bench/schemas/trace_schema.json`) — finite timestamps, monotone
//! per-rank clocks, required keys — and exits nonzero on any violation.
//! Load the output at <https://ui.perfetto.dev> or `chrome://tracing`.

use dmsim::{FaultConfig, TraceConfig};
use noderun::{divergence_report, init_fn, run, RunConfig};
use ooc_bench::plot::{ascii_bars, Series};
use ooc_bench::table::{secs, TextTable};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use ooc_trace::perfetto::to_chrome_json;
use ooc_trace::{json, metrics};

const N: usize = 64;
const P: usize = 4;

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

fn kernel(name: &str, options: &CompilerOptions) -> (CompiledProgram, RunConfig) {
    let mut cfg = RunConfig::default();
    let compiled = match name {
        "gaxpy" => {
            cfg.init.insert("a".into(), init_fn(fa));
            cfg.init.insert("b".into(), init_fn(fb));
            compile_source(hpf::GAXPY_SOURCE, options)
        }
        "transpose" => {
            let src = format!(
                "
      parameter (n={N})
      real a(n, n), b(n, n)
!hpf$ processors pr({P})
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
            );
            cfg.init.insert("a".into(), init_fn(fa));
            compile_source(&src, options)
        }
        "jacobi" => {
            let src = format!(
                "
      parameter (n={N})
      real u(n, n), v(n, n)
!hpf$ processors pr({P})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
"
            );
            cfg.init.insert("u".into(), init_fn(fa));
            cfg.init.insert("v".into(), init_fn(fa));
            compile_source(&src, options)
        }
        other => {
            eprintln!("unknown kernel `{other}` (expected gaxpy, transpose or jacobi)");
            std::process::exit(2);
        }
    }
    .expect("kernel compiles");
    (compiled, cfg)
}

struct Cli {
    kernel: String,
    out: std::path::PathBuf,
    cache: Option<usize>,
    prefetch: bool,
    chaos: Option<u64>,
    check: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        kernel: "gaxpy".to_string(),
        out: "trace.json".into(),
        cache: None,
        prefetch: false,
        chaos: None,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => cli.out = args.next().expect("--out PATH").into(),
            "--cache" => {
                cli.cache = Some(args.next().expect("--cache BYTES").parse().expect("bytes"))
            }
            "--prefetch" => cli.prefetch = true,
            "--chaos" => {
                cli.chaos = Some(args.next().expect("--chaos SEED").parse().expect("seed"))
            }
            "--check" => cli.check = true,
            name if !name.starts_with('-') => cli.kernel = name.to_string(),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let options = CompilerOptions {
        cache_budget: cli.cache,
        ..CompilerOptions::default()
    };
    let (compiled, mut cfg) = kernel(&cli.kernel, &options);
    cfg.trace = Some(TraceConfig::on());
    cfg.cache_budget = cli.cache;
    cfg.prefetch = cli.prefetch;
    cfg.fault = cli.chaos.map(FaultConfig::chaos);

    let mut outcome = run(&compiled, &cfg).expect("traced run succeeds");
    let trace = outcome.report.take_trace().expect("tracing enabled");
    let json_text = to_chrome_json(&trace);
    std::fs::write(&cli.out, &json_text).expect("write trace file");
    println!(
        "tracerun: {} on {P} ranks — {} events -> {} ({} bytes)",
        cli.kernel,
        trace.event_count(),
        cli.out.display(),
        json_text.len()
    );
    println!("open it at https://ui.perfetto.dev or chrome://tracing\n");

    // ---- Flame summary: where did each rank's simulated time go? --------
    let reg = metrics::from_trace(&trace);
    let labels: Vec<String> = (0..trace.ranks.len())
        .map(|r| format!("rank {r}"))
        .collect();
    let pick = |f: fn(&metrics::TimeBreakdown) -> f64| -> Vec<(String, f64)> {
        labels
            .iter()
            .cloned()
            .zip(reg.per_rank.iter().map(f))
            .collect()
    };
    let series = [
        Series::new("compute", pick(|t| t.compute)),
        Series::new("comm", pick(|t| t.comm)),
        Series::new("io", pick(|t| t.io)),
        Series::new("faults", pick(|t| t.faults)),
    ];
    print!("{}", ascii_bars("simulated seconds by rank", &series, 40));

    // ---- Per-phase attribution. -----------------------------------------
    let mut phases = TextTable::new(&["phase", "compute", "comm", "io", "faults"]);
    for (name, t) in &reg.by_phase {
        phases.row(vec![
            name.clone(),
            secs(t.compute),
            secs(t.comm),
            secs(t.io),
            secs(t.faults),
        ]);
    }
    println!("\n{}", phases.render());

    // ---- Histograms. -----------------------------------------------------
    print!("{}", reg.io_request_bytes.render("I/O request bytes", 32));
    print!("{}", reg.msg_bytes.render("message bytes", 32));
    if reg.retry_ns.count() > 0 {
        print!("{}", reg.retry_ns.render("retry backoff ns", 32));
    }

    // ---- Estimate vs measured. ------------------------------------------
    let report = divergence_report(&compiled, &trace);
    println!("\nestimate vs measured (rank 0):");
    print!("{}", report.render());
    if report.is_zero_gap() {
        println!("all counters match the compiler's estimates exactly");
    } else {
        println!(
            "max relative divergence: {:.1}%",
            100.0 * report.max_rel_gap()
        );
    }

    // ---- Optional schema validation (CI smoke). --------------------------
    if cli.check {
        let schema_text = include_str!("../../schemas/trace_schema.json");
        let schema = json::parse(schema_text).expect("schema parses");
        let parsed = json::parse(&json_text).expect("emitted trace parses");
        match json::validate_chrome_trace(&parsed, &schema) {
            Ok(check) => println!(
                "\ncheck: OK — {} events, {} spans, {} counters, {} ranks",
                check.events, check.spans, check.counters, check.ranks
            ),
            Err(e) => {
                eprintln!("\ncheck: FAIL — {e}");
                std::process::exit(1);
            }
        }
    }
}
