//! End-to-end and per-layer benchmark of the Cut-Shortcut workspace.
//!
//! ```text
//! cscbench --workload <table-seq|serve-csc> --seed <n> --seconds <s>
//!          --trace <0|1> --csc <path to csc> --work <scratch dir>
//! ```
//!
//! Every workload has a table part (rows of the paper's Tables 1–2,
//! passes repeated for `--seconds`) and a serve part (a `csc serve`
//! session of a fixed number of resolves and queries); the workloads
//! differ in their programs. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See the package's README.md.

mod affinity;
mod calib;
mod json;
mod mem;
mod programs;
mod report;
mod serve;
mod stats;
mod table;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use csc_interp::{execute, InterpConfig};

use calib::Calib;
use report::{result_line, Ledger, Metrics};
use stats::{highest_percentile, median, percentile};
use table::Subject;
use trace::Tracer;

/// Table set-ups timed for the set-up median; the last one is used.
const TABLE_SETUPS: usize = 9;

/// What one workload runs.
struct Workload {
    /// Programs of the table part (sequential engine).
    table: &'static [&'static str],
    /// Program the serve part loads. The daemon runs one solver thread.
    serve: &'static str,
    /// Program whose 2obj and 2type rows a traced run also solves on the
    /// parallel engine at all cores.
    par: Option<&'static str>,
    /// Serve turns made after each table pass; sized so that the turns
    /// and the passes end at about the same time.
    turns_per_pass: usize,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // Tables 1–2 on the three smallest suite programs, so that a run
        // measures many passes.
        "table-seq" => Workload {
            table: &["hsqldb", "findbugs", "jython"],
            serve: "hsqldb",
            par: Some("jython"),
            turns_per_pass: 4,
        },
        // The layers the tables bypass: CSC under re-solve, incremental
        // solving, delta decode and apply, snapshot capture, dispatch.
        // The rows are table-seq's, five turns after each pass: a single
        // program's rows changed by up to 7% from seed to seed with the
        // size of its generated pointer-flow graph.
        "serve-csc" => Workload {
            table: &["hsqldb", "findbugs", "jython"],
            serve: "jedit",
            par: None,
            turns_per_pass: 5,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    csc: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?
            .to_owned();
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        csc: get("csc")?.into(),
        work: get("work")?.into(),
    };
    if kv.len() != 6 {
        return Err("unknown option".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Each of these silently changes what is measured (fault injection,
    // engine, set representation, threads, on-disk caches).
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CSC_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("cscbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cscbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!("cscbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    if !args.csc.is_file() {
        eprintln!("cscbench: no csc binary at {}", args.csc.display());
        return ExitCode::from(2);
    }
    let dir = args.work.join(format!(
        "{}-s{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cscbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = run(&args, &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cscbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, spec: &Workload, dir: &Path) -> std::io::Result<String> {
    let (cpu, cores) = csc_bench::hardware_fingerprint();
    let mut tracer = Tracer::new(args.trace);
    let mut calib = Calib::new();
    let mut ledger = Ledger::default();

    // Set-up: generate and compile every table program, several times.
    let mut setup_s = Vec::new();
    let mut subjects: Vec<(&'static str, String, csc_ir::Program)> = Vec::new();
    for _ in 0..TABLE_SETUPS {
        calib.sample();
        let t = Instant::now();
        subjects = spec
            .table
            .iter()
            .map(|&name| {
                let bench = programs::program(name, args.seed);
                let source = tracer.span("workloads.gen_s", |_| bench.source());
                let program = tracer.span("frontend.compile_s", |_| csc_frontend::compile(&source));
                (name, source, program)
            })
            .filter_map(|(name, source, program)| match program {
                Ok(p) => Some((name, source, p)),
                Err(e) => {
                    ledger.op(false, || format!("{name}: does not compile: {e}"));
                    None
                }
            })
            .collect();
        setup_s.push(calib.correct(t.elapsed().as_secs_f64()));
    }
    let table_setup = median(&setup_s).unwrap_or(f64::NAN);
    let subjects: Vec<Subject> = subjects
        .into_iter()
        .map(|(name, source, program)| {
            let trace = match execute(&program, InterpConfig::default()) {
                Ok(t) => t,
                Err(e) => e.partial,
            };
            Subject {
                name,
                source,
                program,
                trace,
            }
        })
        .collect();

    for s in &subjects {
        eprintln!(
            "cscbench: {} has {} statements; the interpreter reached {} methods",
            s.name,
            s.program.stmt_count(),
            s.trace.reached_methods.len()
        );
    }
    // The daemon loads the generated source from a file; the benchmark
    // compiles it too, for the answers the replies are checked against.
    let (source, program) = match subjects.iter().find(|s| s.name == spec.serve) {
        Some(s) => (s.source.clone(), s.program.clone()),
        None => {
            let source = programs::program(spec.serve, args.seed).source();
            let program = csc_frontend::compile(&source).map_err(|e| {
                std::io::Error::other(format!("{}: does not compile: {e}", spec.serve))
            })?;
            (source, program)
        }
    };
    let session = serve::prepare(&source, program, args.seed, dir, args.trace)?;
    let mut client = serve::Client::start(&args.csc, &session, &mut tracer, &mut calib)?;
    let setup_samples = calib.len();

    // Table passes and serve turns alternate, so that every timing's
    // samples spread over the whole run.
    let committed = programs::committed_rows().map_err(std::io::Error::other)?;
    let tout = table::run(
        &subjects,
        (args.seed == 0).then_some(&committed),
        spec.par,
        args.seconds,
        &mut tracer,
        &mut calib,
        &mut ledger,
        |tracer, calib| {
            client.turns(spec.turns_per_pass, tracer, calib)?;
            Ok(client.remaining() > 0)
        },
    )?;
    drop(subjects);
    let sout = client.finish(&mut tracer, &mut calib, &mut ledger)?;
    let rejected_deltas = session.rejected;
    drop(session);

    // Span times are corrected by the median host load of their phase.
    let setup_k = calib.slowdown_since(0);
    let run_k = calib.slowdown_since(setup_samples);
    let mut m = Metrics::default();
    if args.trace {
        layer_metrics(
            &mut m,
            &tracer,
            &tout,
            &sout,
            TABLE_SETUPS,
            (setup_k, run_k),
        );
        m.put("host.slowdown", run_k, "ratio");
        m.put("delta.gen_rejected", rejected_deltas as f64, "count");
        write_trace(dir, args, &tracer, &cpu, cores)?;
    } else {
        let serve_setup = median(&sout.setup_s).unwrap_or(f64::NAN);
        m.put("setup_s", table_setup + serve_setup, "s");
        let rows = table::row_medians(&tout);
        for analysis in csc_bench::analyses() {
            let key = programs::metric_key(analysis.label());
            m.put(
                &format!("row_s.{key}"),
                rows.get(key).copied().unwrap_or(f64::NAN),
                "s",
            );
        }
        // A percentile is reported only with ten samples beyond it.
        let pct = |xs: &[f64], p: f64| match highest_percentile(xs.len()) {
            Some(top) if top >= p => percentile(xs, p).unwrap_or(f64::NAN),
            _ => f64::NAN,
        };
        m.put("resolve_p50_ms", pct(&sout.resolve_ms, 50.0), "ms");
        m.put("resolve_p90_ms", pct(&sout.resolve_ms, 90.0), "ms");
        m.put("query_p50_ms", pct(&sout.query_ms, 50.0), "ms");
        let peak_kb = tout.peak_rss_kb + sout.daemon_peak_kb;
        m.put("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    }

    eprintln!(
        "cscbench: workload {} seed {} trace {} on {cpu} ({cores} cores)",
        args.workload, args.seed, args.trace as u8
    );
    eprintln!(
        "  table: {} untraced + {} traced passes over {:?}; serve ({}): {} resolves (highest percentile p{}), {} queries (p{})",
        tout.untraced_pass_s.len(),
        tout.traced_pass_s.len(),
        spec.table,
        spec.serve,
        sout.resolve_ms.len(),
        highest_percentile(sout.resolve_ms.len()).unwrap_or(0.0),
        sout.query_ms.len(),
        highest_percentile(sout.query_ms.len()).unwrap_or(0.0),
    );
    eprintln!(
        "  resolve kinds: {:?}; generated deltas rejected by apply and redrawn: {rejected_deltas}",
        sout.resolve_kinds
    );
    eprintln!(
        "  host load: the kernel ran {setup_k:.3}× nominal during set-up, {run_k:.3}× after ({} runs, {}); times below are corrected",
        calib.len(),
        if calib.pinned() { "pinned to one CPU" } else { "unpinned" }
    );
    for (name, value, unit) in m.iter() {
        eprintln!("  {name:<40} {value:>14.6} {unit}");
    }
    for note in ledger.notes() {
        eprintln!("  FAILED: {note}");
    }
    println!("hardware: cpu=\"{cpu}\" cores={cores}");
    Ok(result_line(&ledger, &m))
}

/// The per-layer metrics of a traced run. Times measured as spans are
/// divided by `slowdown`, the median host load during set-up and after
/// it; the serve latencies are corrected already.
fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    tout: &table::TableOut,
    sout: &serve::ServeOut,
    setups: usize,
    slowdown: (f64, f64),
) {
    let (setup_k, run_k) = slowdown;
    let passes = tout.traced_pass_s.len().max(1) as f64;
    let per_pass = |name: &str| tracer.total(name) / passes / run_k;
    m.put(
        "workloads.gen_s",
        tracer.total("workloads.gen_s") / setups as f64 / setup_k,
        "s",
    );
    m.put(
        "frontend.compile_s",
        tracer.total("frontend.compile_s") / setups as f64 / setup_k,
        "s",
    );
    for name in [
        "solver.solve_s.ci",
        "solver.solve_s.2obj",
        "solver.solve_s.2type",
        "zipper.pre_s",
        "zipper.select_s",
        "zipper.main_s",
        "csc.prep_s",
        "csc.solve_s",
        "clients.fail_casts_s",
        "clients.poly_calls_s",
        "clients.reach_s",
        "clients.call_edges_s",
    ] {
        m.put(name, per_pass(name), "s");
    }
    let count = |k: &str| tout.counts.get(k).copied().unwrap_or(0.0);
    for name in [
        "solver.propagations",
        "solver.pfg_edges",
        "solver.pointers",
        "scc.ptrs_collapsed",
        "zipper.selected_methods",
        "csc.shortcut_edges",
    ] {
        m.put(name, count(name), "count");
    }
    // Only a traced run solves rows on the parallel engine.
    for key in ["2obj", "2type"] {
        let times = tout.par_row_s.get(key).map_or(&[][..], Vec::as_slice);
        m.put(
            &format!("par.row_s.{key}"),
            median(times).unwrap_or(0.0) / run_k,
            "s",
        );
    }
    let par = |k: &str| tout.par.get(k).copied().unwrap_or(0.0);
    let busy = par("par.coordinator_secs") + par("par.parallel_secs");
    let share = if par("par.parallel_secs") > 0.0 {
        par("par.coordinator_secs") / busy
    } else {
        0.0
    };
    m.put("par.coordinator_share", share, "ratio");
    m.put("par.pauses", par("par.pauses"), "count");
    m.put("par.steals", par("par.steals"), "count");
    m.put("mem.pts_bytes", count("mem.pts_bytes"), "B");
    m.put("mem.edge_bytes", count("mem.edge_bytes"), "B");
    m.put(
        "mem.row_peak_rss_mb",
        tout.row_peak_rss_kb as f64 / 1024.0,
        "MB",
    );

    let med = |k: &str| median(&tracer.durations(k)).unwrap_or(0.0) / run_k;
    for name in [
        "results.capture_s",
        "delta.decode_s",
        "delta.apply_s",
        "incr.resolve_s",
    ] {
        m.put(name, med(name), "s");
    }
    let resolves: usize = sout.resolve_kinds.values().sum();
    let incremental = sout.resolve_kinds.get("incremental").copied().unwrap_or(0);
    m.put(
        "incr.hit_ratio",
        incremental as f64 / resolves.max(1) as f64,
        "ratio",
    );
    for reason in [
        "base-incomplete",
        "dispatch-changed",
        "scc-structure",
        "csc-obligations",
        "preanalysis-changed",
    ] {
        let n = sout
            .resolve_kinds
            .get(&format!("fallback:{reason}"))
            .copied()
            .unwrap_or(0);
        m.put(&format!("incr.fallbacks.{reason}"), n as f64, "count");
    }
    m.put(
        "mem.rss_growth_mb_per_resolve",
        sout.rss_growth_kb_per_resolve / 1024.0,
        "MB",
    );
    // Too erratic across runs for an end-to-end bound (see README.md).
    m.put(
        "serve.query_p90_ms",
        percentile(&sout.query_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "serve.overhead_ms",
        median(&sout.query_overhead_ms).unwrap_or(0.0) / run_k,
        "ms",
    );
    // Tracing overhead: traced minus untraced table passes, as a share.
    let overhead = match (median(&tout.traced_pass_s), median(&tout.untraced_pass_s)) {
        (Some(t), Some(u)) if u > 0.0 => (t - u) / u,
        _ => 0.0,
    };
    m.put("trace.overhead_share", overhead, "ratio");
}

/// Writes the spans and the per-layer self-time table next to the work
/// directory: `trace-<workload>-s<seed>.jsonl`.
fn write_trace(
    dir: &Path,
    args: &Args,
    tracer: &Tracer,
    cpu: &str,
    cores: u64,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"cpu\":\"{}\",\"cores\":{cores}}}",
        json::escape(&args.workload),
        args.seed,
        json::escape(cpu)
    );
    out.push_str(&trace::spans_jsonl(tracer.spans()));
    eprintln!(
        "  {:<28} {:>7} {:>12} {:>12}",
        "layer", "spans", "total_s", "self_s"
    );
    for (name, n, total, own) in trace::layer_table(tracer.spans()) {
        let _ = writeln!(
            out,
            "{{\"layer\":\"{}\",\"spans\":{n},\"total_s\":{total},\"self_s\":{own}}}",
            json::escape(&name)
        );
        eprintln!("  {name:<28} {n:>7} {total:>12.6} {own:>12.6}");
    }
    let parent = dir.parent().unwrap_or(dir);
    let path = parent.join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, out)?;
    eprintln!("  trace written to {}", path.display());
    Ok(())
}
