//! The table part of a workload: rows of Tables 1–2, where a row is one
//! analysis on one compiled program followed by its four precision
//! metrics, exactly what `table_main` prints per line.
//!
//! Untraced passes call the entry points users hit
//! (`run_analysis_opts` + `PrecisionMetrics::compute`). Traced passes
//! make the same calls one layer down, through the public functions
//! `run_analysis_opts` is composed of, and record a span around each.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use csc_core::clients::{fail_casts, poly_calls};
use csc_core::zipper::ZipperOptions;
use csc_core::{
    run_analysis_opts, Analysis, Budget, CiSelector, CscConfig, CutShortcut, NoPlugin, ObjSelector,
    PrecisionMetrics, PtaResult, SelectiveSelector, SolveStatus, Solver, SolverOptions,
    TypeSelector, ZipperE,
};
use csc_interp::{check_recall, Trace};
use csc_ir::Program;

use crate::calib::Calib;
use crate::mem;
use crate::programs::{metric_key, RowFacts};
use crate::report::Ledger;
use crate::stats::median;
use crate::trace::Tracer;

/// Per-analysis time budget; a row that exhausts it fails.
pub const ROW_BUDGET: Duration = Duration::from_secs(60);

/// A compiled program with its dynamic ground truth.
pub struct Subject {
    /// Suite name.
    pub name: &'static str,
    /// MiniJava source the program was compiled from.
    pub source: String,
    /// The compiled program.
    pub program: Program,
    /// The interpreter's trace of the program (recall ground truth).
    pub trace: Trace,
}

/// What the table part measured.
#[derive(Default)]
pub struct TableOut {
    /// Per `(program, metric key)`: the row's time in each untraced pass,
    /// corrected for host load.
    pub row_s: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Wall time of each untraced / traced pass's rows.
    pub untraced_pass_s: Vec<f64>,
    /// See [`TableOut::untraced_pass_s`].
    pub traced_pass_s: Vec<f64>,
    /// Peak RSS of this process while the rows ran.
    pub peak_rss_kb: u64,
    /// Per-pass means over traced passes of the table's count layers.
    pub counts: BTreeMap<&'static str, f64>,
    /// Highest per-row peak RSS among traced rows.
    pub row_peak_rss_kb: u64,
    /// Traced runs: the parallel rows' times, per metric key.
    pub par_row_s: BTreeMap<&'static str, Vec<f64>>,
    /// Traced runs: the parallel engine's counters, per traced pass.
    pub par: BTreeMap<&'static str, f64>,
}

/// One row's result, however it was produced.
struct Row<'p> {
    result: PtaResult<'p>,
    metrics: Option<PrecisionMetrics>,
    selected: usize,
    shortcut_edges: u64,
}

impl Row<'_> {
    /// The row's precision metrics and sequential work counts.
    fn facts(&self) -> Option<RowFacts> {
        let m = self.metrics?;
        let s = &self.result.state.stats;
        Some((
            [m.fail_casts, m.reach_methods, m.poly_calls, m.call_edges],
            (s.propagations, s.edges),
        ))
    }
}

/// Passes a run makes at least: a traced run alternates untraced and
/// traced passes and needs one of each.
const MIN_PASSES: usize = 2;

/// The rows the parallel engine re-solves in a traced run.
const PAR_ANALYSES: [Analysis; 2] = [Analysis::KObj(2), Analysis::KType(2)];

/// Runs passes over `subjects` × the five analyses on the sequential
/// engine until `seconds` have passed, at least [`MIN_PASSES`] ran and
/// `after_pass`, called after each pass, reports no work left.
///
/// A row is checked against `committed` (the seed-0 rows of
/// `BENCH_main.json`) when given, otherwise against the first untraced
/// pass's row of the same program and analysis: the sequential engine is
/// deterministic, so traced rows and later passes must repeat it exactly.
/// In traced passes the rows of [`PAR_ANALYSES`] on the program named
/// `par` are solved once more on the parallel engine at all cores. The
/// host-load kernel runs before every row.
#[allow(clippy::too_many_arguments)]
pub fn run(
    subjects: &[Subject],
    committed: Option<&BTreeMap<(String, String), RowFacts>>,
    par: Option<&str>,
    seconds: f64,
    tracer: &mut Tracer,
    calib: &mut Calib,
    ledger: &mut Ledger,
    mut after_pass: impl FnMut(&mut Tracer, &mut Calib) -> std::io::Result<bool>,
) -> std::io::Result<TableOut> {
    let traced_run = tracer.on();
    let opts = SolverOptions::default();
    let mut out = TableOut::default();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut first: BTreeMap<(&str, &str), RowFacts> = BTreeMap::new();
    let start = Instant::now();
    // Best effort: without the reset the peak also covers set-up.
    mem::reset_peak();
    let mut row_id = 0u64;
    let mut pass = 0usize;
    let mut more = true;
    while more || pass < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let traced = traced_run && pass % 2 == 1;
        let mut total = 0.0;
        for subject in subjects {
            let name = subject.name;
            let mut ci_metrics = None;
            for analysis in csc_bench::analyses() {
                let label = analysis.label();
                let key = metric_key(label);
                row_id += 1;
                tracer.request = row_id;
                calib.sample();
                if traced {
                    mem::reset_peak();
                }
                let (dt, row) = if traced {
                    let t = Instant::now();
                    let row = tracer.span("row", |tr| {
                        traced_row(tr, &subject.program, &analysis, opts)
                    });
                    (t.elapsed(), row)
                } else {
                    untraced_row(&subject.program, &analysis, opts)
                };
                total += dt.as_secs_f64();
                if traced {
                    let kb = mem::status_kb("self", "VmHWM").unwrap_or(0);
                    out.row_peak_rss_kb = out.row_peak_rss_kb.max(kb);
                    tally(&mut counts, key, &row);
                } else {
                    out.row_s
                        .entry((name, key))
                        .or_default()
                        .push(calib.correct(dt.as_secs_f64()));
                }
                let reference = committed
                    .and_then(|c| c.get(&(name.to_owned(), label.to_owned())))
                    .or_else(|| first.get(&(name, label)))
                    .copied();
                if let (None, Some(facts)) = (first.get(&(name, label)), row.facts()) {
                    first.insert((name, label), facts);
                }
                check_row(ledger, subject, label, reference, &row, &mut ci_metrics);
            }
            if traced && par == Some(name) {
                for analysis in PAR_ANALYSES {
                    let reference = first.get(&(name, analysis.label())).copied();
                    calib.unpinned(|| par_row(subject, &analysis, reference, &mut out, ledger));
                }
            }
        }
        if traced {
            out.traced_pass_s.push(total);
        } else {
            out.untraced_pass_s.push(total);
        }
        pass += 1;
        more = after_pass(tracer, calib)?;
    }
    out.peak_rss_kb = mem::status_kb("self", "VmHWM").unwrap_or(0);
    let traced_passes = out.traced_pass_s.len().max(1) as f64;
    out.counts = counts
        .into_iter()
        .map(|(k, v)| (k, v / traced_passes))
        .collect();
    for v in out.par.values_mut() {
        *v /= traced_passes;
    }
    Ok(out)
}

/// One row on the parallel engine at all cores; its precision metrics
/// must equal the sequential row's.
fn par_row(
    subject: &Subject,
    analysis: &Analysis,
    reference: Option<RowFacts>,
    out: &mut TableOut,
    ledger: &mut Ledger,
) {
    let opts = SolverOptions::default().with_threads(0);
    let (dt, row) = untraced_row(&subject.program, analysis, opts);
    let key = metric_key(analysis.label());
    out.par_row_s.entry(key).or_default().push(dt.as_secs_f64());
    let s = &row.result.state.stats;
    for (k, v) in [
        ("par.pauses", s.pause_count as f64),
        ("par.steals", s.steal_count as f64),
        ("par.coordinator_secs", s.coordinator_secs),
        ("par.parallel_secs", s.parallel_secs),
    ] {
        *out.par.entry(k).or_default() += v;
    }
    let got = row.facts().map(|f| f.0);
    let want = reference.map(|f| f.0);
    ledger.op(got.is_some() && got == want, || {
        format!(
            "{}/{} on {} threads: metrics {got:?} != sequential {want:?}",
            subject.name,
            analysis.label(),
            opts.resolved_threads()
        )
    });
}

/// One row through the entry points users hit.
fn untraced_row<'p>(
    program: &'p Program,
    analysis: &Analysis,
    opts: SolverOptions,
) -> (Duration, Row<'p>) {
    let t = Instant::now();
    let outcome = run_analysis_opts(
        program,
        analysis.clone(),
        Budget::with_time(ROW_BUDGET),
        opts,
    );
    let metrics = outcome
        .completed()
        .then(|| PrecisionMetrics::compute(&outcome.result));
    let dt = t.elapsed();
    let selected = outcome.selected.as_ref().map_or(0, |s| s.len());
    let shortcut_edges = outcome.csc.as_ref().map_or(0, |s| s.shortcut_edges());
    let row = Row {
        result: outcome.result,
        metrics,
        selected,
        shortcut_edges,
    };
    (dt, row)
}

/// One row composed from the public functions `run_analysis_opts` and
/// `PrecisionMetrics::compute` call, with a span around each layer.
fn traced_row<'p>(
    tr: &mut Tracer,
    program: &'p Program,
    analysis: &Analysis,
    opts: SolverOptions,
) -> Row<'p> {
    let budget = Budget::with_time(ROW_BUDGET);
    let mut selected = 0;
    let mut shortcut_edges = 0;
    let result = match analysis {
        Analysis::Ci => tr.span("solver.solve_s.ci", |_| {
            Solver::with_options(program, CiSelector, NoPlugin, budget, opts)
                .solve()
                .0
        }),
        Analysis::KObj(2) => tr.span("solver.solve_s.2obj", |_| {
            Solver::with_options(program, ObjSelector::new(2), NoPlugin, budget, opts)
                .solve()
                .0
        }),
        Analysis::KType(2) => tr.span("solver.solve_s.2type", |_| {
            Solver::with_options(program, TypeSelector::new(2), NoPlugin, budget, opts)
                .solve()
                .0
        }),
        Analysis::ZipperE => {
            let zopts = ZipperOptions::default();
            let pre = tr.span("zipper.pre_s", |_| {
                Solver::with_options(program, CiSelector, NoPlugin, budget, opts)
                    .solve()
                    .0
            });
            let zipper = tr.span("zipper.select_s", |_| ZipperE::select(program, &pre, zopts));
            selected = zipper.selected.len();
            let main_budget = Budget {
                time: budget.time.map(|t| t.saturating_sub(pre.elapsed)),
                max_propagations: budget.max_propagations,
            };
            let selector =
                SelectiveSelector::new(ObjSelector::new(zopts.k), zipper.selected, "Zipper-e");
            tr.span("zipper.main_s", |_| {
                Solver::with_options(program, selector, NoPlugin, main_budget, opts)
                    .solve()
                    .0
            })
        }
        Analysis::CutShortcut => {
            let plugin = tr.span("csc.prep_s", |_| {
                CutShortcut::new(program, CscConfig::all())
            });
            let (mut result, plugin) = tr.span("csc.solve_s", |_| {
                Solver::with_options(program, CiSelector, plugin, budget, opts).solve()
            });
            result.analysis = "csc".to_owned();
            shortcut_edges = plugin.stats().shortcut_edges();
            result
        }
        other => panic!("{} is not an analysis of Tables 1–2", other.label()),
    };
    let metrics = (result.status == SolveStatus::Completed).then(|| PrecisionMetrics {
        fail_casts: tr.span("clients.fail_casts_s", |_| fail_casts(&result).len()),
        reach_methods: tr.span("clients.reach_s", |_| {
            result.state.reachable_methods_projected().len()
        }),
        poly_calls: tr.span("clients.poly_calls_s", |_| poly_calls(&result).len()),
        call_edges: tr.span("clients.call_edges_s", |_| {
            result.state.call_edges_projected().len()
        }),
    });
    Row {
        result,
        metrics,
        selected,
        shortcut_edges,
    }
}

/// Adds a traced row's counters to the per-run sums.
fn tally(counts: &mut BTreeMap<&'static str, f64>, key: &str, row: &Row<'_>) {
    let s = &row.result.state.stats;
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_default() += v;
    add("solver.propagations", s.propagations as f64);
    add("solver.pfg_edges", s.edges as f64);
    add("solver.pointers", s.pointers as f64);
    add("scc.ptrs_collapsed", s.ptrs_collapsed as f64);
    add("mem.pts_bytes", s.pts_bytes as f64);
    add("mem.edge_bytes", s.edge_bytes as f64);
    match key {
        "zipper" => add("zipper.selected_methods", row.selected as f64),
        "csc" => add("csc.shortcut_edges", row.shortcut_edges as f64),
        _ => {}
    }
}

/// Checks one row: it completed; it reproduces `reference` exactly; its
/// call graph covers the interpreter trace; and CSC is no less precise
/// than CI on the same program.
fn check_row(
    ledger: &mut Ledger,
    subject: &Subject,
    label: &str,
    reference: Option<RowFacts>,
    row: &Row<'_>,
    ci_metrics: &mut Option<PrecisionMetrics>,
) {
    let name = subject.name;
    let (Some(m), Some(facts)) = (row.metrics, row.facts()) else {
        ledger.op(false, || format!("{name}/{label}: did not complete"));
        return;
    };
    let mut problems: Vec<String> = Vec::new();
    if let Some((metrics, counts)) = reference {
        if facts.0 != metrics {
            problems.push(format!("metrics {:?} != expected {metrics:?}", facts.0));
        }
        if facts.1 != counts {
            problems.push(format!(
                "propagations/pfg_edges {:?} != expected {counts:?}",
                facts.1
            ));
        }
    }
    let methods: BTreeSet<_> = row.result.state.reachable_methods_projected();
    let edges: BTreeSet<_> = row.result.state.call_edges_projected();
    let recall = check_recall(&subject.trace, &methods, &edges);
    if !recall.full_recall() {
        problems.push(format!(
            "recall {:.1}% methods / {:.1}% edges",
            recall.method_recall_pct(),
            recall.edge_recall_pct()
        ));
    }
    match label {
        "CI" => *ci_metrics = Some(m),
        "CSC" => match ci_metrics {
            Some(ci)
                if m.fail_casts <= ci.fail_casts
                    && m.poly_calls <= ci.poly_calls
                    && m.call_edges <= ci.call_edges => {}
            Some(ci) => problems.push(format!("CSC {m:?} less precise than CI {ci:?}")),
            None => problems.push("no CI row to compare CSC with".into()),
        },
        _ => {}
    }
    ledger.op(problems.is_empty(), || {
        format!("{name}/{label}: {}", problems.join("; "))
    });
}

/// Per metric key: the sum over programs of each row's median time.
pub fn row_medians(out: &TableOut) -> BTreeMap<&'static str, f64> {
    let mut sums = BTreeMap::new();
    for ((_, key), times) in &out.row_s {
        *sums.entry(*key).or_default() += median(times).unwrap_or(f64::NAN);
    }
    sums
}
