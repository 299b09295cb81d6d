//! The serve part of a workload: one closed-loop client driving a
//! `csc serve` daemon over its stdio protocol. The client sends its next
//! request only after the previous reply arrived.
//!
//! Before anything is timed the client generates a chain of seeded
//! deltas (each generated against the program the previous one
//! produced), writes them to files, and solves every program of the
//! chain from scratch in-process: the answers each reply is checked
//! against. The session then `load`s the program by path with
//! `analysis: csc`, and every turn sends one `resolve` with the next
//! delta file followed by a few queries. The caller spreads the turns
//! over the run, between table passes. Each request is timed from the
//! line written to the reply read.
//!
//! In a traced run the client also replays each request's calls
//! in-process, in the order the daemon makes them (decode, apply,
//! `resolve_analysis_opts`, `SolvedSummary::capture`), with a span around
//! each.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use csc_core::{
    decode_delta_guarded, resolve_analysis_opts, run_analysis_opts, Analysis, AnalysisOutcome,
    Budget, PrecisionMetrics, SolvedSummary, SolverOptions,
};
use csc_ir::{Program, VarId};
use csc_workloads::{generate_delta, DeltaGenConfig};

use crate::calib::Calib;
use crate::json::{escape, parse_reply, Fields, Reply};
use crate::mem;
use crate::programs::{mix, Rng};
use crate::report::Ledger;
use crate::table::ROW_BUDGET;
use crate::trace::Tracer;

/// Resolves per session: the p90 needs 100 samples so that ten lie
/// beyond it. The count is fixed, not time-bound, because the daemon's
/// memory grows with every resolve.
pub const RESOLVES: usize = 100;
/// Points-to queries after each resolve (plus one `casts` and one
/// `call-graph`).
pub const POINTS_TO_PER_TURN: usize = 20;
/// Daemon start-ups timed for the set-up median; the last one serves.
pub const SETUPS: usize = 5;
/// `csc serve --threads`: one solver thread. On the parallel engine the
/// resolve latency varied too much from run to run to bound.
const THREADS: usize = 1;

/// What the serve part measured.
#[derive(Default)]
pub struct ServeOut {
    /// Spawn-to-`load`-reply time of each start-up, corrected for host
    /// load like the latencies.
    pub setup_s: Vec<f64>,
    /// Latency of each `resolve`, corrected for host load.
    pub resolve_ms: Vec<f64>,
    /// Latency of each query, corrected for host load.
    pub query_ms: Vec<f64>,
    /// Daemon `VmHWM` just before shutdown.
    pub daemon_peak_kb: u64,
    /// Daemon `VmRSS` growth per resolve over the session.
    pub rss_growth_kb_per_resolve: f64,
    /// Resolve kinds the daemon reported (`incremental`, `full`,
    /// `fallback:<reason>`), with counts.
    pub resolve_kinds: BTreeMap<String, usize>,
    /// Traced runs: per-query latency minus its in-process replay.
    pub query_overhead_ms: Vec<f64>,
}

/// The generated, pre-chained inputs of one session and the answers its
/// replies must match.
pub struct Session {
    /// Source file the daemon loads.
    pub source_path: PathBuf,
    /// Delta files, one per turn.
    pub paths: Vec<PathBuf>,
    /// `Class.method.var` names queried after each resolve.
    pub queries: Vec<Vec<String>>,
    /// From-scratch answers for program `i` of the chain (`0` is the
    /// loaded program, `i + 1` the program after resolve `i`); `None`
    /// where the solve did not complete.
    oracles: Vec<Option<Oracle>>,
    /// Traced runs: the chain's programs, for the in-process replay.
    pub programs: Option<Vec<Program>>,
    /// Generated deltas that `ProgramDelta::apply` rejected and that were
    /// replaced by the turn's next draw.
    pub rejected: usize,
}

/// The delta generator's configuration for turn `i`, draw `k`.
pub fn delta_config(i: usize, k: u64, seed: u64) -> DeltaGenConfig {
    DeltaGenConfig {
        seed: mix((i as u64 + 1) | (k << 32), seed),
        actions: 8,
        removals: true,
    }
}

/// Draws per turn before the chain gives up.
const MAX_DRAWS: u64 = 16;

/// Generates the delta chain from `base`, writes each delta's bytes to
/// `dir` and hands each program of the chain (the base first) to `visit`.
/// `generate_delta` sometimes emits a delta that `ProgramDelta::apply`
/// rejects (it clones loads and stores of primitive fields, which the
/// delta language forbids); such a draw is counted in the returned
/// number and replaced by the turn's next draw, so the daemon only
/// receives deltas that apply.
pub fn chain_deltas(
    base: Program,
    turns: usize,
    seed: u64,
    dir: &Path,
    mut visit: impl FnMut(&Program),
) -> std::io::Result<(Vec<PathBuf>, usize)> {
    let mut paths = Vec::with_capacity(turns);
    let mut rejected = 0;
    let mut prev = base;
    visit(&prev);
    for i in 0..turns {
        let mut draws = (0..MAX_DRAWS).map(|k| generate_delta(&prev, &delta_config(i, k, seed)));
        let (delta, patched) = loop {
            let Some(delta) = draws.next() else {
                return Err(std::io::Error::other(format!(
                    "no applicable delta for turn {i} in {MAX_DRAWS} draws"
                )));
            };
            match delta.apply(&prev) {
                Ok((patched, _)) => break (delta, patched),
                Err(_) => rejected += 1,
            }
        };
        let path = dir.join(format!("delta-{i:03}.bin"));
        std::fs::write(&path, delta.to_bytes())?;
        paths.push(path);
        visit(&patched);
        prev = patched;
    }
    Ok((paths, rejected))
}

/// Resolves `Class.method.var` the way the daemon does.
pub fn lookup_var(program: &Program, q: &str) -> Option<VarId> {
    let [class, method, var] = q.split('.').collect::<Vec<_>>()[..] else {
        return None;
    };
    let m = program.method_by_qualified_name(&format!("{class}.{method}"))?;
    program
        .method(m)
        .vars()
        .iter()
        .copied()
        .find(|&v| program.var(v).name() == var)
}

/// Seeded query variables: variables of the loaded program with a
/// non-empty points-to set that the daemon's name lookup resolves to the
/// same variable.
fn pick_queries(program: &Program, summary: &SolvedSummary, seed: u64) -> Vec<Vec<String>> {
    let mut pool: Vec<String> = Vec::new();
    for method in program.methods() {
        let class = program.class(method.class()).name();
        for &v in method.vars() {
            let name = format!("{class}.{}.{}", method.name(), program.var(v).name());
            if !summary.pts[v.index()].is_empty() && lookup_var(program, &name) == Some(v) {
                pool.push(name);
            }
        }
    }
    assert!(
        !pool.is_empty(),
        "the loaded program has queryable variables"
    );
    let mut rng = Rng::new(seed);
    (0..RESOLVES)
        .map(|_| {
            (0..POINTS_TO_PER_TURN)
                .map(|_| pool[rng.below(pool.len())].clone())
                .collect()
        })
        .collect()
}

/// The in-process answer a reply is checked against.
struct Oracle {
    reachable: u64,
    call_edges: u64,
    metrics: PrecisionMetrics,
    /// Sorted `label (Class)` strings per queried variable name.
    pts: BTreeMap<String, Vec<String>>,
}

fn oracle(program: &Program, queries: &[String]) -> Option<Oracle> {
    let out = run_analysis_opts(
        program,
        Analysis::CutShortcut,
        Budget::with_time(ROW_BUDGET),
        SolverOptions::default(),
    );
    if !out.completed() {
        return None;
    }
    let state = &out.result.state;
    let pts = queries
        .iter()
        .map(|q| {
            let objs = lookup_var(program, q).map_or_else(Vec::new, |v| {
                object_labels(program, &state.pt_var_projected(v))
            });
            (q.clone(), objs)
        })
        .collect();
    Some(Oracle {
        reachable: state.reachable_methods_projected().len() as u64,
        call_edges: state.call_edges_projected().len() as u64,
        metrics: PrecisionMetrics::compute(&out.result),
        pts,
    })
}

/// The daemon's rendering of a points-to set.
fn object_labels(program: &Program, objs: &[csc_ir::ObjId]) -> Vec<String> {
    let mut labels: Vec<String> = objs
        .iter()
        .map(|&o| {
            let obj = program.obj(o);
            format!("{} ({})", obj.label(), program.class(obj.class()).name())
        })
        .collect();
    labels.sort();
    labels
}

/// A running `csc serve` process. Dropping it kills and reaps the child.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(csc: &Path, threads: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(csc)
            .args(["serve", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its reply; returns the reply
    /// with the instants the request was written and the reply read.
    fn request(&mut self, line: &str) -> std::io::Result<(String, Instant, Instant)> {
        let t0 = Instant::now();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut reply = String::new();
        if self.stdout.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed its stdout",
            ));
        }
        Ok((reply, t0, Instant::now()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(mut self) -> std::io::Result<()> {
        self.request(r#"{"cmd":"shutdown"}"#)?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn ms(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e3
}

/// A reply a check can read: parsed, `ok`, and not degraded.
fn healthy(line: &str) -> Result<Reply, String> {
    let r = parse_reply(line)?;
    if r.bool("ok") != Some(true) {
        return Err(format!("not ok: {}", line.trim()));
    }
    if r.bool("degraded") == Some(true) {
        return Err(format!("degraded: {}", line.trim()));
    }
    Ok(r)
}

/// Checks a `reachable`/`call_edges` pair against the oracle.
fn check_graph(r: &Reply, edges_key: &str, o: &Oracle) -> Result<(), String> {
    let got = (r.u64("reachable"), r.u64(edges_key));
    let want = (Some(o.reachable), Some(o.call_edges));
    if got == want {
        Ok(())
    } else {
        Err(format!("reachable/edges {got:?} != from-scratch {want:?}"))
    }
}

/// One query of a turn.
enum Query {
    PointsTo(String),
    Casts,
    CallGraph,
}

impl Query {
    fn line(&self) -> String {
        match self {
            Query::PointsTo(v) => format!(
                "{{\"cmd\":\"query\",\"kind\":\"points-to\",\"var\":\"{}\"}}",
                escape(v)
            ),
            Query::Casts => r#"{"cmd":"query","kind":"casts"}"#.to_owned(),
            Query::CallGraph => r#"{"cmd":"query","kind":"call-graph"}"#.to_owned(),
        }
    }

    fn check(&self, line: &str, o: &Oracle) -> Result<(), String> {
        let r = healthy(line)?;
        match self {
            Query::PointsTo(v) => {
                let got = r.list("objects").ok_or("no `objects`")?;
                if got == o.pts[v].as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "points-to {v}: {got:?} != from-scratch {:?}",
                        o.pts[v]
                    ))
                }
            }
            Query::Casts => {
                let got = (r.u64("fail_casts"), r.u64("poly_calls"));
                let want = (
                    Some(o.metrics.fail_casts as u64),
                    Some(o.metrics.poly_calls as u64),
                );
                if got == want {
                    Ok(())
                } else {
                    Err(format!("casts {got:?} != from-scratch {want:?}"))
                }
            }
            Query::CallGraph => check_graph(&r, "edges", o),
        }
    }

    /// Computes the reply's content in-process from a snapshot, as the
    /// daemon does.
    fn replay(&self, program: &Program, snap: &SolvedSummary) -> usize {
        match self {
            Query::PointsTo(v) => lookup_var(program, v)
                .map_or(0, |v| object_labels(program, &snap.pts[v.index()]).len()),
            Query::Casts => snap.metrics.fail_casts + snap.metrics.poly_calls,
            Query::CallGraph => snap.reachable.len() + snap.call_edges.len(),
        }
    }
}

/// Prepares a session's inputs: writes the source, chains the deltas,
/// picks query variables and solves every program of the chain from
/// scratch. The programs are kept only when `keep_programs` is set.
pub fn prepare(
    source: &str,
    base: Program,
    seed: u64,
    dir: &Path,
    keep_programs: bool,
) -> std::io::Result<Session> {
    let source_path = dir.join("program.mj");
    std::fs::write(&source_path, source)?;
    let summary = {
        let out = run_analysis_opts(
            &base,
            Analysis::CutShortcut,
            Budget::with_time(ROW_BUDGET),
            SolverOptions::default(),
        );
        SolvedSummary::capture(&base, &out.result)
    };
    let queries = pick_queries(&base, &summary, seed);
    let mut oracles = Vec::with_capacity(RESOLVES + 1);
    let mut programs = Vec::new();
    let (paths, rejected) = chain_deltas(base, RESOLVES, seed, dir, |p| {
        // Program `i + 1` answers the queries of turn `i`.
        let asked = oracles
            .len()
            .checked_sub(1)
            .map_or(&[][..], |t| &queries[t]);
        oracles.push(oracle(p, asked));
        if keep_programs {
            programs.push(p.clone());
        }
    })?;
    Ok(Session {
        source_path,
        paths,
        queries,
        oracles,
        programs: keep_programs.then_some(programs),
        rejected,
    })
}

/// A `csc serve` session in progress: the daemon, the in-process mirror
/// of its state (traced runs), and every reply so far.
pub struct Client<'s> {
    session: &'s Session,
    daemon: Daemon,
    pid: String,
    rss_loaded: u64,
    opts: SolverOptions,
    mirror: Option<(AnalysisOutcome<'s>, SolvedSummary)>,
    load_replies: Vec<String>,
    resolve_replies: Vec<String>,
    query_replies: Vec<(usize, Query, String)>,
    out: ServeOut,
}

impl<'s> Client<'s> {
    /// Starts the daemon [`SETUPS`] times, timing spawn to `load` reply,
    /// and keeps the last one. The host-load kernel runs before each.
    pub fn start(
        csc: &Path,
        session: &'s Session,
        tracer: &mut Tracer,
        calib: &mut Calib,
    ) -> std::io::Result<Self> {
        let mut out = ServeOut::default();
        let load_line = format!(
            "{{\"cmd\":\"load\",\"path\":\"{}\",\"analysis\":\"csc\"}}",
            escape(&session.source_path.to_string_lossy())
        );
        let mut load_replies = Vec::new();
        let mut daemon = None;
        for i in 0..SETUPS {
            calib.sample();
            tracer.request += 1;
            let t0 = Instant::now();
            let mut d = Daemon::spawn(csc, THREADS)?;
            let (reply, _, t1) = d.request(&load_line)?;
            out.setup_s.push(calib.correct((t1 - t0).as_secs_f64()));
            tracer.record("serve.setup", t0, t1);
            load_replies.push(reply);
            if i + 1 < SETUPS {
                d.shutdown()?;
            } else {
                daemon = Some(d);
            }
        }
        let daemon = daemon.expect("at least one start-up");
        let pid = daemon.pid();
        let rss_loaded = mem::status_kb(&pid, "VmRSS").unwrap_or(0);
        let opts = SolverOptions::default().with_threads(THREADS);
        // The in-process mirror of the daemon's session (traced runs only).
        let mirror = session
            .programs
            .as_ref()
            .filter(|_| tracer.on())
            .map(|programs| {
                let program = &programs[0];
                let outcome = tracer.span("serve.replay.load", |_| {
                    run_analysis_opts(
                        program,
                        Analysis::CutShortcut,
                        Budget::with_time(ROW_BUDGET),
                        opts,
                    )
                });
                let snap = tracer.span("results.capture_s", |_| {
                    SolvedSummary::capture(program, &outcome.result)
                });
                (outcome, snap)
            });
        Ok(Client {
            session,
            daemon,
            pid,
            rss_loaded,
            opts,
            mirror,
            load_replies,
            resolve_replies: Vec::with_capacity(RESOLVES),
            query_replies: Vec::new(),
            out,
        })
    }

    /// Turns not yet made.
    pub fn remaining(&self) -> usize {
        self.session.paths.len() - self.resolve_replies.len()
    }

    /// Makes up to `n` turns: each one `resolve` with the next delta file
    /// followed by the turn's queries. The host-load kernel runs before
    /// the resolve and before the queries.
    pub fn turns(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        calib: &mut Calib,
    ) -> std::io::Result<()> {
        for _ in 0..n.min(self.remaining()) {
            self.turn(tracer, calib)?;
        }
        Ok(())
    }

    fn turn(&mut self, tracer: &mut Tracer, calib: &mut Calib) -> std::io::Result<()> {
        let session = self.session;
        let i = self.resolve_replies.len();
        let path = &session.paths[i];
        tracer.request += 1;
        let line = format!(
            "{{\"cmd\":\"resolve\",\"delta_file\":\"{}\"}}",
            escape(&path.to_string_lossy())
        );
        calib.sample();
        let (reply, t0, t1) = self.daemon.request(&line)?;
        self.out.resolve_ms.push(calib.correct(ms(t0, t1)));
        tracer.record("serve.resolve", t0, t1);
        if let (Some((prev, _)), Some(programs)) = (self.mirror.take(), &session.programs) {
            let next = replay_resolve(tracer, programs, i, path, prev, self.opts)?;
            self.mirror = Some(next);
        }
        self.resolve_replies.push(reply);

        let mut turn: Vec<Query> = session.queries[i]
            .iter()
            .map(|v| Query::PointsTo(v.clone()))
            .collect();
        turn.push(Query::Casts);
        turn.push(Query::CallGraph);
        calib.sample();
        for q in turn {
            tracer.request += 1;
            let (reply, t0, t1) = self.daemon.request(&q.line())?;
            self.out.query_ms.push(calib.correct(ms(t0, t1)));
            tracer.record("serve.query", t0, t1);
            if let (Some((_, snap)), Some(programs)) = (&self.mirror, &session.programs) {
                let r0 = Instant::now();
                std::hint::black_box(q.replay(&programs[i + 1], snap));
                let r1 = Instant::now();
                tracer.record("serve.replay.query", r0, r1);
                self.out.query_overhead_ms.push(ms(t0, t1) - ms(r0, r1));
            }
            self.query_replies.push((i, q, reply));
        }
        Ok(())
    }

    /// Makes the remaining turns, shuts the daemon down and checks every
    /// reply against the from-scratch answers.
    pub fn finish(
        mut self,
        tracer: &mut Tracer,
        calib: &mut Calib,
        ledger: &mut Ledger,
    ) -> std::io::Result<ServeOut> {
        self.turns(self.remaining(), tracer, calib)?;
        let mut out = self.out;
        let rss_end = mem::status_kb(&self.pid, "VmRSS").unwrap_or(0);
        out.daemon_peak_kb = mem::status_kb(&self.pid, "VmHWM").unwrap_or(0);
        out.rss_growth_kb_per_resolve = (rss_end as f64 - self.rss_loaded as f64) / RESOLVES as f64;
        self.daemon.shutdown()?;

        let oracles = &self.session.oracles;
        let with_oracle =
            |i: usize, check: &dyn Fn(&Oracle) -> Result<(), String>| match &oracles[i] {
                Some(o) => check(o),
                None => Err(format!(
                    "from-scratch solve of program {i} did not complete"
                )),
            };
        for reply in &self.load_replies {
            let res = with_oracle(0, &|o| check_graph(&healthy(reply)?, "call_edges", o));
            ledger.op(res.is_ok(), || format!("load: {}", res.unwrap_err()));
        }
        for (i, reply) in self.resolve_replies.iter().enumerate() {
            let kind = parse_reply(reply)
                .ok()
                .and_then(|r| r.str("resolve").map(str::to_owned))
                .unwrap_or_else(|| "failed".to_owned());
            *out.resolve_kinds.entry(kind).or_default() += 1;
            let res = with_oracle(i + 1, &|o| check_graph(&healthy(reply)?, "call_edges", o));
            ledger.op(res.is_ok(), || format!("resolve {i}: {}", res.unwrap_err()));
        }
        for (i, q, reply) in &self.query_replies {
            let res = with_oracle(i + 1, &|o| q.check(reply, o));
            ledger.op(res.is_ok(), || {
                format!("query after resolve {i}: {}", res.unwrap_err())
            });
        }
        Ok(out)
    }
}

/// Replays resolve `i` in-process: the calls the daemon makes for it, in
/// its order, each in a span.
fn replay_resolve<'s>(
    tracer: &mut Tracer,
    programs: &'s [Program],
    i: usize,
    path: &Path,
    prev: AnalysisOutcome<'s>,
    opts: SolverOptions,
) -> std::io::Result<(AnalysisOutcome<'s>, SolvedSummary)> {
    let bytes = std::fs::read(path)?;
    let patched = &programs[i + 1];
    let delta = tracer
        .span("delta.decode_s", |_| decode_delta_guarded(&bytes))
        .map_err(std::io::Error::other)?;
    let (_, fx) = tracer
        .span("delta.apply_s", |_| delta.apply(&programs[i]))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let outcome = tracer.span("incr.resolve_s", |_| {
        resolve_analysis_opts(
            prev,
            patched,
            &fx,
            Analysis::CutShortcut,
            Budget::with_time(ROW_BUDGET),
            opts,
        )
    });
    let snap = tracer.span("results.capture_s", |_| {
        SolvedSummary::capture(patched, &outcome.result)
    });
    Ok((outcome, snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cscbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn same_seed_gives_identical_delta_files() {
        let base = crate::programs::program("hsqldb", 3).compile();
        let (a, b) = (scratch("delta-a"), scratch("delta-b"));
        let chain = |seed: u64, dir: &Path| {
            let mut programs = Vec::new();
            let (paths, _) = chain_deltas(base.clone(), 4, seed, dir, |p| programs.push(p.clone()))
                .expect("a chain");
            (paths, programs)
        };
        let (fa, pa) = chain(3, &a);
        let (fb, pb) = chain(3, &b);
        assert_eq!(pa.len(), 5, "the base and four patched programs");
        assert_eq!(pa, pb, "same seed, same patched programs");
        for (x, y) in fa.iter().zip(&fb) {
            let (x, y) = (std::fs::read(x).unwrap(), std::fs::read(y).unwrap());
            assert!(!x.is_empty());
            assert_eq!(x, y, "same seed, byte-identical delta file");
        }
        let c = scratch("delta-c");
        let (fc, _) = chain(4, &c);
        let differs = fa
            .iter()
            .zip(&fc)
            .any(|(x, y)| std::fs::read(x).unwrap() != std::fs::read(y).unwrap());
        assert!(differs, "another seed gives other deltas");
        for d in [a, b, c] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn query_lookup_matches_the_daemon() {
        let program = crate::programs::program("hsqldb", 0).compile();
        let m = program.entry();
        let v = program.method(m).vars()[0];
        let class = program.class(program.method(m).class()).name();
        let name = format!(
            "{class}.{}.{}",
            program.method(m).name(),
            program.var(v).name()
        );
        assert_eq!(lookup_var(&program, &name), Some(v));
        assert_eq!(lookup_var(&program, "no.such"), None);
        assert_eq!(lookup_var(&program, "a.b.c.d"), None);
    }
}
