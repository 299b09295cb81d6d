//! The one-pass variable → pointer index (`SolverState::var_ptr_index`)
//! must project exactly what the per-variable scan
//! (`SolverState::pt_var_projected`) does, for every variable, on every
//! solver state the projections are taken from:
//!
//! * the five analyses of the paper's tables (CI, 2obj, 2type, Zipper-e,
//!   CSC) with SCC collapse on and a small epoch, so members read through
//!   their representatives;
//! * the BSP and async engines at 2 threads, whose commit plane leaves
//!   `PtrKey::Dead` slots behind;
//! * incremental re-solves whose deltas remove statements, so taint cones
//!   were reset and re-propagated on top of a rebased state.
//!
//! It also checks that `SolvedSummary::capture`, which projects through
//! the index and derives the metrics from its own tables, agrees with the
//! scan, the standalone projections and `PrecisionMetrics::compute`.

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, Budget, Engine, PrecisionMetrics,
    PtaResult, PtrId, PtrKey, SolvedSummary, SolverOptions,
};
use csc_ir::{Program, VarId};
use csc_workloads::{generate_delta, DeltaGenConfig};

/// Every projection path agrees with the scan, variable by variable.
fn assert_index_matches(program: &Program, result: &PtaResult<'_>, what: &str) {
    let state = &result.state;
    let index = state.var_ptr_index();
    let summary = SolvedSummary::capture(program, result);
    assert_eq!(
        summary.pts.len(),
        program.vars().len(),
        "{what}: one set per variable"
    );
    for (i, captured) in summary.pts.iter().enumerate() {
        let v = VarId::from_usize(i);
        let scan = state.pt_var_projected(v);
        assert_eq!(
            index.pt_var_projected(v),
            scan,
            "{what}: indexed pt({}) differs from the scan",
            program.var_name(v)
        );
        assert_eq!(
            captured,
            &scan,
            "{what}: captured pt({})",
            program.var_name(v)
        );
    }
    assert_eq!(
        summary.reachable,
        state
            .reachable_methods_projected()
            .into_iter()
            .collect::<Vec<_>>(),
        "{what}: captured reachable methods"
    );
    assert_eq!(
        summary.call_edges,
        state.call_edges_projected().into_iter().collect::<Vec<_>>(),
        "{what}: captured call edges"
    );
    assert_eq!(
        summary.metrics,
        PrecisionMetrics::compute(result),
        "{what}: captured metrics"
    );
}

fn has_dead_slots(result: &PtaResult<'_>) -> bool {
    let state = &result.state;
    (0..state.ptr_count() as u32).any(|p| state.ptr_key(PtrId(p)) == PtrKey::Dead)
}

#[test]
fn index_matches_scan_for_table_analyses() {
    let program = csc_workloads::compiled("hsqldb").unwrap();
    for analysis in [
        Analysis::Ci,
        Analysis::KObj(2),
        Analysis::KType(2),
        Analysis::ZipperE,
        Analysis::CutShortcut,
    ] {
        let what = format!("hsqldb/{}", analysis.label());
        let out = run_analysis_opts(
            program,
            analysis,
            Budget::unlimited(),
            SolverOptions::with_epoch(32),
        );
        assert!(out.completed(), "{what}: hit budget");
        assert!(
            out.result.state.stats.ptrs_collapsed > 0,
            "{what}: no SCC collapsed, members never read through a representative"
        );
        assert_index_matches(program, &out.result, &what);
    }
}

#[test]
fn index_matches_scan_for_parallel_engines() {
    let program = csc_workloads::compiled("hsqldb").unwrap();
    let mut dead = false;
    for engine in [Engine::Bsp, Engine::Async] {
        for analysis in [Analysis::Ci, Analysis::CutShortcut] {
            let what = format!("hsqldb/{}/{engine:?}x2", analysis.label());
            let opts = SolverOptions::with_epoch(32)
                .with_threads(2)
                .with_engine(engine)
                .with_par_commit(true);
            let out = run_analysis_opts(program, analysis, Budget::unlimited(), opts);
            assert!(out.completed(), "{what}: hit budget");
            dead |= has_dead_slots(&out.result);
            assert_index_matches(program, &out.result, &what);
        }
    }
    assert!(dead, "no parallel solve left a dead pointer slot");
}

#[test]
fn index_matches_scan_after_incremental_removals() {
    let base = csc_workloads::compiled("hsqldb").unwrap();
    let opts = SolverOptions::default()
        .with_threads(2)
        .with_engine(Engine::Bsp)
        .with_par_commit(true);
    let mut current: &'static Program = Box::leak(Box::new(base.clone()));
    let mut outcome = run_analysis_opts(current, Analysis::Ci, Budget::unlimited(), opts);
    assert!(outcome.completed(), "base run hit budget");
    let mut removal_steps_in_place = 0;
    let mut dead = false;
    for step in 0..4u64 {
        let cfg = DeltaGenConfig {
            seed: 0x5eed + step,
            actions: 8,
            removals: true,
        };
        let delta = generate_delta(current, &cfg);
        let (patched, fx) = delta.apply(current).expect("delta applies");
        let patched: &'static Program = Box::leak(Box::new(patched));
        let next = resolve_analysis_opts(
            outcome,
            patched,
            &fx,
            Analysis::Ci,
            Budget::unlimited(),
            opts,
        );
        assert!(next.completed(), "step {step}: resolve hit budget");
        let stats = next.result.state.stats;
        if !fx.additions_only() && stats.incr_fallback_reason.is_none() {
            removal_steps_in_place += 1;
        }
        dead |= has_dead_slots(&next.result);
        assert_index_matches(patched, &next.result, &format!("hsqldb/CI step {step}"));
        outcome = next;
        current = patched;
    }
    assert!(
        removal_steps_in_place > 0,
        "no removal delta was re-solved in place (every step fell back)"
    );
    assert!(dead, "no incremental state carried a dead pointer slot");
}
