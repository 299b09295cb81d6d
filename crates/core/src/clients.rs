//! The four precision clients used as metrics throughout the paper's
//! evaluation (§5): cast resolution (#fail-cast), method reachability
//! (#reach-mtd), devirtualization (#poly-call), and call-graph construction
//! (#call-edge). For every metric, smaller is better.

use std::collections::{BTreeSet, HashSet};

use csc_ir::{CallKind, CallSiteId, CastId, MethodId, ObjId, Program, Type, VarId};

use crate::solver::PtaResult;

/// The four precision metrics of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PrecisionMetrics {
    /// Casts that may fail (an object in the source's points-to set is not a
    /// subtype of the cast target).
    pub fail_casts: usize,
    /// Reachable methods.
    pub reach_methods: usize,
    /// Virtual call sites resolved to more than one target.
    pub poly_calls: usize,
    /// Call-graph edges (context-insensitively projected).
    pub call_edges: usize,
}

impl PrecisionMetrics {
    /// Computes all four metrics from an analysis result.
    pub fn compute(result: &PtaResult<'_>) -> Self {
        let state = &result.state;
        let index = state.var_ptr_index();
        PrecisionMetrics::from_projections(
            state.program,
            &state.reachable_methods_projected(),
            &state.call_edges_projected(),
            |v| index.pt_var_projected(v),
        )
    }

    /// Derives the metrics from already-projected tables: the reachable
    /// methods, the call-graph edges, and a per-variable points-to lookup.
    pub(crate) fn from_projections<P: AsRef<[ObjId]>>(
        program: &Program,
        reachable: &BTreeSet<MethodId>,
        call_edges: &BTreeSet<(CallSiteId, MethodId)>,
        pt: impl FnMut(VarId) -> P,
    ) -> Self {
        PrecisionMetrics {
            fail_casts: fail_casts_with(program, reachable, pt).len(),
            reach_methods: reachable.len(),
            poly_calls: poly_sites(program, call_edges.iter().copied()).len(),
            call_edges: call_edges.len(),
        }
    }
}

/// The cast sites that may fail under the given result.
///
/// A cast `x = (T) y` may fail iff some object in `pt(y)` (restricted to
/// casts in reachable methods) is not a subtype of `T`.
pub fn fail_casts(result: &PtaResult<'_>) -> HashSet<CastId> {
    let state = &result.state;
    let index = state.var_ptr_index();
    fail_casts_with(state.program, &state.reachable_methods_projected(), |v| {
        index.pt_var_projected(v)
    })
}

/// [`fail_casts`] over a reachable-method set and a per-variable
/// points-to lookup.
fn fail_casts_with<P: AsRef<[ObjId]>>(
    program: &Program,
    reachable: &BTreeSet<MethodId>,
    mut pt: impl FnMut(VarId) -> P,
) -> HashSet<CastId> {
    let mut out = HashSet::new();
    for (i, cast) in program.casts().iter().enumerate() {
        if !reachable.contains(&cast.method()) {
            continue;
        }
        let may_fail = pt(cast.rhs()).as_ref().iter().any(|&o| {
            let ty = Type::Class(program.obj(o).class());
            !program.is_subtype(ty, cast.ty())
        });
        if may_fail {
            out.insert(CastId::from_usize(i));
        }
    }
    out
}

/// The virtual call sites that resolve to more than one callee.
pub fn poly_calls(result: &PtaResult<'_>) -> HashSet<CallSiteId> {
    poly_sites(
        result.state.program,
        result
            .state
            .call_edges()
            .iter()
            .map(|&(_, site, _, callee)| (site, callee)),
    )
}

/// [`poly_calls`] over `(call site, callee)` edges (duplicates allowed).
fn poly_sites(
    program: &Program,
    edges: impl Iterator<Item = (CallSiteId, MethodId)>,
) -> HashSet<CallSiteId> {
    let mut targets: Vec<HashSet<MethodId>> = vec![HashSet::new(); program.call_sites().len()];
    for (site, callee) in edges {
        targets[site.index()].insert(callee);
    }
    let mut out = HashSet::new();
    for (i, cs) in program.call_sites().iter().enumerate() {
        if cs.kind() == CallKind::Virtual && targets[i].len() > 1 {
            out.insert(CallSiteId::from_usize(i));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CiSelector;
    use crate::solver::{Budget, NoPlugin, Solver};

    fn analyze(src: &str) -> PrecisionMetrics {
        let program = csc_frontend::compile(src).expect("compiles");
        let program = Box::leak(Box::new(program));
        let (result, _) = Solver::new(program, CiSelector, NoPlugin, Budget::unlimited()).solve();
        PrecisionMetrics::compute(&result)
    }

    #[test]
    fn monomorphic_call_is_not_poly() {
        let m = analyze(
            r#"
            class A { void m() { } }
            class Main { static void main() { A a = new A(); a.m(); } }
            "#,
        );
        assert_eq!(m.poly_calls, 0);
        assert_eq!(m.call_edges, 1);
        assert_eq!(m.reach_methods, 2); // main + A.m
    }

    #[test]
    fn merged_receivers_make_poly_call() {
        let m = analyze(
            r#"
            abstract class A { abstract void m(); }
            class B extends A { void m() { } }
            class C extends A { void m() { } }
            class Main {
                static void main() {
                    A a = pick(new B(), new C());
                    a.m();
                }
                static A pick(A x, A y) { A r; if (true) { r = x; } else { r = y; } return r; }
            }
            "#,
        );
        // CI merges both receivers at the call site.
        assert_eq!(m.poly_calls, 1);
    }

    #[test]
    fn fail_cast_detected_under_ci_merging() {
        let m = analyze(
            r#"
            class A { }
            class B { }
            class Main {
                static Object id(Object o) { return o; }
                static void main() {
                    Object a = id(new A());
                    Object b = id(new B());
                    A onlyA = (A) a;
                }
            }
            "#,
        );
        // CI merges A and B objects in id(); the cast sees a B, may fail.
        assert_eq!(m.fail_casts, 1);
    }

    #[test]
    fn safe_cast_not_counted() {
        let m = analyze(
            r#"
            class A { }
            class Main {
                static void main() {
                    Object a = new A();
                    A x = (A) a;
                }
            }
            "#,
        );
        assert_eq!(m.fail_casts, 0);
    }
}
