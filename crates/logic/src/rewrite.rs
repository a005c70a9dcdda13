//! Rewrites toward the executable core of the language.
//!
//! The compiled execution engine (`nev-exec`) lowers formulas into relational
//! algebra. Its lowering only has to understand the connectives
//! `true/false/atom/=/¬/∧/∨/∃` because the two remaining connectives are
//! definable. [`to_executable_core`] writes `φ → ψ` as `¬φ ∨ ψ` and `∀x̄ ψ` as
//! `¬∃x̄ ν(ψ)`, where ν pushes the negation one level into the body:
//! `ν(A → B) = A ∧ ν(B)`, `ν(B₁ ∨ … ∨ Bₙ) = ν(B₁) ∧ … ∧ ν(Bₙ)`, `ν(¬A) = A`,
//! and otherwise `ν(A) = ¬A`. A guarded universal `∀x̄ (G → φ₁ ∨ φ₂)` thus
//! becomes `¬∃x̄ (G ∧ ¬φ₁ ∧ ¬φ₂)`, a conjunction the lowering runs as the
//! anti-joins `G ▷ φ₁ ▷ φ₂`. Every step is an exact equivalence under the
//! *active-domain* semantics of [`crate::eval`] (quantifiers on both sides range
//! over the same `adom(D)`).
//!
//! The rewrites deliberately use the raw AST constructors, not the flattening
//! smart constructors, so the output shape is predictable for the lowering and
//! the rewritten formula prints close to its textbook form.

use crate::ast::Formula;

/// Rewrites a formula into the executable core `true/false/atom/=/¬/∧/∨/∃`:
/// implications become `¬φ ∨ ψ` and universals become `¬∃x̄ ν(ψ)` (see the
/// module docs), in one recursion.
pub fn to_executable_core(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => f.clone(),
        Formula::Not(inner) => Formula::Not(Box::new(to_executable_core(inner))),
        Formula::And(parts) => Formula::And(parts.iter().map(to_executable_core).collect()),
        Formula::Or(parts) => Formula::Or(parts.iter().map(to_executable_core).collect()),
        Formula::Implies(a, b) => Formula::Or(vec![
            Formula::Not(Box::new(to_executable_core(a))),
            to_executable_core(b),
        ]),
        Formula::Exists(vars, body) => {
            Formula::Exists(vars.clone(), Box::new(to_executable_core(body)))
        }
        Formula::Forall(vars, body) => {
            let mut conjuncts = Vec::new();
            negate_into(body, &mut conjuncts);
            let negated = if conjuncts.len() == 1 {
                conjuncts.pop().expect("one conjunct")
            } else {
                Formula::And(conjuncts)
            };
            Formula::Not(Box::new(Formula::Exists(vars.clone(), Box::new(negated))))
        }
    }
}

/// ν: appends to `out` the conjuncts of the executable core of `¬f`, pushing
/// the negation through `→` and `∨` and cancelling it against `¬`.
fn negate_into(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::Implies(a, b) => {
            out.push(to_executable_core(a));
            negate_into(b, out);
        }
        Formula::Or(parts) => parts.iter().for_each(|p| negate_into(p, out)),
        // `¬A` and the `¬∃` of a nested universal both cancel the negation.
        _ => match to_executable_core(f) {
            Formula::Not(inner) => out.push(*inner),
            core => out.push(Formula::Not(Box::new(core))),
        },
    }
}

/// Bottom-up constant folding: `¬⊤ ⇒ ⊥`, `t = t ⇒ ⊤`, distinct constants `c ≠ c'
/// ⇒ ⊥`, absorption of `⊤`/`⊥` in `∧`/`∨`/`→`, complementary pairs `φ ∧ ¬φ ⇒ ⊥`
/// and `φ ∨ ¬φ ⇒ ⊤`, plus the two quantifier folds that are exact under the
/// active-domain semantics: `∃x̄ ⊥ ⇒ ⊥` and `∀x̄ ⊤ ⇒ ⊤`. (`∃x̄ ⊤` and `∀x̄ ⊥` are
/// **not** folded: on an empty active domain they differ from their bodies.)
///
/// `φ → ⊥` is also deliberately left alone — rewriting it to `¬φ` would destroy
/// the guarded-universal shape `∀x̄ (R(x̄) → ⊥)` that `Pos+∀G` recognises;
/// [`eliminate_unguarded_implications`] deals with the unguarded occurrences.
///
/// Every rewrite is an exact equivalence on every instance (complete or not)
/// under the two-valued active-domain semantics of [`crate::eval`].
pub fn fold_constants(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } => f.clone(),
        Formula::Eq(a, b) => {
            if a == b {
                Formula::True
            } else if matches!(
                (a, b),
                (crate::ast::Term::Const(_), crate::ast::Term::Const(_))
            ) {
                // Distinct constants denote distinct values in every world.
                Formula::False
            } else {
                f.clone()
            }
        }
        Formula::Not(inner) => match fold_constants(inner) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            other => Formula::Not(Box::new(other)),
        },
        Formula::And(parts) => {
            let mut out: Vec<Formula> = Vec::new();
            for p in parts {
                match fold_constants(p) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    other => out.push(other),
                }
            }
            if has_complementary_pair(&out) {
                return Formula::False;
            }
            match out.len() {
                0 => Formula::True,
                1 => out.pop().expect("one element"),
                _ => Formula::And(out),
            }
        }
        Formula::Or(parts) => {
            let mut out: Vec<Formula> = Vec::new();
            for p in parts {
                match fold_constants(p) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    other => out.push(other),
                }
            }
            if has_complementary_pair(&out) {
                return Formula::True;
            }
            match out.len() {
                0 => Formula::False,
                1 => out.pop().expect("one element"),
                _ => Formula::Or(out),
            }
        }
        Formula::Implies(a, b) => {
            let fa = fold_constants(a);
            let fb = fold_constants(b);
            if matches!(fa, Formula::True) {
                return fb;
            }
            if matches!(fa, Formula::False) || matches!(fb, Formula::True) {
                return Formula::True;
            }
            Formula::Implies(Box::new(fa), Box::new(fb))
        }
        Formula::Exists(vars, body) => match fold_constants(body) {
            Formula::False => Formula::False,
            other => Formula::Exists(vars.clone(), Box::new(other)),
        },
        Formula::Forall(vars, body) => match fold_constants(body) {
            Formula::True => Formula::True,
            other => Formula::Forall(vars.clone(), Box::new(other)),
        },
    }
}

/// Returns `true` iff the slice contains some `φ` together with its syntactic
/// negation `¬φ` — the witness behind the `φ ∧ ¬φ ⇒ ⊥` / `φ ∨ ¬φ ⇒ ⊤` folds
/// (exact for *any* φ: the active-domain semantics is two-valued).
fn has_complementary_pair(parts: &[Formula]) -> bool {
    parts.iter().any(|p| {
        parts
            .iter()
            .any(|q| matches!(q, Formula::Not(inner) if inner.as_ref() == p))
    })
}

/// Replaces every implication by `¬φ ∨ ψ` **except** the guarded universals
/// `∀x̄ (R(x̄) → φ)` recognised by [`crate::fragment::is_universal_guard`], whose
/// implication is the defining shape of the `Pos+∀G` / `∃Pos+∀G_bool` fragments
/// and must survive normalization for the classifier to see it.
pub fn eliminate_unguarded_implications(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => f.clone(),
        Formula::Not(inner) => Formula::Not(Box::new(eliminate_unguarded_implications(inner))),
        Formula::And(parts) => {
            Formula::And(parts.iter().map(eliminate_unguarded_implications).collect())
        }
        Formula::Or(parts) => {
            Formula::Or(parts.iter().map(eliminate_unguarded_implications).collect())
        }
        Formula::Implies(a, b) => Formula::or([
            Formula::Not(Box::new(eliminate_unguarded_implications(a))),
            eliminate_unguarded_implications(b),
        ]),
        Formula::Exists(vars, body) => Formula::Exists(
            vars.clone(),
            Box::new(eliminate_unguarded_implications(body)),
        ),
        Formula::Forall(vars, body) => match body.as_ref() {
            Formula::Implies(guard, inner) if crate::fragment::is_universal_guard(guard, vars) => {
                Formula::Forall(
                    vars.clone(),
                    Box::new(Formula::Implies(
                        guard.clone(),
                        Box::new(eliminate_unguarded_implications(inner)),
                    )),
                )
            }
            _ => Formula::Forall(
                vars.clone(),
                Box::new(eliminate_unguarded_implications(body)),
            ),
        },
    }
}

/// Pushes negations down to atoms (negation normal form): `¬¬φ ⇒ φ`, De Morgan
/// over `∧`/`∨`, `¬∃ ⇒ ∀¬`, `¬∀ ⇒ ∃¬`, `¬(φ → ψ) ⇒ φ ∧ ¬ψ`. Positive guarded
/// universals `∀x̄ (R(x̄) → φ)` are kept intact (the guard is an atom, so there is
/// nothing to push through it); under negation they become `∃x̄ (R(x̄) ∧ ¬φ)` like
/// any other implication.
pub fn push_negations(f: &Formula) -> Formula {
    nnf(f, false)
}

fn nnf(f: &Formula, negate: bool) -> Formula {
    match f {
        Formula::True => {
            if negate {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if negate {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom { .. } | Formula::Eq(_, _) => {
            if negate {
                Formula::Not(Box::new(f.clone()))
            } else {
                f.clone()
            }
        }
        Formula::Not(inner) => nnf(inner, !negate),
        Formula::And(parts) => {
            let kids: Vec<Formula> = parts.iter().map(|p| nnf(p, negate)).collect();
            if negate {
                Formula::Or(kids)
            } else {
                Formula::And(kids)
            }
        }
        Formula::Or(parts) => {
            let kids: Vec<Formula> = parts.iter().map(|p| nnf(p, negate)).collect();
            if negate {
                Formula::And(kids)
            } else {
                Formula::Or(kids)
            }
        }
        Formula::Implies(a, b) => {
            if negate {
                Formula::And(vec![nnf(a, false), nnf(b, true)])
            } else {
                Formula::Or(vec![nnf(a, true), nnf(b, false)])
            }
        }
        Formula::Exists(vars, body) => {
            if negate {
                Formula::Forall(vars.clone(), Box::new(nnf(body, true)))
            } else {
                Formula::Exists(vars.clone(), Box::new(nnf(body, false)))
            }
        }
        Formula::Forall(vars, body) => {
            if negate {
                Formula::Exists(vars.clone(), Box::new(nnf(body, true)))
            } else {
                match body.as_ref() {
                    Formula::Implies(guard, inner)
                        if crate::fragment::is_universal_guard(guard, vars) =>
                    {
                        Formula::Forall(
                            vars.clone(),
                            Box::new(Formula::Implies(guard.clone(), Box::new(nnf(inner, false)))),
                        )
                    }
                    _ => Formula::Forall(vars.clone(), Box::new(nnf(body, false))),
                }
            }
        }
    }
}

/// Flattens nested `∧`/`∨` (via the smart constructors) and drops syntactically
/// duplicate operands, keeping the first occurrence — `φ ∧ φ ≡ φ` and `φ ∨ φ ≡ φ`
/// under set semantics.
pub fn flatten_connectives(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => f.clone(),
        Formula::Not(inner) => Formula::Not(Box::new(flatten_connectives(inner))),
        Formula::And(parts) => match Formula::and(parts.iter().map(flatten_connectives)) {
            Formula::And(kids) => Formula::and(dedup_preserving_order(kids)),
            other => other,
        },
        Formula::Or(parts) => match Formula::or(parts.iter().map(flatten_connectives)) {
            Formula::Or(kids) => Formula::or(dedup_preserving_order(kids)),
            other => other,
        },
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(flatten_connectives(a)),
            Box::new(flatten_connectives(b)),
        ),
        Formula::Exists(vars, body) => {
            Formula::Exists(vars.clone(), Box::new(flatten_connectives(body)))
        }
        Formula::Forall(vars, body) => {
            Formula::Forall(vars.clone(), Box::new(flatten_connectives(body)))
        }
    }
}

fn dedup_preserving_order(parts: Vec<Formula>) -> Vec<Formula> {
    let mut out: Vec<Formula> = Vec::with_capacity(parts.len());
    for p in parts {
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Drops quantified variables that do not occur free in the body. The fold is
/// careful about the active-domain edge cases:
///
/// * a *partially* vacuous block sheds its unused variables (`∃u v . φ(v)` ≡
///   `∃v . φ(v)` — both sides already force a non-empty domain through `v`);
/// * a *fully* vacuous `∃`-block is dropped only when the body syntactically
///   forces a non-empty active domain (a relational atom or another `∃`);
///   otherwise one variable is kept, because `∃u . ⊤` is false on the empty
///   instance while `⊤` is true;
/// * dually, a fully vacuous `∀`-block is dropped only over a body that holds
///   vacuously on the empty domain (another `∀`), since `∀u . ⊥` is true there.
pub fn prune_vacuous_quantifiers(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => f.clone(),
        Formula::Not(inner) => Formula::Not(Box::new(prune_vacuous_quantifiers(inner))),
        Formula::And(parts) => Formula::And(parts.iter().map(prune_vacuous_quantifiers).collect()),
        Formula::Or(parts) => Formula::Or(parts.iter().map(prune_vacuous_quantifiers).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(prune_vacuous_quantifiers(a)),
            Box::new(prune_vacuous_quantifiers(b)),
        ),
        Formula::Exists(vars, body) => prune_block(true, vars, prune_vacuous_quantifiers(body)),
        Formula::Forall(vars, body) => prune_block(false, vars, prune_vacuous_quantifiers(body)),
    }
}

fn prune_block(exists: bool, vars: &[String], body: Formula) -> Formula {
    if vars.is_empty() {
        // A raw empty-range quantifier (unreachable from the parser, possible
        // from AST builders) binds nothing: `∃∅.φ ≡ ∀∅.φ ≡ φ`.
        return body;
    }
    let free = body.free_variables();
    let mut kept: Vec<String> = Vec::new();
    for v in vars {
        if free.contains(v) && !kept.contains(v) {
            kept.push(v.clone());
        }
    }
    if kept.is_empty() {
        let droppable = if exists {
            // φ ⇒ adom ≠ ∅: a relational atom needs a witness tuple, an ∃ a witness value.
            matches!(body, Formula::Atom { .. } | Formula::Exists(_, _))
        } else {
            // adom = ∅ ⇒ φ: another universal holds vacuously there.
            matches!(body, Formula::Forall(_, _))
        };
        if droppable {
            return body;
        }
        kept.push(vars[0].clone());
    }
    if exists {
        Formula::Exists(kept, Box::new(body))
    } else {
        Formula::Forall(kept, Box::new(body))
    }
}

/// Returns `true` iff the formula uses only the executable core connectives.
pub fn is_executable_core(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => true,
        Formula::Not(inner) => is_executable_core(inner),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().all(is_executable_core),
        Formula::Implies(_, _) | Formula::Forall(_, _) => false,
        Formula::Exists(_, body) => is_executable_core(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_query, satisfies, Assignment};
    use crate::parser::parse_formula;
    use crate::query::Query;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn rewrite_cases() -> Vec<Formula> {
        [
            "forall u . exists v . D(u, v)",
            "forall u v . D(u, v) -> D(v, u)",
            "exists u . D(u, u) & (forall v w . D(v, w) -> D(w, v))",
            "forall u . (D(u, u) | exists v . D(u, v))",
            "exists u . !D(u, u)",
            "forall u . u = u",
            "(exists u v . D(u, v)) -> (exists w . D(w, w))",
            "forall u . (!D(u, u) | exists v . D(u, v))",
            "forall u . (D(u, u) -> (forall v . (D(v, v) -> D(u, v))))",
            "forall u v . (D(u, v) -> (D(v, v) -> D(v, u)))",
            "forall u v . ((D(u, v) & D(v, u)) -> u = v)",
            "forall u . (D(u, 1) -> false)",
            "forall u . !(forall v . D(u, v))",
        ]
        .iter()
        .map(|s| parse_formula(s).expect("valid formula"))
        .collect()
    }

    #[test]
    fn rewrites_produce_the_executable_core() {
        for f in rewrite_cases() {
            let core = to_executable_core(&f);
            assert!(is_executable_core(&core), "{f} → {core}");
            assert_eq!(
                f.free_variables(),
                core.free_variables(),
                "free variables must be preserved: {f}"
            );
        }
    }

    #[test]
    fn rewrites_preserve_active_domain_semantics() {
        let instances = [
            inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] },
            inst! { "D" => [[c(1), c(2)], [c(2), c(2)]] },
            inst! { "D" => [[x(1), x(1)]] },
            nev_incomplete::Instance::new(),
        ];
        for f in rewrite_cases() {
            let core = to_executable_core(&f);
            for d in &instances {
                if f.is_sentence() {
                    assert_eq!(
                        satisfies(d, &f, &Assignment::new()),
                        satisfies(d, &core, &Assignment::new()),
                        "{f} vs {core} on {d}"
                    );
                } else {
                    let vars: Vec<String> = f.free_variables().into_iter().collect();
                    let q = Query::new(vars.clone(), f.clone()).expect("well-formed");
                    let qc = Query::new(vars, core.clone()).expect("well-formed");
                    assert_eq!(
                        evaluate_query(d, &q),
                        evaluate_query(d, &qc),
                        "{f} vs {core} on {d}"
                    );
                }
            }
        }
    }

    /// A named normalization pass.
    type NamedPass = (&'static str, fn(&Formula) -> Formula);

    /// The full normalization pass list, in pipeline order (mirrored by
    /// `nev-analyze`): every entry must preserve active-domain semantics on
    /// every instance — the property pinned below and by the umbrella
    /// proptests in `tests/cross_crate_properties.rs`.
    fn normalization_passes() -> Vec<NamedPass> {
        vec![
            ("fold_constants", fold_constants),
            (
                "eliminate_unguarded_implications",
                eliminate_unguarded_implications,
            ),
            ("push_negations", push_negations),
            ("flatten_connectives", flatten_connectives),
            ("prune_vacuous_quantifiers", prune_vacuous_quantifiers),
        ]
    }

    fn normalization_cases() -> Vec<Formula> {
        [
            // Double negation hiding an ∃Pos query inside a FO-classified shell.
            "!(!(exists u . D(u, u)))",
            // Implication chain that folds into ∃Pos after ⊥-absorption.
            "(forall u . (D(u, u) -> false)) -> (exists w . D(w, w))",
            // Guarded universal that must survive every pass untouched.
            "forall u v . D(u, v) -> D(v, u)",
            // Complementary conjunction: statically unsatisfiable.
            "exists u . D(u, u) & !D(u, u)",
            // Complementary disjunction: tautology.
            "(exists u . D(u, u)) | !(exists u . D(u, u))",
            // Constant conditions.
            "exists u . D(u, u) & 1 = 1",
            "exists u . D(u, u) & 1 = 2",
            "exists u . u = u",
            // Vacuous quantifiers, partial and full blocks.
            "exists u v . D(u, u)",
            "exists u . exists v . D(v, v)",
            "forall u . forall v . D(v, v)",
            "forall u . true",
            "exists u . true",
            "forall u . false",
            "exists u . false",
            // Negations to push through every connective.
            "!(exists u . D(u, u) & (forall v . D(v, v)))",
            "!((exists u . D(u, u)) -> (exists v . D(v, v)))",
            "!(forall u v . D(u, v) -> D(v, u))",
            // Nested duplicates for the flattener.
            "(exists u . D(u, u)) & ((exists u . D(u, u)) & (exists w . D(w, w)))",
            "(exists u . D(u, u)) | ((exists u . D(u, u)) | (exists w . D(w, w)))",
        ]
        .iter()
        .map(|s| parse_formula(s).expect("valid formula"))
        .collect()
    }

    fn eval_instances() -> Vec<nev_incomplete::Instance> {
        vec![
            inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] },
            inst! { "D" => [[c(1), c(2)], [c(2), c(2)]] },
            inst! { "D" => [[x(1), x(1)], [c(1), x(2)]] },
            // The empty instance: the active-domain quantifier edge cases live here.
            nev_incomplete::Instance::new(),
        ]
    }

    fn assert_equivalent_on(f: &Formula, g: &Formula, d: &nev_incomplete::Instance, label: &str) {
        if f.is_sentence() && g.is_sentence() {
            assert_eq!(
                satisfies(d, f, &Assignment::new()),
                satisfies(d, g, &Assignment::new()),
                "{label}: {f} vs {g} on {d}"
            );
        } else {
            let vars: Vec<String> = f.free_variables().into_iter().collect();
            let q = Query::new(vars.clone(), f.clone()).expect("well-formed");
            let qg = Query::new(vars, g.clone()).expect("well-formed");
            assert_eq!(
                evaluate_query(d, &q),
                evaluate_query(d, &qg),
                "{label}: {f} vs {g} on {d}"
            );
        }
    }

    #[test]
    fn normalization_passes_preserve_active_domain_semantics() {
        for f in normalization_cases().into_iter().chain(rewrite_cases()) {
            for (name, pass) in normalization_passes() {
                let g = pass(&f);
                assert!(
                    g.free_variables().is_subset(&f.free_variables()),
                    "{name} must not invent free variables: {f} → {g}"
                );
                for d in &eval_instances() {
                    assert_equivalent_on(&f, &g, d, name);
                }
            }
        }
    }

    #[test]
    fn normalization_passes_compose_and_are_idempotent_at_fixpoint() {
        for f in normalization_cases() {
            // Run the pipeline to a fixpoint, then check one more round changes nothing.
            let mut current = f.clone();
            for _ in 0..8 {
                let mut changed = false;
                for (_, pass) in normalization_passes() {
                    let next = pass(&current);
                    if next != current {
                        current = next;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for (name, pass) in normalization_passes() {
                assert_eq!(pass(&current), current, "{name} not at fixpoint for {f}");
            }
            for d in &eval_instances() {
                assert_equivalent_on(&f, &current, d, "pipeline");
            }
        }
    }

    #[test]
    fn fold_constants_detects_complements_and_constant_conditions() {
        let cases = [
            ("exists u . D(u, u) & !D(u, u)", "false"),
            ("(exists u . D(u, u)) | !(exists u . D(u, u))", "true"),
            ("exists u . D(u, u) & 1 = 1", "exists u . D(u, u)"),
            ("exists u . D(u, u) & 1 = 2", "false"),
            ("forall u . u = u", "true"),
            ("forall u . (D(u, u) -> true)", "true"),
        ];
        for (input, expected) in cases {
            let f = parse_formula(input).expect("valid");
            assert_eq!(fold_constants(&f).to_string(), expected, "{input}");
        }
    }

    #[test]
    fn fold_constants_keeps_guarded_false_consequent() {
        // Rewriting `∀x̄ (R(x̄) → ⊥)` to `∀x̄ ¬R(x̄)` would leave Pos+∀G; the fold
        // must keep the guarded implication intact.
        let f = parse_formula("forall u v . D(u, v) -> false").expect("valid");
        assert_eq!(fold_constants(&f), f);
    }

    #[test]
    fn push_negations_cancels_double_negation() {
        let f = parse_formula("!(!(exists u . D(u, u)))").expect("valid");
        assert_eq!(push_negations(&f).to_string(), "exists u . D(u, u)");
        let g = parse_formula("!(forall u . exists v . D(u, v))").expect("valid");
        assert_eq!(
            push_negations(&g).to_string(),
            "exists u . (forall v . !D(u, v))"
        );
    }

    #[test]
    fn push_negations_preserves_positive_guarded_universals() {
        let f = parse_formula("forall u v . D(u, v) -> D(v, u)").expect("valid");
        assert_eq!(push_negations(&f), f);
        // Under negation the guard behaves like any implication: ∃x̄ (R ∧ ¬φ).
        let g = parse_formula("!(forall u v . D(u, v) -> D(v, u))").expect("valid");
        assert_eq!(
            push_negations(&g).to_string(),
            "exists u v . (D(u, v) & !D(v, u))"
        );
    }

    #[test]
    fn eliminate_unguarded_implications_keeps_guards() {
        let guarded = parse_formula("forall u v . D(u, v) -> D(v, u)").expect("valid");
        assert_eq!(eliminate_unguarded_implications(&guarded), guarded);
        let unguarded = parse_formula("D(u, u) -> D(u, v)").expect("valid");
        assert_eq!(
            eliminate_unguarded_implications(&unguarded).to_string(),
            "!D(u, u) | D(u, v)"
        );
        // A universal whose body is an implication but not a guard is rewritten.
        let not_a_guard = parse_formula("forall u . D(u, u) -> D(u, u)").expect("valid");
        assert_eq!(
            eliminate_unguarded_implications(&not_a_guard).to_string(),
            "forall u . (!D(u, u) | D(u, u))"
        );
    }

    #[test]
    fn flatten_deduplicates_and_unwraps() {
        let f =
            parse_formula("(exists u . D(u, u)) & ((exists u . D(u, u)) & (exists w . D(w, w)))")
                .expect("valid");
        assert_eq!(
            flatten_connectives(&f).to_string(),
            "(exists u . D(u, u)) & (exists w . D(w, w))"
        );
        let g = parse_formula("(exists u . D(u, u)) | (exists u . D(u, u))").expect("valid");
        assert_eq!(flatten_connectives(&g).to_string(), "exists u . D(u, u)");
    }

    #[test]
    fn prune_vacuous_quantifiers_respects_empty_domain_semantics() {
        let cases = [
            // Partial blocks shed unused variables.
            ("exists u v . D(u, u)", "exists u . D(u, u)"),
            ("forall u v . D(u, u)", "forall u . D(u, u)"),
            // Fully vacuous ∃ over an atom/∃ body is dropped…
            ("exists u . exists v . D(v, v)", "exists v . D(v, v)"),
            // …but kept over ⊤ (false on the empty instance) and ⊥.
            ("exists u . true", "exists u . true"),
            ("forall u . false", "forall u . false"),
            // Fully vacuous ∀ over another ∀ is dropped.
            ("forall u . forall v . D(v, v)", "forall v . D(v, v)"),
            // Fully vacuous ∀ over an atom must stay (true on the empty instance).
            ("forall u . D(1, 2)", "forall u . D(1, 2)"),
        ];
        for (input, expected) in cases {
            let f = parse_formula(input).expect("valid");
            assert_eq!(
                prune_vacuous_quantifiers(&f).to_string(),
                expected,
                "{input}"
            );
        }
    }

    #[test]
    fn forall_becomes_not_exists_not() {
        let f = parse_formula("forall u . D(u, u)").expect("valid");
        let core = to_executable_core(&f);
        assert_eq!(core.to_string(), "!(exists u . !D(u, u))");
    }

    #[test]
    fn implication_becomes_disjunction() {
        let f = parse_formula("D(u, u) -> D(u, v)").expect("valid");
        let core = to_executable_core(&f);
        assert_eq!(core.to_string(), "!D(u, u) | D(u, v)");
    }

    #[test]
    fn guarded_universals_push_the_negation_into_the_body() {
        let cases = [
            // The guard stays positive; the body's disjuncts are negated.
            (
                "forall u v . D(u, v) -> (D(v, u) | D(u, u))",
                "!(exists u v . (D(u, v) & !D(v, u) & !D(u, u)))",
            ),
            // ν(¬A) = A: a negated disjunct needs no complement.
            (
                "forall u . (!D(u, u) | exists v . D(u, v))",
                "!(exists u . (D(u, u) & !(exists v . D(u, v))))",
            ),
            // A nested universal's ¬∃ cancels against the outer negation.
            (
                "forall u . (D(u, u) -> (forall v . (D(v, v) -> D(u, v))))",
                "!(exists u . (D(u, u) & (exists v . (D(v, v) & !D(u, v)))))",
            ),
            // Chained implications guard one conjunction.
            (
                "forall u v . (D(u, v) -> (D(v, v) -> D(v, u)))",
                "!(exists u v . (D(u, v) & D(v, v) & !D(v, u)))",
            ),
        ];
        for (input, expected) in cases {
            let f = parse_formula(input).expect("valid");
            assert_eq!(to_executable_core(&f).to_string(), expected, "{input}");
        }
    }

    mod properties {
        use super::*;
        use crate::ast::Term;
        use nev_incomplete::{Instance, Schema, Tuple, Value};
        use proptest::prelude::*;

        /// xorshift64* — a tiny deterministic RNG so formula generation needs no
        /// dependencies beyond the seed drawn by proptest.
        fn next(state: &mut u64) -> u64 {
            let mut x = *state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn random_term(state: &mut u64) -> Term {
            match next(state) % 4 {
                0 => Term::int((next(state) % 3) as i64 + 1),
                1 => Term::var("u"),
                2 => Term::var("v"),
                _ => Term::var("w"),
            }
        }

        fn random_var(state: &mut u64) -> &'static str {
            match next(state) % 3 {
                0 => "u",
                1 => "v",
                _ => "w",
            }
        }

        /// Arbitrary FO formulas over D/2 — a structural superset of all five
        /// fragments, with constants appearing inside atoms and equalities.
        fn random_formula(state: &mut u64, depth: usize) -> Formula {
            let choice = if depth == 0 {
                next(state) % 4
            } else {
                next(state) % 10
            };
            match choice {
                0 => Formula::atom("D", [random_term(state), random_term(state)]),
                1 => Formula::atom("D", [random_term(state), random_term(state)]),
                2 => Formula::eq(random_term(state), random_term(state)),
                3 => {
                    if next(state) % 2 == 0 {
                        Formula::True
                    } else {
                        Formula::False
                    }
                }
                4 => Formula::Not(Box::new(random_formula(state, depth - 1))),
                5 => Formula::and([
                    random_formula(state, depth - 1),
                    random_formula(state, depth - 1),
                ]),
                6 => Formula::or([
                    random_formula(state, depth - 1),
                    random_formula(state, depth - 1),
                ]),
                7 => Formula::Implies(
                    Box::new(random_formula(state, depth - 1)),
                    Box::new(random_formula(state, depth - 1)),
                ),
                8 => Formula::exists([random_var(state)], random_formula(state, depth - 1)),
                _ => Formula::forall([random_var(state)], random_formula(state, depth - 1)),
            }
        }

        fn value_strategy() -> impl Strategy<Value = Value> {
            prop_oneof![
                (1i64..=3).prop_map(Value::int),
                (1u32..=2).prop_map(Value::null),
            ]
        }

        /// Small instances over D/2, including the empty instance (weight 1 in 5).
        fn instance_strategy() -> impl Strategy<Value = Instance> {
            proptest::collection::vec((value_strategy(), value_strategy()), 0..=3).prop_map(
                |tuples| {
                    let mut inst = Instance::empty_of_schema(&Schema::from_relations([("D", 2)]));
                    for (a, b) in tuples {
                        inst.add_tuple("D", Tuple::new(vec![a, b]))
                            .expect("arity matches schema");
                    }
                    inst
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

            /// The executable-core rewrite preserves active-domain semantics
            /// on arbitrary formulas and instances, the empty instance included.
            #[test]
            fn executable_core_is_semantics_preserving(
                seed in 1u64..u64::MAX,
                d in instance_strategy(),
            ) {
                let mut state = seed;
                let f = random_formula(&mut state, 3);
                let core = to_executable_core(&f);
                prop_assert!(is_executable_core(&core), "{} → {}", f, core);
                let vars: Vec<String> = f.free_variables().into_iter().collect();
                let q = Query::new(vars.clone(), f.clone()).expect("well-formed");
                let qc = Query::new(vars, core.clone()).expect("well-formed");
                for inst in [&d, &Instance::new()] {
                    prop_assert_eq!(
                        evaluate_query(inst, &qc),
                        evaluate_query(inst, &q),
                        "{} → {} on {}", f, core, inst
                    );
                }
            }

            /// Every normalization pass — and their composition to a fixpoint —
            /// preserves active-domain semantics on arbitrary formulas and
            /// instances, including the empty instance and constants in atoms.
            #[test]
            fn normalization_is_semantics_preserving(
                seed in 1u64..u64::MAX,
                d in instance_strategy(),
            ) {
                let mut state = seed;
                let f = random_formula(&mut state, 3);
                let mut pipeline = f.clone();
                for _ in 0..8 {
                    let mut changed = false;
                    for (_, pass) in normalization_passes() {
                        let next = pass(&pipeline);
                        if next != pipeline {
                            pipeline = next;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                for (name, pass) in normalization_passes() {
                    let g = pass(&f);
                    prop_assert!(
                        g.free_variables().is_subset(&f.free_variables()),
                        "{} invented free variables: {} → {}", name, f, g
                    );
                }
                let empty = Instance::new();
                if f.is_sentence() {
                    for inst in [&d, &empty] {
                        let expected = satisfies(inst, &f, &Assignment::new());
                        for (name, pass) in normalization_passes() {
                            prop_assert_eq!(
                                satisfies(inst, &pass(&f), &Assignment::new()),
                                expected,
                                "{}: {} on {}", name, f, inst
                            );
                        }
                        prop_assert_eq!(
                            satisfies(inst, &pipeline, &Assignment::new()),
                            expected,
                            "pipeline: {} → {} on {}", f, pipeline, inst
                        );
                    }
                } else {
                    let vars: Vec<String> = f.free_variables().into_iter().collect();
                    let q = Query::new(vars.clone(), f.clone()).expect("well-formed");
                    for inst in [&d, &empty] {
                        let expected = evaluate_query(inst, &q);
                        for (name, pass) in normalization_passes() {
                            let qn = Query::new(vars.clone(), pass(&f)).expect("well-formed");
                            prop_assert_eq!(
                                evaluate_query(inst, &qn),
                                expected.clone(),
                                "{}: {} on {}", name, f, inst
                            );
                        }
                        let qp = Query::new(vars.clone(), pipeline.clone())
                            .expect("well-formed");
                        prop_assert_eq!(
                            evaluate_query(inst, &qp),
                            expected,
                            "pipeline: {} → {} on {}", f, pipeline, inst
                        );
                    }
                }
            }
        }
    }
}
