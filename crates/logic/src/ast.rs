//! Abstract syntax of relational first-order logic.
//!
//! The connectives are those of the paper (§5): `true`, `false`, relational and
//! equality atoms, `∧`, `∨`, `¬`, `∃`, `∀`, plus a primitive implication `→` which the
//! fragments `Pos+∀G` and `∃Pos+∀G_bool` use in the *universally guarded* shape
//! `∀x̄ (R(x̄) → φ)`. Keeping `→` primitive lets the fragment classifier recognise
//! guards syntactically, exactly as the paper defines them.

use std::collections::BTreeSet;
use std::fmt;

use nev_incomplete::{Constant, Value};

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A first-order variable.
    Var(String),
    /// A constant from `Const`.
    Const(Constant),
}

impl Term {
    /// Builds a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Builds an integer-constant term.
    pub fn int(i: i64) -> Self {
        Term::Const(Constant::Int(i))
    }

    /// Builds a string-constant term.
    pub fn str(s: impl AsRef<str>) -> Self {
        Term::Const(Constant::str(s))
    }

    /// Returns the variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant, if this is a constant.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Constant::Int(i)) => write!(f, "{i}"),
            Term::Const(Constant::Str(s)) => write!(f, "'{s}'"),
        }
    }
}

/// A first-order formula over a relational vocabulary with equality.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Formula {
    /// The formula `true`.
    True,
    /// The formula `false`.
    False,
    /// A relational atom `R(t₁, …, tₖ)`.
    Atom {
        /// Relation name.
        relation: String,
        /// Argument terms.
        terms: Vec<Term>,
    },
    /// An equality atom `t₁ = t₂`.
    Eq(Term, Term),
    /// Negation `¬φ`.
    Not(Box<Formula>),
    /// Conjunction `φ₁ ∧ … ∧ φₙ` (empty conjunction is `true`).
    And(Vec<Formula>),
    /// Disjunction `φ₁ ∨ … ∨ φₙ` (empty disjunction is `false`).
    Or(Vec<Formula>),
    /// Implication `φ → ψ`.
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification `∃x₁ … xₙ φ`.
    Exists(Vec<String>, Box<Formula>),
    /// Universal quantification `∀x₁ … xₙ φ`.
    Forall(Vec<String>, Box<Formula>),
}

impl Formula {
    /// Builds a relational atom.
    pub fn atom(relation: impl Into<String>, terms: impl IntoIterator<Item = Term>) -> Self {
        Formula::Atom {
            relation: relation.into(),
            terms: terms.into_iter().collect(),
        }
    }

    /// Builds an equality atom.
    pub fn eq(left: Term, right: Term) -> Self {
        Formula::Eq(left, right)
    }

    /// Builds a negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: Formula) -> Self {
        Formula::Not(Box::new(inner))
    }

    /// Builds a conjunction, flattening nested conjunctions.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                Formula::And(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => Formula::True,
            1 => flattened.pop().expect("one element"),
            _ => Formula::And(flattened),
        }
    }

    /// Builds a disjunction, flattening nested disjunctions.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                Formula::Or(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => Formula::False,
            1 => flattened.pop().expect("one element"),
            _ => Formula::Or(flattened),
        }
    }

    /// Builds an implication.
    pub fn implies(antecedent: Formula, consequent: Formula) -> Self {
        Formula::Implies(Box::new(antecedent), Box::new(consequent))
    }

    /// Builds an existential quantification (no-op when `vars` is empty).
    pub fn exists<I, S>(vars: I, body: Formula) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let vars: Vec<String> = vars.into_iter().map(Into::into).collect();
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    /// Builds a universal quantification (no-op when `vars` is empty).
    pub fn forall<I, S>(vars: I, body: Formula) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let vars: Vec<String> = vars.into_iter().map(Into::into).collect();
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, Box::new(body))
        }
    }

    /// Builds the universally guarded formula `∀x̄ (R(x̄) → φ)` of the `Pos+∀G`
    /// fragment (§5). The guard must list pairwise distinct variables — this is the
    /// side condition Proposition 5.1 shows to be essential.
    ///
    /// # Panics
    /// Panics if the guard variables are not pairwise distinct.
    pub fn forall_guarded(relation: impl Into<String>, vars: Vec<String>, body: Formula) -> Self {
        let distinct: BTreeSet<&String> = vars.iter().collect();
        assert_eq!(
            distinct.len(),
            vars.len(),
            "guard variables must be pairwise distinct"
        );
        let guard = Formula::Atom {
            relation: relation.into(),
            terms: vars.iter().map(|v| Term::Var(v.clone())).collect(),
        };
        Formula::Forall(vars, Box::new(Formula::implies(guard, body)))
    }

    /// Builds the equality-guarded formula `∀x z (x = z → φ)` of the `Pos+∀G` fragment.
    ///
    /// # Panics
    /// Panics if the two variables coincide.
    pub fn forall_eq_guarded(v1: impl Into<String>, v2: impl Into<String>, body: Formula) -> Self {
        let v1 = v1.into();
        let v2 = v2.into();
        assert_ne!(v1, v2, "equality guard variables must be distinct");
        let guard = Formula::Eq(Term::Var(v1.clone()), Term::Var(v2.clone()));
        Formula::Forall(vec![v1, v2], Box::new(Formula::implies(guard, body)))
    }

    /// The free variables of the formula.
    pub fn free_variables(&self) -> BTreeSet<String> {
        fn go(f: &Formula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom { terms, .. } => {
                    for t in terms {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(v.clone());
                            }
                        }
                    }
                }
                Formula::Eq(a, b) => {
                    for t in [a, b] {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(v.clone());
                            }
                        }
                    }
                }
                Formula::Not(inner) => go(inner, bound, out),
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, bound, out);
                    }
                }
                Formula::Implies(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Formula::Exists(vars, body) | Formula::Forall(vars, body) => {
                    let before = bound.len();
                    bound.extend(vars.iter().cloned());
                    go(body, bound, out);
                    bound.truncate(before);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Returns `true` iff the formula has no free variables (it is a sentence, i.e. a
    /// Boolean query).
    pub fn is_sentence(&self) -> bool {
        self.free_variables().is_empty()
    }

    /// The constants mentioned anywhere in the formula.
    pub fn constants(&self) -> BTreeSet<Constant> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            let mut push = |t: &Term| {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            };
            match f {
                Formula::Atom { terms, .. } => terms.iter().for_each(&mut push),
                Formula::Eq(a, b) => {
                    push(a);
                    push(b);
                }
                _ => {}
            }
        });
        out
    }

    /// The relation names mentioned anywhere in the formula.
    pub fn relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            if let Formula::Atom { relation, .. } = f {
                out.insert(relation.clone());
            }
        });
        out
    }

    /// The relations with an occurrence under an odd number of negations, an
    /// implication's premise counting as one. A relation outside this set —
    /// including one the formula never mentions — occurs only positively, so
    /// over a fixed quantifier domain adding its facts can only grow the
    /// formula's answers.
    pub fn negative_relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_negative(false, &mut out);
        out
    }

    fn collect_negative(&self, negated: bool, out: &mut BTreeSet<String>) {
        match self {
            Formula::True | Formula::False | Formula::Eq(_, _) => {}
            Formula::Atom { relation, .. } => {
                if negated {
                    out.insert(relation.clone());
                }
            }
            Formula::Not(inner) => inner.collect_negative(!negated, out),
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.collect_negative(negated, out);
                }
            }
            Formula::Implies(a, b) => {
                a.collect_negative(!negated, out);
                b.collect_negative(negated, out);
            }
            Formula::Exists(_, body) | Formula::Forall(_, body) => {
                body.collect_negative(negated, out)
            }
        }
    }

    /// Visits every subformula (pre-order).
    pub fn visit<F: FnMut(&Formula)>(&self, visitor: &mut F) {
        visitor(self);
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => {}
            Formula::Not(inner) => inner.visit(visitor),
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.visit(visitor);
                }
            }
            Formula::Implies(a, b) => {
                a.visit(visitor);
                b.visit(visitor);
            }
            Formula::Exists(_, body) | Formula::Forall(_, body) => body.visit(visitor),
        }
    }

    /// Substitutes free occurrences of variables by values (producing a formula whose
    /// terms may mention new constants). Only constants may be substituted — nulls are
    /// *not* terms of the language; they enter evaluation only through assignments.
    ///
    /// # Panics
    /// Panics if asked to substitute a null.
    pub fn substitute_constants(
        &self,
        subst: &std::collections::BTreeMap<String, Value>,
    ) -> Formula {
        let sub_term = |t: &Term, bound: &Vec<String>| -> Term {
            match t {
                Term::Var(v) if !bound.contains(v) => match subst.get(v) {
                    Some(Value::Const(c)) => Term::Const(c.clone()),
                    Some(Value::Null(_)) => panic!("cannot substitute a null into a formula"),
                    None => t.clone(),
                },
                other => other.clone(),
            }
        };
        fn go(
            f: &Formula,
            bound: &mut Vec<String>,
            sub_term: &dyn Fn(&Term, &Vec<String>) -> Term,
        ) -> Formula {
            match f {
                Formula::True => Formula::True,
                Formula::False => Formula::False,
                Formula::Atom { relation, terms } => Formula::Atom {
                    relation: relation.clone(),
                    terms: terms.iter().map(|t| sub_term(t, bound)).collect(),
                },
                Formula::Eq(a, b) => Formula::Eq(sub_term(a, bound), sub_term(b, bound)),
                Formula::Not(inner) => Formula::Not(Box::new(go(inner, bound, sub_term))),
                Formula::And(parts) => {
                    Formula::And(parts.iter().map(|p| go(p, bound, sub_term)).collect())
                }
                Formula::Or(parts) => {
                    Formula::Or(parts.iter().map(|p| go(p, bound, sub_term)).collect())
                }
                Formula::Implies(a, b) => Formula::Implies(
                    Box::new(go(a, bound, sub_term)),
                    Box::new(go(b, bound, sub_term)),
                ),
                Formula::Exists(vars, body) => {
                    let before = bound.len();
                    bound.extend(vars.iter().cloned());
                    let body = go(body, bound, sub_term);
                    bound.truncate(before);
                    Formula::Exists(vars.clone(), Box::new(body))
                }
                Formula::Forall(vars, body) => {
                    let before = bound.len();
                    bound.extend(vars.iter().cloned());
                    let body = go(body, bound, sub_term);
                    bound.truncate(before);
                    Formula::Forall(vars.clone(), Box::new(body))
                }
            }
        }
        go(self, &mut Vec::new(), &sub_term)
    }

    /// The number of AST nodes, a rough size measure used by generators and benches.
    pub fn size(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |_| count += 1);
        count
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_parens(f: &Formula) -> bool {
            matches!(
                f,
                Formula::And(_)
                    | Formula::Or(_)
                    | Formula::Implies(_, _)
                    | Formula::Exists(_, _)
                    | Formula::Forall(_, _)
            )
        }
        fn wrapped(fmtr: &mut fmt::Formatter<'_>, f: &Formula) -> fmt::Result {
            if needs_parens(f) {
                write!(fmtr, "({f})")
            } else {
                write!(fmtr, "{f}")
            }
        }
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom { relation, terms } => {
                write!(f, "{relation}(")?;
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(inner) => {
                write!(f, "!")?;
                wrapped(f, inner)
            }
            Formula::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    wrapped(f, p)?;
                }
                Ok(())
            }
            Formula::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    wrapped(f, p)?;
                }
                Ok(())
            }
            Formula::Implies(a, b) => {
                wrapped(f, a)?;
                write!(f, " -> ")?;
                wrapped(f, b)
            }
            Formula::Exists(vars, body) => {
                write!(f, "exists {}", vars.join(" "))?;
                write!(f, " . ")?;
                wrapped(f, body)
            }
            Formula::Forall(vars, body) => {
                write!(f, "forall {}", vars.join(" "))?;
                write!(f, " . ")?;
                wrapped(f, body)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> Formula {
        // ∃z (R(x,z) ∧ S(z,y)) — the introduction's conjunctive query.
        Formula::exists(
            ["z"],
            Formula::and([
                Formula::atom("R", [Term::var("x"), Term::var("z")]),
                Formula::atom("S", [Term::var("z"), Term::var("y")]),
            ]),
        )
    }

    #[test]
    fn negative_relations_count_negations_and_premises() {
        let negative = |text: &str| -> Vec<String> {
            crate::parse_formula(text)
                .expect("valid formula")
                .negative_relations()
                .into_iter()
                .collect()
        };
        // Positive occurrences only; a relation never mentioned is not negative.
        assert!(negative("exists u v . R(u, v) & S(u)").is_empty());
        assert_eq!(negative("!(exists u . S(u))"), ["S"]);
        // Double negation is positive again.
        assert!(negative("!(!(exists u . S(u)))").is_empty());
        // An implication's premise is one negation, its conclusion none.
        assert_eq!(negative("forall u v . (R(u, v) -> S(v))"), ["R"]);
        assert_eq!(negative("!(forall u v . (R(u, v) -> S(v)))"), ["S"]);
        // Nesting: the inner premise sits under two negations, so `S(v6)` there
        // is positive, but the outer premise already made S negative.
        assert_eq!(
            negative("forall v5 . (S(v5) -> (forall v6 . (S(v6) -> S(v6))))"),
            ["S"]
        );
        // A premise inside a premise is positive again.
        assert_eq!(negative("(R(1, 1) -> S(1)) -> T(1)"), ["S"]);
        // Mentioned under both polarities: negative.
        assert_eq!(negative("S(1) & !S(2)"), ["S"]);
        assert!(negative("1 = 2 | true").is_empty());
    }

    #[test]
    fn free_variables_respect_binders() {
        let f = sample();
        assert_eq!(
            f.free_variables(),
            ["x", "y"].into_iter().map(String::from).collect()
        );
        assert!(!f.is_sentence());
        let closed = Formula::exists(["x", "y"], f);
        assert!(closed.is_sentence());
    }

    #[test]
    fn and_or_flatten_and_simplify() {
        let a = Formula::atom("R", [Term::var("x")]);
        let b = Formula::atom("S", [Term::var("x")]);
        let c = Formula::atom("T", [Term::var("x")]);
        let f = Formula::and([Formula::and([a.clone(), b.clone()]), c.clone()]);
        assert_eq!(f, Formula::And(vec![a.clone(), b.clone(), c.clone()]));
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::and([a.clone()]), a);
        assert_eq!(Formula::or([]), Formula::False);
        let g = Formula::or([Formula::or([a.clone(), b.clone()]), c.clone()]);
        assert_eq!(g, Formula::Or(vec![a, b, c]));
    }

    #[test]
    fn quantifier_builders_skip_empty_lists() {
        let a = Formula::atom("R", [Term::var("x")]);
        assert_eq!(Formula::exists(Vec::<String>::new(), a.clone()), a);
        assert_eq!(Formula::forall(Vec::<String>::new(), a.clone()), a);
    }

    #[test]
    fn guarded_universal_shapes() {
        let body = Formula::atom("S", [Term::var("x")]);
        let guarded = Formula::forall_guarded("R", vec!["x".into(), "y".into()], body.clone());
        match &guarded {
            Formula::Forall(vars, inner) => {
                assert_eq!(vars, &vec!["x".to_string(), "y".to_string()]);
                assert!(matches!(**inner, Formula::Implies(_, _)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        let eq_guarded = Formula::forall_eq_guarded("x", "z", body);
        assert!(matches!(eq_guarded, Formula::Forall(_, _)));
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn guard_with_repeated_variables_panics() {
        Formula::forall_guarded("R", vec!["x".into(), "x".into()], Formula::True);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn eq_guard_with_same_variable_panics() {
        Formula::forall_eq_guarded("x", "x", Formula::True);
    }

    #[test]
    fn constants_and_relations_are_collected() {
        let f = Formula::and([
            Formula::atom("R", [Term::int(1), Term::var("x")]),
            Formula::eq(Term::var("x"), Term::str("a")),
        ]);
        assert_eq!(
            f.constants(),
            [Constant::int(1), Constant::str("a")].into_iter().collect()
        );
        assert_eq!(f.relations(), ["R".to_string()].into_iter().collect());
    }

    #[test]
    fn substitution_respects_binders() {
        let f = sample();
        let mut subst = BTreeMap::new();
        subst.insert("x".to_string(), Value::int(1));
        subst.insert("z".to_string(), Value::int(9)); // bound, must not be replaced
        let g = f.substitute_constants(&subst);
        assert_eq!(
            g.free_variables(),
            ["y"].into_iter().map(String::from).collect()
        );
        assert!(g.constants().contains(&Constant::int(1)));
        assert!(!g.constants().contains(&Constant::int(9)));
    }

    #[test]
    #[should_panic(expected = "cannot substitute a null")]
    fn substituting_null_panics() {
        let f = sample();
        let mut subst = BTreeMap::new();
        subst.insert("x".to_string(), Value::null(1));
        let _ = f.substitute_constants(&subst);
    }

    #[test]
    fn display_round_trips_visually() {
        let f = sample();
        assert_eq!(f.to_string(), "exists z . (R(x, z) & S(z, y))");
        let g = Formula::forall_guarded(
            "R",
            vec!["x".into()],
            Formula::or([Formula::atom("S", [Term::var("x")]), Formula::False]),
        );
        assert_eq!(g.to_string(), "forall x . (R(x) -> (S(x) | false))");
        assert_eq!(Formula::not(Formula::True).to_string(), "!true");
        assert_eq!(
            Formula::eq(Term::var("x"), Term::str("a")).to_string(),
            "x = 'a'"
        );
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Formula::True.size(), 1);
        assert_eq!(sample().size(), 4); // exists, and, atom, atom
    }

    #[test]
    fn term_accessors() {
        assert_eq!(Term::var("x").as_var(), Some("x"));
        assert_eq!(Term::var("x").as_const(), None);
        assert_eq!(Term::int(3).as_const(), Some(&Constant::int(3)));
        assert_eq!(Term::int(3).as_var(), None);
        assert_eq!(Term::str("a").to_string(), "'a'");
    }
}
