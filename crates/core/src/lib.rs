//! # `nev-core` — when is naïve evaluation possible?
//!
//! This crate implements the primary contribution of Gheerbrant, Libkin and
//! Sirangelo's *"When is Naïve Evaluation Possible?"* (PODS 2013): the machinery
//! relating **naïve evaluation**, **certain answers**, **monotonicity** with respect
//! to semantic orderings, and **preservation under homomorphisms**, for a family of
//! semantics of incompleteness.
//!
//! The crate is organised to mirror the paper:
//!
//! * [`engine`] — **the evaluation API**: [`engine::CertainEngine`] turns Figure 1
//!   into one dispatch function — queries are prepared (classified) once,
//!   answered by certified naïve evaluation when the paper guarantees it, by the
//!   PTIME symbolic ladder when it settles the answer, and by the bounded
//!   possible-world oracle otherwise;
//! * [`snapshot`] — an immutable instance with its lazily derived state (the
//!   interned form and the core bit), computed at most once and shared by every
//!   evaluation of that instance;
//! * [`oracle`] — the bounded world oracle: one sequential pass of one query
//!   over a pruned world stream;
//! * [`semantics`] — the six concrete semantics of incompleteness (OWA, CWA, WCWA,
//!   powerset CWA, minimal CWA, minimal powerset CWA), exact possible-world
//!   membership tests, and lazy bounded possible-world enumeration (§2.3, §4.3, §7,
//!   §10);
//! * [`certain`] — certain answers (Boolean and k-ary) against the enumerated
//!   worlds, naïve evaluation, and the `naïve = certain` comparison that the whole
//!   paper is about (§2.4, §8) — documentation and the query-bounds helper; the
//!   computations themselves live on [`engine::CertainEngine`];
//! * [`ordering`] — the semantic orderings `≼_OWA`, `≼_CWA`, `≼_WCWA`, `⋐_CWA` and
//!   their homomorphism characterisations (Proposition 6.1, Theorem 7.1), plus the
//!   Codd-database cross-checks (§6);
//! * [`updates`] — the update systems justifying the orderings (CWA updates, OWA
//!   tuple additions, copying CWA updates) and bounded reachability (Theorems 6.2,
//!   7.1);
//! * [`monotone`] — weak monotonicity and monotonicity of queries (§3);
//! * [`preservation`] — preservation of queries under the homomorphism classes
//!   attached to each semantics (§4.2, §5, §7, §10.2);
//! * [`cores`] — the minimal-valuation semantics over cores: representative sets,
//!   the `Q(D) = Q(core(D))` precondition, and the sound-approximation statement
//!   (§9–§11);
//! * [`domain`] — the abstract database-domain framework (`⟨D, C, ⟦·⟧, ≈⟩`),
//!   fairness and saturation (§3.1, §9);
//! * [`relations`] — the relation-based scheme for generating semantics from a pair
//!   `(Rval, Rsem)` and its fairness criterion (§4.1, §7);
//! * [`summary`] — the machine-readable contents of **Figure 1**, consumed by the
//!   experiment harness in `nev-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certain;
pub mod cores;
pub mod domain;
pub mod engine;
pub mod monotone;
pub mod oracle;
pub mod ordering;
pub mod preservation;
pub mod relations;
pub mod semantics;
pub mod snapshot;
pub mod summary;
pub mod updates;

pub use engine::{
    symbolic_profile, CertainEngine, Certificate, DispatchOptions, EngineError, EvalPlan,
    Evaluation, PlanKind, PrepTimings, PreparedQuery, SymbolicCertificate, SymbolicMode,
    SymbolicTechnique,
};
pub use semantics::{ParseSemanticsError, Semantics, WorldBounds, Worlds};
pub use snapshot::Snapshot;
