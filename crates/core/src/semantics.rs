//! The concrete semantics of incompleteness and their possible worlds.
//!
//! A semantics `⟦·⟧` assigns to each incomplete database `D` a set of *complete*
//! databases, its possible worlds. The paper builds every semantics it studies in two
//! steps (§4.1): first apply valuations to nulls, then modify the result according to
//! a semantic relation `Rsem`. The six semantics implemented here are:
//!
//! | semantics | worlds |
//! |---|---|
//! | `⟦D⟧_CWA` | `v(D)` for a valuation `v` |
//! | `⟦D⟧_OWA` | complete `D' ⊇ v(D)` |
//! | `⟦D⟧_WCWA` | complete `D' ⊇ v(D)` with `adom(D') = adom(v(D))` |
//! | `⦅D⦆_CWA` | `v₁(D) ∪ … ∪ vₙ(D)`, `n ≥ 1` |
//! | `⟦D⟧ᵐⁱⁿ_CWA` | `v(D)` for a *D-minimal* valuation `v` |
//! | `⦅D⦆ᵐⁱⁿ_CWA` | unions of images of D-minimal valuations |
//!
//! Two interfaces are provided:
//!
//! * [`Semantics::contains_world`] — an **exact** membership test `D' ∈ ⟦D⟧`, using
//!   the homomorphism characterisations of Proposition 6.1 / Theorem 7.1 /
//!   Proposition 10.1;
//! * [`Semantics::enumerate_worlds`] — a **bounded** enumeration of worlds over a
//!   finite constant budget, the ground-truth oracle for certain answers. The budget
//!   and the approximation guarantees are documented in the [`crate::oracle`]
//!   module: exact for the CWA family, a sound over-approximation of certain answers
//!   for OWA (and for WCWA / powerset widths beyond the configured caps).

use std::collections::{BTreeMap, BTreeSet};

use nev_hom::minimal::is_minimal_image;
use nev_hom::search::{
    all_homomorphisms, has_db_homomorphism, has_onto_db_homomorphism,
    has_strong_onto_db_homomorphism, HomConfig,
};
use nev_hom::valuation::Valuations;
use nev_hom::ValueMap;
use nev_incomplete::instance::fresh_constants;
use nev_incomplete::{Constant, Instance, NullId, Tuple, Value};

/// The six semantics of incompleteness studied in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Semantics {
    /// Open-world assumption `⟦·⟧_OWA`.
    Owa,
    /// Closed-world assumption `⟦·⟧_CWA`.
    Cwa,
    /// Weak closed-world assumption `⟦·⟧_WCWA` (Reiter 1977).
    Wcwa,
    /// Powerset closed-world semantics `⦅·⦆_CWA` (§7).
    PowersetCwa,
    /// Minimal-valuation closed-world semantics `⟦·⟧ᵐⁱⁿ_CWA` (§10).
    MinimalCwa,
    /// Minimal-valuation powerset semantics `⦅·⦆ᵐⁱⁿ_CWA` (Hernich 2011; §10).
    MinimalPowersetCwa,
}

impl Semantics {
    /// All six semantics, in the order of Figure 1.
    pub const ALL: [Semantics; 6] = [
        Semantics::Owa,
        Semantics::Wcwa,
        Semantics::Cwa,
        Semantics::PowersetCwa,
        Semantics::MinimalCwa,
        Semantics::MinimalPowersetCwa,
    ];

    /// Returns `true` for the semantics based on *minimal* valuations, which are not
    /// saturated (§9–§10) — their results hold over cores.
    pub fn is_minimal(self) -> bool {
        matches!(self, Semantics::MinimalCwa | Semantics::MinimalPowersetCwa)
    }

    /// Returns `true` for the powerset-based semantics (several valuations at once).
    pub fn is_powerset(self) -> bool {
        matches!(self, Semantics::PowersetCwa | Semantics::MinimalPowersetCwa)
    }

    /// The short name used in Figure 1 and in experiment logs.
    pub fn short_name(self) -> &'static str {
        match self {
            Semantics::Owa => "OWA",
            Semantics::Cwa => "CWA",
            Semantics::Wcwa => "WCWA",
            Semantics::PowersetCwa => "⦅ ⦆_CWA",
            Semantics::MinimalCwa => "⟦ ⟧min_CWA",
            Semantics::MinimalPowersetCwa => "⦅ ⦆min_CWA",
        }
    }

    /// Exact membership test: is the complete instance `world` a possible world of the
    /// incomplete instance `d` under this semantics?
    ///
    /// # Panics
    /// Panics if `world` is not complete.
    pub fn contains_world(self, d: &Instance, world: &Instance) -> bool {
        assert!(
            world.is_complete(),
            "possible worlds must be complete instances"
        );
        match self {
            // D' ∈ ⟦D⟧_OWA iff some valuation (= database homomorphism into a complete
            // instance) maps D into D'.
            Semantics::Owa => has_db_homomorphism(d, world),
            // D' ∈ ⟦D⟧_CWA iff D' = v(D) for some valuation, i.e. a strong onto
            // database homomorphism exists.
            Semantics::Cwa => has_strong_onto_db_homomorphism(d, world),
            // D' ∈ ⟦D⟧_WCWA iff some valuation h has h(D) ⊆ D' and adom(D') = adom(h(D)),
            // i.e. an onto database homomorphism exists.
            Semantics::Wcwa => has_onto_db_homomorphism(d, world),
            Semantics::PowersetCwa => covered_by_hom_images(d, world, false),
            Semantics::MinimalCwa => {
                has_strong_onto_db_homomorphism(d, world) && is_minimal_image(d, world)
            }
            Semantics::MinimalPowersetCwa => covered_by_hom_images(d, world, true),
        }
    }

    /// Enumerates a finite set of possible worlds of `d` under this semantics, within
    /// the given bounds. See the module documentation for the exactness guarantees.
    pub fn enumerate_worlds(self, d: &Instance, bounds: &WorldBounds) -> Vec<Instance> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for w in self.worlds(d, bounds) {
            if seen.insert(w.clone()) {
                out.push(w);
            }
        }
        out
    }

    /// Returns a lazily-driven iterator over the bounded possible worlds of `d`
    /// under this semantics — the streaming primitive behind
    /// [`Semantics::enumerate_worlds`] and the monotonicity and core checks.
    ///
    /// Valuations are streamed one at a time over the full `|budget|^#nulls`
    /// space, and world **instances** are built on demand (one valuation image,
    /// one extension, one union combination at a time), so early-exit
    /// consumers skip both generating and evaluating every world after their exit
    /// point. Only the powerset semantics collect their deduplicated valuation
    /// images before the first union. Worlds may be repeated; use
    /// [`Semantics::enumerate_worlds`] for a deduplicated list. This stream is
    /// unpruned: it is the reference the oracle's pruned stream is pinned to.
    pub fn worlds<'a>(self, d: &'a Instance, bounds: &WorldBounds) -> Worlds<'a> {
        self.stream(d, bounds, None)
    }

    /// The oracle's pruned world stream: the same [`Worlds`] iterator, dropping
    /// worlds whose contribution to a certain-answer intersection another
    /// emitted world already covers, for queries whose negative relations
    /// ([`nev_logic::Formula::negative_relations`]) are all in `negative`.
    /// The rules and their proofs are in the [`crate::oracle`] module docs.
    pub(crate) fn pruned_worlds<'a>(
        self,
        d: &'a Instance,
        bounds: &WorldBounds,
        negative: &BTreeSet<String>,
    ) -> Worlds<'a> {
        self.stream(d, bounds, Some(negative))
    }

    fn stream<'a>(
        self,
        d: &'a Instance,
        bounds: &WorldBounds,
        negative: Option<&BTreeSet<String>>,
    ) -> Worlds<'a> {
        let (mut budget, fresh) = bounds.budget_parts(d, self);
        budget.extend(fresh.iter().cloned());
        let valuations_of = |instance: &Instance| match negative {
            Some(_) => Valuations::up_to_renaming(instance, &budget, &fresh),
            None => Valuations::new(instance, &budget),
        };
        let valuations = valuations_of(d);
        let width = bounds.union_width.max(1);
        let state = match (self, negative) {
            (Semantics::Cwa | Semantics::MinimalCwa, _) => WorldsState::Valuations {
                valuations,
                minimal: self == Semantics::MinimalCwa,
                seen: BTreeSet::new(),
            },
            (Semantics::Wcwa, _) => WorldsState::Extensions {
                valuations,
                extension_domain: BTreeSet::new(),
                grow_domain: false,
                max_extra: bounds.wcwa_max_extra_tuples,
                negative: negative.cloned(),
                current: None,
            },
            (Semantics::Owa, _) => {
                let owa_fresh = fresh_constants(OWA_FRESH_VALUES, &budget);
                let mut extension_domain: BTreeSet<Value> =
                    budget.iter().cloned().map(Value::Const).collect();
                extension_domain.extend(owa_fresh.into_iter().map(Value::Const));
                WorldsState::Extensions {
                    valuations,
                    extension_domain,
                    grow_domain: true,
                    max_extra: bounds.owa_max_extra_tuples,
                    negative: negative.cloned(),
                    current: None,
                }
            }
            (Semantics::PowersetCwa | Semantics::MinimalPowersetCwa, None) => {
                // Deduplicate valuation images first, then (for the minimal variant)
                // keep only the minimal ones.
                let mut seen = BTreeSet::new();
                let images: Vec<Instance> = valuations
                    .map(|v| v.apply_instance(d))
                    .filter(|w| seen.insert(w.clone()))
                    .filter(|w| self == Semantics::PowersetCwa || is_minimal_image(d, w))
                    .collect();
                // Unions of at most `union_width` images (non-empty selections).
                WorldsState::Unions {
                    combos: Subsets::non_empty(images.len(), width),
                    images,
                }
            }
            (Semantics::PowersetCwa | Semantics::MinimalPowersetCwa, Some(_)) => {
                // A union of at most `width` images is one valuation of `width`
                // null-disjoint copies of `d` (repeated images fill the width),
                // so the copies' restricted-growth valuations reach every union
                // up to renaming the fresh constants.
                let copies = disjoint_copies(d, width);
                WorldsState::Copies {
                    valuations: valuations_of(&union_of(d, &copies)),
                    copies,
                    minimal: (self == Semantics::MinimalPowersetCwa).then(BTreeMap::new),
                    fresh,
                    seen: BTreeSet::new(),
                }
            }
        };
        Worlds {
            d,
            emitted: 0,
            max_worlds: bounds.max_worlds,
            overflowed: false,
            finished: false,
            state,
        }
    }
}

/// An iterator over the bounded possible worlds of an instance, created by
/// [`Semantics::worlds`].
///
/// Generation is incremental: the CWA family applies one streamed valuation per
/// step, the OWA/WCWA extension semantics add one subset of the current valuation
/// image's candidate facts per step, and the powerset semantics prebuild the
/// deduplicated images but construct one union instance per step (the pruned
/// stream builds each union from one valuation of disjoint copies instead). The
/// iterator stops after [`WorldBounds::max_worlds`] items (see
/// [`Worlds::truncated`]). [`Semantics::worlds`] and the oracle's pruned stream
/// are two entries into it.
pub struct Worlds<'a> {
    d: &'a Instance,
    emitted: usize,
    max_worlds: usize,
    /// A world beyond `max_worlds` was generated and suppressed.
    overflowed: bool,
    /// The underlying enumeration is exhausted (or the cap was hit).
    finished: bool,
    state: WorldsState,
}

enum WorldsState {
    /// CWA and minimal CWA: one world per valuation (deduplicated and filtered for
    /// minimality in the minimal variant).
    Valuations {
        valuations: Valuations,
        minimal: bool,
        seen: BTreeSet<Instance>,
    },
    /// WCWA and OWA: every valuation image plus all bounded fact extensions over the
    /// image's active domain (WCWA) or the enlarged constant budget (OWA).
    Extensions {
        valuations: Valuations,
        /// Extra values extension tuples may use beyond the image's active domain.
        extension_domain: BTreeSet<Value>,
        /// OWA grows the domain with the budget; WCWA keeps `adom(v(D))`.
        grow_domain: bool,
        max_extra: usize,
        /// Pruned stream only: the relations some query mentions negatively.
        /// Facts of any other relation over `adom(v(D))` are never added.
        negative: Option<BTreeSet<String>>,
        /// The current valuation image's extensions still to emit.
        current: Option<ImageExtensions>,
    },
    /// Powerset semantics: unions of at most `union_width` valuation images.
    Unions {
        images: Vec<Instance>,
        combos: Subsets,
    },
    /// The pruned powerset stream: one union per restricted-growth valuation of
    /// `union_width` null-disjoint copies of the instance, skipping unions
    /// equal to an emitted one up to renaming the fresh constants.
    Copies {
        valuations: Valuations,
        copies: Vec<Instance>,
        /// Minimal variant only: whether each image seen so far is minimal.
        minimal: Option<BTreeMap<Instance, bool>>,
        fresh: BTreeSet<Constant>,
        /// The keys ([`rename_fresh`]) of the unions emitted so far.
        seen: BTreeSet<Instance>,
    },
}

impl Worlds<'_> {
    /// Returns `true` iff the iteration was genuinely cut short by
    /// [`WorldBounds::max_worlds`]: a further world existed beyond the cap and was
    /// suppressed. An enumeration that completes at exactly the cap is not
    /// truncated.
    pub fn truncated(&self) -> bool {
        self.overflowed
    }

    fn next_world(&mut self) -> Option<Instance> {
        let d = self.d;
        match &mut self.state {
            WorldsState::Valuations {
                valuations,
                minimal,
                seen,
            } => loop {
                let v = valuations.next()?;
                let world = v.apply_instance(d);
                if !*minimal {
                    return Some(world);
                }
                // Deduplicate images before the (comparatively expensive) minimality
                // check: many valuations share an image.
                if seen.insert(world.clone()) && is_minimal_image(d, &world) {
                    return Some(world);
                }
            },
            WorldsState::Extensions {
                valuations,
                extension_domain,
                grow_domain,
                max_extra,
                negative,
                current,
            } => loop {
                if let Some(extensions) = current {
                    if let Some(subset) = extensions.subsets.next() {
                        let mut world = extensions.base.clone();
                        for &i in &subset {
                            let (relation, tuple) = &extensions.candidates[i];
                            world
                                .add_tuple(relation, tuple.clone())
                                .expect("arity-consistent extension");
                        }
                        return Some(world);
                    }
                }
                let v = valuations.next()?;
                let base = v.apply_instance(d);
                let adom: BTreeSet<Value> = base.adom();
                let mut domain = adom.clone();
                if *grow_domain {
                    domain.extend(extension_domain.iter().cloned());
                }
                let mut candidates = missing_tuples_over(&base, &domain);
                if let Some(negative) = negative {
                    // A fact that keeps the domain and only feeds positive
                    // occurrences can only grow the answers: never add it.
                    candidates.retain(|(relation, tuple)| {
                        negative.contains(relation)
                            || tuple.values().iter().any(|v| !adom.contains(v))
                    });
                }
                *current = Some(ImageExtensions {
                    subsets: Subsets::new(candidates.len(), *max_extra),
                    base,
                    candidates,
                });
            },
            WorldsState::Unions { images, combos } => {
                let combo = combos.next()?;
                Some(union_of(d, combo.iter().map(|&i| &images[i])))
            }
            WorldsState::Copies {
                valuations,
                copies,
                minimal,
                fresh,
                seen,
            } => loop {
                let v = valuations.next()?;
                let images: Vec<Instance> = copies.iter().map(|c| v.apply_instance(c)).collect();
                if let Some(known) = minimal {
                    let all_minimal = images.iter().all(|image| {
                        *known
                            .entry(image.clone())
                            .or_insert_with(|| is_minimal_image(d, image))
                    });
                    if !all_minimal {
                        continue;
                    }
                }
                let world = union_of(d, &images);
                if seen.insert(rename_fresh(&world, fresh)) {
                    return Some(world);
                }
            },
        }
    }
}

impl Iterator for Worlds<'_> {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        if self.finished {
            return None;
        }
        let Some(world) = self.next_world() else {
            self.finished = true;
            return None;
        };
        if self.emitted >= self.max_worlds {
            // The cap is only a genuine truncation if this further world existed.
            self.overflowed = true;
            self.finished = true;
            return None;
        }
        self.emitted += 1;
        Some(world)
    }
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Error returned when parsing a [`Semantics`] from an unrecognised name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseSemanticsError(pub String);

impl std::fmt::Display for ParseSemanticsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown semantics `{}` (expected one of: owa, wcwa, cwa, powerset-cwa, \
             minimal-cwa, minimal-powerset-cwa, or a Figure 1 short name)",
            self.0
        )
    }
}

impl std::error::Error for ParseSemanticsError {}

impl std::str::FromStr for Semantics {
    type Err = ParseSemanticsError;

    /// Parses both the Figure 1 short names (as printed by `Display`, so
    /// `to_string`/`parse` round-trips) and ASCII command-line spellings such as
    /// `owa`, `powerset-cwa` or `minimal_cwa` (case-insensitive, `-`/`_`
    /// interchangeable).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        // The exact Display forms first: they contain spaces and brackets.
        for sem in Semantics::ALL {
            if trimmed == sem.short_name() {
                return Ok(sem);
            }
        }
        let normalized: String = trimmed
            .to_ascii_lowercase()
            .chars()
            .map(|ch| if ch == '_' || ch == ' ' { '-' } else { ch })
            .collect();
        match normalized.as_str() {
            "owa" => Ok(Semantics::Owa),
            "cwa" => Ok(Semantics::Cwa),
            "wcwa" => Ok(Semantics::Wcwa),
            "powerset-cwa" | "pcwa" => Ok(Semantics::PowersetCwa),
            "minimal-cwa" | "min-cwa" => Ok(Semantics::MinimalCwa),
            "minimal-powerset-cwa" | "min-powerset-cwa" | "min-pcwa" => {
                Ok(Semantics::MinimalPowersetCwa)
            }
            _ => Err(ParseSemanticsError(trimmed.to_string())),
        }
    }
}

/// OWA: the number of extra fresh constants available to extension tuples.
const OWA_FRESH_VALUES: usize = 1;

/// Bounds controlling the possible-world enumeration (see the [`crate::oracle`]
/// module for what they make exact).
#[derive(Clone, Debug)]
pub struct WorldBounds {
    /// Constants mentioned by the query under consideration; they enter the valuation
    /// budget so that genericity relative to them is respected.
    pub extra_constants: BTreeSet<Constant>,
    /// Powerset semantics: maximum number of valuation images unioned together.
    pub union_width: usize,
    /// OWA: maximum number of extension tuples added on top of a valuation image.
    pub owa_max_extra_tuples: usize,
    /// WCWA: maximum number of extension tuples (within the active domain) added on
    /// top of a valuation image. Raising it towards the number of missing tuples makes
    /// the WCWA enumeration exact at an exponential cost.
    pub wcwa_max_extra_tuples: usize,
    /// Hard cap on the number of worlds visited (a safety valve for misconfigured
    /// experiments; hitting it truncates the enumeration).
    pub max_worlds: usize,
}

impl Default for WorldBounds {
    fn default() -> Self {
        WorldBounds {
            extra_constants: BTreeSet::new(),
            union_width: 2,
            owa_max_extra_tuples: 1,
            wcwa_max_extra_tuples: 3,
            max_worlds: 500_000,
        }
    }
}

impl WorldBounds {
    /// A copy of these bounds with additional query constants in the budget — the
    /// single primitive behind `PreparedQuery::bounds` (the oracle's bounds) and
    /// [`crate::certain::bounds_for_query`] (the monotonicity checks of
    /// [`crate::monotone`]), so the two derivations cannot diverge.
    pub fn extended_with<I>(&self, constants: I) -> WorldBounds
    where
        I: IntoIterator<Item = Constant>,
    {
        let mut bounds = self.clone();
        bounds.extra_constants.extend(constants);
        bounds
    }

    /// The valuation budget for an instance under a given semantics, in two
    /// parts: the fixed constants, `Const(D)` and the extra (query) constants;
    /// and one fresh constant per null — per unioned valuation for the powerset
    /// semantics, so that unions of `union_width` independent valuations are
    /// representable. The fresh ones are constants neither `d` nor a query
    /// mentions, which a generic query cannot tell apart.
    pub fn budget_parts(
        &self,
        d: &Instance,
        semantics: Semantics,
    ) -> (BTreeSet<Constant>, BTreeSet<Constant>) {
        let mut fixed = d.constants();
        fixed.extend(self.extra_constants.iter().cloned());
        let multiplier = if semantics.is_powerset() {
            self.union_width.max(1)
        } else {
            1
        };
        let fresh = fresh_constants(d.nulls().len() * multiplier, &fixed);
        (fixed, fresh.into_iter().collect())
    }
}

/// Is every tuple of `world` covered by the image of some database homomorphism
/// `d → world` (minimal ones only when `minimal` is set), with at least one such
/// homomorphism existing? This characterises membership in the powerset semantics and
/// (over arbitrary, possibly incomplete targets) the powerset ordering `⋐_CWA` of
/// Theorem 7.1.
pub(crate) fn covered_by_hom_images(d: &Instance, world: &Instance, minimal: bool) -> bool {
    let homs: Vec<ValueMap> = all_homomorphisms(d, world, &HomConfig::database());
    let unique_images: BTreeSet<Instance> = homs.iter().map(|h| h.apply_instance(d)).collect();
    let images: Vec<Instance> = unique_images
        .into_iter()
        .filter(|img| !minimal || is_minimal_image(d, img))
        .collect();
    if images.is_empty() {
        // With no nulls and d = world = empty this should still succeed via the empty
        // homomorphism; `all_homomorphisms` returns it, so images is non-empty unless
        // no homomorphism exists at all.
        return false;
    }
    let mut union = Instance::empty_of_schema(&d.schema());
    for img in &images {
        union = union.union(img).expect("same schema");
    }
    union.same_facts(world)
}

/// The union of instances over `d`'s schema.
fn union_of<'i>(d: &Instance, parts: impl IntoIterator<Item = &'i Instance>) -> Instance {
    parts
        .into_iter()
        .try_fold(Instance::empty_of_schema(&d.schema()), |union, part| {
            union.union(part)
        })
        .expect("same schema")
}

/// `width` copies of `d` whose nulls are pairwise disjoint; the first is `d`.
fn disjoint_copies(d: &Instance, width: usize) -> Vec<Instance> {
    let stride = d.nulls().last().map_or(0, |n| n.0 + 1);
    (0..width as u32)
        .map(|k| {
            d.map_values(|v| match v {
                Value::Null(n) => Value::Null(NullId(n.0 + k * stride)),
                other => other.clone(),
            })
        })
        .collect()
}

/// `world` with its `fresh` constants renamed to nulls in order of first
/// appearance. Worlds hold no nulls, so two worlds share this key exactly when a
/// permutation of the fresh constants maps one onto the other.
fn rename_fresh(world: &Instance, fresh: &BTreeSet<Constant>) -> Instance {
    let mut order: BTreeMap<Constant, u32> = BTreeMap::new();
    world.map_values(|v| match v {
        Value::Const(c) if fresh.contains(c) => {
            let next = order.len() as u32;
            Value::Null(NullId(*order.entry(c.clone()).or_insert(next)))
        }
        other => other.clone(),
    })
}

/// All tuples of the given arity over the listed domain values.
fn all_tuples_over(domain: &[Value], arity: usize) -> Vec<Tuple> {
    let mut partials: Vec<Vec<Value>> = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(partials.len() * domain.len());
        for partial in &partials {
            for v in domain {
                let mut extended = partial.clone();
                extended.push(v.clone());
                next.push(extended);
            }
        }
        partials = next;
    }
    partials.into_iter().map(Tuple::new).collect()
}

/// All facts over `domain` (per relation of `base`'s schema) that are not already in
/// `base`.
fn missing_tuples_over(base: &Instance, domain: &BTreeSet<Value>) -> Vec<(String, Tuple)> {
    let domain: Vec<Value> = domain.iter().cloned().collect();
    let mut out = Vec::new();
    for rel in base.relations() {
        let arity = rel.arity();
        if domain.is_empty() && arity > 0 {
            continue;
        }
        for tuple in all_tuples_over(&domain, arity) {
            if !rel.contains(&tuple) {
                out.push((rel.name().to_string(), tuple));
            }
        }
    }
    out
}

/// One valuation image and the extension worlds over it still to emit.
struct ImageExtensions {
    base: Instance,
    /// The facts an extension may add.
    candidates: Vec<(String, Tuple)>,
    /// The subsets of `candidates` still to add.
    subsets: Subsets,
}

/// The subsets of `{0, …, n−1}` with at most `max` elements, as ascending
/// index lists in increasing order of their bitmask: `∅, {0}, {1}, {0, 1},
/// {2}, …`, skipping every mask with too many bits.
struct Subsets {
    n: usize,
    max: usize,
    next: Option<Vec<usize>>,
}

impl Subsets {
    fn new(n: usize, max: usize) -> Self {
        Subsets {
            n,
            max,
            next: Some(Vec::new()),
        }
    }

    /// The same stream without its leading empty set.
    fn non_empty(n: usize, max: usize) -> Self {
        let mut subsets = Subsets::new(n, max);
        subsets.next();
        subsets
    }

    /// Adds `2^bit` to the mask of `subset`, which has no bit below `bit`
    /// set, and returns the bit the carry lands on.
    fn carry(subset: &mut Vec<usize>, bit: usize) -> usize {
        let run = subset
            .iter()
            .zip(bit..)
            .take_while(|(set, expected)| **set == *expected)
            .count();
        subset.drain(..run);
        subset.insert(0, bit + run);
        bit + run
    }
}

impl Iterator for Subsets {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        // Mask + 1; while that has too many bits, adding its lowest bit skips
        // every mask in between, all of which have at least as many.
        let mut subset = current.clone();
        let mut top = Subsets::carry(&mut subset, 0);
        while subset.len() > self.max && top < self.n {
            let lowest = subset[0];
            top = Subsets::carry(&mut subset, lowest);
        }
        if top < self.n {
            self.next = Some(subset);
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    #[test]
    fn membership_examples_from_section_2_3() {
        // ⟦D0⟧_CWA consists of all {(c,c'),(c',c)}; ⟦D0⟧_OWA of all complete instances
        // containing such a pair.
        let d0 = d0();
        let w1 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)]] };
        let w2 = inst! { "D" => [[c(1), c(1)]] };
        let w3 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)], [c(3), c(3)]] };
        assert!(Semantics::Cwa.contains_world(&d0, &w1));
        assert!(Semantics::Cwa.contains_world(&d0, &w2));
        assert!(!Semantics::Cwa.contains_world(&d0, &w3));
        assert!(Semantics::Owa.contains_world(&d0, &w3));
        assert!(Semantics::Owa.contains_world(&d0, &w1));
        // (3,3) uses a value outside adom of the valuation image {1,2}, so WCWA rejects it…
        assert!(!Semantics::Wcwa.contains_world(&d0, &w3));
        // …but adding (1,1) (within the active domain) is allowed under WCWA, not CWA.
        let w4 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)], [c(1), c(1)]] };
        assert!(Semantics::Wcwa.contains_world(&d0, &w4));
        assert!(!Semantics::Cwa.contains_world(&d0, &w4));
    }

    #[test]
    fn wcwa_example_from_section_4_3() {
        // D = {(⊥,⊥′)}: {(1,2)} ∈ CWA; {(1,2),(2,1)} ∉ CWA but ∈ WCWA.
        let d = inst! { "R" => [[x(1), x(2)]] };
        let w_cwa = inst! { "R" => [[c(1), c(2)]] };
        let w_wcwa = inst! { "R" => [[c(1), c(2)], [c(2), c(1)]] };
        assert!(Semantics::Cwa.contains_world(&d, &w_cwa));
        assert!(!Semantics::Cwa.contains_world(&d, &w_wcwa));
        assert!(Semantics::Wcwa.contains_world(&d, &w_wcwa));
        assert!(Semantics::Owa.contains_world(&d, &w_wcwa));
    }

    #[test]
    fn powerset_membership() {
        // D = {(⊥1, ⊥2)}: {(1,2),(3,4)} is a union of two valuation images, hence in
        // ⦅D⦆_CWA, but is in neither CWA (single valuation) nor WCWA (adom grows).
        let d = inst! { "R" => [[x(1), x(2)]] };
        let w = inst! { "R" => [[c(1), c(2)], [c(3), c(4)]] };
        assert!(Semantics::PowersetCwa.contains_world(&d, &w));
        assert!(!Semantics::Cwa.contains_world(&d, &w));
        assert!(!Semantics::Wcwa.contains_world(&d, &w));
        // A world with a tuple no valuation image can produce is rejected.
        let bad = inst! { "R" => [[c(1), c(2)]], "S" => [[c(9)]] };
        assert!(!Semantics::PowersetCwa.contains_world(&d, &bad));
    }

    #[test]
    fn minimal_cwa_membership() {
        // D = {(⊥,⊥),(⊥,⊥′)} (§10): minimal valuations collapse ⊥′ into ⊥, so {(1,1)}
        // is a minimal world but {(1,1),(1,2)} is not.
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        let collapsed = inst! { "D" => [[c(1), c(1)]] };
        let spread = inst! { "D" => [[c(1), c(1)], [c(1), c(2)]] };
        assert!(Semantics::MinimalCwa.contains_world(&d, &collapsed));
        assert!(!Semantics::MinimalCwa.contains_world(&d, &spread));
        assert!(Semantics::Cwa.contains_world(&d, &spread));
        assert!(Semantics::MinimalPowersetCwa.contains_world(&d, &collapsed));
        // A union of two distinct minimal images is in the minimal powerset semantics.
        let two_loops = inst! { "D" => [[c(1), c(1)], [c(2), c(2)]] };
        assert!(Semantics::MinimalPowersetCwa.contains_world(&d, &two_loops));
        assert!(!Semantics::MinimalCwa.contains_world(&d, &two_loops));
    }

    #[test]
    fn semantics_inclusions_on_enumerated_worlds() {
        // ⟦D⟧_CWA ⊆ ⟦D⟧_WCWA ⊆ ⟦D⟧_OWA (§4.3); minimal CWA ⊆ CWA; CWA ⊆ powerset CWA.
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(2)]] };
        let bounds = WorldBounds::default();
        let cwa = Semantics::Cwa.enumerate_worlds(&d, &bounds);
        for w in &cwa {
            assert!(Semantics::Wcwa.contains_world(&d, w));
            assert!(Semantics::Owa.contains_world(&d, w));
            assert!(Semantics::PowersetCwa.contains_world(&d, w));
        }
        let min_cwa = Semantics::MinimalCwa.enumerate_worlds(&d, &bounds);
        for w in &min_cwa {
            assert!(Semantics::Cwa.contains_world(&d, w));
        }
        assert!(min_cwa.len() <= cwa.len());
    }

    #[test]
    fn enumerated_worlds_are_members() {
        let d = inst! { "R" => [[c(1), x(1)]], "S" => [[x(1)]] };
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        for sem in Semantics::ALL {
            let worlds = sem.enumerate_worlds(&d, &bounds);
            assert!(!worlds.is_empty(), "{sem} produced no worlds");
            for w in &worlds {
                assert!(w.is_complete());
                assert!(
                    sem.contains_world(&d, w),
                    "{sem}: enumerated world not a member\n{w}"
                );
            }
        }
    }

    #[test]
    fn complete_instances_have_themselves_as_cwa_world() {
        let d = inst! { "R" => [[c(1), c(2)]] };
        let worlds = Semantics::Cwa.enumerate_worlds(&d, &WorldBounds::default());
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].same_facts(&d));
        for sem in Semantics::ALL {
            assert!(
                sem.contains_world(&d, &d),
                "{sem} must contain the complete instance itself"
            );
        }
    }

    #[test]
    fn owa_enumeration_contains_proper_extensions() {
        let d = inst! { "R" => [[x(1), x(1)]] };
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Owa.enumerate_worlds(&d, &bounds);
        assert!(worlds.iter().any(|w| w.fact_count() == 1));
        assert!(worlds.iter().any(|w| w.fact_count() == 2));
    }

    #[test]
    fn world_count_of_d0_under_cwa() {
        // Two nulls, no constants: budget = 2 fresh constants (union width 1 would give 2,
        // default width 2 gives up to 4); either way every world has the symmetric shape.
        let d0 = d0();
        let bounds = WorldBounds {
            union_width: 1,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Cwa.enumerate_worlds(&d0, &bounds);
        // Valuations over {f0, f1}: 4 of them; worlds collapse to 3 distinct instances
        // ({(f0,f0)}, {(f1,f1)}, {(f0,f1),(f1,f0)}).
        assert_eq!(worlds.len(), 3);
    }

    #[test]
    fn max_worlds_truncates() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let bounds = WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Cwa.enumerate_worlds(&d, &bounds);
        assert!(worlds.len() <= 5);
    }

    #[test]
    fn subsets_stream_in_mask_order_within_the_size_cap() {
        // The eager definition: extend every kept subset by each item in turn.
        fn eager(n: usize, max: usize) -> Vec<Vec<usize>> {
            let mut out = vec![Vec::new()];
            for item in 0..n {
                let bigger: Vec<Vec<usize>> = out
                    .iter()
                    .filter(|s| s.len() < max)
                    .map(|s| s.iter().copied().chain([item]).collect())
                    .collect();
                out.extend(bigger);
            }
            out
        }
        for n in 0..7 {
            for max in 0..5 {
                assert_eq!(Subsets::new(n, max).collect::<Vec<_>>(), eager(n, max));
                assert_eq!(
                    Subsets::non_empty(n, max).collect::<Vec<_>>(),
                    eager(n, max)[1..].to_vec()
                );
            }
        }
    }

    #[test]
    fn display_and_flags() {
        assert_eq!(Semantics::Owa.to_string(), "OWA");
        assert!(Semantics::MinimalCwa.is_minimal());
        assert!(!Semantics::Cwa.is_minimal());
        assert!(Semantics::PowersetCwa.is_powerset());
        assert!(Semantics::MinimalPowersetCwa.is_powerset());
        assert!(!Semantics::Wcwa.is_powerset());
        assert_eq!(Semantics::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "must be complete")]
    fn membership_requires_complete_world() {
        let d = d0();
        let incomplete = inst! { "D" => [[x(5), c(1)]] };
        Semantics::Cwa.contains_world(&d, &incomplete);
    }

    #[test]
    fn worlds_iterator_respects_max_worlds_and_reports_truncation() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let bounds = WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        };
        let mut worlds = Semantics::Cwa.worlds(&d, &bounds);
        assert_eq!(worlds.by_ref().count(), 5);
        assert!(worlds.truncated());
        // An untruncated enumeration is not flagged.
        let small = inst! { "R" => [[c(1)]] };
        let mut all = Semantics::Cwa.worlds(&small, &WorldBounds::default());
        assert_eq!(all.by_ref().count(), 1);
        assert!(!all.truncated());
        // Completing at *exactly* the cap is not a truncation either: the single
        // CWA world of a complete instance under max_worlds = 1.
        let exact_bounds = WorldBounds {
            max_worlds: 1,
            ..WorldBounds::default()
        };
        let mut exact = Semantics::Cwa.worlds(&small, &exact_bounds);
        assert_eq!(exact.by_ref().count(), 1);
        assert!(!exact.truncated());
        let _ = exact.next();
        assert!(!exact.truncated(), "re-polling must not flip the flag");
    }

    #[test]
    fn semantics_from_str_round_trips() {
        for sem in Semantics::ALL {
            let rendered = sem.to_string();
            assert_eq!(rendered.parse::<Semantics>(), Ok(sem), "{rendered}");
        }
        assert_eq!("owa".parse::<Semantics>(), Ok(Semantics::Owa));
        assert_eq!(
            "Powerset_CWA".parse::<Semantics>(),
            Ok(Semantics::PowersetCwa)
        );
        assert_eq!(
            "minimal-cwa".parse::<Semantics>(),
            Ok(Semantics::MinimalCwa)
        );
        assert_eq!(
            "min-powerset-cwa".parse::<Semantics>(),
            Ok(Semantics::MinimalPowersetCwa)
        );
        let err = "nope".parse::<Semantics>().unwrap_err();
        assert!(err.to_string().contains("unknown semantics"));
    }
}
