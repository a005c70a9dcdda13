//! The four seeded workloads. Each keeps one cost class, so the median of a
//! run never sits between two request classes:
//!
//! * `hot_join` — one ~4k-fact join snapshot, 8 fixed ∃Pos join texts under
//!   owa/cwa/wcwa, every `EVAL` a plan-cache hit; exec (intern + hash joins)
//!   and answer rendering do the work.
//! * `cold_prepare` — 8 small snapshots, every `EVAL` text unique, 1 request
//!   in 8 a `LOAD` that replaces a snapshot; the parse → classify → analyze →
//!   compile path and cache misses do the work.
//! * `core_check` — two 37-fact cores that still carry nulls, 16 fixed Pos,
//!   Pos+∀G and ∃Pos+∀G_bool texts in `WorksOverCores` cells; `is_core` runs on
//!   every request.
//! * `oracle_mix` — tiny snapshots with at most 2 nulls, 24 fixed sentences in
//!   cells with no guarantee; the symbolic ladder and the parallel oracle do
//!   the work.
//!
//! Everything is generated from the run's seed, and every generated input is
//! checked against the property that keeps it in its class ([`guard`]) before
//! any request is sent. The fixed-key workloads (all but `cold_prepare`) keep
//! fixed snapshot shapes whose constants the seed renames order-preservingly
//! ([`rename_ints`]): every seed then does the same work, so runs at
//! different seeds differ only by the host's noise. Their streams also
//! re-`LOAD` an unchanged snapshot after every [`RELOAD_EVERY`] `EVAL`s
//! ([`with_reloads`]), so `load_p50_us` samples the whole timed phase on
//! every workload.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nev_core::engine::PreparedQuery;
use nev_core::summary::{expectation, Expectation};
use nev_core::Semantics;
use nev_gen::{
    FormulaGenerator, FormulaGeneratorConfig, InstanceGenerator, InstanceGeneratorConfig,
};
use nev_incomplete::{Instance, Schema, Tuple, Value};
use nev_logic::Fragment;
use nev_serve::client::semantics_spelling;
use nev_serve::wire::render_instance;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["hot_join", "cold_prepare", "core_check", "oracle_mix"];

/// Which of the four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    HotJoin,
    ColdPrepare,
    CoreCheck,
    OracleMix,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "hot_join" => Some(Kind::HotJoin),
            "cold_prepare" => Some(Kind::ColdPrepare),
            "core_check" => Some(Kind::CoreCheck),
            "oracle_mix" => Some(Kind::OracleMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotJoin => "hot_join",
            Kind::ColdPrepare => "cold_prepare",
            Kind::CoreCheck => "core_check",
            Kind::OracleMix => "oracle_mix",
        }
    }
}

/// One request of a workload's stream.
#[derive(Clone, Debug)]
pub enum Request {
    /// `EVAL` of `text` on snapshot `snapshot`.
    Eval {
        snapshot: usize,
        semantics: Semantics,
        text: Arc<str>,
    },
    /// `LOAD` that replaces snapshot `snapshot` with `instance`.
    Load {
        snapshot: usize,
        instance: Arc<Instance>,
    },
}

impl Request {
    /// The protocol line for this request.
    pub fn line(&self) -> String {
        match self {
            Request::Eval {
                snapshot,
                semantics,
                text,
            } => format!(
                "EVAL {} {} {text}",
                snapshot_name(*snapshot),
                semantics_spelling(*semantics)
            ),
            Request::Load { snapshot, instance } => load_line(*snapshot, instance),
        }
    }
}

/// The catalog name of snapshot `i`.
pub fn snapshot_name(i: usize) -> String {
    format!("s{i}")
}

/// The `LOAD` line that (re)binds snapshot `i`.
pub fn load_line(i: usize, instance: &Instance) -> String {
    format!("LOAD {} {}", snapshot_name(i), render_instance(instance))
}

/// A generated workload: what set-up sends, and the request stream of the
/// timed phase.
pub struct Workload {
    pub kind: Kind,
    /// Snapshots `LOAD`ed at set-up, bound to `s0`, `s1`, ….
    pub snapshots: Vec<Arc<Instance>>,
    /// Texts sent as `PREPARE` at set-up.
    pub prepares: Vec<String>,
    /// The untimed warm-up pass that ends set-up.
    pub warmup: Vec<Request>,
    /// The request stream, cycled in order by the timed phase.
    pub stream: Vec<Request>,
}

impl Workload {
    /// Generates workload `kind` from `seed`, checking its guards.
    pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
        let workload = match kind {
            Kind::HotJoin => hot_join(seed),
            Kind::ColdPrepare => cold_prepare(seed),
            Kind::CoreCheck => core_check(seed),
            Kind::OracleMix => oracle_mix(seed),
        };
        guard(&workload)?;
        Ok(workload)
    }

    /// Bytes of the longest `LOAD` line set-up sends.
    pub fn max_load_line_bytes(&self) -> usize {
        self.snapshots
            .iter()
            .enumerate()
            .map(|(i, s)| load_line(i, s).len())
            .max()
            .unwrap_or(0)
    }

    /// Whether the stream loads snapshot versions that set-up did not, so
    /// some answers can only be checked once the versions are known.
    pub fn writes(&self) -> bool {
        self.stream.iter().any(|r| match r {
            Request::Load { snapshot, instance } => {
                !Arc::ptr_eq(instance, &self.snapshots[*snapshot])
            }
            Request::Eval { .. } => false,
        })
    }

    /// Total facts over the set-up snapshots.
    pub fn facts(&self) -> usize {
        self.snapshots.iter().map(|s| s.fact_count()).sum()
    }
}

/// Every (snapshot, text, semantics) combination of a fixed-key workload, in a
/// seeded order, as a stream that visits each key once per cycle.
fn shuffled_keys(
    rng: &mut StdRng,
    snapshots: usize,
    texts: &[(String, Semantics)],
) -> Vec<Request> {
    let mut keys: Vec<Request> = (0..snapshots)
        .flat_map(|snapshot| {
            texts.iter().map(move |(text, semantics)| Request::Eval {
                snapshot,
                semantics: *semantics,
                text: Arc::from(text.as_str()),
            })
        })
        .collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// `EVAL`s between two re-`LOAD`s in a fixed-key stream.
const RELOAD_EVERY: usize = 16;

/// `stream` with a `LOAD` of an unchanged snapshot, round robin, after every
/// [`RELOAD_EVERY`] `EVAL`s. Re-binding a name to the same version keeps
/// every expected answer, so the stream stays fixed-key.
fn with_reloads(stream: Vec<Request>, snapshots: &[Arc<Instance>]) -> Vec<Request> {
    let mut out = Vec::with_capacity(stream.len() + stream.len() / RELOAD_EVERY);
    let mut next = 0;
    for (i, request) in stream.into_iter().enumerate() {
        out.push(request);
        if (i + 1) % RELOAD_EVERY == 0 {
            let snapshot = next % snapshots.len();
            next += 1;
            out.push(Request::Load {
                snapshot,
                instance: Arc::clone(&snapshots[snapshot]),
            });
        }
    }
    out
}

/// `count` distinct integers from `low..=high`, drawn from `rng`, in
/// increasing order.
fn ordered_sample(rng: &mut StdRng, count: usize, low: i64, high: i64) -> Vec<i64> {
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(low..=high));
    }
    picked.into_iter().collect()
}

/// `instance` with every integer constant `k` in `1..=targets.len()`
/// replaced by `targets[k - 1]`. With increasing `targets` the renaming keeps
/// the order of the constants, and with targets of one digit count it keeps
/// every rendered line's length, so the work per request does not depend on
/// the seed that drew them.
fn rename_ints(instance: &Instance, targets: &[i64]) -> Instance {
    instance.map_values(|v| match v.as_const().and_then(|c| c.as_int()) {
        Some(k) if (1..=targets.len() as i64).contains(&k) => Value::int(targets[k as usize - 1]),
        _ => v.clone(),
    })
}

/// The 8 ∃Pos join texts of `hot_join`, over `R`, `S` (2000 tuples each) and
/// `T` (60 tuples). Each joins through the small `T`, so answers run to a few
/// hundred rows.
const HOT_JOIN_TEXTS: [&str; 8] = [
    "Q(x, w) :- exists y z . R(x, y) & S(y, z) & T(z, w)",
    "Q(x, z) :- exists y . S(x, y) & T(y, z)",
    "Q(x) :- exists y z . R(x, y) & T(y, z)",
    "Q(x, y) :- T(x, y) | exists z . S(x, z) & T(z, y)",
    "Q(y) :- exists x z . T(x, y) & S(y, z)",
    "Q(x, w) :- exists y . R(x, y) & T(y, w)",
    "Q(x, y) :- exists z . T(x, z) & R(z, y)",
    "Q(x, v) :- exists y z . T(x, y) & S(y, z) & R(z, v)",
];

/// Seed of the fixed `hot_join` snapshot shape: `R` and `S` with 2000
/// tuples each and `T` with 60, over the constants `1..=333` and about 10 %
/// nulls.
const HOT_SHAPE_SEED: u64 = 1;
/// Constants of the `hot_join` shape (`skewed_join_workload`'s pool for 2000
/// tuples).
const HOT_CONSTANTS: usize = 2000 / 6;

fn hot_join(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a01);
    let shape = nev_bench::workloads::skewed_join_workload(HOT_SHAPE_SEED, 2000, 60);
    let targets = ordered_sample(&mut rng, HOT_CONSTANTS, 100, 999);
    let snapshots = vec![Arc::new(rename_ints(&shape, &targets))];
    let texts: Vec<(String, Semantics)> = HOT_JOIN_TEXTS
        .iter()
        .flat_map(|t| [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa].map(|s| (t.to_string(), s)))
        .collect();
    let stream = with_reloads(shuffled_keys(&mut rng, 1, &texts), &snapshots);
    Workload {
        kind: Kind::HotJoin,
        snapshots,
        prepares: HOT_JOIN_TEXTS.iter().map(|t| t.to_string()).collect(),
        warmup: stream.clone(),
        stream,
    }
}

/// Requests in one cycle of the `cold_prepare` stream. Far more distinct texts
/// than the 256-entry plan cache holds, so a cyclic replay keeps missing.
const COLD_STREAM_LEN: usize = 6144;
/// Warm-up requests of `cold_prepare`: enough unique texts to fill the cache,
/// so the timed phase starts in the evicting steady state.
const COLD_WARMUP_LEN: usize = 512;

fn cold_schema() -> Schema {
    Schema::from_relations([("R", 2), ("S", 2), ("U", 1)])
}

fn cold_instance(generator: &mut InstanceGenerator) -> Arc<Instance> {
    Arc::new(generator.generate())
}

fn cold_prepare(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d);
    let mut instances = InstanceGenerator::new(
        InstanceGeneratorConfig {
            schema: cold_schema(),
            tuples_per_relation: (4, 12),
            constant_pool: 12,
            null_pool: 4,
            null_probability: 0.2,
            codd: false,
        },
        seed,
    );
    let snapshots: Vec<Arc<Instance>> = (0..8).map(|_| cold_instance(&mut instances)).collect();
    // The four guaranteed (fragment, semantics) classes, each with its own
    // generator. Constants come from a pool of 10⁵, so texts rarely repeat and
    // answers stay tiny.
    let classes = [
        (Fragment::ExistentialPositive, Semantics::Owa),
        (Fragment::ExistentialPositive, Semantics::Cwa),
        (Fragment::ExistentialPositive, Semantics::Wcwa),
        (Fragment::Positive, Semantics::Cwa),
    ];
    let mut generators: Vec<FormulaGenerator> = classes
        .iter()
        .enumerate()
        .map(|(i, (fragment, _))| {
            FormulaGenerator::new(
                FormulaGeneratorConfig {
                    fragment: *fragment,
                    schema: cold_schema(),
                    constant_pool: 100_000,
                    constant_probability: 0.3,
                    max_depth: 3,
                },
                seed.wrapping_mul(31).wrapping_add(i as u64),
            )
        })
        .collect();
    let mut seen: HashSet<String> = HashSet::new();
    let mut next_eval = |i: usize, rng: &mut StdRng| loop {
        let class = i % classes.len();
        let arity = rng.gen_range(0..=2);
        let query = generators[class].generate_query(arity);
        let text = query.to_string();
        // Unique up to the cache's own canonical key.
        let canonical = nev_serve::cache::canonical(&text)
            .expect("generated texts parse")
            .0;
        if seen.insert(canonical) {
            return Request::Eval {
                snapshot: rng.gen_range(0..8),
                semantics: classes[class].1,
                text: Arc::from(text),
            };
        }
    };
    let warmup: Vec<Request> = (0..COLD_WARMUP_LEN)
        .map(|i| next_eval(i, &mut rng))
        .collect();
    let stream: Vec<Request> = (0..COLD_STREAM_LEN)
        .map(|i| {
            if i % 8 == 7 {
                Request::Load {
                    snapshot: rng.gen_range(0..8),
                    instance: cold_instance(&mut instances),
                }
            } else {
                next_eval(i, &mut rng)
            }
        })
        .collect();
    Workload {
        kind: Kind::ColdPrepare,
        snapshots,
        prepares: Vec::new(),
        warmup,
        stream,
    }
}

/// The 16 `core_check` texts: Pos, Pos+∀G and ∃Pos+∀G_bool (never ∃Pos), each
/// paired with a minimal semantics whose cell is `WorksOverCores`.
const CORE_TEXTS: [(&str, Semantics); 16] = [
    ("forall u v . (E(u, v) -> exists w . E(v, w))", Semantics::MinimalCwa),
    ("forall u v . (E(u, v) -> exists w . E(w, u))", Semantics::MinimalCwa),
    ("Q(x) :- exists y . R(x, y) & (forall u v . (E(u, v) -> exists w . E(v, w)))", Semantics::MinimalCwa),
    ("Q(x) :- P(x) & (forall u v . (R(u, v) -> P(u) | exists w . R(v, w)))", Semantics::MinimalCwa),
    ("Q(x, y) :- R(x, y) & (forall u . (P(u) -> exists w . R(u, w) | R(w, u)))", Semantics::MinimalCwa),
    ("Q(x) :- exists y . E(x, y) & (forall u v . (E(u, v) -> exists w . E(v, w)))", Semantics::MinimalCwa),
    ("Q(x) :- P(x) | forall y . exists z . R(y, z) | R(z, y) | E(y, z)", Semantics::MinimalCwa),
    ("Q(x) :- exists y . R(x, y) & (forall z . exists w . R(z, w) | E(z, w) | R(w, z) | E(w, z))", Semantics::MinimalCwa),
    ("forall u . exists v . E(u, v) | R(u, v) | R(v, u)", Semantics::MinimalCwa),
    ("Q(x, y) :- R(x, y) | forall u v . (R(u, v) -> exists w . R(v, w) | P(u))", Semantics::MinimalCwa),
    ("exists x . P(x) & (forall u v . (E(u, v) -> exists w . E(v, w)))", Semantics::MinimalPowersetCwa),
    ("exists x y . R(x, y) & (forall u v . (E(u, v) -> exists w . E(w, u)))", Semantics::MinimalPowersetCwa),
    ("exists x . P(x) & (forall u v . (R(u, v) -> exists w . R(v, w) | P(v)))", Semantics::MinimalPowersetCwa),
    ("exists x y . E(x, y) & (forall u . (P(u) -> exists v . R(u, v) | R(v, u)))", Semantics::MinimalPowersetCwa),
    ("exists x . P(x) & (forall u v . (E(u, v) -> exists w . E(v, w)))", Semantics::MinimalCwa),
    ("(forall u v . (R(u, v) -> P(u) | P(v) | exists w . R(v, w))) & exists x . P(x)", Semantics::MinimalCwa),
];

/// Lengths of the directed null cycles of a `core_check` snapshot: neither
/// length divides the other, so neither cycle maps into the other and their
/// union is a core, like the paper's C₄ + C₆. The snapshot is kept small:
/// with C₄ + C₆ and 60 constant facts `is_core` takes ~18 ms, and a run at
/// that rate holds too few requests for a steady p99; C₂ + C₃ with 32
/// constant facts takes ~2 ms.
const CORE_CYCLES: [u32; 2] = [2, 3];

/// Seed of the fixed `core_check` snapshot shapes.
const CORE_SHAPE_SEED: u64 = 0xc0e;
/// Constants of a `core_check` shape: `1..=CORE_CONSTANTS`.
const CORE_CONSTANTS: usize = 40;

/// A 37-fact core with nulls: the null cycles of [`CORE_CYCLES`] in `E`, plus
/// 24 constant facts in `R` (edges from a smaller to a larger constant, so
/// they hold no cycle a null cycle could fold onto) and 8 in `P`, drawn from
/// `rng` over the constants `1..=CORE_CONSTANTS`.
fn core_snapshot(rng: &mut StdRng) -> Instance {
    let mut inst = Instance::new();
    let mut next_null = 1u32;
    for len in CORE_CYCLES {
        let first = next_null;
        for i in 0..len {
            let from = Value::null(first + i);
            let to = Value::null(first + (i + 1) % len);
            inst.add_tuple("E", Tuple::new(vec![from, to]))
                .expect("arity 2");
        }
        next_null += len;
    }
    while inst.relation("R").map_or(0, |r| r.len()) < 24 {
        let a = rng.gen_range(1..=CORE_CONSTANTS as i64);
        let b = rng.gen_range(1..=CORE_CONSTANTS as i64);
        if a < b {
            inst.add_tuple("R", Tuple::new(vec![Value::int(a), Value::int(b)]))
                .expect("arity 2");
        }
    }
    while inst.relation("P").map_or(0, |r| r.len()) < 8 {
        let a = rng.gen_range(1..=CORE_CONSTANTS as i64);
        inst.add_tuple("P", Tuple::new(vec![Value::int(a)]))
            .expect("arity 1");
    }
    inst
}

/// The two `core_check` snapshots: fixed shapes whose constants the run's
/// seed renames, order-preserving, to two-digit numbers. `is_core`'s search
/// cost depends on the shape, so seeded shapes would move `qps` between
/// seeds.
fn core_check(seed: u64) -> Workload {
    let mut shapes = StdRng::seed_from_u64(CORE_SHAPE_SEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0e);
    let targets = ordered_sample(&mut rng, CORE_CONSTANTS, 10, 99);
    let snapshots: Vec<Arc<Instance>> = (0..2)
        .map(|_| Arc::new(rename_ints(&core_snapshot(&mut shapes), &targets)))
        .collect();
    let texts: Vec<(String, Semantics)> = CORE_TEXTS
        .iter()
        .map(|(t, s)| (t.to_string(), *s))
        .collect();
    let stream = with_reloads(shuffled_keys(&mut rng, snapshots.len(), &texts), &snapshots);
    Workload {
        kind: Kind::CoreCheck,
        snapshots,
        prepares: CORE_TEXTS.iter().map(|(t, _)| t.to_string()).collect(),
        warmup: stream.clone(),
        stream,
    }
}

/// Seed of the generator that draws the 24 fixed `oracle_mix` sentences; the
/// run's seed varies the snapshots only.
const ORACLE_TEXT_SEED: u64 = 0x0a5c1e;

fn oracle_schema() -> Schema {
    Schema::from_relations([("R", 2), ("S", 1)])
}

/// 24 sentences, 8 per (fragment, semantics) class, each in a cell with no
/// guarantee both as written and after normalization.
fn oracle_texts() -> Vec<(String, Semantics)> {
    let classes = [
        (Fragment::FullFirstOrder, Semantics::Owa),
        (Fragment::PositiveGuarded, Semantics::Wcwa),
        (Fragment::Positive, Semantics::PowersetCwa),
    ];
    let mut texts = Vec::new();
    for (i, (fragment, semantics)) in classes.into_iter().enumerate() {
        let mut generator = FormulaGenerator::new(
            FormulaGeneratorConfig {
                fragment,
                schema: oracle_schema(),
                constant_pool: 2,
                constant_probability: 0.0,
                max_depth: 2,
            },
            ORACLE_TEXT_SEED + i as u64,
        );
        let mut seen = HashSet::new();
        while texts.len() < 8 * (i + 1) {
            let text = generator.generate_sentence().to_string();
            let prepared = PreparedQuery::parse(&text).expect("generated texts parse");
            let no_guarantee = expectation(semantics, prepared.fragment())
                == Expectation::NotGuaranteed
                && expectation(semantics, prepared.normalized_fragment())
                    == Expectation::NotGuaranteed;
            if no_guarantee && seen.insert(text.clone()) {
                texts.push((text, semantics));
            }
        }
    }
    texts
}

/// Seed of the generator that draws the shapes of the 4 `oracle_mix`
/// snapshots (1–3 tuples per relation, at most 2 nulls over the constants
/// 1 and 2).
const ORACLE_SHAPE_SEED: u64 = 0x5a9e;

/// The `oracle_mix` snapshots: fixed shapes whose two constants the run's
/// seed renames, order-preserving, into a pool of 10⁵. World enumeration
/// walks constants in order, so every seed enumerates the same worlds in the
/// same order and keeps the same per-request cost; with seeded shapes a
/// snapshot with one null more or less moved qps 4× between seeds.
fn oracle_snapshots(rng: &mut StdRng) -> Vec<Arc<Instance>> {
    let mut shapes = InstanceGenerator::new(
        InstanceGeneratorConfig {
            schema: oracle_schema(),
            tuples_per_relation: (1, 3),
            constant_pool: 2,
            null_pool: 2,
            null_probability: 0.4,
            codd: false,
        },
        ORACLE_SHAPE_SEED,
    );
    let low = rng.gen_range(1..50_000i64);
    let high = rng.gen_range(50_000..=100_000i64);
    (0..4)
        .map(|_| {
            Arc::new(shapes.generate().map_values(
                |v| match v.as_const().and_then(|c| c.as_int()) {
                    Some(1) => Value::int(low),
                    Some(2) => Value::int(high),
                    _ => v.clone(),
                },
            ))
        })
        .collect()
}

fn oracle_mix(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a);
    let snapshots = oracle_snapshots(&mut rng);
    let texts = oracle_texts();
    let stream = with_reloads(shuffled_keys(&mut rng, snapshots.len(), &texts), &snapshots);
    Workload {
        kind: Kind::OracleMix,
        snapshots,
        prepares: texts.iter().map(|(t, _)| t.clone()).collect(),
        warmup: stream.clone(),
        stream,
    }
}

/// The generation-time guards, on input properties only:
///
/// * `hot_join`, `cold_prepare`: every (fragment, semantics) cell is `Works`;
/// * `core_check`: every snapshot is a core with nulls, and every text is in a
///   `WorksOverCores` cell and is not ∃Pos;
/// * `oracle_mix`: every snapshot has at most 2 nulls, and every text is in a
///   cell with no guarantee, as written and as normalized.
fn guard(workload: &Workload) -> Result<(), String> {
    let mut checked: HashSet<(&str, Semantics)> = HashSet::new();
    let evals = workload.warmup.iter().chain(&workload.stream);
    for request in evals {
        let Request::Eval {
            text, semantics, ..
        } = request
        else {
            continue;
        };
        if !checked.insert((text, *semantics)) {
            continue;
        }
        let prepared =
            PreparedQuery::parse(text).map_err(|e| format!("`{text}` does not parse: {e}"))?;
        let fragment = prepared.fragment();
        let cell = expectation(*semantics, fragment);
        let ok = match workload.kind {
            Kind::HotJoin | Kind::ColdPrepare => cell == Expectation::Works,
            Kind::CoreCheck => {
                cell == Expectation::WorksOverCores && fragment != Fragment::ExistentialPositive
            }
            Kind::OracleMix => {
                cell == Expectation::NotGuaranteed
                    && expectation(*semantics, prepared.normalized_fragment())
                        == Expectation::NotGuaranteed
            }
        };
        if !ok {
            return Err(format!(
                "{}: `{text}` is {} under {semantics}, cell {cell:?}",
                workload.kind.name(),
                fragment.short_name()
            ));
        }
    }
    for (i, snapshot) in workload.snapshots.iter().enumerate() {
        let nulls = snapshot.nulls().len();
        let ok = match workload.kind {
            Kind::CoreCheck => nulls > 0 && nev_hom::is_core(snapshot),
            Kind::OracleMix => nulls <= 2,
            Kind::HotJoin | Kind::ColdPrepare => true,
        };
        if !ok {
            return Err(format!(
                "{}: snapshot s{i} ({nulls} nulls) breaks the workload's guard",
                workload.kind.name()
            ));
        }
    }
    Ok(())
}
