//! The oracle's pruned world stream against the unpruned reference.
//!
//! `nev_core::oracle::world_pass` runs over a stream that skips worlds another
//! streamed world already covers (restricted-growth valuations, polarity-pruned
//! extensions, powerset unions deduplicated up to renaming fresh constants).
//! Every test here pins its verdicts to a reference fold that intersects
//! `PreparedQuery::answers_in_world` over the unpruned `Semantics::worlds`
//! stream: on a seeded random corpus (all six semantics, every fragment,
//! sentences and unary queries with constants) and on the four `oracle_mix`
//! snapshot shapes with all 24 of its texts.

use std::collections::BTreeSet;

use nev_core::engine::PreparedQuery;
use nev_core::oracle::world_pass;
use nev_core::summary::FRAGMENTS;
use nev_core::{Semantics, WorldBounds};
use nev_exec::ExecStats;
use nev_gen::{
    FormulaGenerator, FormulaGeneratorConfig, InstanceGenerator, InstanceGeneratorConfig,
};
use nev_incomplete::builder::{c, x};
use nev_incomplete::{inst, Instance, Schema, Tuple};

/// Small caps keep the unpruned reference affordable in debug builds.
fn bounds(max_worlds: usize) -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 2,
        max_worlds,
        ..WorldBounds::default()
    }
}

/// The reference verdict: the query's answers intersected over the unpruned
/// stream of the same bounds `world_pass` uses, as `(certain, truncated)`.
fn reference(
    base: &WorldBounds,
    d: &Instance,
    semantics: Semantics,
    query: &PreparedQuery,
) -> (BTreeSet<Tuple>, bool) {
    let bounds = query.bounds(base);
    let allowed = query.allowed_constants(d);
    let mut acc: Option<BTreeSet<Tuple>> = None;
    let mut exec = ExecStats::new();
    let mut worlds = semantics.worlds(d, &bounds);
    for world in worlds.by_ref() {
        let answers = query.answers_in_world(&world, &allowed, &mut exec);
        let next = match acc {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        };
        let emptied = next.is_empty();
        acc = Some(next);
        if emptied {
            break;
        }
    }
    let emptied = acc.as_ref().is_some_and(BTreeSet::is_empty);
    let certain = acc.unwrap_or_else(|| {
        if query.is_boolean() {
            [Tuple::new(Vec::new())].into_iter().collect()
        } else {
            BTreeSet::new()
        }
    });
    (certain, !emptied && worlds.truncated())
}

fn schema() -> Schema {
    Schema::from_relations([("R", 2), ("S", 1)])
}

/// The seeded corpus: `(instance, query)` pairs over every fragment, a
/// sentence and a unary query per fragment and instance, drawing constants
/// from a pool one wider than the instances' so that some are query-only.
fn corpus(instances: usize) -> Vec<(Instance, PreparedQuery)> {
    let mut shapes = InstanceGenerator::new(
        InstanceGeneratorConfig {
            schema: schema(),
            tuples_per_relation: (1, 2),
            constant_pool: 2,
            null_pool: 2,
            null_probability: 0.4,
            codd: false,
        },
        0x0a11,
    );
    let mut out = Vec::new();
    for i in 0..instances {
        let d = shapes.generate();
        for (f, fragment) in FRAGMENTS.into_iter().enumerate() {
            let mut generator = FormulaGenerator::new(
                FormulaGeneratorConfig {
                    fragment,
                    schema: schema(),
                    constant_pool: 3,
                    constant_probability: 0.3,
                    max_depth: 2,
                },
                (i * FRAGMENTS.len() + f) as u64,
            );
            for query in [generator.generate_sentence(), generator.generate_query(1)] {
                out.push((d.clone(), PreparedQuery::new(query)));
            }
        }
    }
    out
}

#[test]
fn pruned_passes_match_the_reference_on_a_random_corpus() {
    let bounds = bounds(20_000);
    let (mut checks, mut pruned_worlds, mut reference_truncated) = (0, 0, 0);
    let corpus = corpus(20);
    for semantics in Semantics::ALL {
        for (d, query) in &corpus {
            let (certain, truncated) = reference(&bounds, d, semantics, query);
            let pruned = world_pass(&bounds, d, semantics, query);
            pruned_worlds += pruned.worlds_considered;
            if truncated {
                reference_truncated += 1;
                continue;
            }
            assert!(!pruned.truncated, "{semantics} {query} on {d:?}");
            assert_eq!(pruned.certain, certain, "{semantics} {query} on {d:?}");
            checks += 1;
        }
    }
    assert!(checks > corpus.len() * 5, "{checks} checks");
    assert!(
        reference_truncated < 10,
        "{reference_truncated} reference runs truncated"
    );
    assert!(pruned_worlds > 0);
}

#[test]
fn a_small_world_cap_truncates_fewer_pruned_verdicts() {
    let capped = bounds(60);
    let exact = bounds(20_000);
    let (mut pruned_truncated, mut reference_truncated) = (0, 0);
    for semantics in Semantics::ALL {
        for (d, query) in &corpus(8) {
            let (_, truncated) = reference(&capped, d, semantics, query);
            reference_truncated += usize::from(truncated);
            let pruned = world_pass(&capped, d, semantics, query);
            if pruned.truncated {
                pruned_truncated += 1;
            } else {
                // An untruncated pruned verdict is the exact one.
                let (certain, _) = reference(&exact, d, semantics, query);
                assert_eq!(pruned.certain, certain, "{semantics} {query} on {d:?}");
            }
        }
    }
    assert!(reference_truncated > 0, "the cap must bite the reference");
    assert!(
        pruned_truncated < reference_truncated,
        "pruned {pruned_truncated} vs reference {reference_truncated} truncated verdicts"
    );
}

/// The four `oracle_mix` snapshot shapes, over the constants 1 and 2 (the
/// benchmark renames them order-preservingly, which changes no world count).
fn oracle_mix_shapes() -> [Instance; 4] {
    [
        inst! { "R" => [[c(1), x(1)]], "S" => [[x(2)]] },
        inst! { "R" => [[c(1), x(2)]], "S" => [[x(1)]] },
        inst! { "R" => [[c(1), x(2)]], "S" => [[c(2)]] },
        inst! { "R" => [[c(2), x(1)], [x(2), c(1)]], "S" => [[x(2)]] },
    ]
}

/// The 24 `oracle_mix` texts with the semantics each is served under.
const ORACLE_MIX_TEXTS: [(&str, Semantics); 24] = [
    ("forall v0 . (exists v1 . R(v0, v0))", Semantics::Owa),
    ("(exists v2 . R(v2, v2)) | !R(2, 1)", Semantics::Owa),
    (
        "(forall v4 . R(v4, v4)) & (forall v5 . R(v5, v5))",
        Semantics::Owa,
    ),
    ("!(R(2, 1) | S(2))", Semantics::Owa),
    ("forall v6 . (R(v6, v6) | R(v6, v6))", Semantics::Owa),
    ("forall v7 . (forall v8 . R(v8, v7))", Semantics::Owa),
    ("R(2, 2) | (forall v10 . S(v10))", Semantics::Owa),
    ("forall v11 . (R(v11, v11) & S(v11))", Semantics::Owa),
    (
        "forall v2 v3 . (R(v2, v3) -> (S(v3) & S(v3)))",
        Semantics::Wcwa,
    ),
    (
        "forall v5 . (S(v5) -> (forall v6 . (S(v6) -> S(v6))))",
        Semantics::Wcwa,
    ),
    (
        "(forall v7 v8 . (R(v7, v8) -> S(v8))) & R(2, 1) & R(1, 2)",
        Semantics::Wcwa,
    ),
    (
        "(forall v12 . (S(v12) -> R(v12, v12))) | (S(1) & S(2))",
        Semantics::Wcwa,
    ),
    (
        "(forall v16 . R(v16, v16)) & (forall v17 . (S(v17) -> R(v17, v17)))",
        Semantics::Wcwa,
    ),
    (
        "forall v24 . (S(v24) -> (R(v24, v24) | R(v24, v24)))",
        Semantics::Wcwa,
    ),
    (
        "(S(2) & S(2)) | (forall v25 v26 . (R(v25, v26) -> v26 = v25))",
        Semantics::Wcwa,
    ),
    (
        "forall v27 v28 . (R(v27, v28) -> (R(v27, v28) | S(v28)))",
        Semantics::Wcwa,
    ),
    ("forall v0 . (exists v1 . S(v1))", Semantics::PowersetCwa),
    (
        "forall v3 . (exists v4 . R(v3, v4))",
        Semantics::PowersetCwa,
    ),
    (
        "forall v6 . (exists v7 . R(v6, v6))",
        Semantics::PowersetCwa,
    ),
    ("forall v8 . S(v8)", Semantics::PowersetCwa),
    (
        "(forall v9 . R(v9, v9)) & S(2) & R(1, 1)",
        Semantics::PowersetCwa,
    ),
    (
        "(forall v12 . R(v12, v12)) & S(2) & R(2, 2)",
        Semantics::PowersetCwa,
    ),
    ("forall v13 . (forall v14 . S(v13))", Semantics::PowersetCwa),
    (
        "R(1, 2) & (forall v15 . R(v15, v15))",
        Semantics::PowersetCwa,
    ),
];

#[test]
fn oracle_mix_keys_match_the_reference_with_fewer_worlds() {
    let bounds = WorldBounds::default();
    let (mut pruned_total, mut reference_total) = (0, 0);
    for d in &oracle_mix_shapes() {
        for (text, semantics) in ORACLE_MIX_TEXTS {
            let query = PreparedQuery::parse(text).expect("valid query");
            let pruned = world_pass(&bounds, d, semantics, &query);
            let (certain, truncated) = reference(&bounds, d, semantics, &query);
            assert!(!truncated && !pruned.truncated, "{text}");
            assert_eq!(pruned.certain, certain, "{semantics} {text} on {d:?}");
            pruned_total += pruned.worlds_considered;
            reference_total += semantics.worlds(d, &bounds).count();
        }
    }
    assert!(
        pruned_total * 4 < reference_total,
        "pruned {pruned_total} vs reference {reference_total} worlds"
    );
    // The two heaviest requests of the workload, on the last shape.
    let d3 = &oracle_mix_shapes()[3];
    for (text, worlds) in [
        ("forall v5 . (S(v5) -> (forall v6 . (S(v6) -> S(v6))))", 36),
        (
            "forall v27 v28 . (R(v27, v28) -> (R(v27, v28) | S(v28)))",
            810,
        ),
    ] {
        let query = PreparedQuery::parse(text).expect("valid query");
        assert_eq!(
            semantics_worlds(d3, Semantics::Wcwa, &query),
            worlds,
            "{text}"
        );
    }
    let powerset = PreparedQuery::parse("forall v0 . (exists v1 . S(v1))").expect("valid");
    assert_eq!(semantics_worlds(d3, Semantics::PowersetCwa, &powerset), 62);
}

/// Worlds one pass visits under the default bounds.
fn semantics_worlds(d: &Instance, semantics: Semantics, query: &PreparedQuery) -> usize {
    world_pass(&WorldBounds::default(), d, semantics, query).worlds_considered
}
