//! The plan cache: parse + classify + compile once per distinct query, not once
//! per request.
//!
//! A [`PreparedQuery`] is the expensive per-query preparation the engine performs —
//! parsing, fragment classification, constant collection and relational-algebra
//! compilation (rule-optimised by `nev-opt`, so the cache stores the optimised
//! plan). Under service traffic the same query text arrives over and over, so the
//! cache keys an LRU on the **parsed query's canonical `Display` rendering** and
//! stores the prepared query behind an `Arc`. Canonical keying means *every*
//! superficial spelling difference — whitespace, punctuation spacing
//! (`exists u.R(u)` vs `exists u . R(u)`), redundant parentheses — hits the same
//! entry; each lookup pays one parse, which is cheap next to the classification +
//! compilation a miss would repeat. The semantics is not part of the key: the
//! Figure 1 cell is a pure function of fragment × semantics, so each lookup
//! derives it ([`CachedPlan::cell`]).
//!
//! Preparation is **single-flight**: each key owns a slot, and concurrent misses
//! on one key wait for the first caller's preparation instead of each compiling
//! (they count as hits). Misses on different keys prepare in parallel, outside
//! the cache lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nev_core::engine::{EngineError, PreparedQuery};
use nev_core::summary::{expectation, Expectation};
use nev_core::Semantics;
use nev_logic::{parse_query, Query};
use nev_obs::Timer;

/// A cache lookup: the shared prepared query plus the Figure 1 cell guarantee for
/// the requested semantics (the instance-independent part of plan dispatch).
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The prepared (parsed, classified, compiled) query, shared across lookups.
    pub prepared: Arc<PreparedQuery>,
    /// The semantics of the lookup.
    pub semantics: Semantics,
    /// `expectation(semantics, fragment)` — what Figure 1 guarantees for the cell.
    pub cell: Expectation,
    /// Microseconds this lookup spent parsing the text into its canonical key,
    /// which a hit pays as well as a miss.
    pub parse_us: u64,
}

/// One key's prepared query, filled by whichever lookup prepares it first.
type Slot = Arc<OnceLock<Arc<PreparedQuery>>>;

struct Entry {
    slot: Slot,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// Monotonic recency clock; bumped on every lookup.
    clock: u64,
}

/// An LRU cache of prepared queries keyed on the canonical query rendering.
///
/// ```
/// use nev_serve::cache::PlanCache;
/// use nev_core::Semantics;
///
/// let cache = PlanCache::new(64);
/// let (a, hit) = cache
///     .get_or_prepare_with_status("exists u .  R(u)", Semantics::Owa)
///     .unwrap();
/// assert!(!hit);
/// // Same query modulo spelling — whitespace AND punctuation spacing: a cache
/// // hit sharing the same Arc.
/// let (b, hit) = cache
///     .get_or_prepare_with_status("exists u.R(u)", Semantics::Owa)
///     .unwrap();
/// assert!(hit);
/// assert!(std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.entries.len())
            .field("clock", &self.clock)
            .finish()
    }
}

/// Canonicalizes query text for cache keying: the text is parsed and the query's
/// `Display` rendering — a parse/render fixed point — becomes the key, so any
/// two spellings of the same query (whitespace, punctuation spacing, redundant
/// parentheses) occupy one cache slot. Returns the parsed query alongside the
/// key so a cache miss never re-parses.
pub fn canonical(text: &str) -> Result<(String, Query), EngineError> {
    let query = parse_query(text)?;
    Ok((query.to_string(), query))
}

impl PlanCache {
    /// A cache holding at most `capacity` queries; a capacity of zero disables
    /// caching (every lookup prepares afresh).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// Returns `true` iff the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (lookups that found, or waited for, a preparation).
    pub fn hits(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (each miss prepared a query).
    pub fn misses(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU policy so far.
    pub fn evictions(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up the canonical `text`, preparing and inserting it on a miss, and
    /// pairs it with `semantics`' Figure 1 cell. The flag reports whether the
    /// lookup was a cache hit (`true`) or prepared the query itself (`false`);
    /// the serve layer's request tracing uses it to replay parse/classify/compile
    /// timings only for requests that actually paid them. Parse errors are
    /// returned verbatim, cache nothing and count nothing.
    pub fn get_or_prepare_with_status(
        &self,
        text: &str,
        semantics: Semantics,
    ) -> Result<(CachedPlan, bool), EngineError> {
        let (prepared, hit, parse_us) = self.prepared(text)?;
        let plan = CachedPlan {
            cell: expectation(semantics, prepared.fragment()),
            prepared,
            semantics,
            parse_us,
        };
        Ok((plan, hit))
    }

    /// Warms the cache for `text` (the `PREPARE` command) and returns the shared
    /// prepared query; it counts as one hit or one miss, like any lookup.
    pub fn prepare_all(&self, text: &str) -> Result<Arc<PreparedQuery>, EngineError> {
        self.prepared(text)
            .map(|(prepared, _hit, _parse_us)| prepared)
    }

    /// The shared prepared query for `text`, whether another lookup had
    /// prepared it, and the microseconds its `canonical` parse took.
    /// Preparation runs outside the cache lock, once per slot.
    fn prepared(&self, text: &str) -> Result<(Arc<PreparedQuery>, bool, u64), EngineError> {
        let parse = Timer::start();
        let (key, query) = canonical(text)?;
        let parse_us = parse.elapsed_us();
        let slot = self.slot(key);
        let mut prepared_here = false;
        let prepared = Arc::clone(slot.get_or_init(|| {
            prepared_here = true;
            Arc::new(PreparedQuery::new(query))
        }));
        let counter = if prepared_here {
            &self.misses
        } else {
            &self.hits
        };
        // relaxed: hit/miss tallies are telemetry only.
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((prepared, !prepared_here, parse_us))
    }

    /// The slot for `key`, inserted (evicting least-recently-used entries past
    /// capacity) when absent. With capacity zero the slot is never retained.
    fn slot(&self, key: String) -> Slot {
        if self.capacity == 0 {
            return Slot::default();
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = clock;
            return Arc::clone(&entry.slot);
        }
        let slot = Slot::default();
        inner.entries.insert(
            key,
            Entry {
                slot: Arc::clone(&slot),
                last_used: clock,
            },
        );
        while inner.entries.len() > self.capacity {
            // O(capacity) victim scan: capacities are small (hundreds), and the
            // scan runs only on insertions past capacity.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity cache");
            inner.entries.remove(&victim);
            // relaxed: eviction tally is telemetry only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_logic::Fragment;

    #[test]
    fn canonical_keys_unify_spelling_variants() {
        let (a, _) = canonical("exists u.R(u)").unwrap();
        let (b, _) = canonical("  exists u .   R(u)  ").unwrap();
        let (c, _) = canonical("exists u . (R(u))").unwrap();
        assert_eq!(a, b, "punctuation spacing is not part of the key");
        assert_eq!(a, c, "redundant parentheses are not part of the key");
        let (other, _) = canonical("exists u . S(u)").unwrap();
        assert_ne!(a, other);
        assert!(canonical("exists u . R(u").is_err());
    }

    #[test]
    fn punctuation_spacing_variants_share_one_slot() {
        // Whitespace-collapsing keys used to give `exists u.R(u)` and
        // `exists u . R(u)` two slots for one plan; canonical keys fix the
        // hit rate: four spellings, one miss, three hits.
        let cache = PlanCache::new(16);
        for text in [
            "exists u . R(u)",
            "exists u.R(u)",
            "exists  u .  R(u)",
            "exists u . (R(u))",
        ] {
            cache
                .get_or_prepare_with_status(text, Semantics::Owa)
                .unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn hits_share_the_prepared_arc_across_semantics() {
        let cache = PlanCache::new(16);
        let (owa, _) = cache
            .get_or_prepare_with_status("forall u . exists v . D(u, v)", Semantics::Owa)
            .unwrap();
        let (cwa, hit) = cache
            .get_or_prepare_with_status("forall u .  exists v . D(u, v)", Semantics::Cwa)
            .unwrap();
        assert!(hit);
        // Different cells…
        assert_ne!(owa.cell, cwa.cell);
        assert_eq!(owa.prepared.fragment(), Fragment::Positive);
        // …but one entry and one compilation: the cell is derived per lookup.
        assert!(Arc::ptr_eq(&owa.prepared, &cwa.prepared));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn prepare_all_warms_every_semantics_row() {
        let cache = PlanCache::new(16);
        let prepared = cache.prepare_all("exists u v . D(u, v)").unwrap();
        assert_eq!(cache.len(), 1);
        for semantics in Semantics::ALL {
            let (plan, hit) = cache
                .get_or_prepare_with_status("exists u v . D(u, v)", semantics)
                .unwrap();
            assert!(hit);
            assert!(Arc::ptr_eq(&plan.prepared, &prepared));
        }
        assert_eq!(cache.hits(), Semantics::ALL.len() as u64);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = PlanCache::new(2);
        cache
            .get_or_prepare_with_status("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare_with_status("exists u . B(u)", Semantics::Owa)
            .unwrap();
        // Touch A so B is the LRU victim.
        cache
            .get_or_prepare_with_status("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare_with_status("exists u . C(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // A survived, B did not.
        cache
            .get_or_prepare_with_status("exists u . A(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.hits(), 2);
        cache
            .get_or_prepare_with_status("exists u . B(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.misses(), 4, "B was re-prepared after eviction");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache
            .get_or_prepare_with_status("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare_with_status("exists u . A(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn zero_capacity_prepare_all_keeps_counters_honest() {
        let cache = PlanCache::new(0);
        let a = cache.prepare_all("exists u . A(u)").unwrap();
        let b = cache.prepare_all("exists u . A(u)").unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(
            cache.misses(),
            2,
            "nothing is retained, so every PREPARE compiles afresh"
        );
        assert!(!Arc::ptr_eq(&a, &b), "no sibling entry to share with");
    }

    #[test]
    fn concurrent_misses_on_one_key_prepare_once() {
        // Eight threads miss on one key at once: one prepares, the other seven
        // wait for its result and count as hits.
        let cache = Arc::new(PlanCache::new(16));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_prepare_with_status("forall u . exists v . D(u, v)", Semantics::Owa)
                        .unwrap()
                        .0
                        .prepared
                })
            })
            .collect();
        let prepared: Vec<Arc<PreparedQuery>> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(prepared.iter().all(|p| Arc::ptr_eq(p, &prepared[0])));
        assert_eq!((cache.hits(), cache.misses()), (7, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn parse_errors_surface_and_cache_nothing() {
        let cache = PlanCache::new(8);
        assert!(cache
            .get_or_prepare_with_status("exists u . R(u", Semantics::Owa)
            .is_err());
        assert!(cache.prepare_all("exists u . R(u").is_err());
        assert!(cache.is_empty());
    }
}
