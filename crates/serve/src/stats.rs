//! Service-wide telemetry: lock-free counters behind the `STATS` command.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by every connection and worker of a
/// [`crate::state::ServeState`]. All counters are relaxed atomics — they are
/// telemetry, not synchronisation.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Protocol requests handled (any command, including failed ones).
    pub requests: AtomicU64,
    /// `LOAD` commands that registered or replaced a catalog instance.
    pub loads: AtomicU64,
    /// `PREPARE` commands served.
    pub prepares: AtomicU64,
    /// `EVAL` requests answered successfully.
    pub evals: AtomicU64,
    /// `EXPLAIN` requests answered successfully.
    pub explains: AtomicU64,
    /// Requests rejected with an `ERR` response.
    pub errors: AtomicU64,
    /// Evaluations answered by a certified naïve pass (no world enumeration).
    pub certified: AtomicU64,
    /// Certified evaluations executed on the compiled `nev-exec` pipeline.
    pub compiled: AtomicU64,
    /// Evaluations that needed the bounded possible-world oracle.
    pub oracle: AtomicU64,
    /// Worlds evaluated across all oracle runs (parallel chunks included).
    pub worlds: AtomicU64,
    /// Oracle runs cut short by early-exit cancellation.
    pub oracle_cancelled: AtomicU64,
    /// Evaluations answered by a PTIME symbolic certificate (conditional
    /// tables or the sandwich) instead of world enumeration.
    pub symbolic: AtomicU64,
    /// Symbolic answers certified by the Kleene/naïve sandwich specifically.
    pub sandwich_exact: AtomicU64,
    /// Oracle answers whose world stream was cut off by the world cap with the
    /// verdict still drawing on it (over-approximations, flagged on the wire).
    pub truncated: AtomicU64,
    /// `ANALYZE` requests answered successfully.
    pub analyzed: AtomicU64,
    /// Evaluations dispatched on the normalized-naïve plan: the raw query had
    /// no Figure 1 guarantee, but its normal form landed in a wider cell.
    pub normalized_upgrades: AtomicU64,
    /// Evaluations whose query static analysis proved constantly true or
    /// false, so the exec layer could short-circuit to `∅`/`adomᵏ`.
    pub static_prunes: AtomicU64,
}

impl ServeStats {
    /// A zeroed counter block.
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// Relaxed-increment helper.
    pub fn bump(counter: &AtomicU64) {
        // relaxed: counters are telemetry, not synchronisation (see type docs).
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add helper.
    pub fn add(counter: &AtomicU64, n: u64) {
        // relaxed: counters are telemetry, not synchronisation (see type docs).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-data copy of the counters (the `STATS` response payload).
    pub fn snapshot(&self) -> StatsSnapshot {
        // relaxed: fuzzy point-in-time copy; counters are independent and monotone.
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            evals: self.evals.load(Ordering::Relaxed),
            explains: self.explains.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            certified: self.certified.load(Ordering::Relaxed),
            compiled: self.compiled.load(Ordering::Relaxed),
            oracle: self.oracle.load(Ordering::Relaxed),
            worlds: self.worlds.load(Ordering::Relaxed),
            oracle_cancelled: self.oracle_cancelled.load(Ordering::Relaxed),
            symbolic: self.symbolic.load(Ordering::Relaxed),
            sandwich_exact: self.sandwich_exact.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            analyzed: self.analyzed.load(Ordering::Relaxed),
            normalized_upgrades: self.normalized_upgrades.load(Ordering::Relaxed),
            static_prunes: self.static_prunes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServeStats`], extended by the cache and catalog
/// gauges when rendered by the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// See [`ServeStats::requests`].
    pub requests: u64,
    /// See [`ServeStats::loads`].
    pub loads: u64,
    /// See [`ServeStats::prepares`].
    pub prepares: u64,
    /// See [`ServeStats::evals`].
    pub evals: u64,
    /// See [`ServeStats::explains`].
    pub explains: u64,
    /// See [`ServeStats::errors`].
    pub errors: u64,
    /// See [`ServeStats::certified`].
    pub certified: u64,
    /// See [`ServeStats::compiled`].
    pub compiled: u64,
    /// See [`ServeStats::oracle`].
    pub oracle: u64,
    /// See [`ServeStats::worlds`].
    pub worlds: u64,
    /// See [`ServeStats::oracle_cancelled`].
    pub oracle_cancelled: u64,
    /// See [`ServeStats::symbolic`].
    pub symbolic: u64,
    /// See [`ServeStats::sandwich_exact`].
    pub sandwich_exact: u64,
    /// See [`ServeStats::truncated`].
    pub truncated: u64,
    /// See [`ServeStats::analyzed`].
    pub analyzed: u64,
    /// See [`ServeStats::normalized_upgrades`].
    pub normalized_upgrades: u64,
    /// See [`ServeStats::static_prunes`].
    pub static_prunes: u64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} loads={} prepares={} evals={} explains={} errors={} certified={} \
             compiled={} oracle={} worlds={} oracle_cancelled={} symbolic={} sandwich_exact={} truncated={} analyzed={} normalized_upgrades={} \
             static_prunes={}",
            self.requests,
            self.loads,
            self.prepares,
            self.evals,
            self.explains,
            self.errors,
            self.certified,
            self.compiled,
            self.oracle,
            self.worlds,
            self.oracle_cancelled,
            self.symbolic,
            self.sandwich_exact,
            self.truncated,
            self.analyzed,
            self.normalized_upgrades,
            self.static_prunes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let stats = ServeStats::new();
        ServeStats::bump(&stats.requests);
        ServeStats::bump(&stats.requests);
        ServeStats::add(&stats.worlds, 7);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.worlds, 7);
        assert_eq!(snap.errors, 0);
        let rendered = snap.to_string();
        assert!(rendered.contains("requests=2"));
        assert!(rendered.contains("worlds=7"));
    }
}
