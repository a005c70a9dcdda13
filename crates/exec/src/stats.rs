//! Execution telemetry: the `ExecStats` counter block.

use std::fmt;

/// Counters describing one (or several, merged) compiled-execution passes.
///
/// The engine (`nev-core`) surfaces these next to its `worlds_enumerated` /
/// `enumeration_passes` telemetry, so a caller can see *how* an answer was produced:
/// how much base data was scanned, how much hashing the joins did, and whether any
/// evaluation had to fall back to the tree-walking interpreter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Base-relation rows read by scans and index builds.
    pub rows_scanned: u64,
    /// Hash-table probes performed by joins, anti-joins and index lookups.
    pub hash_probes: u64,
    /// Hash indexes built over base relations (keyed on bound columns).
    pub index_builds: u64,
    /// Rows produced by intermediate operators (joins, unions, pads, complements).
    pub intermediate_rows: u64,
    /// Evaluations routed to the tree-walking interpreter because the query has no
    /// compiled form (the compiler rejected its shape).
    pub fallbacks: u64,
    /// Rewrite rules the `nev-opt` optimiser fired while producing the executed
    /// plan (compile-time; replayed into the stats of every execution so callers
    /// see which plan shape answered them).
    pub rules_fired: u64,
    /// Join groups whose execution order differed from the written (syntactic)
    /// order because the cost-based greedy search chose a cheaper one.
    pub joins_reordered: u64,
    /// The cost model's estimate of the root plan's output rows, summed over the
    /// executions merged into this block (compare with `intermediate_rows` to see
    /// how far off the uniformity assumptions were).
    pub estimated_rows: u64,
}

impl ExecStats {
    /// A zeroed counter block.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// The counter block recording exactly one interpreter fallback.
    pub fn fallback() -> Self {
        ExecStats {
            fallbacks: 1,
            ..ExecStats::default()
        }
    }

    /// Adds another counter block into this one (used to aggregate the per-world
    /// executions of the bounded oracle, or a whole batch).
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.hash_probes += other.hash_probes;
        self.index_builds += other.index_builds;
        self.intermediate_rows += other.intermediate_rows;
        self.fallbacks += other.fallbacks;
        self.rules_fired += other.rules_fired;
        self.joins_reordered += other.joins_reordered;
        self.estimated_rows += other.estimated_rows;
    }

    /// Returns `true` iff every counter is zero (no compiled work, no fallbacks).
    pub fn is_empty(&self) -> bool {
        *self == ExecStats::default()
    }
}

/// Wall-clock timings of one (or several, merged) compiled-execution passes,
/// in microseconds, split along the executor's phase boundaries.
///
/// Unlike [`ExecStats`], whose counters are a pure function of the data (and
/// therefore pinned byte-identical from run to run by the determinism suite),
/// timings vary run to run — so `ExecTimings` deliberately compares
/// **equal to every other `ExecTimings`**. Result types can keep deriving
/// `PartialEq`/`Eq` and every existing telemetry-parity assertion stays exact.
/// The phase counts are kept beside the `_us` fields, so a phase that ran is
/// known to have run even when its timer read zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecTimings {
    /// Time in relation scans.
    pub scan_us: u64,
    /// Time building hash-join tables.
    pub join_build_us: u64,
    /// Time probing hash-join tables.
    pub join_probe_us: u64,
    /// Relation scans executed.
    pub scans: u64,
    /// Hash-join tables built.
    pub join_builds: u64,
    /// Hash-join probe passes executed.
    pub join_probes: u64,
}

impl PartialEq for ExecTimings {
    fn eq(&self, _other: &ExecTimings) -> bool {
        true // telemetry: never part of a result's value (see type docs)
    }
}

impl Eq for ExecTimings {}

impl ExecTimings {
    /// Adds another timing block into this one.
    pub fn merge(&mut self, other: &ExecTimings) {
        self.scan_us += other.scan_us;
        self.join_build_us += other.join_build_us;
        self.join_probe_us += other.join_probe_us;
        self.scans += other.scans;
        self.join_builds += other.join_builds;
        self.join_probes += other.join_probes;
    }

    /// Total measured execution time across the phases, microseconds.
    pub fn total_us(&self) -> u64 {
        self.scan_us + self.join_build_us + self.join_probe_us
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} probes={} indexes={} intermediate={} fallbacks={} rules={} \
             reordered={} estimated={}",
            self.rows_scanned,
            self.hash_probes,
            self.index_builds,
            self.intermediate_rows,
            self.fallbacks,
            self.rules_fired,
            self.joins_reordered,
            self.estimated_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let mut a = ExecStats {
            rows_scanned: 1,
            hash_probes: 2,
            index_builds: 3,
            intermediate_rows: 4,
            fallbacks: 0,
            rules_fired: 2,
            joins_reordered: 1,
            estimated_rows: 8,
        };
        a.merge(&ExecStats::fallback());
        a.merge(&ExecStats {
            rows_scanned: 10,
            ..ExecStats::default()
        });
        assert_eq!(a.rows_scanned, 11);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.rules_fired, 2);
        assert_eq!(a.joins_reordered, 1);
        assert_eq!(a.estimated_rows, 8);
        assert!(!a.is_empty());
        assert!(ExecStats::new().is_empty());
    }

    #[test]
    fn timings_merge_but_never_differ_under_eq() {
        let mut a = ExecTimings {
            scan_us: 5,
            join_build_us: 7,
            join_probe_us: 11,
            scans: 2,
            ..ExecTimings::default()
        };
        a.merge(&ExecTimings {
            scan_us: 1,
            join_build_us: 2,
            join_probe_us: 3,
            scans: 1,
            join_builds: 1,
            join_probes: 1,
        });
        assert_eq!(a.total_us(), 29);
        assert_eq!((a.scans, a.join_builds, a.join_probes), (3, 1, 1));
        // Telemetry equality is always true: timings never split results.
        assert_eq!(a, ExecTimings::default());
    }

    #[test]
    fn display_lists_all_counters() {
        let s = ExecStats::fallback().to_string();
        assert!(s.contains("fallbacks=1"));
        assert!(s.contains("scanned=0"));
        assert!(s.contains("rules=0"));
        assert!(s.contains("reordered=0"));
        assert!(s.contains("estimated=0"));
    }
}
