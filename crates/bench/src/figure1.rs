//! The Figure 1 experiment: per-(semantics, fragment) validation of naïve evaluation
//! against certain answers on randomized workloads (experiment E1 of `DESIGN.md`).

use std::fmt::Write as _;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use nev_core::cores::naive_is_sound_approximation;
use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::summary::{expectation, Expectation, FRAGMENTS};
use nev_core::{Semantics, WorldBounds};
use nev_gen::{
    FormulaGenerator, FormulaGeneratorConfig, InstanceGenerator, InstanceGeneratorConfig,
};
use nev_hom::core_of;
use nev_incomplete::Schema;
use nev_logic::Fragment;

/// Configuration of a Figure 1 run.
#[derive(Clone, Debug)]
pub struct Figure1Config {
    /// Number of (query, instance) trials per cell.
    pub trials: usize,
    /// Base random seed; each cell derives its own stream from it.
    pub seed: u64,
    /// The shared relational schema of instances and queries.
    pub schema: Schema,
    /// Maximum depth of generated formulas.
    pub formula_depth: usize,
    /// Query arity: `0` for Boolean-only, otherwise a mix of Boolean and k-ary.
    pub max_arity: usize,
    /// Possible-world enumeration bounds.
    pub bounds: WorldBounds,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Figure1Config {
            trials: 40,
            seed: crate::workloads::DEFAULT_SEED,
            schema: Schema::from_relations([("R", 2), ("S", 1)]),
            formula_depth: 3,
            max_arity: 1,
            bounds: WorldBounds {
                owa_max_extra_tuples: 1,
                wcwa_max_extra_tuples: 2,
                ..WorldBounds::default()
            },
        }
    }
}

impl Figure1Config {
    /// A configuration small enough for CI-style integration tests.
    pub fn quick() -> Self {
        Figure1Config {
            trials: 12,
            ..Figure1Config::default()
        }
    }

    fn instance_config(&self) -> InstanceGeneratorConfig {
        InstanceGeneratorConfig {
            schema: self.schema.clone(),
            tuples_per_relation: (1, 3),
            constant_pool: 2,
            null_pool: 2,
            null_probability: 0.5,
            codd: false,
        }
    }

    fn formula_config(&self, fragment: Fragment) -> FormulaGeneratorConfig {
        FormulaGeneratorConfig {
            fragment,
            schema: self.schema.clone(),
            constant_pool: 2,
            constant_probability: 0.2,
            max_depth: self.formula_depth,
        }
    }
}

/// The outcome of running one Figure 1 cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The semantics of the cell.
    pub semantics: Semantics,
    /// The fragment of the cell.
    pub fragment: Fragment,
    /// What the paper guarantees for the cell.
    pub expectation: Expectation,
    /// Number of trials run.
    pub trials: usize,
    /// Trials on which naïve evaluation agreed with (bounded) certain answers.
    pub agreements: usize,
    /// Trials on which the naïve answers were a subset of the certain answers
    /// (soundness; relevant for the minimal semantics and for `NotGuaranteed` cells).
    pub sound: usize,
    /// Trials on which the engine would have taken the certified naïve fast path
    /// (the validation below still runs the bounded oracle on every trial).
    pub certified_naive: usize,
    /// Trials on which that fast path would have run on the compiled `nev-exec`
    /// pipeline (the query's shape compiled; the rest fall back to the interpreter).
    pub compiled_plans: usize,
    /// Trials on which the symbolic probe would have retired the oracle: the cell is
    /// not certified, but conditional tables or the Kleene/naïve sandwich close on
    /// the trial's instance, so dispatch answers exactly with zero worlds.
    pub symbolic_plans: usize,
    /// Trials on which static normalization upgraded the dispatch: the raw query's
    /// cell carries no guarantee, but its normal form lands in a guaranteed
    /// fragment, so the engine answers with a certified naïve pass on the normal
    /// form (shown in the `--analyze` column).
    pub normalized_upgrades: usize,
    /// Human-readable descriptions of the first few disagreements found.
    pub counterexamples: Vec<String>,
    /// Wall time spent validating the cell, microseconds. Never part of the
    /// default table rendering (timings vary run to run; the table must stay
    /// byte-identical at every thread count) — shown only under `--timings`.
    pub wall_us: u64,
}

impl CellOutcome {
    /// Did every trial agree?
    pub fn fully_agrees(&self) -> bool {
        self.agreements == self.trials
    }

    /// The agreement rate in `[0, 1]`.
    pub fn agreement_rate(&self) -> f64 {
        if self.trials == 0 {
            1.0
        } else {
            self.agreements as f64 / self.trials as f64
        }
    }

    /// Does the outcome satisfy the paper's guarantee for this cell?
    ///
    /// * `Works` cells must agree on every trial;
    /// * `WorksOverCores` cells must agree on every trial (the harness evaluates them
    ///   on cores) *and* be sound on every trial;
    /// * `NotGuaranteed` cells always satisfy the (absent) guarantee.
    pub fn satisfies_expectation(&self) -> bool {
        match self.expectation {
            Expectation::Works => self.fully_agrees(),
            Expectation::WorksOverCores => self.fully_agrees() && self.sound == self.trials,
            Expectation::NotGuaranteed => true,
        }
    }
}

/// Runs one cell of Figure 1: `trials` random (query, instance) pairs of the cell's
/// fragment, compared under the cell's semantics.
///
/// For `WorksOverCores` cells the random instance is replaced by its core before the
/// comparison (Corollary 10.12); soundness (naïve ⊆ certain) is additionally recorded
/// on the *original* instance (Proposition 10.13).
pub fn run_cell(semantics: Semantics, fragment: Fragment, config: &Figure1Config) -> CellOutcome {
    let cell_timer = nev_obs::Timer::start();
    let expectation = expectation(semantics, fragment);
    let cell_seed = config
        .seed
        .wrapping_mul(31)
        .wrapping_add(semantics as u64 * 101 + fragment as u64 * 7);
    let mut instances = InstanceGenerator::new(config.instance_config(), cell_seed);
    let mut formulas = FormulaGenerator::new(config.formula_config(fragment), cell_seed ^ 0xf1f1);
    let engine = CertainEngine::with_bounds(config.bounds.clone());

    let mut agreements = 0;
    let mut sound = 0;
    let mut certified_naive = 0;
    let mut compiled_plans = 0;
    let mut symbolic_plans = 0;
    let mut normalized_upgrades = 0;
    let mut counterexamples = Vec::new();

    for trial in 0..config.trials {
        let raw_instance = instances.generate();
        let arity = if config.max_arity == 0 {
            0
        } else {
            trial % (config.max_arity + 1)
        };
        let query = if arity == 0 {
            formulas.generate_sentence()
        } else {
            formulas.generate_query(arity)
        };

        let instance = if expectation == Expectation::WorksOverCores {
            core_of(&raw_instance)
        } else {
            raw_instance.clone()
        };

        // `compare` (not `evaluate`) on purpose: the harness *checks* the theorems
        // the engine's certified fast path assumes, so it always runs the bounded
        // oracle. The plan is still recorded, witnessing what dispatch would do.
        let prepared = PreparedQuery::new(query.clone());
        let plan = engine.plan(&instance, semantics, &prepared);
        if plan.is_certified() {
            certified_naive += 1;
        }
        if plan.is_compiled() {
            compiled_plans += 1;
        }
        if plan.is_normalized() {
            normalized_upgrades += 1;
        }
        if engine
            .plan_with_symbolic(&instance, semantics, &prepared)
            .is_symbolic()
        {
            symbolic_plans += 1;
        }
        let report = engine.compare(&instance, semantics, &prepared);
        if report.agrees() {
            agreements += 1;
        } else if counterexamples.len() < 3 {
            counterexamples.push(format!(
                "query `{}` on instance `{}`: naive={:?} certain={:?}",
                query, instance, report.naive, report.certain
            ));
        }
        if naive_is_sound_approximation(&raw_instance, &query, semantics, &config.bounds) {
            sound += 1;
        }
    }

    CellOutcome {
        semantics,
        fragment,
        expectation,
        trials: config.trials,
        agreements,
        sound,
        certified_naive,
        compiled_plans,
        symbolic_plans,
        normalized_upgrades,
        counterexamples,
        wall_us: cell_timer.elapsed_us(),
    }
}

/// The (semantics, fragment) cells matching the optional filters (`None` keeps
/// every row resp. column), in Figure 1 order. This is the work-list
/// [`run_cells`] hands out to its threads; each cell is an independent
/// deterministic task, so the assembled table is identical at any thread count.
pub fn cell_pairs(
    semantics_filter: Option<Semantics>,
    fragment_filter: Option<Fragment>,
) -> Vec<(Semantics, Fragment)> {
    let mut out = Vec::new();
    for semantics in Semantics::ALL {
        if semantics_filter.is_some_and(|s| s != semantics) {
            continue;
        }
        for fragment in FRAGMENTS {
            if fragment_filter.is_some_and(|f| f != fragment) {
                continue;
            }
            out.push((semantics, fragment));
        }
    }
    out
}

/// Runs the cells of Figure 1 matching the optional semantics / fragment filters
/// (`None` keeps every row resp. column), in [`cell_pairs`] order.
///
/// `threads = 0` runs every cell on the calling thread. `threads = N ≥ 1`
/// spawns `min(N, cells)` scoped threads that take cells off one shared
/// cursor; the outcomes come back in cell order, so the result does not depend
/// on `threads`. A panicking cell re-raises its panic on the calling thread.
pub fn run_cells(
    config: &Figure1Config,
    semantics_filter: Option<Semantics>,
    fragment_filter: Option<Fragment>,
    threads: usize,
) -> Vec<CellOutcome> {
    let pairs = cell_pairs(semantics_filter, fragment_filter);
    let run =
        |&(semantics, fragment): &(Semantics, Fragment)| run_cell(semantics, fragment, config);
    if threads == 0 {
        return pairs.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<(usize, CellOutcome)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(pairs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // relaxed: the cursor only hands out distinct indices;
                        // outcomes return through `join`, which synchronises.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(pair) = pairs.get(index) else {
                            return done;
                        };
                        done.push((index, run(pair)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    outcomes.sort_unstable_by_key(|&(index, _)| index);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Runs every cell of Figure 1 on the calling thread.
pub fn run_all_cells(config: &Figure1Config) -> Vec<CellOutcome> {
    run_cells(config, None, None, 0)
}

/// Renders cell outcomes as a Markdown table (the regenerated Figure 1).
///
/// The default rendering deliberately omits [`CellOutcome::wall_us`] so the
/// table bytes depend only on the seed, never on the machine or the thread
/// count. [`render_markdown_timed`] adds the wall-time column on request.
pub fn render_markdown(outcomes: &[CellOutcome]) -> String {
    render_figure1_table(outcomes, false, false)
}

/// [`render_markdown`] plus a trailing per-cell `wall time` column — the
/// `figure1 --timings` rendering. Timings vary run to run, so this variant is
/// opt-in and never used where byte-identity is asserted.
pub fn render_markdown_timed(outcomes: &[CellOutcome]) -> String {
    render_figure1_table(outcomes, true, false)
}

/// The `figure1 --analyze`/`--timings` rendering: `analyze` appends the static
/// analyser's `normalized` column (trials on which fragment widening upgraded
/// the dispatch to a certified pass on the normal form), `timings` the per-cell
/// wall-time column. Both are deterministic except for wall time.
pub fn render_markdown_with(outcomes: &[CellOutcome], timings: bool, analyze: bool) -> String {
    render_figure1_table(outcomes, timings, analyze)
}

fn render_figure1_table(outcomes: &[CellOutcome], timings: bool, analyze: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| semantics | fragment | paper | agreement | sound | certified plan | compiled | symbolic | status |{}{}",
        if analyze { " normalized |" } else { "" },
        if timings { " wall time |" } else { "" }
    );
    let _ = writeln!(
        s,
        "|---|---|---|---|---|---|---|---|---|{}{}",
        if analyze { "---|" } else { "" },
        if timings { "---|" } else { "" }
    );
    for o in outcomes {
        let paper = match o.expectation {
            Expectation::Works => "works",
            Expectation::WorksOverCores => "works over cores",
            Expectation::NotGuaranteed => "no guarantee",
        };
        let status = if o.satisfies_expectation() {
            if o.expectation == Expectation::NotGuaranteed && !o.fully_agrees() {
                "counterexamples found (expected)"
            } else {
                "ok"
            }
        } else {
            "MISMATCH"
        };
        let _ = write!(
            s,
            "| {} | {} | {} | {}/{} | {}/{} | {}/{} | {}/{} | {}/{} | {} |",
            o.semantics,
            o.fragment,
            paper,
            o.agreements,
            o.trials,
            o.sound,
            o.trials,
            o.certified_naive,
            o.trials,
            o.compiled_plans,
            o.trials,
            o.symbolic_plans,
            o.trials,
            status
        );
        if analyze {
            let _ = write!(s, " {}/{} |", o.normalized_upgrades, o.trials);
        }
        if timings {
            let _ = write!(s, " {} |", render_wall_time(o.wall_us));
        }
        s.push('\n');
    }
    s
}

/// Human-readable wall time: microseconds below 1 ms, otherwise milliseconds
/// with one decimal. Only used by the opt-in `--timings` column.
fn render_wall_time(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else {
        format!("{}.{} ms", us / 1_000, (us % 1_000) / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        assert!(Figure1Config::quick().trials < Figure1Config::default().trials);
    }

    #[test]
    fn owa_ucq_cell_agrees_on_a_quick_run() {
        let config = Figure1Config {
            trials: 6,
            ..Figure1Config::quick()
        };
        let outcome = run_cell(Semantics::Owa, Fragment::ExistentialPositive, &config);
        assert!(outcome.fully_agrees(), "{:?}", outcome.counterexamples);
        assert!(outcome.satisfies_expectation());
        assert!((outcome.agreement_rate() - 1.0).abs() < f64::EPSILON);
        // A Works cell dispatches to the certified fast path on every trial.
        assert_eq!(outcome.certified_naive, outcome.trials);
    }

    #[test]
    fn cell_filters_select_rows_and_columns() {
        let config = Figure1Config {
            trials: 1,
            ..Figure1Config::quick()
        };
        let row = run_cells(&config, Some(Semantics::Owa), None, 0);
        assert_eq!(row.len(), FRAGMENTS.len());
        assert!(row.iter().all(|o| o.semantics == Semantics::Owa));
        let cell = run_cells(
            &config,
            Some(Semantics::Cwa),
            Some(Fragment::ExistentialPositive),
            8,
        );
        assert_eq!(cell.len(), 1);
        assert_eq!(cell[0].semantics, Semantics::Cwa);
        assert_eq!(cell[0].fragment, Fragment::ExistentialPositive);
    }

    #[test]
    fn markdown_rendering_contains_every_cell() {
        let outcomes = vec![CellOutcome {
            semantics: Semantics::Owa,
            fragment: Fragment::ExistentialPositive,
            expectation: Expectation::Works,
            trials: 3,
            agreements: 3,
            sound: 3,
            certified_naive: 3,
            compiled_plans: 2,
            symbolic_plans: 1,
            normalized_upgrades: 1,
            counterexamples: vec![],
            wall_us: 1_234,
        }];
        let md = render_markdown(&outcomes);
        assert!(md.contains("OWA"));
        assert!(md.contains("∃Pos"));
        assert!(md.contains("3/3"));
        assert!(md.contains("ok"));
        // The default table never leaks wall time: its bytes must be stable
        // across runs and thread counts.
        assert!(!md.contains("wall time"));
        assert!(!md.contains("ms |"));
        // ...and never the opt-in analyzer column either.
        assert!(!md.contains("normalized"));
        let timed = render_markdown_timed(&outcomes);
        assert!(timed.contains("| wall time |"));
        assert!(timed.contains("| 1.2 ms |"));
        // Identical except for the extra column.
        assert_eq!(timed.lines().count(), md.lines().count());
        let analyzed = render_markdown_with(&outcomes, false, true);
        assert!(analyzed.contains("| normalized |"));
        assert!(analyzed.contains("| 1/3 |"));
        assert_eq!(analyzed.lines().count(), md.lines().count());
    }

    #[test]
    fn cells_record_their_wall_time() {
        let config = Figure1Config {
            trials: 1,
            ..Figure1Config::quick()
        };
        let outcome = run_cell(Semantics::Owa, Fragment::ExistentialPositive, &config);
        assert!(outcome.wall_us > 0, "a trial takes measurable time");
    }
}
