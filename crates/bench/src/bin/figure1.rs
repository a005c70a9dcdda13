//! Regenerates the paper's evaluation artefacts:
//!
//! * **Figure 1** — for every (semantics, fragment) cell, the agreement rate between
//!   naïve evaluation and (bounded) certain answers on a randomized workload;
//! * the **worked examples** of the paper (experiments E2–E9 of `DESIGN.md`).
//!
//! Usage:
//!
//! ```text
//! figure1 [--quick] [--trials N] [--seed S] [--semantics NAME] [--fragment NAME]
//!         [--threads N] [--timings] [--analyze] [--skip-table] [--skip-examples]
//! ```
//!
//! `--semantics` / `--fragment` restrict the table to one row / column; they accept
//! both the Figure 1 names and ASCII spellings (`owa`, `powerset-cwa`, `epos`,
//! `pos-g`, …) via the `FromStr` implementations on `Semantics` and `Fragment`.
//! `--threads N` validates the cells on `N` scoped threads (default `0`: on the
//! main thread); each cell is an independent deterministic task, so the table
//! is byte-identical at every thread count. `--timings` appends a per-cell
//! wall-time column to the table; it is **off** by default precisely because
//! timings vary run to run while the default table's bytes must not.
//! `--analyze` appends the static analyser's `normalized` column — trials on
//! which fragment widening upgraded the dispatch to a certified naïve pass on
//! the query's normal form.
//!
//! The output is Markdown; `EXPERIMENTS.md` records a captured run.

use nev_bench::examples::{render_examples_markdown, run_paper_examples};
use nev_bench::figure1::{render_markdown_with, run_cells, Figure1Config};
use nev_core::Semantics;
use nev_logic::Fragment;
use nev_serve::cli::parse_flag_value;

struct Options {
    config: Figure1Config,
    run_table: bool,
    run_examples: bool,
    semantics: Option<Semantics>,
    fragment: Option<Fragment>,
    threads: usize,
    timings: bool,
    analyze: bool,
}

fn usage_and_exit(code: i32) -> ! {
    println!(
        "usage: figure1 [--quick] [--trials N] [--seed S] [--semantics NAME] \
         [--fragment NAME] [--threads N] [--timings] [--analyze] [--skip-table] \
         [--skip-examples]"
    );
    std::process::exit(code);
}

fn parse_options() -> Options {
    let mut options = Options {
        config: Figure1Config::default(),
        run_table: true,
        run_examples: true,
        semantics: None,
        fragment: None,
        threads: 0,
        timings: false,
        analyze: false,
    };
    let mut args = std::env::args().skip(1);
    let mut explicit_trials = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --quick must not clobber an explicit --trials given anywhere on the
            // command line; on its own it lowers the count to the quick default.
            "--quick" => {
                if !explicit_trials {
                    options.config.trials = Figure1Config::quick().trials;
                }
            }
            "--trials" => {
                options.config.trials = parse_flag_value("--trials", args.next());
                explicit_trials = true;
            }
            "--seed" => options.config.seed = parse_flag_value("--seed", args.next()),
            "--semantics" => options.semantics = Some(parse_flag_value("--semantics", args.next())),
            "--fragment" => options.fragment = Some(parse_flag_value("--fragment", args.next())),
            "--threads" => options.threads = parse_flag_value("--threads", args.next()),
            "--timings" => options.timings = true,
            "--analyze" => options.analyze = true,
            "--skip-table" => options.run_table = false,
            "--skip-examples" => options.run_examples = false,
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    options
}

fn main() {
    let options = parse_options();

    println!("# When is naive evaluation possible? — experiment harness\n");

    if options.run_examples {
        println!("## Worked examples (E2–E9)\n");
        let results = run_paper_examples();
        print!("{}", render_examples_markdown(&results));
        let failed = results.iter().filter(|r| !r.reproduced).count();
        println!(
            "\n{} of {} examples reproduced.\n",
            results.len() - failed,
            results.len()
        );
    }

    if options.run_table {
        let scope = match (options.semantics, options.fragment) {
            (None, None) => String::new(),
            (sem, frag) => format!(
                " [{}{}{}]",
                sem.map(|s| s.to_string()).unwrap_or_default(),
                if sem.is_some() && frag.is_some() {
                    " × "
                } else {
                    ""
                },
                frag.map(|f| f.to_string()).unwrap_or_default()
            ),
        };
        let threads_note = if options.threads > 0 {
            format!(", {} validation threads", options.threads)
        } else {
            String::new()
        };
        println!(
            "## Figure 1 validation (E1){}: {} trials per cell, seed {}{}\n",
            scope, options.config.trials, options.config.seed, threads_note
        );
        // The filters are parsed enum values, so at least one cell always matches.
        // The outcomes come back in cell order at any thread count, so the
        // table bytes do not depend on --threads.
        let outcomes = run_cells(
            &options.config,
            options.semantics,
            options.fragment,
            options.threads,
        );
        print!(
            "{}",
            render_markdown_with(&outcomes, options.timings, options.analyze)
        );
        let mismatches: Vec<_> = outcomes
            .iter()
            .filter(|o| !o.satisfies_expectation())
            .collect();
        println!();
        if mismatches.is_empty() {
            println!("All cells satisfy the paper's guarantees.");
        } else {
            println!(
                "{} cell(s) violate the paper's guarantees:",
                mismatches.len()
            );
            for o in mismatches {
                println!("- {} × {}:", o.semantics, o.fragment);
                for ce in &o.counterexamples {
                    println!("    {ce}");
                }
            }
            std::process::exit(1);
        }
    }
}
