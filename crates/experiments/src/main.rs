//! Command-line entry point for regenerating the paper's tables and figures,
//! and for the parallel scenario sweep.
//!
//! ```text
//! nimbus-experiments <experiment...|all|list> [--quick] [--out DIR]
//! nimbus-experiments sweep [--threads N] [--out PATH] [CELL]...
//! ```
//!
//! Each `CELL` operand is a whole-cell [`Cell`](nimbus_experiments::Cell)
//! string (`'dctcp@48M ecn=l4s vs alone seed=1 dur=3s steady=1s'`); when any
//! are given, the sweep runs exactly those cells instead of the paper
//! matrix.
//! `--help` prints the whole spec grammar from the parsers' own option
//! tables ([`grammar_reference`](nimbus_experiments::runner::grammar_reference)).
//!
//! The sweep writes a per-cell table to stdout and a JSON report to
//! `target/sweep/sweep.json` (or `--out PATH`), and exits 1 when any cell
//! violates its invariants or event budget.  Either path exits 2 on an
//! unknown flag, and flags that name no experiment print the usage and
//! exit 2.

use nimbus_experiments::{experiment_names, run_experiment, ExperimentResult, SweepConfig};
use std::path::PathBuf;

/// The operand of `flag`, if the flag is present.  A flag present without
/// its operand — last, or followed by another `--flag` — exits 2 instead of
/// silently dropping or swallowing an argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(operand) if !operand.starts_with("--") => Some(operand),
        _ => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// Parse a flag operand, exiting with the parser's own message on failure.
fn parse_or_exit<T: std::str::FromStr>(text: &str) -> T
where
    T::Err: std::fmt::Display,
{
    text.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Print the usage, the spec grammar and the experiment names to stderr.
fn usage() {
    eprintln!("usage: nimbus-experiments <experiment...|all|list> [--quick] [--out DIR]");
    eprintln!("       nimbus-experiments sweep [--threads N] [--out PATH] [CELL]...");
    eprintln!("spec grammar (a sweep CELL is a <cell>):");
    eprintln!("{}", nimbus_experiments::runner::grammar_reference());
    eprintln!("experiments: {}", experiment_names().join(", "));
}

fn unknown_flag(arg: &str) -> ! {
    eprintln!("unknown flag: {arg}");
    std::process::exit(2);
}

fn run_sweep_command(args: &[String]) -> ! {
    let mut cfg = SweepConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = || flag_value(&args[i..], arg).expect("the flag is at index 0");
        match arg {
            "--threads" => match value().parse::<usize>() {
                Ok(n) if n > 0 => cfg.threads = Some(n),
                _ => {
                    eprintln!("invalid --threads value: {}", value());
                    std::process::exit(2);
                }
            },
            "--out" => cfg.out = PathBuf::from(value()),
            flag if flag.starts_with("--") => unknown_flag(flag),
            cell => cfg.cells.push(parse_or_exit(cell)),
        }
        // A flag with a value consumes its operand too.
        i += 1 + usize::from(matches!(arg, "--threads" | "--out"));
    }
    match nimbus_experiments::run_sweep(&cfg) {
        Ok(report) => {
            println!("{}", nimbus_experiments::sweep::report_table(&report));
            println!("wrote {}", cfg.out.display());
            if report.violated() {
                eprintln!("a cell violated its invariants or event budget (see its `viol` count)");
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "sweep" {
        run_sweep_command(&args[1..]);
    }

    let quick = args.iter().any(|a| a == "--quick");
    let out_dir =
        flag_value(&args, "--out").map_or_else(ExperimentResult::default_output_dir, PathBuf::from);

    // Every leading non-flag argument is an experiment name, so one
    // invocation can regenerate a family: `l4s_pulse l4s_coexistence --quick`.
    let names: Vec<&str> = {
        let mut names = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {}
                "--out" => i += 1,
                a if a.starts_with("--") => unknown_flag(a),
                a => names.push(a),
            }
            i += 1;
        }
        names
    };
    match names.first() {
        // Flags alone name nothing to run.
        None => {
            usage();
            std::process::exit(2);
        }
        Some(&"list") => {
            for e in experiment_names() {
                println!("{e}");
            }
            return;
        }
        Some(_) => {}
    }
    let to_run: Vec<&str> = if names.contains(&"all") {
        experiment_names()
    } else {
        names
    };

    let mut failed = false;
    for exp in to_run {
        let started = std::time::Instant::now();
        match run_experiment(exp, quick) {
            Some(result) => {
                println!("{}", result.to_table());
                match result.write_json(&out_dir) {
                    Ok(path) => println!("wrote {}", path.display()),
                    Err(e) => eprintln!("warning: could not write JSON for {exp}: {e}"),
                }
                if let Err(e) = result.write_csv(&out_dir) {
                    eprintln!("warning: could not write CSV for {exp}: {e}");
                }
                println!(
                    "({exp} finished in {:.1} s)\n",
                    started.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!("unknown experiment: {exp}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
