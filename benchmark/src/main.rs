//! The benchmark's command line.
//!
//! ```text
//! nimbus-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! nimbus-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json] [--same-code]
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object with exactly `correct`, `attempted`,
//! `failed` and `metrics`.  `--out` appends the run's full record (anchors,
//! seed, rep counts, failures with reasons, quartiles, span table) as one
//! line to FILE, so a file is a set of runs `compare` can read.

use nimbus_benchmark::report::Workload;
use nimbus_benchmark::{compare, ledger, run};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  nimbus-benchmark --workload <bulk_cubic|fig1_nimbus|fleet_churn|core_embed>
                   [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  nimbus-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json] [--same-code]";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// Split the command line; `switches` are the flags that take no value.
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) if switches.contains(&flag) => {
                    parsed.flags.push((flag.to_string(), String::new()));
                }
                Some(flag) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.push((flag.to_string(), value));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }
}

fn run_command(args: Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "out"])?;
    if let Some(word) = args.words.first() {
        return Err(format!("unexpected argument `{word}`"));
    }
    let name = args.flag("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = args
        .flag("seed")
        .map_or(Ok(1), str::parse)
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = args
        .flag("seconds")
        .map_or(Ok(25.0), str::parse)
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let traced = match args.flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };

    let report = if traced {
        ledger::traced(workload, seed, seconds)
    } else {
        run::untraced(workload, seed, seconds)
    };
    if let Some(path) = args.flag("out") {
        let record = serde_json::to_string(&report.to_value()).map_err(|e| e.to_string())?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", report.human());
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["bounds", "same-code"])?;
    let [a, b] = args.words.as_slice() else {
        return Err("compare takes exactly two files".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::bounds(&read(args.flag("bounds").unwrap_or("BENCHMARK.json"))?)?;
    let cmp = compare::compare(&read(a)?, &read(b)?, &bounds)?;
    print!("{}", cmp.text);
    let same_code_broken =
        args.flag("same-code").is_some() && cmp.counts_differing + cmp.anchors_differing > 0;
    Ok(if cmp.worse > 0 || cmp.missing > 0 || same_code_broken {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("compare") {
        argv.next();
        Args::parse(argv, &["same-code"]).and_then(compare_command)
    } else {
        Args::parse(argv, &[]).and_then(run_command)
    };
    result.unwrap_or_else(|message| {
        eprintln!("nimbus-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
