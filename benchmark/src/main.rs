//! Command line of the benchmark; see `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: `benchmark/out/` is relative to it.

use std::path::Path;
use std::process::ExitCode;

use diablo_hostbench::{result_line, results_json, run, workloads, Options, Protocol};

const USAGE: &str =
    "usage: diablo-hostbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]";
const OUT_DIR: &str = "benchmark/out";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20.0,
        trace: true,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => options
                .workloads
                .push(workloads::by_name(value).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (known: {})", known.join(", "))
                })?),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if options.workloads.is_empty() {
        options.workloads = workloads::ALL.iter().collect();
    }
    Ok(options)
}

fn write_outputs(reports: &[diablo_hostbench::Report], options: &Options) -> std::io::Result<()> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("results.json"), results_json(reports, options))?;
    if options.trace {
        for report in reports {
            let file = format!("trace_{}.json", report.workload.name);
            std::fs::write(out.join(file), report.spans.to_json())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let reports = run(&options, &Protocol::FULL);
    for report in &reports {
        for error in &report.errors {
            eprintln!("{}: FAILED: {error}", report.workload.name);
        }
        for metric in report.end_to_end.iter().chain(&report.per_layer) {
            println!(
                "{} {} {} {}",
                report.workload.name, metric.name, metric.value, metric.unit
            );
        }
    }
    if let Err(error) = write_outputs(&reports, &options) {
        eprintln!("cannot write {OUT_DIR}: {error}");
        return ExitCode::from(1);
    }
    println!("{}", result_line(&reports, options.trace));
    ExitCode::SUCCESS
}
