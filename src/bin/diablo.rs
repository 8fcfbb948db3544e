//! The `diablo` command-line interface.
//!
//! Mirrors the paper's §5.3 invocation style:
//!
//! ```text
//! diablo primary --port=5000 --chain=quorum --deployment=testnet \
//!     --secondaries=2 --output=results.json --csv=results.csv --stat \
//!     workload.yaml
//! diablo secondary --primary=127.0.0.1:5000 --tag=us-east-2
//! diablo run --chain=solana --deployment=devnet --stat workload.yaml
//! diablo run --live --chain=quorum --stat workload.yaml
//! ```
//!
//! `primary` serves the distributed TCP mode and waits for
//! `--secondaries=N` connections; `secondary` connects to a primary;
//! `run` executes the whole pipeline in-process (planning threads play
//! the secondaries), or — with `--live` — over real Secondary
//! processes, real sockets and wall-clock time, diffed against the
//! deterministic simulation of the same configuration.
//!
//! The flag surface is one declarative table (`diablo::cli`); the usage
//! text is generated from it and unknown flags are errors.
//!
//! Exit codes: `0` success, `1` failure, `2` non-transient connection
//! error (a Secondary given an unresolvable `--primary` address fails
//! fast instead of retrying).

use std::net::TcpListener;
use std::process::ExitCode;

use diablo::chains::Chain;
use diablo::cli::{usage_text, Invocation};
use diablo::core::analysis::{latency_cdf_dat, throughput_series_dat};
use diablo::core::json::read_result_stats;
use diablo::core::output::{results_csv, results_json_report};
use diablo::core::primary::run_with_setup;
use diablo::core::wire::{run_secondary_with_retry, serve_primary, SecondaryError};
use diablo::core::{run_local, run_live, BenchmarkOptions, Report, Setup};
use diablo::net::DeploymentKind;

/// Exit code for errors the retry policy must not paper over: a
/// non-transient connection failure (bad address).
const EXIT_NON_TRANSIENT: u8 = 2;

/// A command failure carrying its process exit code.
struct Failure {
    code: u8,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { code: 1, message }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure {
            code: 1,
            message: message.to_string(),
        }
    }
}

/// Builds the invocation's [`BenchmarkOptions`]: the CLI overlay plus
/// the Secondary count.
fn options(inv: &Invocation) -> Result<BenchmarkOptions, String> {
    let mut options = BenchmarkOptions {
        run: inv.overlay()?,
        ..BenchmarkOptions::default()
    };
    if let Some(n) = inv.get("secondaries") {
        options.secondaries = n.parse().map_err(|_| "bad --secondaries")?;
    }
    Ok(options)
}

fn parse_common(
    inv: &Invocation,
) -> Result<(Chain, DeploymentKind, BenchmarkOptions, String), String> {
    let chain = inv
        .get("chain")
        .ok_or("missing --chain")
        .and_then(|c| Chain::parse(c).ok_or("unknown chain"))?;
    let deployment = match inv.get("deployment") {
        Some(d) => DeploymentKind::parse(d).ok_or("unknown deployment")?,
        None => DeploymentKind::Testnet,
    };
    let options = options(inv)?;
    let spec_path = inv
        .positional
        .get(1)
        .ok_or("missing workload file")?
        .clone();
    Ok((chain, deployment, options, spec_path))
}

/// The workload name a spec path reports under.
fn workload_name(spec_path: &str) -> &str {
    spec_path
        .rsplit('/')
        .next()
        .unwrap_or(spec_path)
        .trim_end_matches(".yaml")
}

fn emit(report: &Report, inv: &Invocation) -> Result<(), String> {
    if let Some(path) = inv.get("output") {
        std::fs::write(path, results_json_report(report)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = inv.get("csv") {
        std::fs::write(path, results_csv(&report.result)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = inv.get("series") {
        std::fs::write(path, throughput_series_dat(&report.result)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = inv.get("cdf") {
        std::fs::write(path, latency_cdf_dat(&report.result, 500)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = inv.get("trace-out") {
        match &report.result.trace {
            Some(set) => {
                std::fs::write(path, set.to_chrome_json()).map_err(|e| e.to_string())?;
                eprintln!("wrote {path}");
            }
            // Tracing was requested but the run armed no tracer: it was
            // compiled out (`--cfg diablo_telemetry_off`).
            None => eprintln!(
                "warning: --trace-out={path} skipped (tracer compiled out of this binary)"
            ),
        }
    }
    if inv.has("stat") {
        print!("{}", report.stats_text());
    }
    Ok(())
}

fn cmd_run(inv: &Invocation) -> Result<(), Failure> {
    // With --setup=FILE, the chain and deployment come from the setup
    // file (the paper's two-file invocation); otherwise from flags.
    if let Some(setup_path) = inv.get("setup") {
        if inv.overlay()?.live.is_some() {
            return Err("--live needs --chain (setup files describe simulated endpoints)".into());
        }
        let setup_text =
            std::fs::read_to_string(setup_path).map_err(|e| format!("{setup_path}: {e}"))?;
        let setup = Setup::parse(&setup_text).map_err(|e| e.to_string())?;
        let options = options(inv)?;
        let spec_path = inv
            .positional
            .get(1)
            .ok_or("missing workload file")?
            .clone();
        let spec = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
        let report = run_with_setup(&setup, &spec, workload_name(&spec_path), &options)?;
        return Ok(emit(&report, inv)?);
    }
    let (chain, deployment, options, spec_path) = parse_common(inv)?;
    let spec = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let name = workload_name(&spec_path);
    let report = if options.run.live.is_some() {
        // Live mode: this very binary plays the Secondaries.
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        run_live(chain, deployment, &spec, name, &options, &exe)?
    } else {
        run_local(chain, deployment, &spec, name, &options)?
    };
    Ok(emit(&report, inv)?)
}

fn cmd_primary(inv: &Invocation) -> Result<(), Failure> {
    let (chain, deployment, options, spec_path) = parse_common(inv)?;
    let spec = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let name = workload_name(&spec_path);
    let port: u16 = inv
        .get("port")
        .unwrap_or("5000")
        .parse()
        .map_err(|_| "bad --port")?;
    let listener =
        TcpListener::bind(("0.0.0.0", port)).map_err(|e| format!("bind port {port}: {e}"))?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port(); // `--port=0`: a free one
    eprintln!(
        "primary listening on port {port}, waiting for {} secondaries",
        options.secondaries
    );
    let report = serve_primary(
        &listener,
        chain,
        deployment,
        &spec,
        name,
        &options,
        options.secondaries,
    )?;
    Ok(emit(&report, inv)?)
}

fn cmd_secondary(inv: &Invocation) -> Result<(), Failure> {
    let addr = inv.get("primary").ok_or("missing --primary=<addr>")?;
    let tag = inv.get("tag").unwrap_or("untagged");
    // The connect-retry policy shares the chaos `--retry` grammar.
    let retry = inv.overlay()?.faults.retry_policy();
    let stats = run_secondary_with_retry(addr, tag, &retry).map_err(|e| Failure {
        // A bad address is not retried and must not look like a flaky
        // network: it gets its own exit code (documented in README).
        code: match &e {
            SecondaryError::Connect(c) if !c.is_transient() => EXIT_NON_TRANSIENT,
            _ => 1,
        },
        message: e.to_string(),
    })?;
    println!("{stats}");
    Ok(())
}

fn cmd_compare(inv: &Invocation) -> Result<(), Failure> {
    let a_path = inv
        .positional
        .get(1)
        .ok_or("compare needs two results.json files")?;
    let b_path = inv
        .positional
        .get(2)
        .ok_or("compare needs two results.json files")?;
    let read = |p: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        read_result_stats(&text).map_err(|e| format!("{p}: {e}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    println!("{:<16} {:>20} {:>20} {:>10}", "", a_path, b_path, "delta");
    println!("{:<16} {:>20} {:>20}", "chain", a.chain, b.chain);
    println!("{:<16} {:>20} {:>20}", "workload", a.workload, b.workload);
    println!(
        "{:<16} {:>20} {:>20} {:>+10}",
        "sent",
        a.sent,
        b.sent,
        b.sent as i64 - a.sent as i64
    );
    println!(
        "{:<16} {:>20} {:>20} {:>+10}",
        "committed",
        a.committed,
        b.committed,
        b.committed as i64 - a.committed as i64
    );
    println!(
        "{:<16} {:>20.1} {:>20.1} {:>+10.1}",
        "throughput TPS",
        a.avg_throughput,
        b.avg_throughput,
        b.avg_throughput - a.avg_throughput
    );
    println!(
        "{:<16} {:>20.2} {:>20.2} {:>+10.2}",
        "latency s",
        a.avg_latency,
        b.avg_latency,
        b.avg_latency - a.avg_latency
    );
    for (path, stats) in [(a_path, &a), (b_path, &b)] {
        if let Some(reason) = &stats.unable {
            println!("note: {path} was unable to run ({reason})");
        }
    }
    Ok(())
}

fn cmd_trace_diff(inv: &Invocation) -> Result<(), Failure> {
    let a_path = inv
        .positional
        .get(1)
        .ok_or("trace-diff needs two trace.json files")?;
    let b_path = inv
        .positional
        .get(2)
        .ok_or("trace-diff needs two trace.json files")?;
    let read =
        |p: &str| -> Result<String, String> { std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")) };
    let d = diablo::core::tracediff::diff_texts(&read(a_path)?, &read(b_path)?)?;
    print!("{}", diablo::core::tracediff::render(&d));
    Ok(())
}

fn cmd_live_diff(inv: &Invocation) -> Result<(), Failure> {
    let live_path = inv
        .positional
        .get(1)
        .ok_or("live-diff needs a live and a sim results.json file")?;
    let sim_path = inv
        .positional
        .get(2)
        .ok_or("live-diff needs a live and a sim results.json file")?;
    let read =
        |p: &str| -> Result<String, String> { std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")) };
    let d = diablo::core::livediff::diff_texts(&read(live_path)?, &read(sim_path)?)?;
    print!("{}", diablo::core::livediff::render(&d));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = match Invocation::parse(&argv) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("diablo: {e}");
            return ExitCode::FAILURE;
        }
    };
    if inv.has("help") {
        print!("{}", usage_text());
        return ExitCode::SUCCESS;
    }
    let Some(command) = inv.positional.first().map(String::as_str) else {
        eprint!("{}", usage_text());
        return ExitCode::FAILURE;
    };
    let result = match command {
        "run" => cmd_run(&inv),
        "primary" => cmd_primary(&inv),
        "secondary" => cmd_secondary(&inv),
        "compare" => cmd_compare(&inv),
        "trace-diff" => cmd_trace_diff(&inv),
        "live-diff" => cmd_live_diff(&inv),
        _ => {
            eprint!("{}", usage_text());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("diablo {command}: {failure}", failure = failure.message);
            ExitCode::from(failure.code)
        }
    }
}
