//! Live mode: the distributed pipeline over real processes, real
//! sockets and wall-clock time.
//!
//! `diablo run --live` turns the in-process benchmark into a real
//! deployment on localhost: the Primary binds a TCP listener, spawns
//! one OS process per Secondary (the `diablo` binary itself, in
//! `secondary` mode), and serves the *existing* wire protocol
//! (`crate::wire`) over those sockets. The harness underneath runs in
//! wall-clock time — events are paced against real time and the modeled
//! signature-verification delay is replaced by actual thread-pool work
//! (`diablo_chains::live`).
//!
//! Because a live run resolves the *same* `RunConfig` as a simulated
//! one, the run is immediately rerun as its deterministic simulation
//! twin (`RunConfig::simulation_twin` — the identical configuration
//! with `live` stripped), and the two are compared by
//! [`crate::livediff`]: per-phase latency ratios, throughput, and one
//! collapsed fidelity score that lands in the results JSON.

use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};

use diablo_chains::Chain;
use diablo_net::DeploymentKind;

use crate::livediff;
use crate::primary::{check_secondaries, run_local, BenchmarkOptions};
use crate::report::Report;
use crate::spec::BenchmarkSpec;
use crate::tracediff;
use crate::wire::serve_primary;

/// The spawned Secondary processes; any still running are killed on
/// drop so a failed Primary never leaks children.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// Runs a benchmark live: real Secondary processes (`secondary_exe
/// secondary --primary=… --tag=live-K`) over real TCP, the harness in
/// wall-clock time, then the deterministic simulation twin of the same
/// resolved configuration, returning the live report with the fidelity
/// diff attached.
///
/// `options.run.live` must be set (the `--live` flag); everything else
/// resolves exactly as in a simulated run: `defaults ← spec ← CLI`.
pub fn run_live(
    chain: Chain,
    deployment: DeploymentKind,
    spec_text: &str,
    workload_name: &str,
    options: &BenchmarkOptions,
    secondary_exe: &Path,
) -> Result<Report, String> {
    if options.run.live.is_none() {
        return Err("run_live requires the live layer (--live) to be set".to_string());
    }
    // Validate the spec and the Secondary count before spawning anything.
    let spec = BenchmarkSpec::parse(spec_text).map_err(|e| e.to_string())?;
    check_secondaries(options.secondaries, &spec).map_err(|e| e.to_string())?;

    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    // The listener is bound before any child starts, so a healthy child
    // connects on its first dial; the retry policy covers scheduler
    // hiccups, not ordering.
    let mut children = Children(Vec::with_capacity(options.secondaries));
    for k in 0..options.secondaries {
        let child = Command::new(secondary_exe)
            .arg("secondary")
            .arg(format!("--primary={addr}"))
            .arg(format!("--tag=live-{k}"))
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", secondary_exe.display()))?;
        children.0.push(child);
    }

    let mut live_report = serve_primary(
        &listener,
        chain,
        deployment,
        spec_text,
        workload_name,
        options,
        options.secondaries,
    )?;

    for (k, child) in children.0.iter_mut().enumerate() {
        let status = child.wait().map_err(|e| format!("wait secondary {k}: {e}"))?;
        if !status.success() {
            eprintln!("warning: live secondary {k} exited with {status}");
            diablo_telemetry::counter!("live.secondary.failed", 1);
        }
    }

    // The deterministic twin: the same resolved configuration with the
    // live layer stripped (`RunConfig::simulation_twin` semantics,
    // expressed at the overlay level). `run_local` resets the global
    // telemetry recorder, so the live snapshot captured above is the
    // live run's alone.
    let mut twin_options = options.clone();
    twin_options.run.live = None;
    let sim_report = run_local(chain, deployment, spec_text, workload_name, &twin_options)?;

    // When both runs traced transactions, align their lifecycles with
    // the trace-diff machinery: same seed → same sampled ids → total
    // alignment, and the per-stage deltas say where wall-clock reality
    // diverged from the model.
    let trace_stages = match (&live_report.result.trace, &sim_report.result.trace) {
        (Some(live_trace), Some(sim_trace)) => tracediff::diff_texts(
            &live_trace.to_chrome_json(),
            &sim_trace.to_chrome_json(),
        )
        .map(|d| d.stages)
        .unwrap_or_default(),
        _ => Vec::new(),
    };

    live_report.live_diff = Some(livediff::diff_with_traces(
        &livediff::summarize(&live_report),
        &livediff::summarize(&sim_report),
        trace_stages,
    ));
    Ok(live_report)
}
