//! The unified run configuration.
//!
//! Every entry point into the harness — [`crate::ChainHarness`], the
//! [`crate::Experiment`] driver and `diablo-core`'s benchmark runner —
//! used to carry its own copy of the same knobs (seed, execution
//! fidelity, concurrency, grace window, parameter overrides, faults,
//! signature-verification curve, storage, tracing), each with its own
//! hand-rolled "CLI wins over spec" merge. [`RunConfig`] is
//! the single resolved form of those knobs, and [`RunOverlay`] is a
//! partial layer over them; the one resolution rule lives in
//! [`RunConfig::layered`]:
//!
//! ```text
//! defaults  ←  spec overlay  ←  CLI overlay
//! ```
//!
//! Later layers win field-by-field; the fault plan is the one additive
//! exception — layers *extend* the schedule (the CLI's chaos flags pile
//! onto the spec's `fault:` section) instead of replacing it.

use diablo_net::DeploymentConfig;
use diablo_store::StorageConfig;
use diablo_telemetry::trace::TraceSample;

use crate::exec::{Concurrency, ExecMode};
use crate::faults::FaultPlan;
use crate::params::{ChainParams, SigVerify};
use crate::Chain;

/// Wall-clock (live) execution settings.
///
/// When present on a [`RunConfig`], the harness paces the event loop
/// against real time and replaces the modeled signature-verification
/// delay with actual work on a worker pool (see `crate::live`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Simulated seconds per wall-clock second (`--time-scale`).
    /// `1.0` runs in real time; `10.0` compresses a 10 s workload into
    /// roughly one wall second while keeping event *order* intact.
    pub time_scale: f64,
    /// Worker threads performing the real signature-verification-shaped
    /// work (`--live-workers`).
    pub workers: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            time_scale: 1.0,
            workers: 4,
        }
    }
}

/// The fully resolved configuration of one benchmark run.
///
/// This is what the harness executes. Build it either directly (it is a
/// plain struct with [`Default`]), or from layers of partial settings
/// with [`RunConfig::layered`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// RNG seed.
    pub seed: u64,
    /// Execution fidelity.
    pub exec_mode: ExecMode,
    /// Block-commit concurrency (worker threads for parallel execution).
    pub concurrency: Concurrency,
    /// Drain window after the last submission, in seconds.
    pub grace_secs: u64,
    /// Parameter overrides; `None` = standard parameters.
    pub params: Option<ChainParams>,
    /// Injected faults (crashes, slowdowns).
    pub faults: FaultPlan,
    /// Signature-verification cost-curve override applied on top of the
    /// resolved parameters (the spec's `sigverify:` section); `None` =
    /// the chain's standard curve.
    pub sig_verify: Option<SigVerify>,
    /// Append-only state store configuration (the spec's `storage:`
    /// section); `None` = the staged commit pipeline is off.
    pub storage: Option<StorageConfig>,
    /// Per-transaction lifecycle tracing budget (`--trace-sample`);
    /// `None` = the tracer stays off and the run is byte-identical to
    /// an untraced one.
    pub trace: Option<TraceSample>,
    /// Wall-clock execution (`--live`); `None` = the deterministic
    /// simulation, which is byte-identical to pre-live builds.
    pub live: Option<LiveConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            exec_mode: ExecMode::Profiled,
            concurrency: Concurrency::Serial,
            grace_secs: 60,
            params: None,
            faults: FaultPlan::none(),
            sig_verify: None,
            storage: None,
            trace: None,
            live: None,
        }
    }
}

impl RunConfig {
    /// Resolves `defaults ← layers[0] ← layers[1] ← …`; the canonical
    /// call is `RunConfig::layered(&[&spec_overlay, &cli_overlay])`.
    pub fn layered(layers: &[&RunOverlay]) -> RunConfig {
        let mut cfg = RunConfig::default();
        for layer in layers {
            cfg.apply(layer);
        }
        cfg
    }

    /// Applies one partial layer on top of this configuration: set
    /// fields win, unset fields keep the current value, and the fault
    /// plan is extended rather than replaced.
    pub fn apply(&mut self, layer: &RunOverlay) {
        if let Some(v) = layer.seed {
            self.seed = v;
        }
        if let Some(v) = layer.exec_mode {
            self.exec_mode = v;
        }
        if let Some(v) = layer.concurrency {
            self.concurrency = v;
        }
        if let Some(v) = layer.grace_secs {
            self.grace_secs = v;
        }
        if let Some(v) = &layer.params {
            self.params = Some(v.clone());
        }
        self.faults = std::mem::take(&mut self.faults).merged(layer.faults.clone());
        if let Some(v) = layer.sig_verify {
            self.sig_verify = Some(v);
        }
        if let Some(v) = layer.storage {
            self.storage = Some(v);
        }
        if let Some(v) = layer.trace {
            self.trace = Some(v);
        }
        if let Some(v) = layer.live {
            self.live = Some(v);
        }
    }

    /// The chain parameters this configuration resolves to on `chain`
    /// under `config`: the explicit override or the chain's standard
    /// parameters, with the `sig_verify` curve (if any) applied on top.
    pub fn resolved_params(&self, chain: Chain, config: &DeploymentConfig) -> ChainParams {
        let mut params = self
            .params
            .clone()
            .unwrap_or_else(|| ChainParams::standard(chain, config));
        if let Some(sig_verify) = self.sig_verify {
            params.sig_verify = sig_verify;
        }
        params
    }

    /// This configuration with live mode stripped: the deterministic
    /// simulation the live run is diffed against.
    pub fn simulation_twin(&self) -> RunConfig {
        let mut twin = self.clone();
        twin.live = None;
        twin
    }
}

/// One partial layer of run settings: every knob of [`RunConfig`],
/// optional.
///
/// A spec contributes one overlay ([`fault:`, `execution:`,
/// `sigverify:`, `storage:` sections), the CLI contributes another (its
/// flags); unset fields defer to the layer below. The default overlay
/// is empty and changes nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOverlay {
    /// RNG seed.
    pub seed: Option<u64>,
    /// Execution fidelity.
    pub exec_mode: Option<ExecMode>,
    /// Block-commit concurrency.
    pub concurrency: Option<Concurrency>,
    /// Drain window, seconds.
    pub grace_secs: Option<u64>,
    /// Parameter overrides.
    pub params: Option<ChainParams>,
    /// Faults added by this layer (merged into, not replacing, the
    /// layers below).
    pub faults: FaultPlan,
    /// Signature-verification cost curve.
    pub sig_verify: Option<SigVerify>,
    /// Append-only state store.
    pub storage: Option<StorageConfig>,
    /// Lifecycle-tracing budget.
    pub trace: Option<TraceSample>,
    /// Wall-clock execution.
    pub live: Option<LiveConfig>,
}

impl RunOverlay {
    /// The empty overlay (changes nothing).
    pub fn none() -> RunOverlay {
        RunOverlay::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_layers_resolve_to_defaults() {
        let cfg = RunConfig::layered(&[&RunOverlay::none(), &RunOverlay::none()]);
        assert_eq!(cfg, RunConfig::default());
    }

    #[test]
    fn later_layer_wins() {
        let spec = RunOverlay {
            seed: Some(7),
            grace_secs: Some(5),
            ..RunOverlay::none()
        };
        let cli = RunOverlay {
            seed: Some(11),
            ..RunOverlay::none()
        };
        let cfg = RunConfig::layered(&[&spec, &cli]);
        assert_eq!(cfg.seed, 11, "CLI wins over spec");
        assert_eq!(cfg.grace_secs, 5, "spec wins over default");
        assert_eq!(cfg.exec_mode, ExecMode::Profiled, "default survives");
    }

    #[test]
    fn fault_layers_extend_instead_of_replacing() {
        use diablo_sim::SimTime;
        let spec = RunOverlay {
            faults: FaultPlan::builder()
                .kill_secondary(0, SimTime::from_secs(1))
                .build(),
            ..RunOverlay::none()
        };
        let cli = RunOverlay {
            faults: FaultPlan::builder()
                .kill_secondary(1, SimTime::from_secs(2))
                .build(),
            ..RunOverlay::none()
        };
        let cfg = RunConfig::layered(&[&spec, &cli]);
        assert!(cfg.faults.kill_of_secondary(0).is_some());
        assert!(cfg.faults.kill_of_secondary(1).is_some());
    }

    #[test]
    fn simulation_twin_only_strips_live() {
        let mut cfg = RunConfig::default();
        cfg.live = Some(LiveConfig::default());
        cfg.seed = 9;
        let twin = cfg.simulation_twin();
        assert_eq!(twin.live, None);
        assert_eq!(twin.seed, 9);
    }
}
