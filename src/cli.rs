//! The declarative command-line surface of the `diablo` binary.
//!
//! Every flag the binary accepts is one row of [`FLAGS`]: its name, its
//! value shape, the group it is documented under and whether it repeats.
//! Parsing ([`Invocation::parse`]) validates against the table (unknown
//! flags are errors, not silently ignored), the usage text
//! ([`usage_text`]) is generated from the same table, and
//! [`Invocation::overlay`] turns the flags into the invocation's
//! [`RunOverlay`] — the CLI layer of the one resolution rule
//! `defaults ← spec ← CLI` (see `diablo_chains::RunConfig`).

use diablo_chains::{Concurrency, ExecMode, LiveConfig, RunOverlay};
use diablo_sim::SimTime;
use diablo_telemetry::trace::TraceSample;

/// What kind of value a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// A bare switch: `--stat`.
    Switch,
    /// A value flag: `--seed=N`. The string is the usage placeholder.
    Value(&'static str),
}

/// The section a flag is documented under in the generated usage text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagGroup {
    /// Chain/deployment selection and run-wide knobs.
    Common,
    /// Block-commit execution (threads, scheduler, fidelity).
    Execution,
    /// The staged commit pipeline (state store).
    Storage,
    /// Per-transaction lifecycle tracing.
    Tracing,
    /// Fault injection (chaos flags).
    Chaos,
    /// Wall-clock (live) mode.
    Live,
    /// Report emission.
    Output,
    /// Distributed (TCP) mode.
    Net,
}

impl FlagGroup {
    fn title(self) -> &'static str {
        match self {
            FlagGroup::Common => "common flags",
            FlagGroup::Execution => {
                "execution flags (same grammar as the spec's `execution:` section; \
                 results\nare bit-identical to serial at any thread count, see \
                 docs/EXECUTION.md)"
            }
            FlagGroup::Storage => {
                "storage flags (same grammar as the spec's `storage:` section; roots \
                 are\nidentical at every prune mode, see docs/STORAGE.md)"
            }
            FlagGroup::Tracing => {
                "tracing flags (deterministic per-transaction lifecycle traces, see \
                 docs/TRACING.md)"
            }
            FlagGroup::Chaos => {
                "chaos flags (repeatable; same grammar as the spec's `fault:` section)"
            }
            FlagGroup::Live => {
                "live flags (wall-clock mode over real processes and sockets, see \
                 docs/LIVE.md)"
            }
            FlagGroup::Output => "output flags",
            FlagGroup::Net => "distributed-mode flags",
        }
    }

    const ALL: [FlagGroup; 8] = [
        FlagGroup::Common,
        FlagGroup::Execution,
        FlagGroup::Storage,
        FlagGroup::Tracing,
        FlagGroup::Chaos,
        FlagGroup::Live,
        FlagGroup::Output,
        FlagGroup::Net,
    ];
}

/// One row of the flag table.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag name, without the leading `--`.
    pub name: &'static str,
    /// Switch or value (with its usage placeholder).
    pub kind: FlagKind,
    /// Usage-text section.
    pub group: FlagGroup,
    /// Whether the flag may appear more than once (chaos directives).
    pub repeatable: bool,
    /// One-line help.
    pub help: &'static str,
}

const fn flag(
    name: &'static str,
    kind: FlagKind,
    group: FlagGroup,
    help: &'static str,
) -> FlagSpec {
    FlagSpec {
        name,
        kind,
        group,
        repeatable: false,
        help,
    }
}

/// Every flag the binary accepts, in documentation order.
pub const FLAGS: &[FlagSpec] = &[
    // Common.
    flag(
        "chain",
        FlagKind::Value("NAME"),
        FlagGroup::Common,
        "blockchain under test (required unless --setup)",
    ),
    flag(
        "deployment",
        FlagKind::Value("NAME"),
        FlagGroup::Common,
        "deployment scenario (default: testnet)",
    ),
    flag(
        "setup",
        FlagKind::Value("FILE"),
        FlagGroup::Common,
        "setup file naming the chain and endpoints (the paper's two-file invocation)",
    ),
    flag(
        "secondaries",
        FlagKind::Value("N"),
        FlagGroup::Common,
        "number of load-generating Secondaries, 1 to the spec's client count (default: 2, or 1 for one client)",
    ),
    flag(
        "seed",
        FlagKind::Value("N"),
        FlagGroup::Common,
        "RNG seed of the run (default: 42)",
    ),
    flag(
        "grace",
        FlagKind::Value("SECS"),
        FlagGroup::Common,
        "drain window after the last submission (default: 60)",
    ),
    flag(
        "help",
        FlagKind::Switch,
        FlagGroup::Common,
        "print this usage text",
    ),
    // Execution.
    flag(
        "exec-mode",
        FlagKind::Value("profiled|exact"),
        FlagGroup::Execution,
        "execution fidelity; exact interprets every call (required for the block \
         executors to engage)",
    ),
    flag(
        "threads",
        FlagKind::Value("N"),
        FlagGroup::Execution,
        "block-commit worker threads (alone selects the static parallel scheduler)",
    ),
    flag(
        "execution",
        FlagKind::Value("MODE"),
        FlagGroup::Execution,
        "serial | parallel | optimistic",
    ),
    // Storage.
    flag(
        "store",
        FlagKind::Switch,
        FlagGroup::Storage,
        "persist blocks/receipts/state in the staged commit pipeline",
    ),
    flag(
        "prune",
        FlagKind::Value("MODE"),
        FlagGroup::Storage,
        "full | distance=N | before=N (implies --store)",
    ),
    flag(
        "segment-blocks",
        FlagKind::Value("N"),
        FlagGroup::Storage,
        "blocks per static-file segment (implies --store)",
    ),
    flag(
        "hot-pages",
        FlagKind::Value("N"),
        FlagGroup::Storage,
        "decoded-page cap of the flat account/storage tables (implies --store)",
    ),
    // Tracing.
    flag(
        "trace-sample",
        FlagKind::Value("N|all"),
        FlagGroup::Tracing,
        "trace the N deterministically sampled transactions (or every one)",
    ),
    flag(
        "trace-out",
        FlagKind::Value("FILE"),
        FlagGroup::Tracing,
        "write the traces as Chrome Trace Event JSON (implies --trace-sample)",
    ),
    // Chaos (repeatable).
    FlagSpec {
        name: "crash",
        kind: FlagKind::Value("NODES@AT[..RECOVER]"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "crash nodes, optionally recovering",
    },
    FlagSpec {
        name: "partition",
        kind: FlagKind::Value("GRP/GRP@FROM..UNTIL"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "split the network into components",
    },
    FlagSpec {
        name: "loss",
        kind: FlagKind::Value("RATE@FROM..UNTIL"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "drop consensus messages (optionally ,link=A-B)",
    },
    FlagSpec {
        name: "corrupt",
        kind: FlagKind::Value("RATE@FROM..UNTIL"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "corrupt client submissions",
    },
    FlagSpec {
        name: "slowdown",
        kind: FlagKind::Value("FACTOR@AT"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "stretch network delays",
    },
    FlagSpec {
        name: "kill-secondary",
        kind: FlagKind::Value("IDX@AT"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "kill a load-generating worker",
    },
    FlagSpec {
        name: "retry",
        kind: FlagKind::Value("AxB_MS/T_MS"),
        group: FlagGroup::Chaos,
        repeatable: true,
        help: "client retry policy (attempts x backoff / timeout)",
    },
    // Live.
    flag(
        "live",
        FlagKind::Switch,
        FlagGroup::Live,
        "run over real processes, sockets and wall-clock time, then diff against \
         the deterministic simulation of the same configuration",
    ),
    flag(
        "time-scale",
        FlagKind::Value("F"),
        FlagGroup::Live,
        "simulated seconds per wall second (implies --live; default: 1.0)",
    ),
    flag(
        "live-workers",
        FlagKind::Value("N"),
        FlagGroup::Live,
        "signature-verification worker threads (implies --live; default: 4)",
    ),
    // Output.
    flag(
        "output",
        FlagKind::Value("FILE"),
        FlagGroup::Output,
        "write the results JSON",
    ),
    flag(
        "csv",
        FlagKind::Value("FILE"),
        FlagGroup::Output,
        "write the per-transaction CSV",
    ),
    flag(
        "series",
        FlagKind::Value("FILE"),
        FlagGroup::Output,
        "write the throughput time series (gnuplot .dat)",
    ),
    flag(
        "cdf",
        FlagKind::Value("FILE"),
        FlagGroup::Output,
        "write the latency CDF (gnuplot .dat)",
    ),
    flag(
        "stat",
        FlagKind::Switch,
        FlagGroup::Output,
        "print the statistics block to standard output",
    ),
    // Net.
    flag(
        "port",
        FlagKind::Value("P"),
        FlagGroup::Net,
        "primary: TCP port to listen on (default: 5000)",
    ),
    flag(
        "primary",
        FlagKind::Value("ADDR"),
        FlagGroup::Net,
        "secondary: address of the primary",
    ),
    flag(
        "tag",
        FlagKind::Value("ZONE"),
        FlagGroup::Net,
        "secondary: location tag (default: untagged)",
    ),
];

/// Looks a flag up in the table.
pub fn flag_spec(name: &str) -> Option<&'static FlagSpec> {
    FLAGS.iter().find(|f| f.name == name)
}

/// A parsed, table-validated invocation.
#[derive(Debug, Clone, Default)]
pub struct Invocation {
    /// `(flag, value)` pairs in invocation order; switches carry "true".
    pub flags: Vec<(String, String)>,
    /// Positional arguments (the subcommand and its file operands).
    pub positional: Vec<String>,
}

impl Invocation {
    /// Parses and validates `argv` (without the program name) against
    /// the flag table. Unknown flags, switches given values and value
    /// flags missing them are errors.
    pub fn parse(argv: &[String]) -> Result<Invocation, String> {
        let mut inv = Invocation::default();
        for arg in argv {
            let Some(rest) = arg.strip_prefix("--") else {
                inv.positional.push(arg.clone());
                continue;
            };
            let (key, value) = match rest.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (rest, None),
            };
            let spec = flag_spec(key)
                .ok_or_else(|| format!("unknown flag --{key} (see `diablo --help`)"))?;
            let value = match (spec.kind, value) {
                (FlagKind::Switch, None) => "true".to_string(),
                (FlagKind::Switch, Some(_)) => {
                    return Err(format!("--{key} takes no value"));
                }
                (FlagKind::Value(placeholder), None) => {
                    return Err(format!("--{key} needs a value: --{key}={placeholder}"));
                }
                (FlagKind::Value(_), Some(v)) => v.to_string(),
            };
            inv.flags.push((key.to_string(), value));
        }
        Ok(inv)
    }

    /// The last value given for `key`, if any (last wins, like the
    /// original parser).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `key` was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Every value given for a repeatable flag, in invocation order.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Builds the invocation's [`RunOverlay`]: the CLI layer of the
    /// resolution `defaults ← spec ← CLI`. A flag that was not given
    /// leaves its field unset, deferring to the spec (and the defaults
    /// below it).
    pub fn overlay(&self) -> Result<RunOverlay, String> {
        let mut o = RunOverlay::none();
        if let Some(s) = self.get("seed") {
            o.seed = Some(s.parse().map_err(|_| "bad --seed")?);
        }
        o.exec_mode = self.parse_exec_mode()?;
        o.concurrency = self.parse_concurrency()?;
        if let Some(g) = self.get("grace") {
            let max = SimTime::MAX_SECS;
            let secs = g.parse().ok().filter(|&s: &u64| s <= max);
            o.grace_secs = Some(secs.ok_or(format!("bad --grace={g} (0..={max} seconds)"))?);
        }
        o.faults = self.parse_chaos()?;
        o.storage = self.parse_storage()?;
        o.trace = self.parse_trace()?;
        o.live = self.parse_live()?;
        Ok(o)
    }

    fn parse_exec_mode(&self) -> Result<Option<ExecMode>, String> {
        match self.get("exec-mode") {
            Some("profiled") => Ok(Some(ExecMode::Profiled)),
            Some("exact") => Ok(Some(ExecMode::Exact)),
            Some(other) => Err(format!("bad --exec-mode={other} (profiled | exact)")),
            None => Ok(None),
        }
    }

    /// Resolves the execution flags (`--threads=N`, `--execution=MODE`)
    /// into a block-commit concurrency; `None` when no execution flag was
    /// given (the spec's `execution:` section then decides).
    fn parse_concurrency(&self) -> Result<Option<Concurrency>, String> {
        let threads = match self.get("threads") {
            Some(n) => Some(
                n.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --threads")?,
            ),
            None => None,
        };
        // --threads alone selects the static parallel scheduler.
        let mode = self
            .get("execution")
            .or(threads.is_some().then_some("parallel"));
        let Some(mode) = mode else {
            return Ok(None);
        };
        Concurrency::from_mode(mode, threads.unwrap_or(4))
            .map(Some)
            .ok_or_else(|| format!("bad --execution={mode} (serial | parallel | optimistic)"))
    }

    /// Builds the invocation's fault layer from the chaos flags; each
    /// maps to a `fault:` directive of the same name
    /// (`diablo_chains::chaos`), so CLI and YAML share one grammar.
    fn parse_chaos(&self) -> Result<diablo_chains::FaultPlan, String> {
        let mut builder = diablo_chains::FaultPlan::builder();
        for spec in FLAGS.iter().filter(|f| f.group == FlagGroup::Chaos) {
            for value in self.all(spec.name) {
                builder = diablo_chains::chaos::apply_directive(builder, spec.name, value)?;
            }
        }
        Ok(builder.build())
    }

    /// Resolves the storage flags; `--prune`/`--segment-blocks`/
    /// `--hot-pages` imply `--store`, and no storage flag at all defers
    /// to the spec's `storage:` section.
    fn parse_storage(&self) -> Result<Option<diablo_chains::StorageConfig>, String> {
        let tuning = self.has("prune") || self.has("segment-blocks") || self.has("hot-pages");
        if !self.has("store") && !tuning {
            return Ok(None);
        }
        let mut config = diablo_chains::StorageConfig::default();
        if let Some(mode) = self.get("prune") {
            config.prune =
                diablo_chains::PruneMode::parse(mode).map_err(|e| format!("bad --prune: {e}"))?;
        }
        if let Some(n) = self.get("segment-blocks") {
            config.segment_blocks = n
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("bad --segment-blocks")?;
        }
        if let Some(n) = self.get("hot-pages") {
            config.hot_pages = n.parse::<usize>().map_err(|_| "bad --hot-pages")?;
        }
        Ok(Some(config))
    }

    /// Resolves the tracing flags; `--trace-out` alone implies tracing
    /// at the default reservoir limit, and no tracing flag keeps the
    /// tracer off (byte-identical to an untraced run).
    fn parse_trace(&self) -> Result<Option<TraceSample>, String> {
        match self.get("trace-sample") {
            Some(value) => TraceSample::parse(value)
                .map(Some)
                .map_err(|e| format!("bad --trace-sample: {e}")),
            None if self.has("trace-out") => {
                Ok(Some(TraceSample::Limit(TraceSample::DEFAULT_LIMIT)))
            }
            None => Ok(None),
        }
    }

    /// Resolves the live flags; `--time-scale`/`--live-workers` imply
    /// `--live`, and no live flag keeps the run a pure simulation
    /// (byte-identical to pre-live builds).
    fn parse_live(&self) -> Result<Option<LiveConfig>, String> {
        let tuning = self.has("time-scale") || self.has("live-workers");
        if !self.has("live") && !tuning {
            return Ok(None);
        }
        let mut config = LiveConfig::default();
        if let Some(f) = self.get("time-scale") {
            config.time_scale = f
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite() && *f > 0.0)
                .ok_or("bad --time-scale")?;
        }
        if let Some(n) = self.get("live-workers") {
            config.workers = n
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("bad --live-workers")?;
        }
        Ok(Some(config))
    }
}

/// The usage text, generated from the command synopses and [`FLAGS`].
pub fn usage_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "usage:\n  \
         diablo run --chain=<name> [flags] <workload.yaml>\n  \
         diablo run --live --chain=<name> [flags] <workload.yaml>\n  \
         diablo primary --secondaries=N --chain=<name> [flags] <workload.yaml>\n  \
         diablo secondary --primary=<addr> [--tag=<zone>]\n  \
         diablo compare <a.results.json> <b.results.json>\n  \
         diablo trace-diff <a.trace.json> <b.trace.json>\n  \
         diablo live-diff <live.results.json> <sim.results.json>\n",
    );
    for group in FlagGroup::ALL {
        let rows: Vec<&FlagSpec> = FLAGS.iter().filter(|f| f.group == group).collect();
        if rows.is_empty() {
            continue;
        }
        let _ = write!(out, "\n{}:\n", group.title());
        for f in rows {
            let lhs = match f.kind {
                FlagKind::Switch => format!("--{}", f.name),
                FlagKind::Value(placeholder) => format!("--{}={placeholder}", f.name),
            };
            let _ = writeln!(out, "  {lhs:<33} {}", f.help);
        }
    }
    let _ = write!(
        out,
        "\nchains: {}\ndeployments: {}\n",
        diablo_chains::Chain::ALL
            .map(|c| c.name().to_lowercase())
            .join(", "),
        diablo_net::DeploymentKind::ALL.map(|d| d.name()).join(", ")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = Invocation::parse(&args(&["run", "--sed=7"])).unwrap_err();
        assert!(err.contains("unknown flag --sed"), "{err}");
    }

    #[test]
    fn value_flags_need_values_and_switches_refuse_them() {
        let err = Invocation::parse(&args(&["run", "--seed"])).unwrap_err();
        assert!(err.contains("--seed=N"), "{err}");
        let err = Invocation::parse(&args(&["run", "--stat=yes"])).unwrap_err();
        assert!(err.contains("takes no value"), "{err}");
    }

    #[test]
    fn unflagged_invocation_builds_the_empty_overlay() {
        let inv = Invocation::parse(&args(&["run", "w.yaml"])).unwrap();
        assert_eq!(inv.overlay().unwrap(), RunOverlay::none());
        assert_eq!(inv.positional, vec!["run", "w.yaml"]);
    }

    #[test]
    fn every_run_knob_has_a_flag() {
        let inv = Invocation::parse(&args(&[
            "run",
            "--seed=7",
            "--exec-mode=exact",
            "--execution=parallel",
            "--threads=8",
            "--grace=5",
            "--store",
            "--trace-sample=16",
            "--live",
            "--time-scale=10",
            "--live-workers=2",
            "--kill-secondary=1@3",
        ]))
        .unwrap();
        let o = inv.overlay().unwrap();
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.exec_mode, Some(ExecMode::Exact));
        assert_eq!(o.concurrency, Some(Concurrency::Parallel(8)));
        assert_eq!(o.grace_secs, Some(5));
        assert!(o.storage.is_some());
        assert_eq!(o.trace, Some(TraceSample::Limit(16)));
        assert_eq!(
            o.live,
            Some(LiveConfig {
                time_scale: 10.0,
                workers: 2
            })
        );
        assert!(o.faults.kill_of_secondary(1).is_some());
    }

    #[test]
    fn removed_flags_are_unknown() {
        for flag in ["--exact", "--optimistic", "--queue=heap"] {
            let err = Invocation::parse(&args(&["run", flag])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn live_tuning_flags_imply_live() {
        let inv = Invocation::parse(&args(&["run", "--time-scale=5"])).unwrap();
        let o = inv.overlay().unwrap();
        assert_eq!(o.live.map(|l| l.time_scale), Some(5.0));
        let inv = Invocation::parse(&args(&["run"])).unwrap();
        assert_eq!(inv.overlay().unwrap().live, None);
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage_text();
        for f in FLAGS {
            assert!(
                text.contains(&format!("--{}", f.name)),
                "usage is missing --{}",
                f.name
            );
        }
        assert!(text.contains("live-diff"), "{text}");
    }

    #[test]
    fn repeated_chaos_flags_accumulate() {
        let inv = Invocation::parse(&args(&[
            "run",
            "--kill-secondary=0@1",
            "--kill-secondary=1@2",
        ]))
        .unwrap();
        let o = inv.overlay().unwrap();
        assert!(o.faults.kill_of_secondary(0).is_some());
        assert!(o.faults.kill_of_secondary(1).is_some());
    }

    #[test]
    fn bad_values_are_reported_with_their_grammar() {
        let bad = |flags: &[&str]| {
            let inv = Invocation::parse(&args(flags)).unwrap();
            inv.overlay().unwrap_err()
        };
        assert!(bad(&["run", "--exec-mode=fast"]).contains("profiled | exact"));
        assert!(bad(&["run", "--time-scale=-1"]).contains("time-scale"));
        assert!(bad(&["run", "--threads=0"]).contains("threads"));
        // One second past the clock's end in microseconds: it used to
        // wrap to a 0.45 s drain.
        let e = bad(&["run", "--grace=18446744073710"]);
        assert!(
            e.contains("bad --grace") && e.contains("18446744073709 seconds"),
            "{e}"
        );
        assert!(bad(&["run", "--grace=-1"]).contains("bad --grace"));
    }
}
