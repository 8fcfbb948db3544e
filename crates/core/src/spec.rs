//! The Diablo benchmark specification (§4, "Workload specification").
//!
//! A benchmark configuration declares *resources* (accounts, contracts),
//! *clients* (how many, where, which endpoints they see) and *behaviors*
//! (which interaction each client issues, at which rate over time). The
//! on-disk format is the paper's YAML dialect; [`BenchmarkSpec::parse`]
//! resolves it into typed form.

use std::fmt;

use diablo_chains::{
    Concurrency, FaultPlan, PruneMode, RunOverlay, SigVerify, StorageConfig, TxId,
};
use diablo_sim::SimTime;
use diablo_workloads::Workload;

use crate::yaml::{self, Value};

/// A parsed benchmark specification.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// The workload groups (the `workloads:` list).
    pub workloads: Vec<WorkloadGroup>,
    /// Faults injected during the run (the optional `fault:` section;
    /// empty when absent).
    pub fault: FaultPlan,
    /// Block-commit concurrency requested by the optional `execution:`
    /// section (`None` when absent; the CLI's `--threads`/`--execution`
    /// flags override it — see `run_with_setup`).
    pub execution: Option<Concurrency>,
    /// Signature-verification cost curve requested by the optional
    /// `sigverify:` section (`None` when absent = the chain's standard
    /// curve; an explicit `BenchmarkOptions::sig_verify` overrides it).
    pub sig_verify: Option<SigVerify>,
    /// Append-only state store requested by the optional `storage:`
    /// section (`None` when absent = the staged commit pipeline is off;
    /// an explicit `BenchmarkOptions::storage` overrides it).
    pub storage: Option<StorageConfig>,
}

/// One entry of the `workloads:` list: `number` identical clients.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGroup {
    /// Number of clients (worker threads) with this behavior.
    pub number: u32,
    /// Location patterns restricting where the clients run
    /// (AWS zone tags, e.g. `us-east-2`; empty = anywhere).
    pub location: Vec<String>,
    /// Endpoint patterns the clients may submit to (regex-ish strings;
    /// `.*` = all nodes).
    pub view: Vec<String>,
    /// The behaviors each client executes.
    pub behaviors: Vec<Behavior>,
}

/// One `interaction` + `load` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Behavior {
    /// What each transaction does.
    pub interaction: InteractionSpec,
    /// Piecewise-constant load `(start_second, tps)`, terminated by a
    /// breakpoint with rate 0 that marks the end of the behavior.
    pub load: Vec<(u64, f64)>,
}

/// The interaction a behavior issues (the paper's `transfer_X` and
/// `invoke_D_Xs` interaction types).
#[derive(Debug, Clone, PartialEq)]
pub enum InteractionSpec {
    /// Native transfers between accounts of the declared pool.
    Transfer {
        /// Size of the signing account pool.
        accounts: u32,
        /// Coins moved per transfer.
        amount: u64,
    },
    /// DApp invocations.
    Invoke {
        /// Size of the signing account pool.
        accounts: u32,
        /// The contract name (a DApp name, e.g. `dota`).
        contract: String,
        /// Function name parsed from `"update(1, 1)"`.
        function: String,
        /// Literal arguments parsed from the call string.
        args: Vec<i64>,
    },
}

/// A specification error.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "benchmark specification: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<yaml::ParseError> for SpecError {
    fn from(e: yaml::ParseError) -> Self {
        SpecError(format!("{e}"))
    }
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl BenchmarkSpec {
    /// The spec's contribution to the layered run configuration: its
    /// `fault:`, `execution:`, `sigverify:` and `storage:` sections as
    /// one overlay — the middle layer of `defaults ← spec ← CLI`.
    pub fn overlay(&self) -> RunOverlay {
        RunOverlay {
            concurrency: self.execution,
            faults: self.fault.clone(),
            sig_verify: self.sig_verify,
            storage: self.storage,
            ..RunOverlay::none()
        }
    }

    /// Parses a benchmark configuration file.
    pub fn parse(text: &str) -> Result<BenchmarkSpec, SpecError> {
        let root = yaml::parse(text)?;
        let workloads = root
            .get("workloads")
            .ok_or_else(|| err("missing `workloads` section"))?
            .as_list()
            .ok_or_else(|| err("`workloads` must be a list"))?;
        let workloads = workloads
            .iter()
            .map(parse_group)
            .collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() {
            return Err(err("`workloads` is empty"));
        }
        // Transaction ids number the whole plan; the count comes from
        // the breakpoints, so a curve too long to plan is never expanded.
        let planned: f64 = workloads
            .iter()
            .map(|w| w.number as f64 * w.behaviors.iter().map(Behavior::planned_bound).sum::<f64>())
            .sum();
        if !(planned <= TxId::MAX as f64) {
            return Err(err(format!(
                "the workloads plan {planned:.0} transactions, more than the {} a transaction id numbers",
                TxId::MAX
            )));
        }
        let fault = match root.get("fault") {
            Some(section) => parse_faults(section)?,
            None => FaultPlan::none(),
        };
        let execution = match root.get("execution") {
            Some(section) => Some(parse_execution(section)?),
            None => None,
        };
        let sig_verify = match root.get("sigverify") {
            Some(section) => Some(parse_sigverify(section)?),
            None => None,
        };
        let storage = match root.get("storage") {
            Some(section) => Some(parse_storage(section)?),
            None => None,
        };
        Ok(BenchmarkSpec {
            workloads,
            fault,
            execution,
            sig_verify,
            storage,
        })
    }

    /// Total number of clients across all groups.
    pub fn client_count(&self) -> u32 {
        self.workloads.iter().map(|w| w.number).sum()
    }

    /// The experiment duration: the latest load end over all behaviors.
    pub fn duration_secs(&self) -> u64 {
        self.workloads
            .iter()
            .flat_map(|w| &w.behaviors)
            .filter_map(|b| b.load.last().map(|&(t, _)| t))
            .max()
            .unwrap_or(0)
    }

    /// Expected total submitted transactions across all clients.
    pub fn total_txs(&self) -> u64 {
        self.workloads
            .iter()
            .flat_map(|w| w.behaviors.iter().map(move |b| (w.number, b)))
            .map(|(n, b)| n as u64 * b.to_workload("").total_txs())
            .sum()
    }
}

impl Behavior {
    /// Converts the load curve into a per-client workload.
    ///
    /// # Panics
    ///
    /// Panics if the load list is malformed (validated at parse time).
    pub fn to_workload(&self, name: &str) -> Workload {
        let (end, _) = *self.load.last().expect("validated non-empty");
        let points = self.load[..self.load.len() - 1].to_vec();
        Workload::piecewise(name, &points, end)
    }

    /// What one client plans for this behaviour at most, from the
    /// breakpoints alone: the integral of the load curve, rounded up.
    /// [`Workload::ticks`] carries each tick's fraction forward, so its
    /// counts never sum past this.
    fn planned_bound(&self) -> f64 {
        let segments = self.load.windows(2);
        segments
            .map(|w| w[0].1 * (w[1].0 - w[0].0) as f64)
            .sum::<f64>()
            .ceil()
    }
}

fn parse_group(v: &Value) -> Result<WorkloadGroup, SpecError> {
    let number = v
        .get("number")
        .and_then(Value::as_u64)
        .ok_or_else(|| err("workload needs a `number` of clients"))? as u32;
    if number == 0 {
        return Err(err("workload `number` must be positive"));
    }
    let client = v
        .get("client")
        .ok_or_else(|| err("workload needs a `client` section"))?;
    let location = parse_sample_strings(client.get("location"), "location")?;
    let view = parse_sample_strings(client.get("view"), "endpoint")?;
    let behaviors = client
        .get("behavior")
        .ok_or_else(|| err("client needs a `behavior` list"))?
        .as_list()
        .ok_or_else(|| err("`behavior` must be a list"))?
        .iter()
        .map(parse_behavior)
        .collect::<Result<Vec<_>, _>>()?;
    if behaviors.is_empty() {
        return Err(err("`behavior` is empty"));
    }
    Ok(WorkloadGroup {
        number,
        location,
        view,
        behaviors,
    })
}

/// Parses `{ sample: !location [ "us-east-2" ] }`-style declarations.
fn parse_sample_strings(v: Option<&Value>, expected_tag: &str) -> Result<Vec<String>, SpecError> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let sample = v.get("sample").unwrap_or(v);
    let (tag, inner) = sample
        .tagged()
        .ok_or_else(|| err(format!("expected a !{expected_tag} sample")))?;
    if tag != expected_tag {
        return Err(err(format!("expected tag !{expected_tag}, found !{tag}")));
    }
    let items = inner
        .as_list()
        .ok_or_else(|| err(format!("!{expected_tag} takes a list")))?;
    items
        .iter()
        .map(|i| {
            i.as_str()
                .map(str::to_string)
                .ok_or_else(|| err("sample items must be strings"))
        })
        .collect()
}

/// Parses an `!account { number: N }` sample into the pool size.
fn parse_accounts(v: Option<&Value>) -> Result<u32, SpecError> {
    let Some(v) = v else {
        return Ok(crate::DEFAULT_ACCOUNTS);
    };
    let sample = v.get("sample").unwrap_or(v);
    let (tag, inner) = sample
        .tagged()
        .ok_or_else(|| err("expected an !account sample"))?;
    if tag != "account" {
        return Err(err(format!("expected tag !account, found !{tag}")));
    }
    inner
        .get("number")
        .and_then(Value::as_u64)
        .map(|n| n as u32)
        .ok_or_else(|| err("!account needs a `number`"))
}

/// Parses a `!contract { name: "dota" }` sample into the contract name.
fn parse_contract(v: Option<&Value>) -> Result<String, SpecError> {
    let v = v.ok_or_else(|| err("!invoke needs a `contract`"))?;
    let sample = v.get("sample").unwrap_or(v);
    let (tag, inner) = sample
        .tagged()
        .ok_or_else(|| err("expected a !contract sample"))?;
    if tag != "contract" {
        return Err(err(format!("expected tag !contract, found !{tag}")));
    }
    inner
        .get("name")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| err("!contract needs a `name`"))
}

fn parse_behavior(v: &Value) -> Result<Behavior, SpecError> {
    let (tag, inner) = v
        .get("interaction")
        .ok_or_else(|| err("behavior needs an `interaction`"))?
        .tagged()
        .ok_or_else(|| err("interaction must be tagged (!invoke or !transfer)"))?;
    let interaction = match tag {
        "invoke" => {
            let accounts = parse_accounts(inner.get("from"))?;
            let contract = parse_contract(inner.get("contract"))?;
            let call = inner
                .get("function")
                .and_then(Value::as_str)
                .ok_or_else(|| err("!invoke needs a `function`"))?;
            let (function, args) = parse_call(call)?;
            InteractionSpec::Invoke {
                accounts,
                contract,
                function,
                args,
            }
        }
        "transfer" => {
            let accounts = parse_accounts(inner.get("from"))?;
            let amount = inner.get("amount").and_then(Value::as_u64).unwrap_or(1);
            InteractionSpec::Transfer { accounts, amount }
        }
        other => return Err(err(format!("unknown interaction type !{other}"))),
    };
    let load_map = v
        .get("load")
        .ok_or_else(|| err("behavior needs a `load`"))?
        .as_map()
        .ok_or_else(|| err("`load` must map seconds to rates"))?;
    let mut load = Vec::with_capacity(load_map.len());
    for (k, rate) in load_map {
        let t: u64 = k.parse().map_err(|_| err(format!("bad load time `{k}`")))?;
        if t > SimTime::MAX_SECS {
            return Err(err(format!(
                "load time `{k}` is past the end of the simulation clock"
            )));
        }
        let r = rate
            .as_f64()
            .ok_or_else(|| err(format!("bad load rate for `{k}`")))?;
        if r < 0.0 {
            return Err(err("load rates must be non-negative"));
        }
        load.push((t, r));
    }
    if load.len() < 2 {
        return Err(err("load needs at least a start and an end breakpoint"));
    }
    if !load.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(err("load times must increase"));
    }
    if load[0].0 != 0 {
        return Err(err("load must start at second 0"));
    }
    if load.last().expect("non-empty").1 != 0.0 {
        return Err(err("load must end with a `t: 0` breakpoint"));
    }
    Ok(Behavior { interaction, load })
}

/// Parses the `fault:` section: each key is a directive kind (`crash`,
/// `partition`, `loss`, `corrupt`, `slowdown`, `kill-secondary`,
/// `retry`), each value one directive string or a list of them (see
/// `diablo_chains::chaos` for the grammar):
///
/// ```yaml
/// fault:
///   crash: "3@30..60"
///   partition: "0-6/7-9@70..100"
///   loss: [ "5%@10..40", "10%@50..60,link=0-3" ]
///   retry: "3x500/10000"
/// ```
fn parse_faults(section: &Value) -> Result<FaultPlan, SpecError> {
    let map = section
        .as_map()
        .ok_or_else(|| err("`fault` must map directive kinds to directives"))?;
    let mut builder = FaultPlan::builder();
    for (key, value) in map {
        let directives: Vec<&str> = match value.as_list() {
            Some(items) => items
                .iter()
                .map(|i| i.as_str().ok_or_else(|| err("fault directives must be strings")))
                .collect::<Result<_, _>>()?,
            None => vec![value
                .as_str()
                .ok_or_else(|| err("fault directives must be strings"))?],
        };
        for directive in directives {
            builder =
                diablo_chains::chaos::apply_directive(builder, key, directive).map_err(err)?;
        }
    }
    Ok(builder.build())
}

/// Parses the `execution:` section: how the simulated chain executes
/// committed blocks. Both keys are optional; mode names follow
/// [`Concurrency::from_mode`] and `threads` defaults to 4 for the
/// parallel modes:
///
/// ```yaml
/// execution:
///   mode: optimistic   # serial | parallel | optimistic
///   threads: 8
/// ```
fn parse_execution(section: &Value) -> Result<Concurrency, SpecError> {
    let map = section
        .as_map()
        .ok_or_else(|| err("`execution` must be a map of `mode` and `threads`"))?;
    for (key, _) in map {
        if key != "mode" && key != "threads" {
            return Err(err(format!("unknown `execution` key `{key}`")));
        }
    }
    let threads = match section.get("threads") {
        Some(v) => v
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err("`execution.threads` must be a positive integer"))?
            as usize,
        None => 4,
    };
    let mode = match section.get("mode") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| err("`execution.mode` must be a string"))?,
        None => "parallel",
    };
    Concurrency::from_mode(mode, threads)
        .ok_or_else(|| err(format!("unknown `execution.mode` `{mode}`")))
}

/// Parses the `sigverify:` section: the batched signature-verification
/// cost curve applied in place of the chain's standard one. `per_tx_us`
/// is required (`0` disables verification modeling); the batching keys
/// are optional and default to no amortization:
///
/// ```yaml
/// sigverify:
///   per_tx_us: 55      # single-signature cost, µs per core pool
///   batch_fixed_us: 30 # per-block fixed cost
///   batch_knee: 128    # batch size reaching half the max speedup
///   max_speedup: 2.0   # asymptotic amortization factor
/// ```
fn parse_sigverify(section: &Value) -> Result<SigVerify, SpecError> {
    let map = section
        .as_map()
        .ok_or_else(|| err("`sigverify` must be a map of cost-curve keys"))?;
    for (key, _) in map {
        if !matches!(
            key.as_str(),
            "per_tx_us" | "batch_fixed_us" | "batch_knee" | "max_speedup"
        ) {
            return Err(err(format!("unknown `sigverify` key `{key}`")));
        }
    }
    let field = |key: &str, default: f64| -> Result<f64, SpecError> {
        match section.get(key) {
            Some(v) => v
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| err(format!("`sigverify.{key}` must be a non-negative number"))),
            None => Ok(default),
        }
    };
    let per_tx_us = match section.get("per_tx_us") {
        Some(_) => field("per_tx_us", 0.0)?,
        None => return Err(err("`sigverify` needs a `per_tx_us`")),
    };
    let max_speedup = field("max_speedup", 1.0)?;
    if max_speedup < 1.0 {
        return Err(err("`sigverify.max_speedup` must be at least 1"));
    }
    Ok(SigVerify {
        per_tx_us,
        batch_fixed_us: field("batch_fixed_us", 0.0)?,
        batch_knee: field("batch_knee", 1.0)?,
        max_speedup,
    })
}

/// Parses the `storage:` section: the staged commit pipeline's
/// append-only state store. All keys are optional; prune modes follow
/// [`PruneMode::parse`] (`full`, `distance=N`, `before=N`):
///
/// ```yaml
/// storage:
///   prune: distance=128  # full | distance=N | before=N
///   segment_blocks: 64   # blocks per static-file segment
///   hot_pages: 64        # decoded-page cap of the flat tables
/// ```
fn parse_storage(section: &Value) -> Result<StorageConfig, SpecError> {
    let map = section
        .as_map()
        .ok_or_else(|| err("`storage` must be a map of store keys"))?;
    for (key, _) in map {
        if !matches!(key.as_str(), "prune" | "segment_blocks" | "hot_pages") {
            return Err(err(format!("unknown `storage` key `{key}`")));
        }
    }
    let defaults = StorageConfig::default();
    let prune = match section.get("prune") {
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| err("`storage.prune` must be a string"))?;
            PruneMode::parse(text).map_err(|e| err(format!("bad `storage.prune` mode: {e}")))?
        }
        None => defaults.prune,
    };
    let segment_blocks = match section.get("segment_blocks") {
        Some(v) => v
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err("`storage.segment_blocks` must be a positive integer"))?,
        None => defaults.segment_blocks,
    };
    let hot_pages = match section.get("hot_pages") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| err("`storage.hot_pages` must be a non-negative integer"))?
            as usize,
        None => defaults.hot_pages,
    };
    Ok(StorageConfig {
        prune,
        segment_blocks,
        hot_pages,
    })
}

/// Parses `"update(1, 1)"` into `("update", [1, 1])`.
fn parse_call(call: &str) -> Result<(String, Vec<i64>), SpecError> {
    let call = call.trim();
    let Some(open) = call.find('(') else {
        return Ok((call.to_string(), Vec::new()));
    };
    if !call.ends_with(')') {
        return Err(err(format!("unbalanced call `{call}`")));
    }
    let name = call[..open].trim().to_string();
    if name.is_empty() {
        return Err(err(format!("missing function name in `{call}`")));
    }
    let inside = call[open + 1..call.len() - 1].trim();
    if inside.is_empty() {
        return Ok((name, Vec::new()));
    }
    let args = inside
        .split(',')
        .map(|a| {
            a.trim()
                .parse::<i64>()
                .map_err(|_| err(format!("bad argument `{a}`")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((name, args))
}

/// The paper's gaming-DApp configuration from §4, usable as a template.
pub const PAPER_DOTA_SPEC: &str = r#"
let:
  - &loc { sample: !location [ "us-east-2" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 2000 } }
  - &dapp { sample: !contract { name: "dota" } }
workloads:
  - number: 3
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "update(1, 1)"
          load:
            0: 4432
            50: 4438
            120: 0
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_parses() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        assert_eq!(spec.client_count(), 3);
        assert_eq!(spec.duration_secs(), 120);
        let group = &spec.workloads[0];
        assert_eq!(group.location, vec!["us-east-2"]);
        assert_eq!(group.view, vec![".*"]);
        let behavior = &group.behaviors[0];
        match &behavior.interaction {
            InteractionSpec::Invoke {
                accounts,
                contract,
                function,
                args,
            } => {
                assert_eq!(*accounts, 2000);
                assert_eq!(contract, "dota");
                assert_eq!(function, "update");
                assert_eq!(args, &vec![1, 1]);
            }
            other => panic!("wrong interaction {other:?}"),
        }
        assert_eq!(behavior.load, vec![(0, 4432.0), (50, 4438.0), (120, 0.0)]);
    }

    #[test]
    fn paper_spec_load_matches_section4_text() {
        // "each client sends 4432 TPS for the first 50 seconds then 4438
        // TPS for the next 70 seconds, after which the benchmark ends."
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let w = spec.workloads[0].behaviors[0].to_workload("dota-client");
        assert_eq!(w.duration_secs(), 120);
        assert_eq!(w.rate_at(0), 4432.0);
        assert_eq!(w.rate_at(119), 4438.0);
        assert_eq!(w.total_txs(), 4432 * 50 + 4438 * 70);
        assert_eq!(spec.total_txs(), 3 * (4432 * 50 + 4438 * 70));
    }

    #[test]
    fn transfer_spec() {
        let text = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 100 } }
            amount: 5
          load:
            0: 500
            120: 0
"#;
        let spec = BenchmarkSpec::parse(text).unwrap();
        match &spec.workloads[0].behaviors[0].interaction {
            InteractionSpec::Transfer { accounts, amount } => {
                assert_eq!(*accounts, 100);
                assert_eq!(*amount, 5);
            }
            other => panic!("wrong interaction {other:?}"),
        }
    }

    #[test]
    fn call_parsing() {
        assert_eq!(
            parse_call("update(1, 1)").unwrap(),
            ("update".into(), vec![1, 1])
        );
        assert_eq!(parse_call("add()").unwrap(), ("add".into(), vec![]));
        assert_eq!(
            parse_call("checkStock").unwrap(),
            ("checkStock".into(), vec![])
        );
        assert_eq!(
            parse_call("checkDistance(4000, 7000)").unwrap(),
            ("checkDistance".into(), vec![4000, 7000])
        );
        assert!(parse_call("broken(1").is_err());
        assert!(parse_call("f(x)").is_err());
    }

    #[test]
    fn load_validation() {
        let bad_end = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 100
            60: 50
"#;
        let e = BenchmarkSpec::parse(bad_end).unwrap_err();
        assert!(e.0.contains("end with"), "{e}");

        let bad_order = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 100
            50: 60
            40: 0
"#;
        let e = BenchmarkSpec::parse(bad_order).unwrap_err();
        assert!(e.0.contains("increase"), "{e}");
    }

    fn one_transfer(load: &str) -> String {
        format!(
            r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: {{ sample: !account {{ number: 10 }} }}
          load: {load}
"#
        )
    }

    #[test]
    fn a_load_key_past_the_clock_is_refused() {
        // u64::MAX microseconds is 18,446,744,073,709.55 s. This key
        // parsed, and planning then asked for a 147 TB rate vector.
        let e = BenchmarkSpec::parse(&one_transfer("{0: 10, 18446744073710: 0}")).unwrap_err();
        assert!(e.0.contains("`18446744073710` is past the end"), "{e}");
        assert!(BenchmarkSpec::parse(&one_transfer("{0: 0, 18446744073709: 0}")).is_ok());
    }

    #[test]
    fn a_plan_past_the_transaction_ids_is_refused() {
        // 10 TPS for a billion seconds: 1e10 ids, and an 80 GB request.
        let e = BenchmarkSpec::parse(&one_transfer("{0: 10, 1000000000: 0}")).unwrap_err();
        assert!(e.0.contains("plan 10000000000 transactions"), "{e}");
        // Two groups that fit alone share one id space.
        let half = one_transfer("{0: 2147483648, 1: 0}");
        let twice = half.replacen("number: 1", "number: 2", 1);
        assert!(BenchmarkSpec::parse(&half).is_ok());
        let e = BenchmarkSpec::parse(&twice).unwrap_err();
        assert!(e.0.contains("plan 4294967296 transactions"), "{e}");
        let e = BenchmarkSpec::parse(&one_transfer("{0: nan, 1: 0}")).unwrap_err();
        assert!(e.0.contains("transaction id"), "{e}");
    }

    #[test]
    fn the_planned_bound_caps_what_planning_expands() {
        use diablo_testkit::gen::{f64s, u64s, vecs};
        use diablo_testkit::{prop_assert, Property};
        let curves = vecs((u64s(0..=49), f64s(0.0..200.0)), 1..=6);
        Property::new("planned_bound_caps_ticks").cases(256).check(&curves, |segments| {
            let mut load = Vec::new();
            let mut t = 0;
            for &(dur, rate) in segments {
                load.push((t, rate));
                t += dur + 1;
            }
            load.push((t, 0.0));
            let behavior = Behavior {
                interaction: InteractionSpec::Transfer { accounts: 1, amount: 1 },
                load,
            };
            let bound = behavior.planned_bound();
            let planned: u64 = behavior.to_workload("").ticks(100).iter().sum();
            prop_assert!(planned as f64 <= bound, "{planned} > {bound}");
            prop_assert!(planned as f64 >= bound - 2.0, "{planned} far below {bound}");
            Ok(())
        });
    }

    #[test]
    fn missing_sections_error() {
        assert!(BenchmarkSpec::parse("other: 1\n").is_err());
        let e = BenchmarkSpec::parse("workloads:\n  - number: 1\n").unwrap_err();
        assert!(e.0.contains("client"), "{e}");
    }

    #[test]
    fn fault_section_parses() {
        use diablo_sim::SimTime;
        let text = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            60: 0
fault:
  crash: "3@30..50"
  partition: "0-6/7-9@10..20"
  loss: [ "5%@10..40" ]
  retry: "3x500/10000"
"#;
        let spec = BenchmarkSpec::parse(text).unwrap();
        let t = SimTime::from_secs;
        let expected = FaultPlan::builder()
            .crash_many(3, t(30))
            .recover_many(3, t(50))
            .partition(&[0, 1, 2, 3, 4, 5, 6], &[7, 8, 9], t(10), t(20))
            .loss(0.05, t(10), t(40))
            .retry(diablo_chains::RetryPolicy::default())
            .build();
        assert_eq!(spec.fault, expected);
        // Absent section means no faults.
        assert!(BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap().fault.is_empty());
        // Malformed directives surface as spec errors.
        let bad = text.replace("3@30..50", "what");
        let e = BenchmarkSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("fault directive"), "{e}");
    }

    #[test]
    fn execution_section_parses() {
        let base = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            60: 0
"#;
        // Absent section → no override.
        assert_eq!(BenchmarkSpec::parse(base).unwrap().execution, None);

        let with = |section: &str| format!("{base}execution:\n{section}");
        let parse = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap().execution;
        assert_eq!(
            parse("  mode: optimistic\n  threads: 8\n"),
            Some(Concurrency::Optimistic(8))
        );
        assert_eq!(parse("  mode: serial\n"), Some(Concurrency::Serial));
        // `threads` alone implies the static parallel scheduler; `mode`
        // alone defaults to 4 workers.
        assert_eq!(parse("  threads: 2\n"), Some(Concurrency::Parallel(2)));
        assert_eq!(
            parse("  mode: optimistic\n"),
            Some(Concurrency::Optimistic(4))
        );

        let bad = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap_err();
        assert!(bad("  mode: speculative\n").0.contains("execution.mode"));
        assert!(bad("  threads: 0\n").0.contains("threads"));
        assert!(bad("  workers: 3\n").0.contains("unknown `execution` key"));
    }

    #[test]
    fn sigverify_section_parses() {
        let base = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            60: 0
"#;
        // Absent section → chain's standard curve.
        assert_eq!(BenchmarkSpec::parse(base).unwrap().sig_verify, None);

        let with = |section: &str| format!("{base}sigverify:\n{section}");
        let parse = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap().sig_verify;
        assert_eq!(
            parse("  per_tx_us: 55\n  batch_fixed_us: 30\n  batch_knee: 128\n  max_speedup: 2.0\n"),
            Some(SigVerify {
                per_tx_us: 55.0,
                batch_fixed_us: 30.0,
                batch_knee: 128.0,
                max_speedup: 2.0,
            })
        );
        // Batching keys default to no amortization; `per_tx_us: 0`
        // disables verification modeling outright.
        assert_eq!(
            parse("  per_tx_us: 85\n"),
            Some(SigVerify {
                per_tx_us: 85.0,
                batch_fixed_us: 0.0,
                batch_knee: 1.0,
                max_speedup: 1.0,
            })
        );
        assert_eq!(parse("  per_tx_us: 0\n"), Some(SigVerify::DISABLED));

        let bad = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap_err();
        assert!(bad("  batch_knee: 4\n").0.contains("per_tx_us"));
        assert!(bad("  per_tx_us: -3\n").0.contains("non-negative"));
        assert!(bad("  per_tx_us: 55\n  max_speedup: 0.5\n").0.contains("at least 1"));
        assert!(bad("  per_tx_us: 55\n  knee: 4\n").0.contains("unknown `sigverify` key"));
    }

    #[test]
    fn storage_section_parses() {
        let base = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            60: 0
"#;
        // Absent section → the staged commit pipeline stays off.
        assert_eq!(BenchmarkSpec::parse(base).unwrap().storage, None);

        let with = |section: &str| format!("{base}storage:\n{section}");
        let parse = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap().storage;
        assert_eq!(
            parse("  prune: distance=128\n  segment_blocks: 8\n  hot_pages: 16\n"),
            Some(StorageConfig {
                prune: PruneMode::Distance(128),
                segment_blocks: 8,
                hot_pages: 16,
            })
        );
        // Keys default from `StorageConfig::default()`; an empty map
        // turns the store on with the archive configuration.
        assert_eq!(parse("  prune: before=40\n"), Some(StorageConfig {
            prune: PruneMode::Before(40),
            ..StorageConfig::default()
        }));
        assert_eq!(parse("  hot_pages: 0\n"), Some(StorageConfig {
            hot_pages: 0,
            ..StorageConfig::default()
        }));

        let bad = |section: &str| BenchmarkSpec::parse(&with(section)).unwrap_err();
        assert!(bad("  prune: sometimes\n").0.contains("storage.prune"));
        assert!(bad("  segment_blocks: 0\n").0.contains("segment_blocks"));
        assert!(bad("  pages: 3\n").0.contains("unknown `storage` key"));
    }

    #[test]
    fn unknown_interaction_errors() {
        let text = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !teleport
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            10: 0
"#;
        let e = BenchmarkSpec::parse(text).unwrap_err();
        assert!(e.0.contains("unknown interaction"), "{e}");
    }
}
