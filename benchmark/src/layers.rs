//! The layer pass: turns one staged iteration into per-layer samples.
//!
//! Three sources, in this order: the bench-side stage spans, the
//! program's own (wall-clocked) telemetry spans, and
//! *replays* — the iteration's own plan, blocks and committed payloads
//! pushed through one layer's public functions in isolation.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use diablo_chains::mempool::Mempool;
use diablo_chains::tx::TxMeta;
use diablo_chains::{
    ChainHarness, ChainParams, Concurrency, ConsensusKind, ExecMode, ExecutionEngine, Payload,
    RunResult, TxStatus,
};
use diablo_contracts::{build, calls, DApp};
use diablo_core::wire::{self, Message, WireOutcome, WireTx};
use diablo_net::{NetworkModel, QuorumModel};
use diablo_sim::{EventQueue, QueueBackend, SimTime};
use diablo_store::trie;
use diablo_telemetry::TelemetrySnapshot;
use diablo_vm::{Interpreter, TxContext};

use crate::metrics;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::verify;
use crate::workloads::{Replay, Staged};

/// Submission tick of the harness (its `TICK_MS`).
const TICK_US: u64 = 100_000;
/// Transactions per `Plan`/`Outcomes` frame (`wire`'s `CHUNK`).
const WIRE_CHUNK: usize = 16_384;
/// Calls per interpreter timing loop.
const INTERP_CALLS: u32 = 2_000;

/// Samples per per-layer metric, one per staged iteration.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample of the per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`metrics::PER_LAYER`]: a metric the
    /// catalogue does not list would be measured and never printed.
    pub fn add(&mut self, name: &str, value: f64) {
        let name = metrics::per_layer(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.0.entry(name).or_default().push(value);
    }

    /// The median sample of `name`; 0 for a layer the workload bypasses.
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Adds the program's span totals to the log as aggregate children of
/// `stage` and returns each span name's total milliseconds.
fn program_spans(
    telemetry: &TelemetrySnapshot,
    log: &mut SpanLog,
    stage: usize,
) -> BTreeMap<String, f64> {
    let mut by_path: BTreeMap<&str, usize> = BTreeMap::new();
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    // Paths are sorted, so a parent path precedes its children.
    for (path, stat) in &telemetry.spans {
        let (parent_path, leaf) = match path.rsplit_once(';') {
            Some((parent, leaf)) => (Some(parent), leaf),
            None => (None, path.as_str()),
        };
        let parent = parent_path
            .and_then(|p| by_path.get(p).copied())
            .unwrap_or(stage);
        let id = log.add_program(leaf, parent, stat.count, stat.inclusive_us * 1_000);
        by_path.insert(path, id);
        *totals.entry(leaf.to_string()).or_default() += stat.inclusive_us as f64 / 1e3;
    }
    totals
}

/// The blocks the chain executed: included payloads in submission
/// order, cut by the recorded block sizes. Exact for a FIFO pool that
/// skips nothing, which holds on every workload that executes a DApp.
fn executed_blocks(replay: &Replay, result: &RunResult) -> Vec<Vec<Payload>> {
    let mut included = replay
        .plan
        .iter()
        .zip(&result.records)
        .filter(|(_, rec)| matches!(rec.status, TxStatus::Committed | TxStatus::Failed))
        .map(|(tx, _)| tx.payload);
    result
        .blocks
        .iter()
        .filter(|block| block.txs > 0)
        .map(|block| included.by_ref().take(block.txs as usize).collect())
        .collect()
}

/// Admits the plan as time passes, drains each recorded block's worth
/// by id and releases the slots — the pool traffic of the run without
/// the chain around it. Returns how many transactions the pool
/// admitted and how many it dropped.
fn mempool_replay(params: &ChainParams, replay: &Replay, result: &RunResult) -> (u64, u64) {
    let mut pool = Mempool::with_accounts(params.mempool, params.accounts as usize);
    let mut pending = replay.plan.iter().enumerate().peekable();
    for block in &result.blocks {
        while let Some((id, tx)) = pending.next_if(|(_, tx)| tx.at <= block.committed) {
            let _ = pool.admit(TxMeta {
                id: id as u32,
                sender: tx.sender,
                payload: tx.payload,
                submitted: tx.at,
                available: tx.at,
                wire_bytes: 150,
                fee_cap_millis: 2_000,
            });
        }
        for id in pool.take_batch_ids(block.txs as usize, u64::MAX, |_| true) {
            black_box(pool.release(id));
        }
    }
    (
        pool.admitted_total(),
        pool.dropped_full() + pool.dropped_sender(),
    )
}

/// The commit-latency query the chain's consensus family makes once
/// per block.
fn quorum_call(params: &ChainParams, quorum: &QuorumModel, leader: usize, bytes: u64) {
    black_box(match params.consensus {
        ConsensusKind::HotStuff { .. } => quorum.linear_phase(leader, bytes),
        ConsensusKind::Ibft { .. } | ConsensusKind::LeaderlessDbft { .. } => {
            quorum.ibft_commit(leader, bytes)
        }
        _ => quorum.broadcast_all(leader, bytes),
    });
}

/// The event-queue traffic of one run: every submission tick scheduled
/// up front, one self-rescheduling proposal per block. Returns the
/// number of events delivered.
fn queue_replay(backend: QueueBackend, result: &RunResult) -> u64 {
    let ticks = (result.workload_secs * 1e6) as u64 / TICK_US;
    let mut queue: EventQueue<Option<usize>> = EventQueue::with_backend(backend);
    for k in 0..ticks {
        queue.schedule(SimTime::from_micros(k * TICK_US), None);
    }
    queue.schedule(SimTime::ZERO, Some(0));
    let mut delivered = 0u64;
    while let Some((_, event)) = queue.pop() {
        delivered += 1;
        if let Some(block) = event.and_then(|k| result.blocks.get(k).map(|b| (k, b))) {
            queue.schedule(block.1.committed, Some(block.0 + 1));
        }
    }
    delivered
}

/// Executes the blocks on a fresh engine; returns the time spent inside
/// `execute_block` in milliseconds and the total gas charged.
fn exec_replay(
    replay: &Replay,
    dapp: DApp,
    blocks: &[Vec<Payload>],
    concurrency: Concurrency,
) -> Result<(f64, u64), String> {
    let mut engine = ExecutionEngine::with_dapp(replay.chain.vm_flavor(), ExecMode::Exact, dapp)
        .map_err(|e| e.to_string())?
        .with_concurrency(concurrency);
    let start = Instant::now();
    let mut gas = 0u64;
    for block in blocks {
        gas += engine
            .execute_block(block)
            .iter()
            .map(|cost| cost.gas)
            .sum::<u64>();
    }
    Ok((ms_since(start), gas))
}

/// Re-executes the blocks and times only the full-state root the store
/// computes after each of them.
fn trie_root_replay(replay: &Replay, dapp: DApp, blocks: &[Vec<Payload>]) -> Result<f64, String> {
    let mut engine = ExecutionEngine::with_dapp(replay.chain.vm_flavor(), ExecMode::Exact, dapp)
        .map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for block in blocks {
        engine.execute_block(block);
        let state = &engine
            .contract()
            .expect("engine built with a DApp")
            .initial_state;
        let start = Instant::now();
        black_box(trie::root(&state.sorted_entries()));
        total += ms_since(start);
    }
    Ok(total)
}

/// Nanoseconds per call of the workload's entry point on the prepared
/// and on the metered interpreter.
fn interp_replay(replay: &Replay, dapp: DApp) -> Result<(f64, f64), String> {
    let flavor = replay.chain.vm_flavor();
    let contract = build(dapp, flavor).map_err(|e| e.to_string())?;
    let call = match replay.plan.first().map(|tx| tx.payload) {
        Some(Payload::Invoke {
            call: Some(sel), ..
        }) => {
            let args: Vec<i64> = sel.args[..sel.argc as usize]
                .iter()
                .map(|&a| i64::from(a))
                .collect();
            calls::call_for_entry(dapp, sel.entry, &args)
        }
        _ => calls::call_for(dapp, 0),
    };
    let entry = contract
        .entry_id(call.entry)
        .ok_or_else(|| format!("no prepared entry `{}`", call.entry))?;
    let ctx = TxContext {
        caller: 1,
        args: call.args,
        payload_bytes: call.payload_bytes,
        gas_limit: u64::MAX,
    };
    let interpreter = Interpreter::new(flavor);
    let per_call = |start: Instant| start.elapsed().as_nanos() as f64 / f64::from(INTERP_CALLS);

    let mut state = contract.initial_state.clone();
    let start = Instant::now();
    for _ in 0..INTERP_CALLS {
        let _ =
            black_box(interpreter.execute_prepared(&contract.prepared, entry, &ctx, &mut state));
    }
    let prepared = per_call(start);

    let mut state = contract.initial_state.clone();
    let start = Instant::now();
    for _ in 0..INTERP_CALLS {
        let _ = black_box(interpreter.execute(&contract.program, call.entry, &ctx, &mut state));
    }
    Ok((prepared, per_call(start)))
}

/// Every `Plan` and `Outcomes` frame of the session, as messages.
fn wire_messages(replay: &Replay, result: &RunResult) -> Vec<Message> {
    let plans = replay.plan.chunks(WIRE_CHUNK).map(|chunk| Message::Plan {
        txs: chunk
            .iter()
            .map(|tx| WireTx {
                at_us: tx.at.as_micros(),
                sender: tx.sender,
                kind: 0,
                dapp: 0,
                seq: 0,
                entry: 0,
                args: [0, 0],
                argc: 0,
            })
            .collect(),
    });
    let outcomes = result
        .records
        .chunks(WIRE_CHUNK)
        .map(|chunk| Message::Outcomes {
            txs: chunk
                .iter()
                .map(|rec| WireOutcome {
                    status: rec.status as u8,
                    submit_us: rec.submitted.as_micros(),
                    decide_us: rec.decided.map_or(u64::MAX, |d| d.as_micros()),
                })
                .collect(),
        });
    plans.chain(outcomes).collect()
}

/// Records every per-layer sample of one staged iteration and closes
/// its replay root span.
pub fn sample(staged: &Staged, log: &mut SpanLog, samples: &mut Samples) -> Result<(), String> {
    let replay = &staged.replay;
    let result = &staged.product.result;
    let root = staged.replay_root;

    // 1. Bench-side stage spans (and the replay the staging recorded).
    let stages: Vec<(String, f64)> = log
        .children(staged.iteration)
        .chain(log.children(root))
        .map(|span| (format!("{}_ms", span.name), span.ms()))
        .collect();
    for (name, ms) in &stages {
        if metrics::per_layer(name).is_some() {
            samples.add(name, *ms);
        }
    }
    let covered: u64 = log.children(staged.iteration).map(|s| s.ns()).sum();
    let iteration_ns = log.spans()[staged.iteration].ns();
    samples.add(
        "bench.stage_coverage",
        covered as f64 / iteration_ns.max(1) as f64,
    );

    // 2. The program's own spans.
    let program = program_spans(&staged.telemetry, log, staged.harness_stage);
    let span_ms = |name: &str| program.get(name).copied().unwrap_or(0.0);
    let harness_ms = if replay.wire {
        samples.add(
            "core.wire.session_ms",
            log.self_ns(staged.harness_stage) as f64 / 1e6,
        );
        samples.add("chains.harness.run_ms", span_ms("harness.run"));
        span_ms("harness.run")
    } else {
        log.spans()[staged.harness_stage].ms()
    };
    samples.add(
        "chains.harness.submission_ms",
        span_ms("harness.submission"),
    );
    samples.add("chains.harness.drain_ms", span_ms("harness.drain"));
    let store_ms = span_ms("store.merkleize") + span_ms("store.persist") + span_ms("store.prune");
    samples.add("store.merkleize_ms", span_ms("store.merkleize"));
    samples.add("store.persist_ms", span_ms("store.persist"));
    samples.add("store.prune_ms", span_ms("store.prune"));
    if stages
        .iter()
        .any(|(name, _)| name == "core.secondary.plan_ms")
    {
        samples.add("core.secondary.plan_txs", replay.plan.len() as f64);
    }

    // 3. Replays.
    let params = replay.run.resolved_params(replay.chain, &replay.config);
    let ((admitted, dropped), mempool_ms) = log.time("chains.mempool.replay", root, || {
        mempool_replay(&params, replay, result)
    });
    samples.add("chains.mempool.replay_ms", mempool_ms);
    samples.add("chains.mempool.admitted", admitted as f64);
    samples.add("chains.mempool.dropped", dropped as f64);

    let (quorum, quorum_build_ms) = log.time("net.quorum.build", root, || {
        QuorumModel::new(&replay.config, &NetworkModel::default())
    });
    samples.add("net.quorum.build_ms", quorum_build_ms);
    let nodes = quorum.node_count().max(1);
    let (_, quorum_calls_ms) = log.time("net.quorum.calls", root, || {
        for (k, block) in result.blocks.iter().enumerate() {
            quorum_call(&params, &quorum, k % nodes, u64::from(block.bytes));
        }
    });
    samples.add(
        "net.quorum.call_us",
        quorum_calls_ms * 1e3 / result.blocks.len().max(1) as f64,
    );

    let (events, wheel_ms) = log.time("sim.queue.wheel_drain", root, || {
        queue_replay(QueueBackend::Wheel, result)
    });
    let (_, heap_ms) = log.time("sim.queue.heap_drain", root, || {
        queue_replay(QueueBackend::Heap, result)
    });
    samples.add("sim.queue.events", events as f64);
    samples.add("sim.queue.wheel_drain_ms", wheel_ms);
    samples.add("sim.queue.heap_drain_ms", heap_ms);

    let mut exec_ms = 0.0;
    if let Some(dapp) = replay.dapp {
        if replay.run.exec_mode == ExecMode::Exact {
            let blocks = executed_blocks(replay, result);
            let calls: usize = blocks.iter().map(Vec::len).sum();
            samples.add("chains.exec.calls", calls as f64);
            let mut gas = Vec::new();
            for (name, concurrency) in [
                ("chains.exec.serial", Concurrency::Serial),
                ("chains.exec.parallel2", Concurrency::Parallel(2)),
                ("chains.exec.optimistic2", Concurrency::Optimistic(2)),
            ] {
                let (out, _) = log.time(name, root, || {
                    exec_replay(replay, dapp, &blocks, concurrency)
                });
                let (ms, charged) = out?;
                samples.add(&format!("{name}_ms"), ms);
                gas.push(charged);
                if concurrency == replay.run.concurrency {
                    exec_ms = ms;
                }
            }
            if gas.iter().any(|&g| g != gas[0]) {
                return Err(format!("block executors disagree on gas: {gas:?}"));
            }
            if replay.run.storage.is_some() {
                let (out, _) = log.time("store.trie_root", root, || {
                    trie_root_replay(replay, dapp, &blocks)
                });
                samples.add("store.trie_root_ms", out?);
            }
        }
        let (out, _) = log.time("vm.interp", root, || interp_replay(replay, dapp));
        let (prepared, metered) = out?;
        samples.add("vm.interp.prepared_ns_per_call", prepared);
        samples.add("vm.interp.metered_ns_per_call", metered);
    }

    let mut trace_ms = 0.0;
    if let Some(set) = &result.trace {
        let mut untraced = replay.run.clone();
        untraced.trace = None;
        let harness =
            ChainHarness::with_config(replay.chain, replay.config.clone(), replay.dapp, untraced)?;
        let plan = replay.plan.clone();
        let (twin, untraced_ms) = log.time("telemetry.trace.off_run", root, || {
            harness.run(plan, &result.workload, result.workload_secs)
        });
        if verify::fingerprint(&twin) != verify::fingerprint(result) {
            return Err("tracing changed the simulated outcome".to_string());
        }
        trace_ms = (harness_ms - untraced_ms).max(0.0);
        samples.add("telemetry.trace.overhead_ms", trace_ms);
        samples.add("telemetry.trace.members", set.txs.len() as f64);
        samples.add(
            "telemetry.trace.events",
            set.txs.iter().map(|tx| tx.events.len()).sum::<usize>() as f64,
        );
    }

    let quorum_ms = quorum_build_ms + quorum_calls_ms;
    samples.add(
        "chains.sim.self_ms",
        (harness_ms - exec_ms - store_ms - trace_ms - mempool_ms - quorum_ms).max(0.0),
    );

    if replay.wire {
        let messages = wire_messages(replay, result);
        let (frames, encode_ms) = log.time("core.wire.encode", root, || {
            messages.iter().map(wire::encode).collect::<Vec<_>>()
        });
        let (decoded, decode_ms) = log.time("core.wire.decode", root, || {
            frames
                .iter()
                .map(|frame| wire::decode(&frame[4..]))
                .collect::<Result<Vec<_>, _>>()
        });
        if decoded? != messages {
            return Err("wire frames did not decode to the messages encoded".to_string());
        }
        samples.add("core.wire.encode_ms", encode_ms);
        samples.add("core.wire.decode_ms", decode_ms);
        samples.add(
            "core.wire.bytes",
            frames.iter().map(|f| f.len()).sum::<usize>() as f64,
        );
    }

    if let Some(json) = &staged.product.json {
        let (reparsed, parse_ms) = log.time("core.json.parse", root, || {
            verify::json_matches(json, result)
        });
        reparsed?;
        samples.add("core.json.parse_ms", parse_ms);
        samples.add("core.output.json_bytes", json.len() as f64);
    }

    if let Some(storage) = &result.storage {
        samples.add("store.state_entries", storage.storage_entries as f64);
        samples.add("store.resident_bytes", storage.resident_bytes as f64);
    }
    log.close(root);
    Ok(())
}
