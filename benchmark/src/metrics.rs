//! The metric catalogue: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` lists the same names; `tests/contract.rs`
//! holds the two together.

/// End-to-end metrics, measured with the benchmark's tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tx_per_s", "tx/s"),
    ("run_ms_p25", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, measured by the staged layer pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.spec.parse_ms", "ms"),
    ("core.secondary.plan_ms", "ms"),
    ("core.secondary.plan_txs", "count"),
    ("core.primary.merge_ms", "ms"),
    ("core.output.json_ms", "ms"),
    ("core.output.json_bytes", "bytes"),
    ("core.report.stats_ms", "ms"),
    ("core.json.parse_ms", "ms"),
    ("core.wire.encode_ms", "ms"),
    ("core.wire.decode_ms", "ms"),
    ("core.wire.bytes", "bytes"),
    ("core.wire.session_ms", "ms"),
    ("contracts.build_ms", "ms"),
    ("chains.experiment.plan_ms", "ms"),
    ("chains.harness.run_ms", "ms"),
    ("chains.harness.submission_ms", "ms"),
    ("chains.harness.drain_ms", "ms"),
    ("chains.mempool.replay_ms", "ms"),
    ("chains.mempool.admitted", "count"),
    ("chains.mempool.dropped", "count"),
    ("chains.sim.self_ms", "ms"),
    ("chains.exec.serial_ms", "ms"),
    ("chains.exec.parallel2_ms", "ms"),
    ("chains.exec.optimistic2_ms", "ms"),
    ("chains.exec.calls", "count"),
    ("net.quorum.build_ms", "ms"),
    ("net.quorum.call_us", "us"),
    ("sim.queue.events", "count"),
    ("sim.queue.wheel_drain_ms", "ms"),
    ("sim.queue.heap_drain_ms", "ms"),
    ("vm.interp.prepared_ns_per_call", "ns"),
    ("vm.interp.metered_ns_per_call", "ns"),
    ("store.merkleize_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.prune_ms", "ms"),
    ("store.trie_root_ms", "ms"),
    ("store.state_entries", "count"),
    ("store.resident_bytes", "bytes"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.trace.overhead_ms", "ms"),
    ("telemetry.trace.events", "count"),
    ("telemetry.trace.members", "count"),
    ("alloc.calls_per_run", "count"),
    ("alloc.bytes_per_run", "bytes"),
    ("sim.committed_txs", "count"),
    ("sim.dropped_txs", "count"),
    ("sim.blocks", "count"),
    ("sim.latency_p50_us", "us"),
    ("sim.fingerprint32", "count"),
    ("bench.run_ms_p50", "ms"),
    ("bench.run_ms_p90", "ms"),
    ("bench.run_ms_min", "ms"),
    ("bench.iterations", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.stage_coverage", "ratio"),
];

/// The catalogue's copy of a per-layer metric name; `None` if the
/// catalogue does not list it.
pub fn per_layer(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(n, _)| n).find(|&n| n == name)
}
