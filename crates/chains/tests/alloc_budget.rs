//! Allocation budget of serial block execution.
//!
//! A DApp call is a few hundred instructions, so a handful of allocator
//! calls around each one costs as much as the call itself (20 per
//! Gaming `update` before the interpreter ran in a reused scratch).
//! This test pins what is left. Under `Exact`: the argument vector of
//! each resolved invoke, plus a per-block constant for the result and
//! plan vectors. Under `Profiled` the constant alone: a cache hit
//! resolves no call, so it has no argument vector to allocate. It has
//! a process of its own because it installs a counting global
//! allocator (`diablo_testkit::alloc`).

use diablo_chains::tx::{CallSel, Payload};
use diablo_chains::{ExecMode, ExecutionEngine};
use diablo_contracts::DApp;
use diablo_testkit::alloc::{measure, Counting};
use diablo_vm::VmFlavor;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Calls per block.
const CALLS: u64 = 1_000;
/// Allowed per call: the resolved argument vector.
const PER_CALL: u64 = 1;
/// Allowed per block, whatever its size: the cost, slot, intrinsic and
/// transaction vectors, the plan statistics, and the occasional
/// doubling of a growing state map or write log.
const PER_BLOCK: u64 = 32;

/// Allocator calls `execute_block` makes on `block`, after one warm-up
/// block has grown the scratch, the telemetry shard and the state map.
fn allocations_of_second_block(engine: &mut ExecutionEngine, block: &[Payload]) -> u64 {
    let warm = engine.execute_block(block);
    assert!(warm.iter().all(|cost| cost.ok), "warm-up block must commit");
    if let Some(state) = engine.contract_state_mut() {
        // What the state store does between blocks (empty when the
        // write log is off).
        state.drain_writes();
    }
    let (costs, made) = measure(|| engine.execute_block(block));
    assert!(
        costs.iter().all(|cost| cost.ok),
        "measured block must commit"
    );
    made.calls as u64
}

// One test function: the counter is process-wide, and the harness would
// run two tests on two threads at once.
#[test]
fn serial_exact_blocks_allocate_per_block_not_per_instruction() {
    let gaming: Vec<Payload> = (0..CALLS)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Gaming,
            seq,
            call: Some(CallSel {
                entry: 0, // "update"
                args: [1, 1],
                argc: 2,
            }),
        })
        .collect();
    let mut engine = ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Gaming)
        .expect("Gaming builds on geth");
    let made = allocations_of_second_block(&mut engine, &gaming);
    assert!(
        made <= PER_CALL * CALLS + PER_BLOCK,
        "Gaming: {made} allocations for {CALLS} calls"
    );

    // Profiled: the warm-up block filled the cache, so the measured one
    // is 1,000 hits (or 999 and a refresh), whether the spec named the
    // arguments or left the default call.
    let default_calls: Vec<Payload> = (0..CALLS)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Gaming,
            seq,
            call: None, // update(1, 1)
        })
        .collect();
    for (block, spelling) in [(&gaming, "update(1, 1) named"), (&default_calls, "default")] {
        let mut engine =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Profiled, DApp::Gaming)
                .expect("Gaming builds on geth");
        let made = allocations_of_second_block(&mut engine, block);
        assert!(
            made <= PER_BLOCK,
            "Profiled Gaming, {spelling}: {made} allocations for {CALLS} calls"
        );
    }

    // VideoSharing with the write log on: every upload creates a key,
    // so the state map and the log grow through the measured block.
    let uploads: Vec<Payload> = (0..CALLS)
        .map(|seq| Payload::Invoke {
            dapp: DApp::VideoSharing,
            seq,
            call: None, // upload(VIDEO_BYTES)
        })
        .collect();
    let mut engine =
        ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::VideoSharing)
            .expect("VideoSharing builds on geth");
    engine
        .contract_state_mut()
        .expect("a contract is deployed")
        .track_writes();
    let made = allocations_of_second_block(&mut engine, &uploads);
    assert!(
        made <= PER_CALL * CALLS + PER_BLOCK,
        "VideoSharing: {made} allocations for {CALLS} calls"
    );
}
