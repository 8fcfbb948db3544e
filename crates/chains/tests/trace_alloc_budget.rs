//! Allocation budget of per-transaction tracing.
//!
//! "Cheap enough to leave on" as a count instead of a timing: what a
//! traced run allocates beyond its untraced twin is what `Tracer::arm`
//! makes (the membership bitmap, its per-512-id prefix counts and the
//! member trails; under a bound also the rank histogram of 4,096
//! buckets and the edge bucket's `(rank, id)` pairs, both freed before
//! it returns) plus the growth of each member's event vector — 4, 8, 16
//! slots for the ten events a trail can hold. Nothing is allocated for
//! a transaction that is not a member, so under a bound the excess does
//! not depend on how long the run is. With the tracer compiled out the
//! excess is zero.
//! It has a process of its own because it installs a counting global
//! allocator (`diablo_testkit::alloc`).

use diablo_chains::{Chain, Experiment};
use diablo_contracts::DApp;
use diablo_net::DeploymentKind;
use diablo_telemetry::trace::TraceSample;
use diablo_testkit::alloc::{measure, Counting};
use diablo_workloads::traces;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allowed per member: its event vector's three growth steps.
const PER_MEMBER: u64 = 3;
/// Allowed per traced run, whatever its size: the five vectors
/// `Tracer::arm` makes, with room to spare.
const PER_RUN: u64 = 8;

/// Allocator calls of one pinned-seed run, `(calls, members)`. The run
/// is single-threaded, so its calls are this thread's: under load,
/// another thread of the test process once put 4 calls into a
/// process-wide count of a run, and the equalities below failed.
fn run(secs: u64, sample: Option<TraceSample>) -> (u64, u64) {
    let mut experiment = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(200.0, secs),
    )
    .with_dapp(DApp::Exchange)
    .with_seed(42)
    .with_grace(20);
    experiment.run.trace = sample;
    let (result, cost) = measure(|| experiment.run());
    let made = cost.calls_here as u64;
    assert_eq!(result.committed(), result.submitted(), "every trail must be whole");
    let members = result.trace.map_or(0, |set| set.txs.len() as u64);
    (made, members)
}

// One test function: the counter is process-wide, and the harness would
// run two tests on two threads at once.
#[test]
fn tracing_allocates_per_member_not_per_transaction() {
    // The first run grows the telemetry shard; the second must then
    // repeat, or the differences below mean nothing.
    run(10, None);
    let (untraced, _) = run(10, None);
    assert_eq!(run(10, None).0, untraced, "an untraced run's allocations do not repeat");

    let (bounded, bounded_members) = run(10, Some(TraceSample::Limit(64)));
    let (full, full_members) = run(10, Some(TraceSample::All));
    let (untraced_long, _) = run(40, None);
    let (bounded_long, _) = run(40, Some(TraceSample::Limit(64)));
    let excess = bounded - untraced;
    let excess_full = full - untraced;
    let excess_long = bounded_long - untraced_long;

    if !diablo_telemetry::enabled() {
        assert_eq!((excess, excess_full, excess_long), (0, 0, 0));
        return;
    }
    assert_eq!((bounded_members, full_members), (64, 2_000));
    assert!(
        excess <= PER_MEMBER * bounded_members + PER_RUN,
        "Limit(64): {excess} allocations beyond the untraced run"
    );
    assert!(
        excess_full <= PER_MEMBER * full_members + PER_RUN,
        "All: {excess_full} allocations beyond the untraced run"
    );
    assert!(
        excess_long <= excess,
        "Limit(64): {excess_long} allocations beyond the untraced run at 4x the length, {excess} at 1x"
    );
}
