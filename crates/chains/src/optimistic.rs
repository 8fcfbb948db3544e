//! Optimistic (Block-STM-style) parallel block execution.
//!
//! The static [`crate::parallel::ParallelExecutor`] schedules from
//! deploy-time read/write sets and must serialize any transaction whose
//! storage footprint is dynamic — which is exactly the shape of the
//! paper's most realistic traffic (per-player gaming cells, hot
//! exchange accounts). [`OptimisticExecutor`] removes that restriction
//! by speculating instead of planning:
//!
//! 1. **Speculate.** Every not-yet-committed transaction executes
//!    against a [`SpeculativeOverlay`]: reads resolve through a frozen
//!    [`MvMemory`] of the other transactions' current speculative
//!    writes (highest-indexed writer below the reader, else committed
//!    state) and are recorded as `(key, value)` pairs; writes buffer in
//!    a private delta.
//! 2. **Validate, in commit order.** A sequential sweep re-checks each
//!    transaction's recorded read-set against the committed state as it
//!    stands at the transaction's turn. All values match → the
//!    speculation is bit-identical to a serial execution (the
//!    interpreter is a deterministic function of its observed loads)
//!    and its delta commits as-is.
//! 3. **Re-execute.** A transaction whose reads went stale re-runs in
//!    the next round against the refreshed view; after
//!    [`MAX_SPECULATIVE_EXECS`] wasted speculations it is executed
//!    serially in place, which is always exact. Limit-suspect outcomes
//!    (a speculative `StateLimitExceeded`, or a commit that would
//!    overflow the flavor's entry cap) also take the serial path,
//!    because entry-count faults depend on global state that concurrent
//!    overlays cannot observe.
//!
//! **Determinism.** Each round's view is frozen before any worker
//! starts, so every speculation — and therefore every read-set, delta,
//! validation verdict and re-execution decision — is a pure function of
//! `(committed state, txs)`. The worker count only changes how the
//! round's executions are distributed over threads, never which
//! executions happen; receipts, gas, final state *and the telemetry
//! counters below* are bit-identical at any thread count, including 1.
//! `tests/optimistic_differential.rs` proves the differential guarantee
//! property-style; `docs/EXECUTION.md` §4 gives the full argument.
//!
//! Unlike the static executor there is no planning prepass and no
//! serial-segment splitting: dynamic footprints are the normal case
//! here, not the fallback.

use diablo_vm::{
    CallOutcome, ContractState, ExecError, Interpreter, MvMemory, OverlayDelta, PreparedProgram,
    ReadSet, Scratch, SpeculativeOverlay, StateLimits,
};

use crate::parallel::BlockTx;

/// How many times one transaction may execute speculatively (initial
/// run included) before the executor stops betting on it and re-executes
/// it serially at its commit turn. Two attempts let one round of
/// refreshed estimates resolve short dependency chains; anything hotter
/// converges through the exact serial valve instead of thrashing.
pub const MAX_SPECULATIVE_EXECS: u32 = 2;

/// One stored speculation: what the execution observed, what it would
/// write, and the caller-mapped outcome to return if it commits.
struct Speculation<R> {
    reads: ReadSet,
    delta: OverlayDelta,
    mapped: R,
    /// The receipt was `Err(StateLimitExceeded)`: the verdict depends on
    /// an entry count this speculation could not observe exactly, so it
    /// must not commit without a serial re-execution.
    limit_fault: bool,
}

/// Schedule-independent statistics of one optimistically executed
/// block, recorded into telemetry by [`OptimisticStats::record`].
///
/// Everything here is a pure function of `(committed state, txs)` —
/// the round structure never consults the worker count — so snapshots
/// stay byte-identical across thread counts, like
/// [`crate::parallel::PlanStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimisticStats {
    /// Transactions in the block.
    pub txs: usize,
    /// Speculation rounds until the block converged.
    pub rounds: u64,
    /// Speculative executions across all rounds (≥ `txs`; the excess is
    /// re-execution work caused by conflicts).
    pub speculations: u64,
    /// Stored speculations discarded because their read-set went stale.
    pub validation_aborts: u64,
    /// Transactions that fell through to an exact in-place serial
    /// execution (speculation exhausted or limit-suspect outcome).
    pub serial_reexecs: u64,
}

impl OptimisticStats {
    /// Records the statistics into the telemetry recorder.
    pub fn record(&self) {
        diablo_telemetry::counter!("optimistic.blocks");
        diablo_telemetry::counter!("optimistic.txs", self.txs as u64);
        diablo_telemetry::counter!("optimistic.speculations", self.speculations);
        diablo_telemetry::counter!("optimistic.validation_aborts", self.validation_aborts);
        diablo_telemetry::counter!("optimistic.serial_reexecs", self.serial_reexecs);
        diablo_telemetry::record!("optimistic.rounds_per_block", self.rounds);
    }
}

/// Executes committed batches by optimistic speculation while
/// preserving serial semantics bit for bit. See the module docs for the
/// protocol.
#[derive(Debug, Clone, Copy)]
pub struct OptimisticExecutor {
    threads: usize,
}

impl OptimisticExecutor {
    /// An executor that spreads each speculation round over up to
    /// `threads` workers. The thread count is pure throughput: results
    /// and telemetry are identical at any value, including 1.
    pub fn new(threads: usize) -> OptimisticExecutor {
        OptimisticExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `txs` against `state`, returning `map(index, outcome)`
    /// per transaction in canonical order — the same contract as
    /// [`crate::parallel::ParallelExecutor::execute`]: outcomes and the
    /// final state are identical to running
    /// [`Interpreter::execute_prepared`] over the batch serially, and
    /// `map` runs on the worker that produced the outcome.
    ///
    /// `map` may be invoked more than once for one index (each
    /// speculative re-execution maps its fresh outcome; only the
    /// committed invocation's value is returned), so it should be a
    /// pure condensation of the outcome.
    pub fn execute<R, F>(
        &self,
        vm: &Interpreter,
        prepared: &PreparedProgram,
        state: &mut ContractState,
        txs: &[BlockTx],
        map: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Result<CallOutcome<'_>, ExecError>) -> R + Sync,
    {
        self.execute_counting(vm, prepared, state, txs, map).0
    }

    /// Like [`OptimisticExecutor::execute`], additionally returning how
    /// many times each transaction ran (speculative executions plus any
    /// serial-valve re-execution). The counts are part of the
    /// deterministic protocol — identical at any worker count — and
    /// feed the lifecycle tracer's `executed` annotation.
    pub fn execute_counting<R, F>(
        &self,
        vm: &Interpreter,
        prepared: &PreparedProgram,
        state: &mut ContractState,
        txs: &[BlockTx],
        map: F,
    ) -> (Vec<R>, Vec<u32>)
    where
        R: Send,
        F: Fn(usize, Result<CallOutcome<'_>, ExecError>) -> R + Sync,
    {
        let n = txs.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let limits = prepared.flavor().state_limits();
        let mut slots: Vec<Option<Speculation<R>>> = (0..n).map(|_| None).collect();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut execs = vec![0u32; n];
        let mut stats = OptimisticStats {
            txs: n,
            ..OptimisticStats::default()
        };
        // For the serial valve, which runs on this thread.
        let mut scratch = Scratch::default();

        // `next` is the commit frontier: txs below it are final.
        let mut next = 0usize;
        while next < n {
            stats.rounds += 1;

            // Freeze this round's view from the surviving speculative
            // deltas. Committed effects live in `state`, not here.
            let mut mv = MvMemory::new();
            for (i, slot) in slots.iter().enumerate().skip(next) {
                if let Some(s) = slot {
                    mv.insert_delta(i as u32, &s.delta);
                }
            }

            // The round's execution set: transactions never executed,
            // plus stored speculations whose reads no longer resolve to
            // the recorded values under the frozen view — unless their
            // speculation budget is spent (those wait for the serial
            // valve at their commit turn instead of thrashing).
            let run: Vec<usize> = (next..n)
                .filter(|&i| match &slots[i] {
                    None => true,
                    Some(s) => {
                        execs[i] < MAX_SPECULATIVE_EXECS
                            && !reads_hold(&s.reads, state, &mv, i as u32)
                    }
                })
                .collect();
            stats.validation_aborts += run.iter().filter(|&&i| slots[i].is_some()).count() as u64;
            stats.speculations += run.len() as u64;
            for &i in &run {
                execs[i] += 1;
            }

            // Speculate in parallel over contiguous chunks of the run
            // set. Each worker reads only the frozen view and the
            // committed base, so chunking is pure load-balancing.
            if !run.is_empty() {
                diablo_telemetry::span!("optimistic.speculate");
                let committed: &ContractState = state;
                let mv = &mv;
                let map = &map;
                let chunk = run.len().div_ceil(self.threads.min(run.len()));
                let produced: Vec<Vec<(usize, Speculation<R>)>> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = run
                            .chunks(chunk)
                            .map(|ixs| {
                                scope.spawn(move || {
                                    let mut scratch = Scratch::default();
                                    ixs.iter()
                                        .map(|&i| {
                                            let (entry, ctx) = &txs[i];
                                            let mut view =
                                                SpeculativeOverlay::new(committed, mv, i as u32);
                                            let r = vm.execute_prepared_in(
                                                &mut scratch,
                                                prepared,
                                                *entry,
                                                ctx,
                                                &mut view,
                                            );
                                            let limit_fault =
                                                matches!(r, Err(ExecError::StateLimitExceeded));
                                            let mapped = map(i, r);
                                            let (reads, delta) = view.into_parts();
                                            let spec = Speculation {
                                                reads,
                                                delta,
                                                mapped,
                                                limit_fault,
                                            };
                                            (i, spec)
                                        })
                                        .collect()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("speculation worker panicked"))
                            .collect()
                    });
                for batch in produced {
                    for (i, spec) in batch {
                        slots[i] = Some(spec);
                    }
                }
            }

            // Commit-order validation sweep. `state` evolves as deltas
            // land, so later validations see earlier commits — exactly
            // the state a serial execution would be at.
            diablo_telemetry::span!("optimistic.validate");
            while next < n {
                let s = slots[next].as_ref().expect("uncommitted txs are always speculated");
                let valid = s.reads.iter().all(|&(key, value)| state.load(key) == value);
                if valid && !s.limit_fault && entry_budget_holds(state, &s.delta, &limits) {
                    let s = slots[next].take().expect("checked above");
                    state.apply(s.delta);
                    out[next] = Some(s.mapped);
                    next += 1;
                    continue;
                }
                if !valid && execs[next] < MAX_SPECULATIVE_EXECS {
                    // Worth another speculation round: the next round's
                    // view resolves this transaction's reads against
                    // the now-advanced committed prefix.
                    break;
                }
                // Serial valve: speculation exhausted or limit-suspect.
                // Executing at the commit frontier against the real
                // state is exact by definition.
                if !valid {
                    stats.validation_aborts += 1;
                }
                stats.serial_reexecs += 1;
                // The re-execution commits immediately below, so the
                // budget check never sees this increment.
                execs[next] += 1;
                slots[next] = None;
                let (entry, ctx) = &txs[next];
                let r = vm.execute_prepared_in(&mut scratch, prepared, *entry, ctx, state);
                out[next] = Some(map(next, r));
                next += 1;
            }
        }

        if diablo_telemetry::enabled() {
            stats.record();
        }
        let out = out
            .into_iter()
            .map(|r| r.expect("every transaction committed"))
            .collect();
        (out, execs)
    }
}

/// Whether every recorded read still resolves to its recorded value for
/// a reader at `reader`, under `(committed, mv)`. Used for round
/// scheduling; the commit sweep re-checks against the committed state
/// alone (where `mv` holds nothing below the frontier, the two checks
/// coincide).
fn reads_hold(reads: &ReadSet, committed: &ContractState, mv: &MvMemory, reader: u32) -> bool {
    reads.iter().all(|&(key, value)| {
        mv.read(key, reader).unwrap_or_else(|| committed.load(key)) == value
    })
}

/// Whether committing `delta` keeps the entry count within the flavor's
/// cap. Entry counts only grow (rollback restores values but never
/// removes keys), so "final count fits" is exactly "every intermediate
/// new-key store would have succeeded serially" — see
/// `docs/EXECUTION.md` §4.3.
fn entry_budget_holds(state: &ContractState, delta: &OverlayDelta, limits: &StateLimits) -> bool {
    if delta.written_keys() == 0 {
        return true;
    }
    let new_keys = delta
        .entries()
        .filter(|&(key, _)| !state.contains_key(key))
        .count();
    state.entry_count() + new_keys <= limits.max_entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_contracts::{build, DApp};
    use diablo_vm::{Receipt, TxContext, VmFlavor, Word};

    fn block(prepared: &PreparedProgram, specs: &[(&str, Vec<Word>)]) -> Vec<BlockTx> {
        specs
            .iter()
            .enumerate()
            .map(|(seq, (entry, args))| {
                let entry = prepared.entry_id(entry).expect("entry exists");
                let ctx = TxContext {
                    caller: (seq % 10_000) as i64 + 1,
                    args: args.clone(),
                    payload_bytes: 0,
                    gas_limit: u64::MAX,
                };
                (entry, ctx)
            })
            .collect()
    }

    fn serial(
        vm: &Interpreter,
        prepared: &PreparedProgram,
        state: &mut ContractState,
        txs: &[BlockTx],
    ) -> Vec<Result<Receipt, ExecError>> {
        txs.iter()
            .map(|(entry, ctx)| vm.execute_prepared(prepared, *entry, ctx, state))
            .collect()
    }

    fn assert_optimistic_matches_serial(
        flavor: VmFlavor,
        dapp: DApp,
        specs: &[(&str, Vec<Word>)],
        threads: usize,
    ) {
        let contract = build(dapp, flavor).expect("buildable");
        let vm = Interpreter::new(flavor);
        let txs = block(&contract.prepared, specs);

        let mut s_state = contract.initial_state.clone();
        let want = serial(&vm, &contract.prepared, &mut s_state, &txs);

        let mut o_state = contract.initial_state.clone();
        let got = OptimisticExecutor::new(threads).execute(
            &vm,
            &contract.prepared,
            &mut o_state,
            &txs,
            |_, r| r.map(|call| call.to_receipt()),
        );

        assert_eq!(want, got, "{dapp:?} receipts diverged at {threads} threads");
        assert_eq!(s_state, o_state, "{dapp:?} state diverged at {threads} threads");
    }

    #[test]
    fn dynamic_footprints_execute_optimistically_and_match_serial() {
        // The exact block the static executor must serialize (gaming
        // updates have dynamic per-player keys): three players → short
        // conflict chains that speculation resolves.
        let specs: Vec<(&str, Vec<Word>)> =
            (0..48).map(|i| ("update", vec![1 + (i % 3), 1])).collect();
        for threads in [1, 2, 4, 8] {
            assert_optimistic_matches_serial(VmFlavor::Geth, DApp::Gaming, &specs, threads);
        }
    }

    #[test]
    fn hot_key_chain_converges_to_serial_result() {
        // Worst case: every transaction updates the same player, so
        // every speculation past the frontier is stale. The executor
        // must converge through the serial valve, bit-identically.
        let specs: Vec<(&str, Vec<Word>)> =
            (0..40).map(|_| ("update", vec![1, 1])).collect();
        for threads in [2, 8] {
            assert_optimistic_matches_serial(VmFlavor::Geth, DApp::Gaming, &specs, threads);
        }
    }

    #[test]
    fn conflict_light_exchange_block_matches_serial() {
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        let specs: Vec<(&str, Vec<Word>)> =
            (0..60).map(|i| (buys[i % buys.len()], vec![])).collect();
        for threads in [2, 4, 8] {
            assert_optimistic_matches_serial(VmFlavor::Geth, DApp::Exchange, &specs, threads);
        }
    }

    #[test]
    fn mixed_readers_and_writers_match_serial() {
        // checkStock reads what every buy writes: validation aborts
        // cascade, re-execution must restore serial semantics.
        let mut specs: Vec<(&str, Vec<Word>)> = Vec::new();
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        for i in 0..30 {
            specs.push((buys[i % buys.len()], vec![]));
            if i % 4 == 0 {
                specs.push(("checkStock", vec![]));
            }
        }
        assert_optimistic_matches_serial(VmFlavor::Geth, DApp::Exchange, &specs, 4);
    }

    #[test]
    fn entry_limit_faults_match_serial_on_avm() {
        // The AVM caps contract state at 64 entries; gaming updates of
        // distinct players create fresh cells until the cap trips. The
        // faulting transaction index must match serial exactly (the
        // limit-suspect path forces a serial re-execution).
        let specs: Vec<(&str, Vec<Word>)> =
            (0..80).map(|i| ("update", vec![1 + i, 1])).collect();
        for threads in [2, 8] {
            assert_optimistic_matches_serial(VmFlavor::Avm, DApp::Gaming, &specs, threads);
        }
    }

    #[test]
    fn results_are_thread_count_independent() {
        let specs: Vec<(&str, Vec<Word>)> =
            (0..30).map(|i| ("update", vec![1 + (i % 5), 2])).collect();
        let contract = build(DApp::Gaming, VmFlavor::Geth).expect("buildable");
        let vm = Interpreter::new(VmFlavor::Geth);
        let txs = block(&contract.prepared, &specs);

        let run = |threads: usize| {
            let mut state = contract.initial_state.clone();
            let receipts = OptimisticExecutor::new(threads).execute(
                &vm,
                &contract.prepared,
                &mut state,
                &txs,
                |_, r| r.map(|call| call.to_receipt()),
            );
            (receipts, state)
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(one, run(threads), "outcome varies with {threads} threads");
        }
    }

    #[test]
    fn empty_and_single_tx_blocks_commit() {
        let contract = build(DApp::WebService, VmFlavor::Geth).expect("buildable");
        let vm = Interpreter::new(VmFlavor::Geth);
        let mut state = contract.initial_state.clone();
        let none: Vec<BlockTx> = Vec::new();
        let got = OptimisticExecutor::new(4).execute(
            &vm,
            &contract.prepared,
            &mut state,
            &none,
            |_, r| r.map(|call| call.to_receipt()),
        );
        assert!(got.is_empty());

        let txs = block(&contract.prepared, &[("add", vec![])]);
        let got = OptimisticExecutor::new(4).execute(
            &vm,
            &contract.prepared,
            &mut state,
            &txs,
            |_, r| r.map(|call| call.to_receipt()),
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].is_ok());
        assert_eq!(state.load(diablo_contracts::webservice::COUNTER_KEY), 1);
    }
}
