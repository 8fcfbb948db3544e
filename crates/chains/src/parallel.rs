//! Deterministic parallel block execution.
//!
//! At commit time a block is a batch of transactions with a canonical
//! order, and the receipts, gas and final state of the block must not
//! depend on how the simulator chooses to execute it — determinism is
//! what makes every experiment replayable from a seed. Serial execution
//! trivially guarantees that but leaves all cores except one idle, and
//! since every committed transaction now runs through the VM, block
//! commit dominates the wall-clock cost of the paper's large
//! experiments.
//!
//! [`ParallelExecutor`] exploits the static storage footprints computed
//! at deploy time ([`diablo_vm::RwSet`], stored on the prepared
//! program): two transactions *conflict* when one's writes intersect
//! the other's reads or writes (read/read sharing is free), when both
//! store blobs, or when either footprint has a dynamic (non-constant)
//! key. The executor partitions a batch into connected components of
//! the conflict graph, assigns whole components to a scoped worker
//! pool, and executes each component **in canonical transaction order**
//! against a copy-on-write [`Overlay`] of the base state. Components
//! touch disjoint keys by construction, so the per-worker
//! [`diablo_vm::OverlayDelta`]s commute and the merged state, every receipt and
//! every rollback is bit-identical to serial execution — which
//! `tests/parallel_differential.rs` proves property-style across
//! flavors, DApps and thread counts.
//!
//! A static footprint is a function of the entry point alone (constant
//! folding never sees per-transaction arguments), so the planner builds
//! the conflict graph over the block's *distinct entry points* — a
//! handful of nodes — rather than over its thousands of transactions,
//! and then buckets transactions into entry-level components with one
//! indexed pass. Transactions of one self-conflicting entry (any entry
//! that writes or stores blobs) genuinely conflict pairwise and share a
//! component; transactions of an isolated read-only entry are mutually
//! independent and become one schedulable unit each.
//!
//! Transactions whose footprint is dynamic split the batch: the prefix
//! segment runs (possibly in parallel), then the dynamic transaction
//! runs serially against the merged base, then the next segment starts.
//! A segment that could plausibly reach the flavor's entry-count limit
//! also falls back to serial, because limit faults depend on the exact
//! global entry count, which concurrent overlays cannot observe.
//!
//! Every worker runs its calls in one reused [`Scratch`], and each
//! outcome is passed through a caller-supplied mapping closure *on the
//! worker that produced it*, while its events still sit in that scratch:
//! callers that only need a summary (gas, ops, success — see
//! `ExecutionEngine::execute_block`) never copy them out. A worker
//! publishes its scratch's telemetry once, when its share is done.

use diablo_vm::{
    CallOutcome, ContractState, EntryId, ExecError, Interpreter, Overlay, PreparedProgram,
    Scratch, StateLimits, TxContext,
};

/// One transaction of a committed batch: which entry point to run and
/// the transaction context to run it under.
pub type BlockTx = (EntryId, TxContext);

/// Union-find with union-by-minimum, so each component's representative
/// is its earliest member — components then enumerate in canonical
/// first-appearance order for free.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra < rb {
            self.parent[rb] = ra;
        } else if rb < ra {
            self.parent[ra] = rb;
        }
    }
}

/// Schedule-independent statistics about a block's conflict plan.
///
/// These describe the *block content* — how a batch decomposes into
/// conflict components, how much of it is forced serial — and are a
/// pure function of `(prepared, initial state, txs)`. They deliberately
/// ignore the worker count: the telemetry snapshot of a run must be
/// identical whether the block later executes serially or on any
/// number of threads, so nothing here may depend on the schedule. The
/// "imbalance" metric is the largest component's share of the block,
/// which bounds the best achievable speedup regardless of how
/// components are assigned to workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Transactions in the block.
    pub txs: usize,
    /// Multi-transaction conflict components across all static segments.
    pub components: usize,
    /// Singleton components (isolated read-only transactions).
    pub singletons: usize,
    /// Transactions forced serial: dynamic footprints plus segments
    /// whose plan degenerates (single component or entry-limit hazard).
    pub serial_fallback_txs: usize,
    /// Static segments that fell back to serial execution.
    pub serial_segments: usize,
    /// Size of the largest schedulable unit (component or serial
    /// segment) in transactions.
    pub largest_unit_txs: usize,
}

impl PlanStats {
    /// Largest schedulable unit as a percentage of the block — a
    /// schedule-independent imbalance bound (100 means the whole block
    /// is one unit and parallelism cannot help).
    pub fn imbalance_pct(&self) -> u64 {
        if self.txs == 0 {
            return 0;
        }
        (self.largest_unit_txs as u64 * 100) / self.txs as u64
    }

    /// Records the plan statistics into the telemetry recorder.
    pub fn record(&self) {
        diablo_telemetry::counter!("parallel.plan.blocks");
        diablo_telemetry::counter!("parallel.plan.components", self.components as u64);
        diablo_telemetry::counter!("parallel.plan.singletons", self.singletons as u64);
        diablo_telemetry::counter!(
            "parallel.plan.serial_fallback_txs",
            self.serial_fallback_txs as u64
        );
        diablo_telemetry::counter!(
            "parallel.plan.serial_segments",
            self.serial_segments as u64
        );
        diablo_telemetry::record!("parallel.plan.block_txs", self.txs as u64);
        diablo_telemetry::record!("parallel.plan.imbalance_pct", self.imbalance_pct());
    }
}

/// Computes the [`PlanStats`] of a block without executing it.
///
/// Mirrors the planner's segmentation (dynamic footprints split the
/// batch) and per-segment component decomposition, but never consults a
/// worker count, so the result is identical for serial and parallel
/// runs of the same block. The entry-limit hazard is evaluated against
/// the block's *initial* entry count for every segment — a pure
/// approximation of the planner's per-segment check (which sees the
/// state as it grows), close enough for telemetry and, crucially,
/// deterministic before execution starts.
pub fn plan_stats(
    prepared: &PreparedProgram,
    state: &ContractState,
    txs: &[BlockTx],
) -> PlanStats {
    let limits = prepared.flavor().state_limits();
    let mut stats = PlanStats {
        txs: txs.len(),
        ..PlanStats::default()
    };

    let mut seg_start = 0;
    for i in 0..=txs.len() {
        let at_dynamic = i < txs.len() && !prepared.rw_set(txs[i].0).is_static();
        if i == txs.len() || at_dynamic {
            if i > seg_start {
                segment_stats(prepared, state, &txs[seg_start..i], &limits, &mut stats);
            }
            if at_dynamic {
                stats.serial_fallback_txs += 1;
                stats.largest_unit_txs = stats.largest_unit_txs.max(1);
            }
            seg_start = i + 1;
        }
    }
    stats
}

/// Folds one all-static segment into `stats`, mirroring
/// [`ParallelExecutor::plan`] minus every thread-count test.
fn segment_stats(
    prepared: &PreparedProgram,
    state: &ContractState,
    seg: &[BlockTx],
    limits: &StateLimits,
    stats: &mut PlanStats,
) {
    let serial = |stats: &mut PlanStats| {
        stats.serial_segments += 1;
        stats.serial_fallback_txs += seg.len();
        stats.largest_unit_txs = stats.largest_unit_txs.max(seg.len());
    };

    if seg.len() < 2 {
        return serial(stats);
    }

    let mut tx_count = vec![0usize; prepared.entry_count()];
    let mut present: Vec<EntryId> = Vec::new();
    for (entry, _) in seg {
        if tx_count[entry.index()] == 0 {
            present.push(*entry);
        }
        tx_count[entry.index()] += 1;
    }

    let write_keys: usize = present
        .iter()
        .map(|&e| prepared.rw_set(e).writes.len() * tx_count[e.index()])
        .sum();
    if state.entry_count().saturating_add(write_keys) > limits.max_entries {
        return serial(stats);
    }

    let mut dsu = Dsu::new(present.len());
    for a in 0..present.len() {
        for b in a + 1..present.len() {
            if prepared
                .rw_set(present[a])
                .conflicts_with(prepared.rw_set(present[b]))
            {
                dsu.union(a, b);
            }
        }
    }

    let mut members = vec![0usize; present.len()];
    for slot in 0..present.len() {
        members[dsu.find(slot)] += 1;
    }
    let mut comp_size_of_root = vec![0usize; present.len()];
    let mut singletons = 0usize;
    let mut comp_count = 0usize;
    for (slot, &entry) in present.iter().enumerate() {
        let root = dsu.find(slot);
        let rw = prepared.rw_set(entry);
        if members[root] == 1 && rw.writes.is_empty() && !rw.stores_blob {
            singletons += tx_count[entry.index()];
            continue;
        }
        if comp_size_of_root[root] == 0 {
            comp_count += 1;
        }
        comp_size_of_root[root] += tx_count[entry.index()];
    }
    if comp_count + singletons < 2 {
        return serial(stats);
    }

    stats.components += comp_count;
    stats.singletons += singletons;
    let largest = comp_size_of_root.iter().copied().max().unwrap_or(0).max(
        usize::from(singletons > 0),
    );
    stats.largest_unit_txs = stats.largest_unit_txs.max(largest);
}

/// Executes committed batches across a scoped worker pool while
/// preserving serial semantics bit for bit. See the module docs for the
/// scheduling model.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor that uses up to `threads` workers per segment (a
    /// value below 2 degenerates to serial execution).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `txs` against `state`, returning `map(index, outcome)`
    /// per transaction, in canonical order. Outcomes — receipts, errors,
    /// rollbacks and the final state — are identical to running
    /// [`Interpreter::execute_prepared`] over the batch serially; `map`
    /// runs on the worker that executed the transaction and sees the
    /// events borrowed from that worker's scratch, so it must copy out
    /// whatever it wants to keep ([`CallOutcome::to_receipt`] keeps
    /// everything).
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
        let limits = prepared.flavor().state_limits();
        let mut results: Vec<Option<R>> = (0..txs.len()).map(|_| None).collect();
        // For the transactions this thread runs itself.
        let mut scratch = Scratch::default();

        // Split the batch at transactions without a static footprint:
        // those run serially against the merged base, in order.
        let mut seg_start = 0;
        for i in 0..=txs.len() {
            let at_dynamic = i < txs.len() && !prepared.rw_set(txs[i].0).is_static();
            if i == txs.len() || at_dynamic {
                if i > seg_start {
                    self.run_segment(
                        vm,
                        prepared,
                        state,
                        txs,
                        seg_start..i,
                        &limits,
                        &map,
                        &mut results,
                        &mut scratch,
                    );
                }
                if at_dynamic {
                    let (entry, ctx) = &txs[i];
                    let r = vm.execute_prepared_in(&mut scratch, prepared, *entry, ctx, state);
                    results[i] = Some(map(i, r));
                }
                seg_start = i + 1;
            }
        }
        scratch.publish();
        results
            .into_iter()
            .map(|r| r.expect("every transaction was slotted"))
            .collect()
    }

    /// Executes one all-static segment, in parallel when it decomposes
    /// into ≥ 2 conflict components and no entry-limit hazard exists.
    #[allow(clippy::too_many_arguments)]
    fn run_segment<R, F>(
        &self,
        vm: &Interpreter,
        prepared: &PreparedProgram,
        state: &mut ContractState,
        txs: &[BlockTx],
        range: std::ops::Range<usize>,
        limits: &StateLimits,
        map: &F,
        results: &mut [Option<R>],
        scratch: &mut Scratch,
    ) where
        R: Send,
        F: Fn(usize, Result<CallOutcome<'_>, ExecError>) -> R + Sync,
    {
        let seg = &txs[range.clone()];
        let offset = range.start;

        let comps = self.plan(prepared, state, seg, limits);
        let Some(comps) = comps else {
            for (j, (entry, ctx)) in seg.iter().enumerate() {
                let r = vm.execute_prepared_in(scratch, prepared, *entry, ctx, state);
                results[offset + j] = Some(map(offset + j, r));
            }
            return;
        };

        // Whole components go to the least-loaded worker, in order: a
        // component's transactions stay in canonical order on one worker
        // and no inter-wave barrier is needed, because components are
        // mutually conflict-free by construction.
        let workers = self.threads.min(comps.len());
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for comp in comps {
            let w = (0..workers)
                .min_by_key(|&w| assignments[w].len())
                .expect("at least one worker");
            assignments[w].extend(comp);
        }

        let base: &ContractState = state;
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .map(|ixs| {
                    scope.spawn(move || {
                        let mut overlay = Overlay::new(base);
                        let mut scratch = Scratch::default();
                        let out: Vec<(usize, R)> = ixs
                            .iter()
                            .map(|&j| {
                                let (entry, ctx) = &seg[j];
                                let r = vm.execute_prepared_in(
                                    &mut scratch,
                                    prepared,
                                    *entry,
                                    ctx,
                                    &mut overlay,
                                );
                                (j, map(offset + j, r))
                            })
                            .collect();
                        scratch.publish();
                        (out, overlay.into_delta())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });

        for (out, delta) in outcomes {
            state.apply(delta);
            for (j, r) in out {
                results[offset + j] = Some(r);
            }
        }
    }

    /// Plans a segment: `Some(components)`, each a canonically ordered
    /// transaction-index list, when parallel execution is both
    /// profitable and provably serial-equivalent; `None` to request the
    /// serial fallback.
    ///
    /// The conflict graph is built over the distinct entry points of the
    /// segment (footprints are per-entry), then transactions bucket into
    /// their entry's component with one indexed pass. Transactions of an
    /// isolated read-only entry do not conflict with anything, not even
    /// each other, and are emitted as singleton components.
    fn plan(
        &self,
        prepared: &PreparedProgram,
        state: &ContractState,
        seg: &[BlockTx],
        limits: &StateLimits,
    ) -> Option<Vec<Vec<usize>>> {
        if seg.len() < 2 || self.threads < 2 {
            return None;
        }

        // Distinct entries present, in first-transaction order, plus the
        // per-entry transaction counts.
        let mut tx_count = vec![0usize; prepared.entry_count()];
        let mut present: Vec<EntryId> = Vec::new();
        for (entry, _) in seg {
            if tx_count[entry.index()] == 0 {
                present.push(*entry);
            }
            tx_count[entry.index()] += 1;
        }

        // Entry-limit hazard: if every static write key were new, could
        // the block approach the flavor's entry cap? Overlays enforce
        // the cap exactly per worker but cannot see each other's
        // insertions, so near the cap only serial execution observes
        // the faults at the right transactions.
        let write_keys: usize = present
            .iter()
            .map(|&e| prepared.rw_set(e).writes.len() * tx_count[e.index()])
            .sum();
        if state.entry_count().saturating_add(write_keys) > limits.max_entries {
            return None;
        }

        // Conflict components over the distinct entries (a handful of
        // nodes, so the quadratic pair scan is trivially cheap).
        let mut dsu = Dsu::new(present.len());
        for a in 0..present.len() {
            for b in a + 1..present.len() {
                if prepared
                    .rw_set(present[a])
                    .conflicts_with(prepared.rw_set(present[b]))
                {
                    dsu.union(a, b);
                }
            }
        }

        // Component ids in first-appearance order. An entry *splits*
        // (one singleton component per transaction) when it is alone in
        // its component and read-only: its transactions conflict with
        // nothing at all. usize::MAX marks a splitting entry.
        let mut comp_count = 0usize;
        let mut comp_of_slot = vec![0usize; present.len()];
        let mut comp_sizes: Vec<usize> = Vec::new();
        let mut members = vec![0usize; present.len()]; // per root
        for slot in 0..present.len() {
            members[dsu.find(slot)] += 1;
        }
        let mut comp_of_root = vec![usize::MAX; present.len()];
        let mut singletons = 0usize;
        for (slot, &entry) in present.iter().enumerate() {
            let root = dsu.find(slot);
            let rw = prepared.rw_set(entry);
            if members[root] == 1 && rw.writes.is_empty() && !rw.stores_blob {
                comp_of_slot[slot] = usize::MAX;
                singletons += tx_count[entry.index()];
                continue;
            }
            if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = comp_count;
                comp_sizes.push(0);
                comp_count += 1;
            }
            comp_of_slot[slot] = comp_of_root[root];
            comp_sizes[comp_of_root[root]] += tx_count[entry.index()];
        }
        if comp_count + singletons < 2 {
            return None;
        }

        // Bucket transactions, canonical order within each component;
        // splitting entries append singleton components as they occur.
        let mut comp_of_entry = vec![usize::MAX; prepared.entry_count()];
        for (slot, &entry) in present.iter().enumerate() {
            comp_of_entry[entry.index()] = comp_of_slot[slot];
        }
        let mut comps: Vec<Vec<usize>> = comp_sizes
            .iter()
            .map(|&n| Vec::with_capacity(n))
            .collect();
        for (j, (entry, _)) in seg.iter().enumerate() {
            match comp_of_entry[entry.index()] {
                usize::MAX => comps.push(vec![j]),
                c => comps[c].push(j),
            }
        }
        Some(comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_contracts::{build, DApp};
    use diablo_vm::{Receipt, VmFlavor, Word};

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

    fn assert_parallel_matches_serial(dapp: DApp, specs: &[(&str, Vec<Word>)], threads: usize) {
        let contract = build(dapp, VmFlavor::Geth).expect("buildable on geth");
        let vm = Interpreter::new(VmFlavor::Geth);
        let txs = block(&contract.prepared, specs);

        let mut s_state = contract.initial_state.clone();
        let want = serial(&vm, &contract.prepared, &mut s_state, &txs);

        let mut p_state = contract.initial_state.clone();
        let got = ParallelExecutor::new(threads).execute(
            &vm,
            &contract.prepared,
            &mut p_state,
            &txs,
            |_, r| r.map(|call| call.to_receipt()),
        );

        assert_eq!(want, got, "{dapp:?} receipts diverged at {threads} threads");
        assert_eq!(s_state, p_state, "{dapp:?} state diverged at {threads} threads");
    }

    #[test]
    fn exchange_block_matches_serial_at_all_thread_counts() {
        // A conflict-light block: the five stocks form five independent
        // components that really do execute concurrently.
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        let specs: Vec<(&str, Vec<Word>)> =
            (0..60).map(|i| (buys[i % buys.len()], vec![])).collect();
        for threads in [2, 4, 8] {
            assert_parallel_matches_serial(DApp::Exchange, &specs, threads);
        }
    }

    #[test]
    fn read_write_conflicts_collapse_to_one_component() {
        // checkStock reads all five stock keys, so it conflicts with
        // every buy: the planner must see a single component and fall
        // back to serial — and stay bit-identical doing so.
        let mut specs: Vec<(&str, Vec<Word>)> = Vec::new();
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        for i in 0..30 {
            specs.push((buys[i % buys.len()], vec![]));
            if i % 7 == 0 {
                specs.push(("checkStock", vec![]));
            }
        }
        assert_parallel_matches_serial(DApp::Exchange, &specs, 4);
    }

    #[test]
    fn isolated_readers_split_into_singletons() {
        // A checkStock-only block: no writer is present, so every
        // read-only transaction is independent and the planner emits one
        // singleton component per transaction — fully parallel, still
        // bit-identical.
        let specs: Vec<(&str, Vec<Word>)> =
            (0..24).map(|_| ("checkStock", vec![])).collect();
        let contract = build(DApp::Exchange, VmFlavor::Geth).expect("buildable");
        let txs = block(&contract.prepared, &specs);
        let executor = ParallelExecutor::new(4);
        let limits = contract.prepared.flavor().state_limits();
        let comps = executor
            .plan(&contract.prepared, &contract.initial_state, &txs, &limits)
            .expect("parallel plan");
        assert_eq!(comps.len(), specs.len(), "one singleton per read");
        assert_parallel_matches_serial(DApp::Exchange, &specs, 4);
    }

    #[test]
    fn dynamic_footprints_fall_back_to_serial_and_still_match() {
        // Gaming's update() reads and writes keys derived from loop
        // locals — every transaction is dynamic, so the executor must
        // run the whole block serially and still be bit-identical.
        let specs: Vec<(&str, Vec<Word>)> =
            (0..12).map(|i| ("update", vec![1 + (i % 3), 1])).collect();
        assert_parallel_matches_serial(DApp::Gaming, &specs, 4);
    }

    #[test]
    fn mixed_static_and_dynamic_segments_match_serial() {
        // WebService add/get are static on key 0 (one component — the
        // planner degenerates to serial), interleaved here with nothing
        // dynamic; then check a single-component case stays correct.
        let specs: Vec<(&str, Vec<Word>)> = (0..20)
            .map(|i| if i % 3 == 0 { ("get", vec![]) } else { ("add", vec![]) })
            .collect();
        assert_parallel_matches_serial(DApp::WebService, &specs, 4);
    }

    #[test]
    fn plan_stats_decompose_conflict_light_block() {
        // Five stocks → five multi-tx components; no singletons, no
        // serial fallbacks, largest unit = 60/5 = 12 txs (20% share).
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        let specs: Vec<(&str, Vec<Word>)> =
            (0..60).map(|i| (buys[i % buys.len()], vec![])).collect();
        let contract = build(DApp::Exchange, VmFlavor::Geth).expect("buildable");
        let txs = block(&contract.prepared, &specs);
        let stats = plan_stats(&contract.prepared, &contract.initial_state, &txs);
        assert_eq!(stats.txs, 60);
        assert_eq!(stats.components, 5);
        assert_eq!(stats.singletons, 0);
        assert_eq!(stats.serial_fallback_txs, 0);
        assert_eq!(stats.serial_segments, 0);
        assert_eq!(stats.largest_unit_txs, 12);
        assert_eq!(stats.imbalance_pct(), 20);
    }

    #[test]
    fn plan_stats_are_schedule_independent_and_match_plan_shape() {
        // checkStock conflicts with every buy: one component spans the
        // whole block, so the planner falls back to serial — and the
        // pure stats must say so without ever consulting a thread count.
        let mut specs: Vec<(&str, Vec<Word>)> = Vec::new();
        let buys = ["buyGoogle", "buyApple", "buyFacebook", "buyAmazon", "buyMicrosoft"];
        for i in 0..30 {
            specs.push((buys[i % buys.len()], vec![]));
            if i % 7 == 0 {
                specs.push(("checkStock", vec![]));
            }
        }
        let contract = build(DApp::Exchange, VmFlavor::Geth).expect("buildable");
        let txs = block(&contract.prepared, &specs);
        let stats = plan_stats(&contract.prepared, &contract.initial_state, &txs);
        assert_eq!(stats.txs, txs.len());
        assert_eq!(stats.components, 0, "a single component degenerates to serial");
        assert_eq!(stats.serial_segments, 1);
        assert_eq!(stats.serial_fallback_txs, txs.len());
        assert_eq!(stats.imbalance_pct(), 100);

        // Dynamic footprints (Gaming's update) force serial fallbacks.
        let specs: Vec<(&str, Vec<Word>)> =
            (0..12).map(|i| ("update", vec![1 + (i % 3), 1])).collect();
        let contract = build(DApp::Gaming, VmFlavor::Geth).expect("buildable");
        let txs = block(&contract.prepared, &specs);
        let stats = plan_stats(&contract.prepared, &contract.initial_state, &txs);
        assert_eq!(stats.serial_fallback_txs, 12, "every dynamic tx is serial");
        assert_eq!(stats.components, 0);
    }

    #[test]
    fn single_threaded_executor_is_serial() {
        let contract = build(DApp::Exchange, VmFlavor::Geth).unwrap();
        let vm = Interpreter::new(VmFlavor::Geth);
        let txs = block(&contract.prepared, &[("buyGoogle", vec![]), ("buyApple", vec![])]);
        let mut state = contract.initial_state.clone();
        let got =
            ParallelExecutor::new(1).execute(&vm, &contract.prepared, &mut state, &txs, |_, r| {
                r.map(|call| call.to_receipt())
            });
        let mut s_state = contract.initial_state.clone();
        let want = serial(&vm, &contract.prepared, &mut s_state, &txs);
        assert_eq!(want, got);
        assert_eq!(s_state, state);
    }
}
