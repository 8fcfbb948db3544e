//! Transaction execution at block-commit time.
//!
//! Wraps the `diablo-vm` interpreter behind two modes:
//!
//! - [`ExecMode::Exact`] executes every committed transaction through the
//!   interpreter against live contract state — bit-faithful, used by the
//!   integration tests (e.g. the FIFA counter must equal the number of
//!   committed `add`s).
//! - [`ExecMode::Profiled`] executes the first transaction of each
//!   (entry, arg-class) through the interpreter, caches its cost, and
//!   replays the cached cost for the rest, re-validating with a real
//!   execution every [`PROFILE_REFRESH`] transactions. Large experiments
//!   (millions of transactions, a 1.4 M-op Mobility call each) would be
//!   intractable otherwise; the cost of a DApp call is constant across
//!   calls up to argument variation, which the refresh executions verify.
//!   A replay builds no call: its cache key comes from the call's
//!   [`calls::CallShape`], and the cache is a few slots probed in order.

use diablo_contracts::{build, calls, Contract, DApp, Unsupported};
use diablo_vm::{CallOutcome, ContractState, ExecError, Interpreter, Scratch, TxContext, VmFlavor};

use crate::optimistic::OptimisticExecutor;
use crate::parallel::ParallelExecutor;
use crate::tx::{CallSel, Payload};

/// How often profiled mode re-runs a real execution per cache entry.
pub const PROFILE_REFRESH: u64 = 1024;

/// Execution fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Interpret every transaction.
    Exact,
    /// Interpret once per call class, replay cached costs after.
    Profiled,
}

/// Block-commit concurrency, orthogonal to [`ExecMode`]: how many
/// worker threads [`ExecutionEngine::execute_block`] may use and which
/// scheduler drives them. Both parallel modes are bit-identical to
/// serial by construction (see [`crate::parallel`] and
/// [`crate::optimistic`], and `docs/EXECUTION.md` for the model);
/// `Profiled` refresh executions always take the serial path regardless
/// of this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// One transaction at a time, in canonical order.
    #[default]
    Serial,
    /// Static scheduling from deploy-time read/write sets, up to this
    /// many scoped worker threads per committed block. Transactions
    /// with dynamic footprints fall back to serial.
    Parallel(usize),
    /// Optimistic (Block-STM-style) speculation with commit-order
    /// read-set validation, up to this many worker threads. Handles
    /// dynamic footprints; results and telemetry are identical at any
    /// thread count (a count of 1 still runs the full speculate /
    /// validate protocol, just on one worker).
    Optimistic(usize),
}

impl Concurrency {
    /// The worker count this setting allows (≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Concurrency::Serial => 1,
            Concurrency::Parallel(n) | Concurrency::Optimistic(n) => n.max(1),
        }
    }

    /// Stable numeric code of the mode (serial 0, static-parallel 1,
    /// optimistic 2) — the tracer's `executed` annotation. Worker
    /// counts are deliberately excluded: they never change results.
    pub fn code(self) -> u64 {
        match self {
            Concurrency::Serial => 0,
            Concurrency::Parallel(_) => 1,
            Concurrency::Optimistic(_) => 2,
        }
    }

    /// Parses a mode name (`serial`, `parallel`, `optimistic`) plus a
    /// worker count into a concurrency setting — the shared grammar of
    /// the CLI's `--execution=`/`--threads=` flags and the spec's
    /// `execution:` section.
    pub fn from_mode(mode: &str, threads: usize) -> Option<Concurrency> {
        match mode {
            "serial" => Some(Concurrency::Serial),
            "parallel" | "static" => Some(Concurrency::Parallel(threads)),
            "optimistic" => Some(Concurrency::Optimistic(threads)),
            _ => None,
        }
    }

}

/// The cost and outcome of executing one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCost {
    /// Gas (or compute units) charged by the flavor's schedule,
    /// including the intrinsic admission cost.
    pub gas: u64,
    /// Instructions executed (CPU-time proxy).
    pub ops: u64,
    /// Whether execution succeeded.
    pub ok: bool,
}

/// Coarse argument class for the profiled cache. Calls of one entry
/// point are assumed to cost the same only when they share an argument
/// count and a payload-size magnitude; entries invoked with different
/// shapes (e.g. `update()` vs `update(1, 1)`) get distinct cache slots
/// instead of silently replaying each other's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ArgClass {
    /// Number of call arguments.
    argc: u8,
    /// Bit length of the payload size (0 for no payload), so payloads
    /// within a factor of two share a class.
    payload_pow2: u8,
}

impl ArgClass {
    fn of(shape: calls::CallShape) -> ArgClass {
        ArgClass {
            argc: shape.argc as u8,
            payload_pow2: (u64::BITS - shape.payload_bytes.leading_zeros()) as u8,
        }
    }
}

/// One profiled-mode cache entry.
#[derive(Debug)]
struct ProfileSlot {
    entry: &'static str,
    class: ArgClass,
    cost: ExecCost,
    /// Replays since the cost was last measured.
    age: u64,
}

/// Executes transactions for one chain's VM flavor.
#[derive(Debug)]
pub struct ExecutionEngine {
    flavor: VmFlavor,
    interpreter: Interpreter,
    mode: ExecMode,
    concurrency: Concurrency,
    /// The deployed contract for the experiment's DApp (if any).
    contract: Option<Contract>,
    /// The buffers every serially executed call runs in, and their
    /// telemetry until the next publish.
    scratch: Scratch,
    /// Per-transaction execution counts of the last committed block
    /// (speculations + re-executions under the optimistic executor, 1
    /// everywhere else) — the tracer's `executed` annotation.
    last_exec_counts: Vec<u32>,
    /// Profiled-mode cache, one slot per (entry, arg class) seen: a
    /// DApp has at most six entries, so a probe is a short scan.
    cache: Vec<ProfileSlot>,
    /// Cache hits not yet published (once per block, not per hit).
    cache_hits: u64,
}

/// Cost of a native transfer on each flavor (the EVM intrinsic for
/// geth; small flat gas costs elsewhere).
fn transfer_cost(flavor: VmFlavor) -> ExecCost {
    let gas = match flavor {
        VmFlavor::Geth => 21_000,
        VmFlavor::Avm => 1,
        VmFlavor::MoveVm => 600,
        VmFlavor::Ebpf => 1_500,
    };
    ExecCost {
        gas,
        ops: 10,
        ok: true,
    }
}

impl ExecutionEngine {
    /// An engine with no deployed contract (native-transfer workloads).
    pub fn native(flavor: VmFlavor, mode: ExecMode) -> Self {
        ExecutionEngine {
            flavor,
            interpreter: Interpreter::new(flavor),
            mode,
            concurrency: Concurrency::Serial,
            contract: None,
            scratch: Scratch::default(),
            last_exec_counts: Vec::new(),
            cache: Vec::new(),
            cache_hits: 0,
        }
    }

    /// An engine with `dapp` deployed. Fails with the paper's
    /// explanation when the DApp cannot be built for the flavor (YouTube
    /// on the AVM).
    pub fn with_dapp(flavor: VmFlavor, mode: ExecMode, dapp: DApp) -> Result<Self, Unsupported> {
        Ok(Self::with_contract(mode, build(dapp, flavor)?))
    }

    /// An engine with `contract` deployed as it stands (tests deploy
    /// programs none of the DApps has).
    pub(crate) fn with_contract(mode: ExecMode, contract: Contract) -> Self {
        let mut engine = Self::native(contract.flavor, mode);
        engine.contract = Some(contract);
        engine
    }

    /// Sets the block-commit concurrency (builder style).
    pub fn with_concurrency(mut self, concurrency: Concurrency) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// The configured block-commit concurrency.
    pub fn concurrency(&self) -> Concurrency {
        self.concurrency
    }

    /// How many times each transaction of the last
    /// [`ExecutionEngine::execute_block`] batch ran: always 1 on the
    /// serial and statically-scheduled paths, the speculation count
    /// under the optimistic executor. Empty before the first block.
    pub fn last_exec_counts(&self) -> &[u32] {
        &self.last_exec_counts
    }

    /// The engine's VM flavor.
    pub fn flavor(&self) -> VmFlavor {
        self.flavor
    }

    /// The deployed contract, if any.
    pub fn contract(&self) -> Option<&Contract> {
        self.contract.as_ref()
    }

    /// The deployed contract's live state, if any. The state store's
    /// feed: `ChainSim` switches its write log on and drains it per
    /// block. All three executors write through `ContractState::replace`
    /// (which `store` is) and `ContractState::apply`, so the log sees
    /// every one of them.
    pub fn contract_state_mut(&mut self) -> Option<&mut ContractState> {
        self.contract.as_mut().map(|c| &mut c.initial_state)
    }

    /// Dry-runs one representative call of the deployed DApp; used before
    /// an experiment to classify the chain as able or unable ("budget
    /// exceeded") to run the DApp — the X marks of Figure 5.
    pub fn probe(&self) -> Option<Result<(), ExecError>> {
        let c = self.contract.as_ref()?;
        Some(c.probe().map(|_| ()))
    }

    /// Executes (or replays) one transaction, returning its cost.
    pub fn execute(&mut self, payload: Payload) -> ExecCost {
        let cost = self.execute_tallied(payload);
        self.publish();
        cost
    }

    /// Publishes the cache hits and the serially executed calls tallied
    /// since the last publish.
    fn publish(&mut self) {
        let hits = std::mem::take(&mut self.cache_hits);
        if hits > 0 {
            diablo_telemetry::counter("exec.profiled.cache_hits", hits);
        }
        self.scratch.publish();
    }

    /// [`Self::execute`], its telemetry left for the caller to publish.
    fn execute_tallied(&mut self, payload: Payload) -> ExecCost {
        match payload {
            Payload::Transfer => transfer_cost(self.flavor),
            Payload::Invoke { dapp, seq, call } => self.execute_invoke(dapp, seq, call),
        }
    }

    /// Resolves a payload to the concrete call it performs.
    fn resolve(dapp: DApp, seq: u64, sel: Option<CallSel>) -> calls::CallSpec {
        match sel {
            None => calls::call_for(dapp, seq),
            Some(sel) => {
                let args = sel.args.map(i64::from);
                calls::call_for_entry(dapp, sel.entry, &args[..sel.argc as usize])
            }
        }
    }

    fn execute_invoke(&mut self, dapp: DApp, seq: u64, sel: Option<CallSel>) -> ExecCost {
        if self.mode == ExecMode::Exact {
            return self.interpret(seq, Self::resolve(dapp, seq, sel));
        }
        let shape = match sel {
            None => calls::shape_for(dapp, seq),
            Some(sel) => calls::shape_for_entry(dapp, sel.entry, sel.argc as usize),
        };
        let (entry, class) = (shape.entry, ArgClass::of(shape));
        // Entry names are literals of `calls`, so equal ones are nearly
        // always one string: bytes are compared only if pointers differ.
        let same = |s: &ProfileSlot| {
            s.class == class && (std::ptr::eq(s.entry, entry) || s.entry == entry)
        };
        let slot = self.cache.iter().position(same);
        if let Some(slot) = slot.map(|i| &mut self.cache[i]) {
            if slot.age < PROFILE_REFRESH {
                // A hit resolves nothing: no call, no argument vector.
                slot.age += 1;
                self.cache_hits += 1;
                return slot.cost;
            }
        }
        let cost = self.interpret(seq, Self::resolve(dapp, seq, sel));
        diablo_telemetry::counter!("exec.profiled.refreshes");
        let fresh = ProfileSlot {
            entry,
            class,
            cost,
            age: 0,
        };
        match slot {
            Some(i) => self.cache[i] = fresh,
            None => self.cache.push(fresh),
        }
        cost
    }

    fn interpret(&mut self, seq: u64, call: calls::CallSpec) -> ExecCost {
        let intrinsic = intrinsic_cost(self.flavor, &call);
        let Some(contract) = self.contract.as_mut() else {
            // No contract deployed: treat as a transfer-priced no-op.
            return transfer_cost(self.flavor);
        };
        // Preparation interns every entry of the program, so an entry
        // it does not know is one neither interpreter could run.
        let Some(entry) = contract.prepared.entry_id(call.entry) else {
            let name = call.entry.to_string();
            return cost_of(Err(ExecError::UnknownEntry { name }), intrinsic);
        };
        let ctx = tx_context(seq, call.args, call.payload_bytes);
        let result = self.interpreter.execute_prepared_in(
            &mut self.scratch,
            &contract.prepared,
            entry,
            &ctx,
            &mut contract.initial_state,
        );
        cost_of(result, intrinsic)
    }

    /// One payload after the other, their telemetry published once.
    fn execute_each(&mut self, payloads: &[Payload]) -> Vec<ExecCost> {
        let costs = payloads.iter().map(|&p| self.execute_tallied(p)).collect();
        self.publish();
        costs
    }

    /// Executes one committed batch, returning per-transaction costs in
    /// canonical order.
    ///
    /// With [`ExecMode::Exact`] and a parallel [`Concurrency`], invokes
    /// go through a block executor: [`Concurrency::Parallel`] schedules
    /// across a [`ParallelExecutor`] using the contract's static
    /// read/write sets, [`Concurrency::Optimistic`] speculates through
    /// an [`OptimisticExecutor`] with commit-order read-set validation.
    /// Both are bit-identical to the serial loop (same costs, same
    /// final state), just faster — on conflict-light blocks for the
    /// static scheduler, additionally on dynamic-footprint blocks for
    /// the optimistic one. Everything else (serial config, profiled
    /// mode, native workloads, single-transaction blocks) takes the
    /// plain serial loop.
    pub fn execute_block(&mut self, payloads: &[Payload]) -> Vec<ExecCost> {
        let threads = self.concurrency.threads();
        diablo_telemetry::record!("exec.block.txs", payloads.len() as u64);
        // Every path below runs each transaction exactly once, except
        // the optimistic executor, which overwrites its slots with the
        // real speculation counts. The buffer is reused, and reserved
        // exactly: amortized doubling would hold up to twice the largest
        // block for the rest of the run.
        self.last_exec_counts.clear();
        self.last_exec_counts.reserve_exact(payloads.len());
        self.last_exec_counts.resize(payloads.len(), 1);
        let plannable =
            self.mode == ExecMode::Exact && payloads.len() >= 2 && self.contract.is_some();
        if !plannable {
            return self.execute_each(payloads);
        }
        // The optimistic protocol itself is worker-count independent, so
        // it runs even at 1 thread: Optimistic(1) must produce the same
        // telemetry (rounds, aborts) as Optimistic(8).
        let optimistic = matches!(self.concurrency, Concurrency::Optimistic(_));
        let use_executor = optimistic || threads >= 2;

        // Resolve every invoke once, up front: the plan statistics, the
        // serial loop and both executors all run from `txs`. Transfers
        // don't touch contract state, so their (constant) cost is
        // filled in positionally.
        let flavor = self.flavor;
        let n = payloads.len();
        let mut costs: Vec<ExecCost> = Vec::with_capacity(n);
        let mut slots: Vec<usize> = Vec::with_capacity(n); // invoke → payload position
        let mut intrinsics: Vec<u64> = Vec::with_capacity(n); // aligned with `txs`
        let mut txs: Vec<crate::parallel::BlockTx> = Vec::with_capacity(n);
        {
            let contract = self.contract.as_ref().expect("checked above");
            for (slot, &payload) in payloads.iter().enumerate() {
                match payload {
                    Payload::Transfer => costs.push(transfer_cost(flavor)),
                    Payload::Invoke { dapp, seq, call } => {
                        let call = Self::resolve(dapp, seq, call);
                        let Some(entry) = contract.prepared.entry_id(call.entry) else {
                            // No executor can schedule an entry without
                            // an id; the per-payload loop prices it as
                            // the failure it is.
                            return self.execute_each(payloads);
                        };
                        slots.push(slot);
                        intrinsics.push(intrinsic_cost(flavor, &call));
                        txs.push((entry, tx_context(seq, call.args, call.payload_bytes)));
                        costs.push(ExecCost {
                            gas: 0,
                            ops: 0,
                            ok: false,
                        });
                    }
                }
            }
        }

        let vm = self.interpreter;
        let contract = self.contract.as_mut().expect("checked above");
        // Conflict-plan telemetry is a pure function of the block, never
        // of the worker count: serial runs record the same plan a
        // parallel run would, or their snapshots diverge.
        if diablo_telemetry::enabled() {
            crate::parallel::plan_stats(&contract.prepared, &contract.initial_state, &txs)
                .record();
        }
        if !use_executor {
            for ((&slot, &intrinsic), (entry, ctx)) in slots.iter().zip(&intrinsics).zip(&txs) {
                let result = vm.execute_prepared_in(
                    &mut self.scratch,
                    &contract.prepared,
                    *entry,
                    ctx,
                    &mut contract.initial_state,
                );
                costs[slot] = cost_of(result, intrinsic);
            }
            self.publish();
            return costs;
        }

        // The mapper condenses each outcome to its cost on the worker
        // that produced it, while the events still sit in that worker's
        // scratch.
        let map = |k: usize, result: Result<CallOutcome<'_>, ExecError>| {
            cost_of(result, intrinsics[k])
        };
        let results = if optimistic {
            let (results, execs) = OptimisticExecutor::new(threads).execute_counting(
                &vm,
                &contract.prepared,
                &mut contract.initial_state,
                &txs,
                map,
            );
            for (&slot, count) in slots.iter().zip(execs) {
                self.last_exec_counts[slot] = count;
            }
            results
        } else {
            ParallelExecutor::new(threads).execute(
                &vm,
                &contract.prepared,
                &mut contract.initial_state,
                &txs,
                map,
            )
        };
        for (slot, cost) in slots.into_iter().zip(results) {
            costs[slot] = cost;
        }
        costs
    }
}

/// The flavor's intrinsic admission cost for one resolved call.
fn intrinsic_cost(flavor: VmFlavor, call: &calls::CallSpec) -> u64 {
    flavor
        .schedule()
        .intrinsic_cost(8 * call.args.len() as u64 + call.payload_bytes)
}

/// The transaction context a committed invoke executes under.
fn tx_context(seq: u64, args: Vec<i64>, payload_bytes: u64) -> TxContext {
    TxContext {
        caller: (seq % 10_000) as i64 + 1,
        args,
        payload_bytes,
        gas_limit: u64::MAX,
    }
}

/// Maps an interpreter outcome to the cost the chain charges for it.
fn cost_of(result: Result<CallOutcome<'_>, ExecError>, intrinsic: u64) -> ExecCost {
    match result {
        Ok(call) => ExecCost {
            gas: call.gas_used + intrinsic,
            ops: call.ops_executed,
            ok: true,
        },
        Err(ExecError::BudgetExceeded { used, .. }) => {
            // The hard budget was consumed before the abort.
            ExecCost {
                gas: used + intrinsic,
                ops: used,
                ok: false,
            }
        }
        Err(_) => ExecCost {
            gas: intrinsic,
            ops: 100,
            ok: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_cost_the_evm_intrinsic() {
        let mut e = ExecutionEngine::native(VmFlavor::Geth, ExecMode::Exact);
        let c = e.execute(Payload::Transfer);
        assert_eq!(c.gas, 21_000);
        assert!(c.ok);
    }

    #[test]
    fn exact_mode_executes_real_state_effects() {
        let mut e =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::WebService).unwrap();
        for seq in 0..25 {
            let c = e.execute(Payload::Invoke {
                dapp: DApp::WebService,
                seq,
                call: None,
            });
            assert!(c.ok);
        }
        let state = &e.contract().unwrap().initial_state;
        assert_eq!(state.load(diablo_contracts::webservice::COUNTER_KEY), 25);
    }

    #[test]
    fn profiled_mode_matches_exact_costs() {
        let mut exact =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Gaming).unwrap();
        let mut prof =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Profiled, DApp::Gaming).unwrap();
        for seq in 0..50 {
            let a = exact.execute(Payload::Invoke {
                dapp: DApp::Gaming,
                seq,
                call: None,
            });
            let b = prof.execute(Payload::Invoke {
                dapp: DApp::Gaming,
                seq,
                call: None,
            });
            assert_eq!(a.ok, b.ok);
            // Exact costs drift slightly as players reflect off walls
            // (branches differ per state); the profiled cost must stay
            // within a few percent of the live one.
            let drift = (a.gas as f64 - b.gas as f64).abs() / a.gas as f64;
            assert!(
                drift < 0.05,
                "seq {seq}: exact {} vs profiled {}",
                a.gas,
                b.gas
            );
        }
    }

    #[test]
    fn profiled_mode_is_fast_for_mobility() {
        let mut e =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Profiled, DApp::Mobility).unwrap();
        let first = e.execute(Payload::Invoke {
            dapp: DApp::Mobility,
            seq: 0,
            call: None,
        });
        assert!(first.ok);
        assert!(first.ops > 1_000_000);
        // Replays are cache hits with identical cost.
        for seq in 1..100 {
            let c = e.execute(Payload::Invoke {
                dapp: DApp::Mobility,
                seq,
                call: None,
            });
            assert_eq!(c.ops, first.ops);
        }
    }

    #[test]
    fn profiled_cache_distinguishes_arg_classes() {
        // Two shapes of the same entry: the default gaming call
        // update(1, 1) and an explicit zero-argument update(). Their
        // intrinsic calldata costs differ, so a cache keyed by entry
        // name alone would replay whichever shape ran first for both.
        let mut prof =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Profiled, DApp::Gaming).unwrap();
        let mut exact =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Gaming).unwrap();
        let two_args = Payload::Invoke {
            dapp: DApp::Gaming,
            seq: 0,
            call: None, // resolves to update(1, 1)
        };
        let no_args = Payload::Invoke {
            dapp: DApp::Gaming,
            seq: 1,
            call: Some(CallSel {
                entry: 0, // "update"
                args: [0, 0],
                argc: 0,
            }),
        };
        let a = prof.execute(two_args);
        let b = prof.execute(no_args);
        assert_ne!(a.gas, b.gas, "distinct arg classes must not share a cached cost");
        // Each class replays its own cost and matches exact execution's
        // intrinsic difference.
        let a2 = prof.execute(Payload::Invoke {
            dapp: DApp::Gaming,
            seq: 2,
            call: None,
        });
        assert_eq!(a.gas, a2.gas);
        let ea = exact.execute(Payload::Invoke {
            dapp: DApp::Gaming,
            seq: 0,
            call: None,
        });
        assert_eq!(a.gas, ea.gas);
    }

    /// The cache as it was before the slots: every call resolved, its
    /// key hashed. Misses and refreshes interpret on an `Exact` engine
    /// of the oracle's own, so both sides run the same calls against
    /// the same state.
    struct HashedProfile {
        interpreter: ExecutionEngine,
        cache: std::collections::HashMap<(&'static str, u8, u32), (ExecCost, u64)>,
        hits: u64,
        refreshes: u64,
    }

    impl HashedProfile {
        fn execute(&mut self, payload: Payload) -> ExecCost {
            let Payload::Invoke { dapp, seq, call } = payload else {
                return self.interpreter.execute(payload);
            };
            let call = ExecutionEngine::resolve(dapp, seq, call);
            let payload_bits = u64::BITS - call.payload_bytes.leading_zeros();
            let key = (call.entry, call.args.len() as u8, payload_bits);
            if let Some((cost, age)) = self.cache.get_mut(&key) {
                if *age < PROFILE_REFRESH {
                    *age += 1;
                    self.hits += 1;
                    return *cost;
                }
            }
            let cost = self.interpreter.execute(payload);
            self.refreshes += 1;
            self.cache.insert(key, (cost, 0));
            cost
        }
    }

    /// Transfers, the default rotation, every entry index (one past the
    /// table included) and three argument counts of entry 0.
    fn mixed_payloads(dapp: DApp, n: u64) -> Vec<Payload> {
        let entries = calls::entries(dapp).len() as u64;
        let explicit = |seq, entry, argc| Payload::Invoke {
            dapp,
            seq,
            call: Some(CallSel {
                entry,
                args: [1, 1],
                argc,
            }),
        };
        (0..n)
            .map(|seq| match seq % 8 {
                0 => Payload::Transfer,
                3 => explicit(seq, (seq / 8 % (entries + 1)) as u8, 0),
                4 => explicit(seq, 0, 2),
                5 => explicit(seq, 0, 1),
                // A quarter of the calls, so that this class ages out.
                6 | 7 => explicit(seq, 0, 0),
                _ => Payload::Invoke {
                    dapp,
                    seq,
                    call: None,
                },
            })
            .collect()
    }

    #[test]
    fn profiled_slots_replay_what_the_hashed_cache_did() {
        for flavor in VmFlavor::ALL {
            for dapp in DApp::ALL {
                let Ok(mut engine) = ExecutionEngine::with_dapp(flavor, ExecMode::Profiled, dapp)
                else {
                    continue; // YouTube on the AVM
                };
                let mut oracle = HashedProfile {
                    interpreter: ExecutionEngine::with_dapp(flavor, ExecMode::Exact, dapp).unwrap(),
                    cache: Default::default(),
                    hits: 0,
                    refreshes: 0,
                };
                let payloads = mixed_payloads(dapp, 5_000);
                let want: Vec<ExecCost> = payloads.iter().map(|&p| oracle.execute(p)).collect();
                assert!(oracle.refreshes > oracle.cache.len() as u64, "no slot aged out");

                diablo_telemetry::thread_reset();
                // Uneven blocks, then lone calls: both publish the hits.
                let (blocks, lone) = payloads.split_at(4_000);
                let mut got: Vec<ExecCost> = blocks
                    .chunks(611)
                    .flat_map(|block| engine.execute_block(block))
                    .collect();
                got.extend(lone.iter().map(|&p| engine.execute(p)));
                assert_eq!(got, want, "{flavor:?} {dapp:?}");
                if diablo_telemetry::enabled() {
                    let seen = diablo_telemetry::thread_snapshot();
                    let count = |name| seen.counter(name).unwrap_or(0);
                    assert_eq!(
                        (
                            count("exec.profiled.cache_hits"),
                            count("exec.profiled.refreshes")
                        ),
                        (oracle.hits, oracle.refreshes),
                        "{flavor:?} {dapp:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_exceeded_is_not_ok() {
        let mut e =
            ExecutionEngine::with_dapp(VmFlavor::Ebpf, ExecMode::Exact, DApp::Mobility).unwrap();
        let c = e.execute(Payload::Invoke {
            dapp: DApp::Mobility,
            seq: 0,
            call: None,
        });
        assert!(!c.ok);
        assert!(c.gas > 0);
    }

    #[test]
    fn probe_flags_hard_budget_chains() {
        let e =
            ExecutionEngine::with_dapp(VmFlavor::MoveVm, ExecMode::Exact, DApp::Mobility).unwrap();
        let probe = e.probe().expect("contract deployed");
        assert!(probe.is_err());
        let native = ExecutionEngine::native(VmFlavor::MoveVm, ExecMode::Exact);
        assert!(native.probe().is_none());
    }

    #[test]
    fn parallel_block_execution_matches_serial() {
        let payloads: Vec<Payload> = (0..200)
            .map(|seq| {
                if seq % 9 == 0 {
                    Payload::Transfer
                } else {
                    Payload::Invoke {
                        dapp: DApp::Exchange,
                        seq,
                        call: None,
                    }
                }
            })
            .collect();
        let mut serial =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Exchange).unwrap();
        let want = serial.execute_block(&payloads);
        for threads in [2, 4, 8] {
            let mut par =
                ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Exchange)
                    .unwrap()
                    .with_concurrency(Concurrency::Parallel(threads));
            let got = par.execute_block(&payloads);
            assert_eq!(want, got, "{threads} threads");
            assert_eq!(
                serial.contract().unwrap().initial_state,
                par.contract().unwrap().initial_state,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn optimistic_block_execution_matches_serial() {
        // Gaming's dynamic per-player footprints are the case the
        // static scheduler serializes; the optimistic engine must still
        // agree with serial bit for bit — costs and state — at every
        // thread count, transfers interleaved.
        let payloads: Vec<Payload> = (0..150)
            .map(|seq| {
                if seq % 11 == 0 {
                    Payload::Transfer
                } else {
                    Payload::Invoke {
                        dapp: DApp::Gaming,
                        seq,
                        call: Some(CallSel {
                            entry: 0, // "update"
                            args: [1 + (seq % 5) as i32, 1],
                            argc: 2,
                        }),
                    }
                }
            })
            .collect();
        let mut serial =
            ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Gaming).unwrap();
        let want = serial.execute_block(&payloads);
        for threads in [1, 2, 4, 8] {
            let mut opt =
                ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Gaming)
                    .unwrap()
                    .with_concurrency(Concurrency::Optimistic(threads));
            let got = opt.execute_block(&payloads);
            assert_eq!(want, got, "{threads} threads");
            assert_eq!(
                serial.contract().unwrap().initial_state,
                opt.contract().unwrap().initial_state,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn concurrency_mode_grammar_roundtrips() {
        assert_eq!(Concurrency::from_mode("serial", 4), Some(Concurrency::Serial));
        assert_eq!(
            Concurrency::from_mode("parallel", 4),
            Some(Concurrency::Parallel(4))
        );
        assert_eq!(
            Concurrency::from_mode("optimistic", 8),
            Some(Concurrency::Optimistic(8))
        );
        assert_eq!(Concurrency::from_mode("speculative", 4), None);
        for (name, c) in [
            ("serial", Concurrency::Serial),
            ("parallel", Concurrency::Parallel(4)),
            ("optimistic", Concurrency::Optimistic(8)),
        ] {
            assert_eq!(Concurrency::from_mode(name, c.threads()), Some(c));
        }
    }

    #[test]
    fn youtube_on_avm_is_unsupported() {
        let err = ExecutionEngine::with_dapp(VmFlavor::Avm, ExecMode::Exact, DApp::VideoSharing)
            .unwrap_err();
        assert!(err.reason.contains("128"));
    }
}
