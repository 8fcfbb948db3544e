//! Microbenchmark: the contract VM interpreter, baseline vs prepared.
//!
//! For every DApp workload call this measures the per-transaction CPU
//! work twice: through the baseline per-instruction-metered
//! `Interpreter::execute`, and through the prepared fast path
//! (`Interpreter::execute_prepared`) that pre-charges basic blocks and
//! skips the checks deploy-time preparation already proved safe. The
//! `.../baseline` vs `.../prepared` pairs in `BENCH_vm_interpreter.json`
//! quantify the speedup; `.../prepared_scratch` is the same call in a
//! reused `Scratch` (`execute_prepared_in`, what the block executors
//! run), so its distance to `.../prepared` is the price of an owned
//! `Receipt`. The differential property tests in `diablo-vm` guarantee
//! the paths agree observationally.

use diablo_testkit::bench::{black_box, Bench};

use diablo_contracts::{build, calls, Contract, DApp};
use diablo_vm::{EntryId, Interpreter, Scratch, TxContext, VmFlavor};

/// Benchmarks one workload call through each execution path.
fn bench_pair(b: &mut Bench, group: &str, contract: &Contract, expect_ok: bool) {
    let call = calls::call_for(contract.dapp, 0);
    let vm = Interpreter::new(contract.flavor);
    let ctx = TxContext {
        caller: 1,
        args: call.args.clone(),
        payload_bytes: call.payload_bytes,
        gas_limit: u64::MAX,
    };
    let entry: EntryId = contract.entry_id(call.entry).expect("entry interned");

    b.bench_batched(
        &format!("{group}/baseline"),
        || contract.initial_state.clone(),
        |mut state| {
            let r = vm.execute(&contract.program, call.entry, &ctx, &mut state);
            assert_eq!(r.is_ok(), expect_ok);
            black_box(r)
        },
    );
    b.bench_batched(
        &format!("{group}/prepared"),
        || contract.initial_state.clone(),
        |mut state| {
            let r = vm.execute_prepared(&contract.prepared, entry, &ctx, &mut state);
            assert_eq!(r.is_ok(), expect_ok);
            black_box(r)
        },
    );
    let mut scratch = Scratch::default();
    b.bench_batched(
        &format!("{group}/prepared_scratch"),
        || contract.initial_state.clone(),
        |mut state| {
            let r = vm.execute_prepared_in(&mut scratch, &contract.prepared, entry, &ctx, &mut state);
            assert_eq!(r.is_ok(), expect_ok);
            black_box(r.map(|call| (call.gas_used, call.events.iter().count())))
        },
    );
}

fn main() {
    let mut b = Bench::suite("vm_interpreter");

    for dapp in [
        DApp::Exchange,
        DApp::Gaming,
        DApp::WebService,
        DApp::VideoSharing,
    ] {
        let contract = build(dapp, VmFlavor::Geth).expect("buildable");
        bench_pair(
            &mut b,
            &format!("vm/dapp_call/{}", dapp.name()),
            &contract,
            true,
        );
    }

    // The 1.4M-instruction Mobility call gets its own group (it runs
    // for milliseconds per call, so every sample is a single call).
    // This is the pair the prepared pipeline exists for:
    // per-instruction metering dominates the baseline here.
    b.samples(30);
    {
        let contract = build(DApp::Mobility, VmFlavor::Geth).expect("buildable");
        bench_pair(
            &mut b,
            "vm/mobility/checkDistance_10k_drivers",
            &contract,
            true,
        );
    }

    // How fast a hard-budget flavor rejects the Mobility DApp — this is
    // on the admission path for every probe. The run dies ~700 ops in,
    // so the prepared path spends its whole life in the metered
    // fallback; the pair checks that path has no regression.
    {
        let contract = build(DApp::Mobility, VmFlavor::Avm).expect("buildable");
        bench_pair(&mut b, "vm/avm_budget_rejection", &contract, false);
    }

    b.finish();
}
