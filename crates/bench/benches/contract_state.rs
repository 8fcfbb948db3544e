//! Microbenchmark: `ContractState` load/store and the overlay read path.
//!
//! The contract key/value store sits on the hot path of every simulated
//! transaction, and the parallel block executor layers `Overlay`
//! read-through on top of it. This suite measures the primitive costs:
//! fresh inserts vs in-place updates through `store`, the interpreter's
//! `SSTORE` both ways it has been written (`load` then `store`, and the
//! one-probe `replace`), hit vs miss `load` on dense and on strided
//! keys (the word hasher must not care), and `Overlay` reads falling
//! through to the base state.

use diablo_testkit::bench::{black_box, Bench};

use diablo_vm::{ContractState, Overlay, StateAccess, StateLimits};

/// Keys per timed batch.
const KEYS: i64 = 1024;

/// A base state holding `KEYS` populated entries.
fn populated() -> ContractState {
    let limits = StateLimits::unbounded();
    let mut state = ContractState::default();
    for k in 0..KEYS {
        assert!(state.store(k, k * 3, &limits));
    }
    state
}

fn main() {
    let mut b = Bench::suite("contract_state");
    let limits = StateLimits::unbounded();
    let base = populated();

    b.bench_batched(
        "state/store/insert_fresh_1k",
        ContractState::default,
        |mut state| {
            for k in 0..KEYS {
                assert!(state.store(k, k, &limits));
            }
            black_box(state.entry_count())
        },
    );

    b.bench_batched(
        "state/store/update_existing_1k",
        || base.clone(),
        |mut state| {
            for k in 0..KEYS {
                assert!(state.store(k, k + 1, &limits));
            }
            black_box(state.entry_count())
        },
    );

    b.bench_batched(
        "state/store/load_then_store_1k",
        || base.clone(),
        |mut state| {
            let mut acc = 0;
            for k in 0..KEYS {
                acc += state.load(k);
                assert!(state.store(k, k + 1, &limits));
            }
            black_box(acc)
        },
    );

    b.bench_batched(
        "state/store/replace_1k",
        || base.clone(),
        |mut state| {
            let mut acc = 0;
            for k in 0..KEYS {
                acc += state.replace(k, k + 1, &limits).expect("within limits");
            }
            black_box(acc)
        },
    );

    b.bench("state/load/hit_1k", || {
        let mut acc = 0;
        for k in 0..KEYS {
            acc += base.load(k);
        }
        black_box(acc)
    });

    b.bench("state/load/miss_1k", || {
        let mut acc = 0;
        for k in KEYS..2 * KEYS {
            acc += base.load(k);
        }
        black_box(acc)
    });

    // Keys 2^32 apart share their low 32 bits: a hasher that indexes by
    // the low bits of a bare product would pile them into one bucket.
    let mut strided = ContractState::default();
    for k in 0..KEYS {
        assert!(strided.store(k << 32, k, &limits));
    }
    b.bench("state/load/hit_stride_2p32_1k", || {
        let mut acc = 0;
        for k in 0..KEYS {
            acc += strided.load(k << 32);
        }
        black_box(acc)
    });

    b.bench("state/overlay/read_through_1k", || {
        let overlay = Overlay::new(&base);
        let mut acc = 0;
        for k in 0..KEYS {
            acc += overlay.load(k);
        }
        black_box(acc)
    });

    b.finish();
}
