//! Microbenchmark: mempool admission and block assembly.
//!
//! The pool is on the hot path of every simulated transaction; the
//! take-batch scan is also the mechanism behind Quorum's overload
//! collapse, so its cost profile matters. A block drains as
//! `ChainSim::commit_block` does: by slot, reading each record in place,
//! releasing the slots at the end.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Mempool, MempoolPolicy, Payload, TxMeta};
use diablo_sim::SimTime;

fn tx(id: u32, sender: u32) -> TxMeta {
    TxMeta {
        id,
        sender,
        payload: Payload::Transfer,
        submitted: SimTime::from_micros(id as u64),
        available: SimTime::from_micros(id as u64),
        wire_bytes: 150,
        fee_cap_millis: 2_000,
    }
}

fn filled(policy: MempoolPolicy, n: u32) -> Mempool {
    let mut pool = Mempool::new(policy);
    for i in 0..n {
        let _ = pool.admit(tx(i, i % 2_000));
    }
    pool
}

fn main() {
    let mut b = Bench::suite("mempool");

    for (name, policy) in [
        ("unbounded", MempoolPolicy::UNBOUNDED),
        ("bounded", MempoolPolicy::bounded(5_000)),
        (
            "per_sender",
            MempoolPolicy {
                capacity: Some(50_000),
                per_sender: Some(100),
            },
        ),
    ] {
        b.bench_batched(
            &format!("mempool/admit_10k/{name}"),
            || Mempool::new(policy),
            |mut pool| {
                for i in 0..10_000u32 {
                    let _ = pool.admit(tx(i, i % 130));
                }
                black_box(pool.len())
            },
        );
    }

    for backlog in [2_000u32, 20_000, 200_000] {
        b.bench_batched(
            &format!("mempool/take_batch_1500/backlog_{backlog}"),
            || filled(MempoolPolicy::UNBOUNDED, backlog),
            |mut pool| {
                let batch = pool.take_batch_ids(1_500, u64::MAX, |_| true);
                for &slot in &batch {
                    black_box(pool.meta(slot));
                }
                for slot in batch {
                    pool.release(slot);
                }
                black_box(pool.len())
            },
        );
    }

    b.bench_batched(
        "mempool/evict_expired_50k",
        || filled(MempoolPolicy::bounded(100_000), 50_000),
        |mut pool| {
            black_box(
                pool.evict_where(|t| t.submitted < SimTime::from_micros(25_000))
                    .len(),
            )
        },
    );

    b.finish();
}
