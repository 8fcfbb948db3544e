//! The tracer against the code it replaced.
//!
//! [`Tracer`] decides membership once, from `(seed, cap, n)`; the
//! recorder it replaced kept a streaming bottom-k and evicted as ids
//! arrived. [`TraceSet::merge`] walks two id-sorted vectors; the body it
//! replaced went through a `BTreeMap`. Both old bodies are kept in
//! [`oracle`], and every property here asks for the same [`TraceSet`],
//! field for field, and the same Chrome export, byte for byte, from
//! both. Replay a failure with `DIABLO_PROP_SEED`.

use diablo_sim::DetRng;
use diablo_telemetry::trace::{TraceEvent, TraceSample, TraceSet, TraceStage, Tracer, TxTrace};
use diablo_testkit::gen::{u64s, u8s};
use diablo_testkit::{prop_assert_eq, Property};

/// The parent commit's recorder and merge, verbatim but for being
/// values instead of a process-global.
mod oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use diablo_telemetry::trace::{rank, TraceEvent, TraceSample, TraceSet, TraceStage, TxTrace};

    pub struct Recorder {
        seed: u64,
        cap: u64,
        /// Member trails by id.
        members: BTreeMap<u64, TxTrace>,
        /// Member `(rank, id)` pairs for bottom-k eviction.
        by_rank: BTreeSet<(u64, u64)>,
    }

    impl Recorder {
        pub fn configure(sample: TraceSample, seed: u64) -> Recorder {
            Recorder {
                seed,
                cap: sample.cap(),
                members: BTreeMap::new(),
                by_rank: BTreeSet::new(),
            }
        }

        pub fn emit(&mut self, id: u64, stage: TraceStage, at_us: u64, arg0: u64, arg1: u64) {
            let rec = self;
            let event = TraceEvent {
                stage,
                at_us,
                arg0,
                arg1,
            };
            if let Some(tx) = rec.members.get_mut(&id) {
                tx.events.push(event);
                return;
            }
            let r = rank(rec.seed, id);
            if (rec.members.len() as u64) < rec.cap {
                rec.by_rank.insert((r, id));
            } else {
                // Bottom-k: displace the largest-ranked member, or drop
                // this id if it ranks above every member. A displaced id
                // can never re-enter — the maximum member rank only
                // decreases — so trails are complete or absent, never
                // partial.
                let &max = rec.by_rank.iter().next_back().expect("cap > 0 members");
                if (r, id) >= max {
                    return;
                }
                rec.by_rank.remove(&max);
                rec.members.remove(&max.1);
                rec.by_rank.insert((r, id));
            }
            rec.members.insert(
                id,
                TxTrace {
                    id,
                    events: vec![event],
                },
            );
        }

        pub fn take(self) -> TraceSet {
            TraceSet {
                seed: self.seed,
                cap: self.cap,
                txs: self.members.into_values().collect(),
            }
        }
    }

    pub fn merge(this: &mut TraceSet, other: &TraceSet) {
        fn norm(cap: u64) -> u64 {
            if cap == 0 {
                u64::MAX
            } else {
                cap
            }
        }
        this.cap = norm(this.cap).min(norm(other.cap));
        if other.txs.is_empty() {
            return;
        }
        let mut merged: BTreeMap<u64, TxTrace> = std::mem::take(&mut this.txs)
            .into_iter()
            .map(|t| (t.id, t))
            .collect();
        for tx in &other.txs {
            let entry = merged.entry(tx.id).or_insert_with(|| TxTrace {
                id: tx.id,
                events: Vec::new(),
            });
            entry.events.extend(tx.events.iter().copied());
            entry.events.sort_by_key(|e| (e.at_us, e.stage as u8));
        }
        this.txs = merged.into_values().collect();
        if (this.txs.len() as u64) > this.cap {
            let seed = this.seed;
            let cap = this.cap as usize;
            let mut ranked: Vec<(u64, u64)> =
                this.txs.iter().map(|t| (rank(seed, t.id), t.id)).collect();
            ranked.sort_unstable();
            ranked.truncate(cap);
            let keep: BTreeSet<u64> = ranked.into_iter().map(|(_, id)| id).collect();
            this.txs.retain(|t| keep.contains(&t.id));
        }
    }
}

/// One emitted event, as both recorders receive it.
type Emit = (u64, TraceStage, u64, u64, u64);

/// The lifecycle of a transaction that commits, in emission order; a
/// trail of `k` events is its first `k` stages.
const LIFECYCLE: [TraceStage; 10] = [
    TraceStage::Submitted,
    TraceStage::Retried,
    TraceStage::Rerouted,
    TraceStage::Deferred,
    TraceStage::Admitted,
    TraceStage::Selected,
    TraceStage::Ordered,
    TraceStage::Executed,
    TraceStage::Persisted,
    TraceStage::Finalized,
];

/// An emission stream over the ids `0..n`: 1–10 events each (about one
/// id in six emits nothing but a terminal drop), per-id order kept,
/// ids shuffled and interleaved.
fn emissions(n: u64, rng: &mut DetRng) -> Vec<Emit> {
    let mut trails: Vec<Vec<Emit>> = (0..n)
        .map(|id| {
            let mut at = rng.next_below(1_000_000);
            if rng.chance(0.16) {
                return vec![(id, TraceStage::DroppedPoolFull, at, 0, 0)];
            }
            let events = rng.range_inclusive(1, 10) as usize;
            LIFECYCLE[..events]
                .iter()
                .map(|&stage| {
                    // Equal stamps happen (deferred and admitted share
                    // one); so do stamps that step back.
                    at = (at + rng.next_below(5_000)).saturating_sub(rng.next_below(40));
                    (id, stage, at, rng.next_below(8), rng.next_u64())
                })
                .collect()
        })
        .collect();
    let mut order: Vec<usize> = trails
        .iter()
        .enumerate()
        .flat_map(|(id, trail)| std::iter::repeat(id).take(trail.len()))
        .collect();
    rng.shuffle(&mut order);
    for trail in &mut trails {
        trail.reverse();
    }
    order
        .into_iter()
        .map(|id| trails[id].pop().expect("one slot per event"))
        .collect()
}

/// `n` against `cap`, by class: empty, one, under, at, one over, far
/// over.
fn ids_for(class: u8, cap: u64, rng: &mut DetRng) -> u64 {
    match class {
        0 => 0,
        1 => 1,
        2 => rng.next_below(cap),
        3 => cap,
        4 => cap + 1,
        _ => cap * rng.range_inclusive(3, 30) + rng.next_below(cap),
    }
}

#[test]
fn tracer_matches_the_streaming_recorder() {
    if Tracer::arm(TraceSample::All, 0, 0).is_none() {
        return; // recorder compiled out
    }
    let cases = (
        (u64s(0..=u64::MAX), u64s(0..=u64::MAX)),
        u64s(1..=48),
        u8s(0..=5),
        u8s(0..=2),
    );
    Property::new("tracer_matches_the_streaming_recorder")
        .cases(300)
        .check(&cases, |&((seed, order), cap, n_class, sample_kind)| {
            let mut rng = DetRng::new(order);
            let n = ids_for(n_class, cap, &mut rng);
            let sample = match sample_kind {
                0 => TraceSample::Limit(1),
                1 => TraceSample::Limit(cap),
                _ => TraceSample::All,
            };
            let mut tracer = Tracer::arm(sample, seed, n).expect("compiled in");
            let mut recorder = oracle::Recorder::configure(sample, seed);
            for (id, stage, at_us, arg0, arg1) in emissions(n, &mut rng) {
                tracer.emit(id, stage, at_us, arg0, arg1);
                recorder.emit(id, stage, at_us, arg0, arg1);
            }
            let (got, want) = (tracer.finish(), recorder.take());
            prop_assert_eq!(got.txs.len() as u64, n.min(sample.cap()));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.to_chrome_json(), want.to_chrome_json());
            Ok(())
        });
}

/// An id-sorted set over a random subset of `0..span`, each trail a few
/// events in no particular stamp order.
fn random_set(seed: u64, cap: u64, span: u64, rng: &mut DetRng) -> TraceSet {
    let mut txs = Vec::new();
    for id in 0..span {
        if rng.chance(0.5) {
            continue;
        }
        let events = (0..rng.next_below(4))
            .map(|_| TraceEvent {
                stage: *rng.pick(&LIFECYCLE),
                at_us: rng.next_below(50),
                arg0: rng.next_below(4),
                arg1: 0,
            })
            .collect();
        txs.push(TxTrace { id, events });
    }
    TraceSet { seed, cap, txs }
}

#[test]
fn merge_matches_the_map_based_merge() {
    let cases = (u64s(0..=u64::MAX), u64s(0..=u64::MAX), u8s(0..=40));
    Property::new("merge_matches_the_map_based_merge")
        .cases(300)
        .check(&cases, |&(seed, shape, span)| {
            let mut rng = DetRng::new(shape);
            // Caps on both sides of the union's size, 0 (a default set,
            // read as unbounded) and `u64::MAX` included.
            let cap = |rng: &mut DetRng| match rng.next_below(4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.range_inclusive(1, span as u64 + 1),
            };
            let (cap_a, cap_b) = (cap(&mut rng), cap(&mut rng));
            let a = random_set(seed, cap_a, span as u64, &mut rng);
            let b = match rng.next_below(5) {
                0 => TraceSet::default(),
                _ => random_set(seed, cap_b, span as u64, &mut rng),
            };
            let (mut got, mut want) = (a.clone(), a);
            got.merge(&b);
            oracle::merge(&mut want, &b);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.to_chrome_json(), want.to_chrome_json());
            Ok(())
        });
}
