//! The tracer against the code it replaced.
//!
//! [`Tracer`] decides membership once, from `(seed, cap, n)`; the
//! recorder it replaced kept a streaming bottom-k and evicted as ids
//! arrived. The old recorder is kept in [`oracle`], and both tests here
//! ask both for the same [`TraceSet`], field for field, and the same
//! Chrome export, byte for byte: the property at small bounds, the
//! fixed cases at the default one. Replay a property failure with
//! `DIABLO_PROP_SEED`.

use diablo_sim::DetRng;
use diablo_telemetry::trace::{TraceSample, TraceStage, Tracer};
use diablo_testkit::gen::{u64s, u8s};
use diablo_testkit::{prop_assert_eq, Property};

/// The streaming recorder, verbatim but for being a value instead of a
/// process-global.
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
    // Kills case 61: `mark_lowest`'s second pass taking the edge bucket
    // whole (`bucket <= edge`), the edge bucket one too far, and the
    // `select_nth_unstable` index one short or one long. (The edge
    // search made `<=` is an equivalent mutant: it only moves the edge
    // past a bucket that completes the `cap` exactly.)
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

/// The default bound around its edges and at `trace_chaos`'s 120,000
/// ids, where an edge bucket holds about 30 ranks. Every 1,000th event
/// also goes, to the tracer alone, to an id at or past `n`, which must
/// never become a member. Kills the property's four mutants.
#[test]
fn tracer_matches_the_streaming_recorder_at_the_default_bound() {
    if Tracer::arm(TraceSample::All, 0, 0).is_none() {
        return; // recorder compiled out
    }
    let sample = TraceSample::Limit(TraceSample::DEFAULT_LIMIT);
    for (seed, n) in [(42, 4_095), (42, 4_096), (42, 4_097), (42, 120_000), (7, 120_000)] {
        let mut rng = DetRng::new(seed ^ n);
        let past = [n, n + 1, n.next_multiple_of(64), n.next_multiple_of(512) + 3, u64::MAX];
        let mut tracer = Tracer::arm(sample, seed, n).expect("compiled in");
        let mut recorder = oracle::Recorder::configure(sample, seed);
        for (i, (id, stage, at_us, arg0, arg1)) in emissions(n, &mut rng).into_iter().enumerate() {
            tracer.emit(id, stage, at_us, arg0, arg1);
            recorder.emit(id, stage, at_us, arg0, arg1);
            if i % 1_000 == 0 {
                tracer.emit(past[i / 1_000 % past.len()], stage, at_us, arg0, arg1);
            }
        }
        let (got, want) = (tracer.finish(), recorder.take());
        assert_eq!(got.txs.len() as u64, n.min(sample.cap()), "seed {seed}, n {n}");
        let ids = |set: &diablo_telemetry::trace::TraceSet| -> Vec<u64> {
            set.txs.iter().map(|t| t.id).collect()
        };
        assert_eq!(ids(&got), ids(&want), "seed {seed}, n {n}: members");
        assert!(got == want, "seed {seed}, n {n}: trails differ");
        assert!(got.to_chrome_json() == want.to_chrome_json(), "seed {seed}, n {n}: exports differ");
    }
}
