//! Property coverage for the wire codec: every message type round-trips
//! through `encode`/`decode`, and `decode` is total on arbitrary bytes.

use diablo_chains::PlannedTx;
use diablo_core::wire::{
    decode, decode_plan_frame, encode, wire_to_planned, Message, WireOutcome, WireTx,
};
use diablo_telemetry::{HistogramSnapshot, SpanStat, TelemetrySnapshot};
use diablo_testkit::gen::{
    ascii_strings, choice, i32s, just, u32s, u64s, u8s, vecs, BoxedGen, Gen,
};
use diablo_testkit::{prop_assert, prop_assert_eq, Property};

/// Arbitrary planned transactions, covering all three payload kinds.
fn arb_wiretx() -> BoxedGen<WireTx> {
    (
        (u64s(0..=u64::MAX), u32s(0..=u32::MAX), u8s(0..=2), u8s(0..=255)),
        (u64s(0..=u64::MAX), u8s(0..=255), i32s(i32::MIN..=i32::MAX)),
        (i32s(i32::MIN..=i32::MAX), u8s(0..=2)),
    )
        .map(|((at_us, sender, kind, dapp), (seq, entry, arg0), (arg1, argc))| WireTx {
            at_us,
            sender,
            kind,
            dapp,
            seq,
            entry,
            args: [arg0, arg1],
            argc,
        })
        .boxed()
}

/// Arbitrary outcomes, including the undecided sentinel.
fn arb_outcome() -> BoxedGen<WireOutcome> {
    (
        u8s(0..=255),
        u64s(0..=u64::MAX),
        choice(vec![u64s(0..=u64::MAX).boxed(), just(u64::MAX).boxed()]),
    )
        .map(|(status, submit_us, decide_us)| WireOutcome {
            status,
            submit_us,
            decide_us,
        })
        .boxed()
}

/// Arbitrary histogram snapshots: any counts, any bucket layout.
fn arb_histogram() -> BoxedGen<HistogramSnapshot> {
    (
        (
            u64s(0..=u64::MAX),
            u64s(0..=u64::MAX),
            u64s(0..=u64::MAX),
            u64s(0..=u64::MAX),
        ),
        vecs((u32s(0..=4096), u64s(0..=u64::MAX)), 0..=12),
    )
        .map(|((count, sum, min, max), buckets)| HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        })
        .boxed()
}

/// Arbitrary telemetry snapshots across all four sections, including
/// empty ones and negative gauges.
fn arb_snapshot() -> BoxedGen<TelemetrySnapshot> {
    (
        vecs((ascii_strings(0..=32), u64s(0..=u64::MAX)), 0..=8),
        vecs((ascii_strings(0..=32), u64s(0..=u64::MAX)), 0..=8),
        vecs((ascii_strings(0..=32), arb_histogram()), 0..=6),
        vecs(
            (
                ascii_strings(0..=48),
                (u64s(0..=u64::MAX), u64s(0..=u64::MAX), u64s(0..=u64::MAX)),
            ),
            0..=6,
        ),
    )
        .map(|(counters, gauges, histograms, spans)| TelemetrySnapshot {
            counters,
            gauges: gauges.into_iter().map(|(n, v)| (n, v as i64)).collect(),
            histograms,
            spans: spans
                .into_iter()
                .map(|(n, (count, inclusive_us, exclusive_us))| {
                    (
                        n,
                        SpanStat {
                            count,
                            inclusive_us,
                            exclusive_us,
                        },
                    )
                })
                .collect(),
        })
        .boxed()
}

/// Arbitrary protocol messages: every variant, arbitrary contents.
fn arb_message() -> BoxedGen<Message> {
    choice(vec![
        ascii_strings(0..=64).map(|tag| Message::Hello { tag }).boxed(),
        (
            ascii_strings(0..=32),
            ascii_strings(0..=200),
            u32s(0..=u32::MAX),
            u32s(0..=u32::MAX),
        )
            .map(|(chain, spec, first, last)| Message::Assign {
                chain,
                spec,
                first,
                last,
            })
            .boxed(),
        vecs(arb_wiretx(), 0..=20)
            .map(|txs| Message::Plan { txs })
            .boxed(),
        just(Message::PlanDone).boxed(),
        vecs(arb_outcome(), 0..=20)
            .map(|txs| Message::Outcomes { txs })
            .boxed(),
        just(Message::OutcomesDone).boxed(),
        ascii_strings(0..=128).map(|text| Message::Stats { text }).boxed(),
        arb_snapshot()
            .map(|snapshot| Message::Telemetry { snapshot })
            .boxed(),
        just(Message::Done).boxed(),
    ])
    .boxed()
}

/// Every message survives a framed encode/decode round trip, and the
/// frame header matches the body length.
#[test]
fn messages_roundtrip() {
    Property::new("messages_roundtrip")
        .cases(256)
        .check(&arb_message(), |msg| {
            let framed = encode(msg);
            prop_assert!(framed.len() >= 4, "frame shorter than its header");
            let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
            prop_assert_eq!(len + 4, framed.len());
            let decoded = decode(&framed[4..]).map_err(|e| format!("decode failed: {e}"))?;
            prop_assert_eq!(&decoded, msg);
            Ok(())
        });
}

/// Decoding never panics on arbitrary bytes — truncated, oversized or
/// garbage frames all yield `Err`, never a crash.
#[test]
fn decode_is_total_on_garbage() {
    Property::new("decode_is_total_on_garbage")
        .cases(512)
        .check(&vecs(u8s(0..=255), 0..=300), |bytes| {
            let _ = decode(bytes);
            Ok(())
        });
}

/// Telemetry snapshots survive the framed round trip exactly — every
/// counter, gauge sign, histogram bucket and span figure intact.
#[test]
fn telemetry_snapshots_roundtrip() {
    Property::new("telemetry_snapshots_roundtrip")
        .cases(256)
        .check(&arb_snapshot(), |snapshot| {
            let msg = Message::Telemetry {
                snapshot: snapshot.clone(),
            };
            let framed = encode(&msg);
            let decoded = decode(&framed[4..]).map_err(|e| format!("decode failed: {e}"))?;
            prop_assert_eq!(&decoded, &msg);
            Ok(())
        });
}

/// Recorder-shaped snapshots: histograms frozen from actually recorded
/// values (never a bucket layout a recorder could not produce).
fn coherent_snapshot() -> BoxedGen<TelemetrySnapshot> {
    (
        vecs((ascii_strings(1..=16), u64s(0..=1 << 40)), 0..=6),
        vecs((ascii_strings(1..=16), u64s(0..=1 << 40)), 0..=6),
        vecs((ascii_strings(1..=16), vecs(u64s(0..=1 << 40), 1..=20)), 0..=4),
        vecs(
            (
                ascii_strings(1..=24),
                (u64s(0..=1 << 30), u64s(0..=1 << 40), u64s(0..=1 << 40)),
            ),
            0..=4,
        ),
    )
        .map(|(counters, gauges, hist_values, spans)| TelemetrySnapshot {
            counters,
            gauges: gauges.into_iter().map(|(n, v)| (n, v as i64)).collect(),
            histograms: hist_values
                .into_iter()
                .map(|(n, values)| {
                    let mut h = diablo_sim::LogHistogram::new();
                    for v in values {
                        h.record(v);
                    }
                    (n, HistogramSnapshot::from_histogram(&h))
                })
                .collect(),
            spans: spans
                .into_iter()
                .map(|(n, (count, inclusive_us, exclusive_us))| {
                    (
                        n,
                        SpanStat {
                            count,
                            inclusive_us,
                            exclusive_us,
                        },
                    )
                })
                .collect(),
        })
        .boxed()
}

/// Merging is commutative on recorder-shaped snapshots: the Primary may
/// fold Secondary reports in any arrival order and aggregate to the
/// same totals.
#[test]
fn telemetry_merge_is_commutative() {
    // merge() canonicalizes (sorts and dedupes by name); fold each
    // generated snapshot into an empty one first so both orders start
    // from canonical operands.
    fn canonical(s: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut c = TelemetrySnapshot::default();
        c.merge(s);
        c
    }
    Property::new("telemetry_merge_is_commutative")
        .cases(128)
        .check(&(coherent_snapshot(), coherent_snapshot()), |(a, b)| {
            let (a, b) = (canonical(a), canonical(b));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            Ok(())
        });
}

/// Truncating a valid frame anywhere never panics, and truncating a
/// non-empty body strictly (dropping the tail) fails or decodes — but
/// decoding a prefix of a `Plan` body must not fabricate transactions.
#[test]
fn truncated_frames_fail_cleanly() {
    Property::new("truncated_frames_fail_cleanly")
        .cases(128)
        .check(
            &(vecs(arb_wiretx(), 1..=8), u64s(0..=u64::MAX)),
            |(txs, cut_seed)| {
                let msg = Message::Plan { txs: txs.clone() };
                let framed = encode(&msg);
                let body = &framed[4..];
                let cut = 1 + (*cut_seed as usize % (body.len().saturating_sub(1).max(1)));
                let result = decode(&body[..cut.min(body.len() - 1)]);
                prop_assert!(
                    result.is_err(),
                    "a strict prefix of a Plan body decoded: {result:?}"
                );
                Ok(())
            },
        );
}

/// What the plan phase's direct decoder must equal, frame for frame:
/// the owned message, converted entry by entry. `None` is `PlanDone`.
fn plan_by_message(body: &[u8]) -> Result<Option<Vec<PlannedTx>>, String> {
    match decode(body)? {
        Message::Plan { txs } => {
            let plan: Result<Vec<_>, _> = txs.iter().map(wire_to_planned).collect();
            plan.map(Some)
        }
        Message::PlanDone => Ok(None),
        other => Err(format!("expected Plan, got {other:?}")),
    }
}

/// The session's path: entries decoded straight onto the end of a plan
/// that already holds others, which must stay as they were.
fn plan_direct(body: &[u8]) -> Result<Option<Vec<PlannedTx>>, String> {
    let held = wire_to_planned(&WireTx {
        at_us: 7,
        sender: 7,
        kind: 0,
        dapp: 0,
        seq: 0,
        entry: 0,
        args: [0, 0],
        argc: 0,
    })?;
    let mut plan = vec![held; 3];
    let more = decode_plan_frame(body, &mut plan)?;
    assert_eq!(plan[..3], [held; 3], "entries already held were touched");
    Ok(more.then(|| plan.split_off(3)))
}

/// Plan entries a transaction can be made from (kinds 0-2, the first
/// few DApps, at most two arguments), so that whole frames convert and
/// values are compared; one in eight is drawn from [`arb_wiretx`],
/// where most DApp indices are errors.
fn arb_plan_entry() -> BoxedGen<WireTx> {
    let convertible = || {
        (
            (
                u64s(0..=u64::MAX),
                u32s(0..=u32::MAX),
                u8s(0..=2),
                u8s(0..=3),
            ),
            (u64s(0..=u64::MAX), u8s(0..=255), i32s(i32::MIN..=i32::MAX)),
            (i32s(i32::MIN..=i32::MAX), u8s(0..=2)),
        )
            .map(
                |((at_us, sender, kind, dapp), (seq, entry, arg0), (arg1, argc))| WireTx {
                    at_us,
                    sender,
                    kind,
                    dapp,
                    seq,
                    entry,
                    args: [arg0, arg1],
                    argc,
                },
            )
            .boxed()
    };
    let mut options = vec![arb_wiretx()];
    options.extend((0..7).map(|_| convertible()));
    choice(options).boxed()
}

/// How a valid frame body is damaged before both decoders see it.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// XOR one byte (position and mask reduced modulo what fits).
    Flip(u64, u8),
    /// Keep only a prefix.
    Truncate(u64),
    /// Add to the entry count without adding entries.
    Inflate(u32),
    /// Append bytes behind the last entry.
    Extend(Vec<u8>),
}

fn arb_damage() -> BoxedGen<Damage> {
    choice(vec![
        just(Damage::None).boxed(),
        (u64s(0..=u64::MAX), u8s(1..=255))
            .map(|(at, mask)| Damage::Flip(at, mask))
            .boxed(),
        u64s(0..=u64::MAX).map(Damage::Truncate).boxed(),
        u32s(1..=u32::MAX).map(Damage::Inflate).boxed(),
        vecs(u8s(0..=255), 1..=40).map(Damage::Extend).boxed(),
    ])
    .boxed()
}

fn damaged(mut body: Vec<u8>, damage: &Damage) -> Vec<u8> {
    match damage {
        Damage::None => {}
        Damage::Flip(at, mask) => {
            let at = *at as usize % body.len();
            body[at] ^= mask;
        }
        Damage::Truncate(keep) => body.truncate(*keep as usize % body.len()),
        Damage::Inflate(by) => {
            if let Some(count) = body.get_mut(1..5) {
                let inflated = u32::from_le_bytes(count.try_into().unwrap()).wrapping_add(*by);
                count.copy_from_slice(&inflated.to_le_bytes());
            }
        }
        Damage::Extend(tail) => body.extend_from_slice(tail),
    }
    body
}

/// The Primary's direct `Plan` decoder against `decode` +
/// `wire_to_planned`, on valid frames and on flipped, truncated,
/// count-inflated and extended ones: the same transactions, the same
/// end of phase, or the same error.
#[test]
fn direct_plan_decoding_equals_the_owned_message() {
    let plans = || {
        vecs(arb_plan_entry(), 0..=12)
            .map(|txs| Message::Plan { txs })
            .boxed()
    };
    let frames = choice(vec![
        plans(),
        plans(),
        plans(),
        just(Message::PlanDone).boxed(),
        arb_message(),
    ]);
    let compared = std::cell::Cell::new(0u32);
    Property::new("direct_plan_decoding_equals_the_owned_message")
        .cases(1024)
        .check(&(frames, arb_damage()), |(msg, damage)| {
            let body = damaged(encode(msg)[4..].to_vec(), damage);
            let (direct, by_message) = (plan_direct(&body), plan_by_message(&body));
            prop_assert_eq!(&direct, &by_message);
            if matches!(direct, Ok(Some(ref plan)) if !plan.is_empty()) {
                compared.set(compared.get() + 1);
            }
            Ok(())
        });
    // The generator must reach the case that matters: whole frames
    // whose entries all convert, so values were compared, not only
    // errors. (A replayed seed runs one case.)
    assert!(
        compared.get() >= 100 || std::env::var_os("DIABLO_PROP_SEED").is_some(),
        "only {} of 1,024 cases decoded to a non-empty plan",
        compared.get()
    );
}
