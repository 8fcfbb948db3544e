//! The codec: messages to framed bytes and back.

use diablo_chains::tx::CallSel;
use diablo_chains::{Payload, PlannedTx, TxStatus};
use diablo_contracts::DApp;
use diablo_sim::SimTime;

use crate::bytebuf::{ByteBuf, ByteReader};

/// One planned transaction on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTx {
    /// Submission instant, µs.
    pub at_us: u64,
    /// Signing account.
    pub sender: u32,
    /// 0 = transfer, 1 = invoke (default rotation), 2 = invoke with an
    /// explicit function selection.
    pub kind: u8,
    /// Index into [`DApp::ALL`] when invoking.
    pub dapp: u8,
    /// Invocation sequence number.
    pub seq: u64,
    /// Selected entry index (`kind == 2`).
    pub entry: u8,
    /// Literal arguments (`kind == 2`).
    pub args: [i32; 2],
    /// How many arguments are used (`kind == 2`).
    pub argc: u8,
}

/// One transaction outcome on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOutcome {
    /// Encoded [`TxStatus`].
    pub status: u8,
    /// Submission instant, µs.
    pub submit_us: u64,
    /// Decision instant, µs (`u64::MAX` = undecided).
    pub decide_us: u64,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Secondary → Primary: identify with a location tag (§5.3).
    Hello {
        /// The Secondary's location tag.
        tag: String,
    },
    /// Primary → Secondary: the benchmark assignment.
    Assign {
        /// Chain name.
        chain: String,
        /// Benchmark specification text.
        spec: String,
        /// First global client index (inclusive).
        first: u32,
        /// Last global client index (exclusive).
        last: u32,
    },
    /// Secondary → Primary: a chunk of planned transactions.
    Plan {
        /// The chunk.
        txs: Vec<WireTx>,
    },
    /// Secondary → Primary: planning finished.
    PlanDone,
    /// Primary → Secondary: a chunk of outcomes (in the Secondary's
    /// planning order).
    Outcomes {
        /// The chunk.
        txs: Vec<WireOutcome>,
    },
    /// Primary → Secondary: all outcomes delivered.
    OutcomesDone,
    /// Secondary → Primary: the local statistics report.
    Stats {
        /// Human-readable statistics.
        text: String,
    },
    /// Secondary → Primary: the local telemetry snapshot, merged by the
    /// Primary into the run's aggregate (sent right after `Stats`).
    Telemetry {
        /// The Secondary's recorded counters/histograms/spans.
        snapshot: diablo_telemetry::TelemetrySnapshot,
    },
    /// Primary → Secondary: experiment over, disconnect.
    Done,
}

fn put_string(buf: &mut ByteBuf, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut ByteReader) -> Result<String, String> {
    let len = buf.get_u32_le().map_err(|_| "truncated string length")? as usize;
    let bytes = buf.take(len).map_err(|_| "truncated string body")?;
    // Validate UTF-8 on the borrowed frame bytes; allocate only for the
    // (valid) result, never for a rejected body.
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|e| e.to_string())
}

/// Encodes a telemetry snapshot: four length-prefixed sections in the
/// snapshot's canonical (name-sorted) order.
fn put_telemetry(buf: &mut ByteBuf, snapshot: &diablo_telemetry::TelemetrySnapshot) {
    buf.put_u32_le(snapshot.counters.len() as u32);
    for (name, v) in &snapshot.counters {
        put_string(buf, name);
        buf.put_u64_le(*v);
    }
    buf.put_u32_le(snapshot.gauges.len() as u32);
    for (name, v) in &snapshot.gauges {
        put_string(buf, name);
        buf.put_u64_le(*v as u64);
    }
    buf.put_u32_le(snapshot.histograms.len() as u32);
    for (name, h) in &snapshot.histograms {
        put_string(buf, name);
        buf.put_u64_le(h.count);
        buf.put_u64_le(h.sum);
        buf.put_u64_le(h.min);
        buf.put_u64_le(h.max);
        buf.put_u32_le(h.buckets.len() as u32);
        for &(index, count) in &h.buckets {
            buf.put_u32_le(index);
            buf.put_u64_le(count);
        }
    }
    buf.put_u32_le(snapshot.spans.len() as u32);
    for (name, s) in &snapshot.spans {
        put_string(buf, name);
        buf.put_u64_le(s.count);
        buf.put_u64_le(s.inclusive_us);
        buf.put_u64_le(s.exclusive_us);
    }
}

/// Decodes a telemetry snapshot written by [`put_telemetry`].
fn get_telemetry(buf: &mut ByteReader) -> Result<diablo_telemetry::TelemetrySnapshot, String> {
    let mut snapshot = diablo_telemetry::TelemetrySnapshot::default();
    let n = buf.get_u32_le().map_err(|_| "truncated counters")? as usize;
    for _ in 0..n {
        let name = get_string(buf)?;
        snapshot.counters.push((name, buf.get_u64_le()?));
    }
    let n = buf.get_u32_le().map_err(|_| "truncated gauges")? as usize;
    for _ in 0..n {
        let name = get_string(buf)?;
        snapshot.gauges.push((name, buf.get_u64_le()? as i64));
    }
    let n = buf.get_u32_le().map_err(|_| "truncated histograms")? as usize;
    for _ in 0..n {
        let name = get_string(buf)?;
        let mut h = diablo_telemetry::HistogramSnapshot {
            count: buf.get_u64_le()?,
            sum: buf.get_u64_le()?,
            min: buf.get_u64_le()?,
            max: buf.get_u64_le()?,
            buckets: Vec::new(),
        };
        let b = buf.get_u32_le().map_err(|_| "truncated buckets")? as usize;
        for _ in 0..b {
            let index = buf.get_u32_le()?;
            h.buckets.push((index, buf.get_u64_le()?));
        }
        snapshot.histograms.push((name, h));
    }
    let n = buf.get_u32_le().map_err(|_| "truncated spans")? as usize;
    for _ in 0..n {
        let name = get_string(buf)?;
        snapshot.spans.push((
            name,
            diablo_telemetry::SpanStat {
                count: buf.get_u64_le()?,
                inclusive_us: buf.get_u64_le()?,
                exclusive_us: buf.get_u64_le()?,
            },
        ));
    }
    Ok(snapshot)
}

/// Tags of the two message kinds the session decodes without building
/// a [`Message`], and the size of one entry of each.
const TAG_PLAN: u8 = 3;
pub(super) const TAG_OUTCOMES: u8 = 5;
const PLAN_ENTRY: usize = 32;
pub(super) const OUTCOME_ENTRY: usize = 17;

/// Appends one frame to `out`: reserves the 4-byte length prefix, lets
/// `body` write the tag and the body behind it, and patches the prefix.
/// The body is framed in place — no copy into a second buffer — and a
/// buffer may hold any number of frames.
pub(super) fn put_frame(out: &mut ByteBuf, body: impl FnOnce(&mut ByteBuf)) {
    let at = out.len();
    out.put_u32_le(0);
    body(out);
    let len = out.len() - at - 4;
    out.set_u32_le(at, len as u32);
}

/// Tag and body of a `Plan` message. The Secondary passes chunk views
/// of its plan mapped through [`planned_to_wire`], without collecting
/// a `Vec<WireTx>` per chunk; [`encode`] passes an owned message's.
/// An entry is laid out in an array and appended in one piece: nine
/// appends per entry cost twice the time (1.9 → 1.0 ms for `encode`
/// over 180,000 entries each of `Plan` and `Outcomes`).
pub(super) fn put_plan(body: &mut ByteBuf, count: usize, txs: impl Iterator<Item = WireTx>) {
    body.reserve(5 + count * PLAN_ENTRY);
    body.put_u8(TAG_PLAN);
    body.put_u32_le(count as u32);
    for tx in txs {
        let mut e = [0u8; PLAN_ENTRY];
        e[0..8].copy_from_slice(&tx.at_us.to_le_bytes());
        e[8..12].copy_from_slice(&tx.sender.to_le_bytes());
        e[12] = tx.kind;
        e[13] = tx.dapp;
        e[14..22].copy_from_slice(&tx.seq.to_le_bytes());
        e[22] = tx.entry;
        e[23..27].copy_from_slice(&tx.args[0].to_le_bytes());
        e[27..31].copy_from_slice(&tx.args[1].to_le_bytes());
        e[31] = tx.argc;
        body.put_slice(&e);
    }
}

/// Tag and body of an `Outcomes` message; the Primary's fan-out passes
/// chunk views of one outcomes vector.
pub(super) fn put_outcomes(body: &mut ByteBuf, txs: &[WireOutcome]) {
    body.reserve(5 + txs.len() * OUTCOME_ENTRY);
    body.put_u8(TAG_OUTCOMES);
    body.put_u32_le(txs.len() as u32);
    for tx in txs {
        let mut e = [0u8; OUTCOME_ENTRY];
        e[0] = tx.status;
        e[1..9].copy_from_slice(&tx.submit_us.to_le_bytes());
        e[9..17].copy_from_slice(&tx.decide_us.to_le_bytes());
        body.put_slice(&e);
    }
}

/// Appends `msg` to `out` as one frame.
pub(super) fn put_message(out: &mut ByteBuf, msg: &Message) {
    put_frame(out, |f| match msg {
        Message::Hello { tag } => {
            f.put_u8(1);
            put_string(f, tag);
        }
        Message::Assign {
            chain,
            spec,
            first,
            last,
        } => {
            f.put_u8(2);
            put_string(f, chain);
            put_string(f, spec);
            f.put_u32_le(*first);
            f.put_u32_le(*last);
        }
        Message::Plan { txs } => put_plan(f, txs.len(), txs.iter().copied()),
        Message::PlanDone => f.put_u8(4),
        Message::Outcomes { txs } => put_outcomes(f, txs),
        Message::OutcomesDone => f.put_u8(6),
        Message::Stats { text } => {
            f.put_u8(7);
            put_string(f, text);
        }
        Message::Done => f.put_u8(8),
        Message::Telemetry { snapshot } => {
            f.put_u8(9);
            put_telemetry(f, snapshot);
        }
    });
}

/// Encodes a message into a framed byte buffer.
pub fn encode(msg: &Message) -> ByteBuf {
    // One allocation of the final size for the two big kinds: a buffer
    // grown from empty takes another path through the allocator and
    // costs `encode` a tenth more.
    let entries = match msg {
        Message::Plan { txs } => txs.len() * PLAN_ENTRY,
        Message::Outcomes { txs } => txs.len() * OUTCOME_ENTRY,
        _ => 0,
    };
    let mut out = ByteBuf::with_capacity(64 + entries);
    put_message(&mut out, msg);
    out
}

/// Reads the entry count of a `Plan` or `Outcomes` body and checks that
/// as many entries of `size` bytes follow, so a count alone cannot make
/// the reader reserve room for entries that never came.
pub(super) fn entry_count(body: &mut ByteReader, size: usize, what: &str) -> Result<usize, String> {
    let n = body.get_u32_le().map_err(|_| format!("truncated {what}"))? as usize;
    if body.remaining() < n * size {
        return Err(format!("truncated {what} body"));
    }
    Ok(n)
}

/// Reads one `Plan` entry: the field order of [`put_plan`], for
/// [`decode`] and the Primary's session alike.
#[inline]
fn get_wire_tx(body: &mut ByteReader) -> Result<WireTx, String> {
    Ok(WireTx {
        at_us: body.get_u64_le()?,
        sender: body.get_u32_le()?,
        kind: body.get_u8()?,
        dapp: body.get_u8()?,
        seq: body.get_u64_le()?,
        entry: body.get_u8()?,
        args: [body.get_i32_le()?, body.get_i32_le()?],
        argc: body.get_u8()?,
    })
}

/// Reads one `Outcomes` entry: the field order of [`put_outcomes`], for
/// [`decode`] and the Secondary's session alike.
#[inline]
pub(super) fn get_wire_outcome(body: &mut ByteReader) -> Result<WireOutcome, String> {
    Ok(WireOutcome {
        status: body.get_u8()?,
        submit_us: body.get_u64_le()?,
        decide_us: body.get_u64_le()?,
    })
}

/// Decodes one frame body (without the length prefix).
pub fn decode(body: &[u8]) -> Result<Message, String> {
    if body.is_empty() {
        return Err("empty frame".into());
    }
    let mut body = ByteReader::new(body);
    let tag = body.get_u8()?;
    match tag {
        1 => Ok(Message::Hello {
            tag: get_string(&mut body)?,
        }),
        2 => {
            let chain = get_string(&mut body)?;
            let spec = get_string(&mut body)?;
            if body.remaining() < 8 {
                return Err("truncated assign".into());
            }
            let first = body.get_u32_le()?;
            let last = body.get_u32_le()?;
            Ok(Message::Assign {
                chain,
                spec,
                first,
                last,
            })
        }
        TAG_PLAN => {
            let n = entry_count(&mut body, PLAN_ENTRY, "plan")?;
            let mut txs = Vec::with_capacity(n);
            for _ in 0..n {
                txs.push(get_wire_tx(&mut body)?);
            }
            Ok(Message::Plan { txs })
        }
        4 => Ok(Message::PlanDone),
        TAG_OUTCOMES => {
            let n = entry_count(&mut body, OUTCOME_ENTRY, "outcomes")?;
            let mut txs = Vec::with_capacity(n);
            for _ in 0..n {
                txs.push(get_wire_outcome(&mut body)?);
            }
            Ok(Message::Outcomes { txs })
        }
        6 => Ok(Message::OutcomesDone),
        7 => Ok(Message::Stats {
            text: get_string(&mut body)?,
        }),
        8 => Ok(Message::Done),
        9 => Ok(Message::Telemetry {
            snapshot: get_telemetry(&mut body)?,
        }),
        other => Err(format!("unknown message tag {other}")),
    }
}

/// One frame of the plan phase, decoded where the Primary uses it: the
/// entries of a `Plan` body go from the frame's bytes, through a
/// [`WireTx`] on the stack, onto the end of `plan` — what [`decode`]
/// and [`wire_to_planned`] give entry by entry, or the error they give,
/// without the `Vec<WireTx>` between. Returns `false` for `PlanDone`,
/// which ends the phase; any other message is an error. On `Err`,
/// `plan` may have grown by the entries before the bad one.
pub fn decode_plan_frame(body: &[u8], plan: &mut Vec<PlannedTx>) -> Result<bool, String> {
    if body.first() != Some(&TAG_PLAN) {
        return match decode(body)? {
            Message::PlanDone => Ok(false),
            other => Err(format!("expected Plan, got {other:?}")),
        };
    }
    let mut body = ByteReader::new(&body[1..]);
    let n = entry_count(&mut body, PLAN_ENTRY, "plan")?;
    plan.reserve(n);
    for _ in 0..n {
        plan.push(wire_to_planned(&get_wire_tx(&mut body)?)?);
    }
    Ok(true)
}

/// Status ↔ wire encoding.
pub(super) fn status_to_wire(status: TxStatus) -> u8 {
    match status {
        TxStatus::Pending => 0,
        TxStatus::Committed => 1,
        TxStatus::DroppedPoolFull => 2,
        TxStatus::DroppedPerSender => 3,
        TxStatus::DroppedExpired => 4,
        TxStatus::Failed => 5,
        TxStatus::Rejected => 6,
    }
}

pub(super) fn status_from_wire(code: u8) -> Result<TxStatus, String> {
    Ok(match code {
        0 => TxStatus::Pending,
        1 => TxStatus::Committed,
        2 => TxStatus::DroppedPoolFull,
        3 => TxStatus::DroppedPerSender,
        4 => TxStatus::DroppedExpired,
        5 => TxStatus::Failed,
        6 => TxStatus::Rejected,
        other => return Err(format!("unknown status code {other}")),
    })
}

pub(super) fn planned_to_wire(tx: &PlannedTx) -> WireTx {
    let base = WireTx {
        at_us: tx.at.as_micros(),
        sender: tx.sender,
        kind: 0,
        dapp: 0,
        seq: 0,
        entry: 0,
        args: [0, 0],
        argc: 0,
    };
    match tx.payload {
        Payload::Transfer => base,
        Payload::Invoke { dapp, seq, call } => {
            let dapp = DApp::ALL
                .iter()
                .position(|&d| d == dapp)
                .expect("known dapp") as u8;
            match call {
                None => WireTx {
                    kind: 1,
                    dapp,
                    seq,
                    ..base
                },
                Some(sel) => WireTx {
                    kind: 2,
                    dapp,
                    seq,
                    entry: sel.entry,
                    args: sel.args,
                    argc: sel.argc,
                    ..base
                },
            }
        }
    }
}

/// The planned transaction a `Plan` entry stands for; an error if it
/// stands for none (unknown kind, DApp index past [`DApp::ALL`], more
/// arguments than a call holds).
pub fn wire_to_planned(tx: &WireTx) -> Result<PlannedTx, String> {
    let dapp = || {
        DApp::ALL
            .get(tx.dapp as usize)
            .copied()
            .ok_or_else(|| format!("unknown dapp index {}", tx.dapp))
    };
    let payload = match tx.kind {
        0 => Payload::Transfer,
        1 => Payload::Invoke {
            dapp: dapp()?,
            seq: tx.seq,
            call: None,
        },
        2 => Payload::Invoke {
            dapp: dapp()?,
            seq: tx.seq,
            call: Some(CallSel {
                entry: tx.entry,
                args: tx.args,
                argc: match tx.argc {
                    0..=2 => tx.argc,
                    more => return Err(format!("{more} arguments, at most 2 fit a call")),
                },
            }),
        },
        other => return Err(format!("unknown tx kind {other}")),
    };
    Ok(PlannedTx {
        at: SimTime::from_micros(tx.at_us),
        sender: tx.sender,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_messages() {
        let messages = vec![
            Message::Hello {
                tag: "us-east-2".into(),
            },
            Message::Assign {
                chain: "Quorum".into(),
                spec: "workloads: []".into(),
                first: 0,
                last: 3,
            },
            Message::Plan {
                txs: vec![
                    WireTx {
                        at_us: 1,
                        sender: 2,
                        kind: 0,
                        dapp: 0,
                        seq: 0,
                        entry: 0,
                        args: [0, 0],
                        argc: 0,
                    },
                    WireTx {
                        at_us: 99,
                        sender: 7,
                        kind: 2,
                        dapp: 3,
                        seq: 42,
                        entry: 1,
                        args: [4000, -7],
                        argc: 2,
                    },
                ],
            },
            Message::PlanDone,
            Message::Outcomes {
                txs: vec![WireOutcome {
                    status: 1,
                    submit_us: 5,
                    decide_us: 10,
                }],
            },
            Message::OutcomesDone,
            Message::Stats { text: "ok".into() },
            Message::Telemetry {
                snapshot: {
                    let mut s = diablo_telemetry::TelemetrySnapshot::default();
                    s.counters.push(("mempool.admitted".into(), 42));
                    s.gauges.push(("mempool.depth_peak".into(), -3));
                    s.histograms.push((
                        "consensus.ibft.round_us".into(),
                        diablo_telemetry::HistogramSnapshot {
                            count: 2,
                            sum: 300,
                            min: 100,
                            max: 200,
                            buckets: vec![(96, 1), (101, 1)],
                        },
                    ));
                    s.spans.push((
                        "harness;commit".into(),
                        diablo_telemetry::SpanStat {
                            count: 5,
                            inclusive_us: 900,
                            exclusive_us: 400,
                        },
                    ));
                    s
                },
            },
            Message::Done,
        ];
        for msg in messages {
            let framed = encode(&msg);
            let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, framed.len());
            let decoded = decode(&framed[4..]).unwrap();
            assert_eq!(decoded, msg, "roundtrip failed");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err());
        // Truncated plan: claims one tx, provides none.
        let mut body = ByteBuf::new();
        body.put_u8(3);
        body.put_u32_le(1);
        assert!(decode(&body).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8_without_consuming() {
        // Hello with a 2-byte string body that is not UTF-8.
        let mut body = ByteBuf::new();
        body.put_u8(1);
        body.put_u32_le(2);
        body.put_slice(&[0xFF, 0xFE]);
        assert!(decode(&body).unwrap_err().contains("utf-8"));
    }

    #[test]
    fn slice_chunk_encoders_match_owned_messages() {
        // The zero-copy chunk paths must stay byte-identical to the
        // owned `Message` encoding the receiver decodes.
        let outcomes: Vec<WireOutcome> = (0..100)
            .map(|i| WireOutcome {
                status: (i % 7) as u8,
                submit_us: i * 13,
                decide_us: if i % 3 == 0 { u64::MAX } else { i * 17 },
            })
            .collect();
        for chunk in outcomes.chunks(33) {
            let mut zero_copy = ByteBuf::new();
            put_frame(&mut zero_copy, |f| put_outcomes(f, chunk));
            let owned = encode(&Message::Outcomes {
                txs: chunk.to_vec(),
            });
            assert_eq!(zero_copy, owned);
        }

        let plan: Vec<PlannedTx> = (0..50)
            .map(|i| PlannedTx {
                at: SimTime::from_millis(i),
                sender: i as u32,
                payload: if i % 2 == 0 {
                    Payload::Transfer
                } else {
                    Payload::Invoke {
                        dapp: DApp::Gaming,
                        seq: i,
                        call: None,
                    }
                },
            })
            .collect();
        for chunk in plan.chunks(17) {
            let mut zero_copy = ByteBuf::new();
            put_frame(&mut zero_copy, |f| {
                put_plan(f, chunk.len(), chunk.iter().map(planned_to_wire));
            });
            let owned = encode(&Message::Plan {
                txs: chunk.iter().map(planned_to_wire).collect(),
            });
            assert_eq!(zero_copy, owned);
        }
    }

    #[test]
    fn planned_wire_roundtrip() {
        let txs = vec![
            PlannedTx {
                at: SimTime::from_millis(5),
                sender: 9,
                payload: Payload::Transfer,
            },
            PlannedTx {
                at: SimTime::from_secs(2),
                sender: 1,
                payload: Payload::Invoke {
                    dapp: DApp::Mobility,
                    seq: 77,
                    call: None,
                },
            },
            PlannedTx {
                at: SimTime::from_secs(3),
                sender: 4,
                payload: Payload::Invoke {
                    dapp: DApp::Gaming,
                    seq: 5,
                    call: Some(CallSel {
                        entry: 0,
                        args: [1, 1],
                        argc: 2,
                    }),
                },
            },
        ];
        for tx in txs {
            let wire = planned_to_wire(&tx);
            assert_eq!(wire_to_planned(&wire).unwrap(), tx);
        }
    }

    #[test]
    fn entries_no_transaction_can_be_made_from_are_errors() {
        let call = WireTx {
            at_us: 7,
            sender: 1,
            kind: 2,
            dapp: 0,
            seq: 3,
            entry: 0,
            args: [1, 2],
            argc: 2,
        };
        assert!(wire_to_planned(&call).is_ok());
        // Three arguments do not fit a call: an error, not a silent 2.
        assert!(wire_to_planned(&WireTx { argc: 3, ..call }).is_err());
        assert!(wire_to_planned(&WireTx { kind: 9, ..call }).is_err());
        let dapp = DApp::ALL.len() as u8;
        assert!(wire_to_planned(&WireTx { dapp, ..call }).is_err());
    }

    #[test]
    fn status_codes_roundtrip() {
        for status in [
            TxStatus::Pending,
            TxStatus::Committed,
            TxStatus::DroppedPoolFull,
            TxStatus::DroppedPerSender,
            TxStatus::DroppedExpired,
            TxStatus::Failed,
            TxStatus::Rejected,
        ] {
            assert_eq!(status_from_wire(status_to_wire(status)).unwrap(), status);
        }
        assert!(status_from_wire(42).is_err());
    }
}
