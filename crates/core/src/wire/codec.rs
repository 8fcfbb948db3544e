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
const TAG_OUTCOMES: u8 = 5;
const PLAN_ENTRY: usize = 32;
const OUTCOME_ENTRY: usize = 17;

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
pub(super) fn put_plan(body: &mut ByteBuf, n: usize, txs: impl Iterator<Item = WireTx>) {
    body.reserve(5 + n * PLAN_ENTRY);
    body.put_u8(TAG_PLAN);
    body.put_u32_le(n as u32);
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
/// each chunk's outcomes as it reads them off the run's records.
pub(super) fn put_outcomes(body: &mut ByteBuf, n: usize, txs: impl Iterator<Item = WireOutcome>) {
    body.reserve(5 + n * OUTCOME_ENTRY);
    body.put_u8(TAG_OUTCOMES);
    body.put_u32_le(n as u32);
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
        Message::Outcomes { txs } => put_outcomes(f, txs.len(), txs.iter().copied()),
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

/// The one entry reader of `Plan` and `Outcomes` bodies: after the tag,
/// a count and exactly that many `N`-byte entries. One length check per
/// frame, so a count alone cannot make the reader reserve room for
/// entries that never came, nor can bytes follow the last one.
fn entries<'a, const N: usize>(body: &'a [u8], what: &str) -> Result<&'a [[u8; N]], String> {
    let (count, body) = body
        .split_first_chunk()
        .ok_or_else(|| format!("truncated {what}"))?;
    let size = u32::from_le_bytes(*count) as usize * N;
    match body.len().checked_sub(size) {
        Some(0) => Ok(body.as_chunks().0),
        Some(extra) => Err(format!("{extra} bytes after the last {what} entry")),
        None => Err(format!("truncated {what} body")),
    }
}

/// The `K` bytes of an entry from `at` on.
fn field<const K: usize>(entry: &[u8], at: usize) -> [u8; K] {
    *entry[at..].first_chunk().expect("inside its entry")
}

/// One `Plan` entry, in the field order of [`put_plan`].
fn wire_tx(e: &[u8; PLAN_ENTRY]) -> WireTx {
    WireTx {
        at_us: u64::from_le_bytes(field(e, 0)),
        sender: u32::from_le_bytes(field(e, 8)),
        kind: e[12],
        dapp: e[13],
        seq: u64::from_le_bytes(field(e, 14)),
        entry: e[22],
        args: [
            i32::from_le_bytes(field(e, 23)),
            i32::from_le_bytes(field(e, 27)),
        ],
        argc: e[31],
    }
}

/// One `Outcomes` entry, in the field order of [`put_outcomes`].
#[inline]
fn wire_outcome(e: &[u8; OUTCOME_ENTRY]) -> WireOutcome {
    WireOutcome {
        status: e[0],
        submit_us: u64::from_le_bytes(field(e, 1)),
        decide_us: u64::from_le_bytes(field(e, 9)),
    }
}

/// Decodes one frame body (without the length prefix). A body must end
/// where its message does: trailing bytes are an error, in every kind.
pub fn decode(body: &[u8]) -> Result<Message, String> {
    let Some((&tag, rest)) = body.split_first() else {
        return Err("empty frame".into());
    };
    let mut body = ByteReader::new(rest);
    let msg = match tag {
        1 => Message::Hello {
            tag: get_string(&mut body)?,
        },
        2 => {
            let chain = get_string(&mut body)?;
            let spec = get_string(&mut body)?;
            if body.remaining() < 8 {
                return Err("truncated assign".into());
            }
            let first = body.get_u32_le()?;
            let last = body.get_u32_le()?;
            Message::Assign {
                chain,
                spec,
                first,
                last,
            }
        }
        TAG_PLAN => {
            let txs = entries(rest, "plan")?.iter().map(wire_tx).collect();
            return Ok(Message::Plan { txs });
        }
        4 => Message::PlanDone,
        TAG_OUTCOMES => {
            let txs = entries(rest, "outcomes")?
                .iter()
                .map(wire_outcome)
                .collect();
            return Ok(Message::Outcomes { txs });
        }
        6 => Message::OutcomesDone,
        7 => Message::Stats {
            text: get_string(&mut body)?,
        },
        8 => Message::Done,
        9 => Message::Telemetry {
            snapshot: get_telemetry(&mut body)?,
        },
        other => return Err(format!("unknown message tag {other}")),
    };
    match body.remaining() {
        0 => Ok(msg),
        extra => Err(format!(
            "{extra} bytes after the end of a tag {tag} message"
        )),
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
    let Some((&TAG_PLAN, rest)) = body.split_first() else {
        return match decode(body)? {
            Message::PlanDone => Ok(false),
            other => Err(format!("expected Plan, got {other:?}")),
        };
    };
    let entries = entries(rest, "plan")?;
    plan.reserve(entries.len());
    for e in entries {
        let wire = wire_tx(e);
        let Some(tx) = planned(&wire) else {
            return Err(unplannable(&wire));
        };
        plan.push(tx);
    }
    Ok(true)
}

/// One frame of the outcomes phase, read where the Secondary uses it:
/// the entries of an `Outcomes` body straight off the frame's bytes —
/// what [`decode`] gives, or the error it gives, without the
/// `Vec<WireOutcome>` between. `None` for `OutcomesDone`, which ends the
/// phase; any other message is an error.
pub(super) fn decode_outcomes_frame(
    body: &[u8],
) -> Result<Option<impl Iterator<Item = WireOutcome> + '_>, String> {
    let Some((&TAG_OUTCOMES, rest)) = body.split_first() else {
        return match decode(body)? {
            Message::OutcomesDone => Ok(None),
            other => Err(format!("expected Outcomes, got {other:?}")),
        };
    };
    Ok(Some(entries(rest, "outcomes")?.iter().map(wire_outcome)))
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
    planned(tx).ok_or_else(|| unplannable(tx))
}

/// [`wire_to_planned`] without the error: one `match`, and no `String`
/// on the way, for the Primary's loop over every entry of a frame.
fn planned(tx: &WireTx) -> Option<PlannedTx> {
    let invoke = |call| {
        let dapp = *DApp::ALL.get(tx.dapp as usize)?;
        let seq = tx.seq;
        Some(Payload::Invoke { dapp, seq, call })
    };
    let payload = match tx.kind {
        0 => Payload::Transfer,
        1 => invoke(None)?,
        2 if tx.argc <= 2 => invoke(Some(CallSel {
            entry: tx.entry,
            args: tx.args,
            argc: tx.argc,
        }))?,
        _ => return None,
    };
    Some(PlannedTx {
        at: SimTime::from_micros(tx.at_us),
        sender: tx.sender,
        payload,
    })
}

/// Why [`planned`] found no transaction in `tx`: the kind first, then
/// the DApp, then the argument count.
#[cold]
fn unplannable(tx: &WireTx) -> String {
    match tx.kind {
        1 | 2 if DApp::ALL.get(tx.dapp as usize).is_none() => {
            format!("unknown dapp index {}", tx.dapp)
        }
        2 => format!("{} arguments, at most 2 fit a call", tx.argc),
        other => format!("unknown tx kind {other}"),
    }
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

    /// The Secondary's outcome reader against `decode`, on valid frames
    /// and on flipped, truncated, count-inflated and extended ones: the
    /// same outcomes, the same end of phase, or the same error; and a
    /// frame it takes is the encoding of what it gave.
    #[test]
    fn the_outcomes_reader_equals_the_owned_message() {
        use diablo_testkit::gen::{u64s, u8s, vecs};
        use diablo_testkit::{prop_assert_eq, Property};

        let outcomes = vecs(
            (u8s(0..=255), u64s(0..=u64::MAX), u64s(0..=u64::MAX)),
            0..=12,
        );
        // (how, where or by how much, bytes): 1 flips a byte, 2
        // truncates, 3 inflates the count, 4 extends; 5 and 6 send
        // `OutcomesDone` and `Done` instead, 0 the frame as it is.
        let damage = (u8s(0..=6), u64s(0..=u64::MAX), vecs(u8s(1..=255), 1..=40));
        // Kills case 2: `decode_outcomes_frame` one entry short.
        // Kills case 6: `decode_outcomes_frame` past `entries` (no length
        // check), and `entries` without its length check.
        Property::new("the_outcomes_reader_equals_the_owned_message")
            .cases(1024)
            .check(&(outcomes, damage), |(txs, (how, at, bytes))| {
                let txs = txs
                    .iter()
                    .map(|&(status, submit_us, decide_us)| WireOutcome {
                        status,
                        submit_us,
                        decide_us,
                    });
                let msg = match how {
                    5 => Message::OutcomesDone,
                    6 => Message::Done,
                    _ => Message::Outcomes { txs: txs.collect() },
                };
                let mut body = encode(&msg)[4..].to_vec();
                let cut = *at as usize % body.len();
                match how {
                    1 => body[cut] ^= bytes[0],
                    2 => body.truncate(cut),
                    3 if body.len() >= 5 => {
                        let count = u32::from_le_bytes(body[1..5].try_into().unwrap());
                        let count = count.wrapping_add(*at as u32 | 1);
                        body[1..5].copy_from_slice(&count.to_le_bytes());
                    }
                    4 => body.extend_from_slice(bytes),
                    _ => {}
                }
                let direct = decode_outcomes_frame(&body).map(|o| o.map(Iterator::collect));
                let by_message = decode(&body).and_then(|msg| match msg {
                    Message::Outcomes { txs } => Ok(Some(txs)),
                    Message::OutcomesDone => Ok(None),
                    other => Err(format!("expected Outcomes, got {other:?}")),
                });
                prop_assert_eq!(&direct, &by_message);
                if let Ok(txs) = direct {
                    let msg = txs.map_or(Message::OutcomesDone, |txs| Message::Outcomes { txs });
                    prop_assert_eq!(&encode(&msg)[4..], &body[..]);
                }
                Ok(())
            });
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
            put_frame(&mut zero_copy, |f| {
                put_outcomes(f, chunk.len(), chunk.iter().copied());
            });
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
