//! The distributed Primary/Secondary mode: a length-framed TCP protocol.
//!
//! Mirrors the deployment of §4/§5.3: one Primary coordinates `N`
//! Secondaries over TCP. The Secondaries receive their client
//! assignment, presign (plan) their share of the workload, stream the
//! plan back, receive per-transaction outcomes once the run completes,
//! compute their local statistics and report them to the Primary's
//! aggregator.
//!
//! Framing: every message is `u32` little-endian length followed by a
//! one-byte message tag and the body. Integers are little-endian;
//! strings and vectors are length-prefixed.
//!
//! The session, and who waits for whom:
//!
//! ```text
//! Secondary                          Primary
//!   Hello                      ──▶
//!                              ◀──   Assign
//!   per client: plan it, then
//!   Plan × ⌈n / 16,384⌉        ──▶   decoded onto the merged plan
//!   PlanDone                   ──▶   (next Secondary; then sort, run)
//!                              ◀──   Outcomes × ⌈n / 16,384⌉, OutcomesDone
//!   Stats, Telemetry, TraceChunk ─▶
//!                              ◀──   Done
//! ```
//!
//! Neither end waits without cause. Both sockets have `TCP_NODELAY`
//! ([`accept_secondary`], [`connect_primary`]), each arrow is one
//! `write` of whole frames from the end's one encode buffer, and each
//! end reads every frame into one buffer that grows as bytes arrive. A
//! Secondary ships a client's plan as soon as that client is planned,
//! so the Primary decodes while the Secondary plans the next; the
//! Primary restores the order with one stable sort (see
//! [`serve_primary`]). A Secondary that falls silent, hangs up or
//! breaks the protocol is lost — its share discarded, the worker
//! listed in [`Report::lost_secondaries`] — and the others carry on.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use diablo_chains::tx::CallSel;
use diablo_chains::{Chain, ChainHarness, Payload, PlannedTx, RunResult, TxStatus};
use diablo_contracts::DApp;
use diablo_net::DeploymentKind;
use diablo_sim::SimTime;

use crate::adapters;
use crate::bytebuf::{ByteBuf, ByteReader};
use crate::output::status_name;
use crate::primary::{prepare, BenchmarkOptions, Prepared};
use crate::report::Report;
use crate::secondary::{declare_resources, plan_range};
use crate::spec::BenchmarkSpec;

/// Maximum accepted frame size (64 MiB).
const MAX_FRAME: usize = 64 << 20;

/// Transactions per `Plan`/`Outcomes` frame.
const CHUNK: usize = 16_384;

/// How long the Primary waits on a Secondary before declaring it dead
/// and aggregating without it (the deadline of the Secondary-death
/// fault path). Generous for CI machines; a crashed worker trips it in
/// one read.
const SECONDARY_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

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
    /// Secondary → Primary: the local transaction-trace contribution,
    /// merged by the Primary into the run's trace set exactly like
    /// telemetry snapshots (sent right after `Telemetry`). Planning-side
    /// Secondaries carry an empty set today — the simulation (and thus
    /// every lifecycle event) runs on the Primary — so the merged trace
    /// is byte-identical at any secondary count by construction.
    TraceChunk {
        /// The Secondary's sampled transaction traces.
        set: diablo_telemetry::trace::TraceSet,
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
pub fn put_telemetry(buf: &mut ByteBuf, snapshot: &diablo_telemetry::TelemetrySnapshot) {
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
pub fn get_telemetry(
    buf: &mut ByteReader,
) -> Result<diablo_telemetry::TelemetrySnapshot, String> {
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

/// Encodes a trace set: sampler parameters, then the per-transaction
/// trails in the set's canonical (id-sorted) order.
pub fn put_trace(buf: &mut ByteBuf, set: &diablo_telemetry::trace::TraceSet) {
    buf.put_u64_le(set.seed);
    buf.put_u64_le(set.cap);
    buf.put_u32_le(set.txs.len() as u32);
    for tx in &set.txs {
        buf.put_u64_le(tx.id);
        buf.put_u32_le(tx.events.len() as u32);
        for ev in &tx.events {
            buf.put_u8(ev.stage as u8);
            buf.put_u64_le(ev.at_us);
            buf.put_u64_le(ev.arg0);
            buf.put_u64_le(ev.arg1);
        }
    }
}

/// Decodes a trace set written by [`put_trace`].
pub fn get_trace(buf: &mut ByteReader) -> Result<diablo_telemetry::trace::TraceSet, String> {
    use diablo_telemetry::trace::{TraceEvent, TraceSet, TraceStage, TxTrace};
    let seed = buf.get_u64_le().map_err(|_| "truncated trace header")?;
    let cap = buf.get_u64_le().map_err(|_| "truncated trace header")?;
    let n = buf.get_u32_le().map_err(|_| "truncated trace count")? as usize;
    let mut txs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let id = buf.get_u64_le()?;
        let m = buf.get_u32_le().map_err(|_| "truncated event count")? as usize;
        if buf.remaining() < m * 25 {
            return Err("truncated trace events".into());
        }
        let mut events = Vec::with_capacity(m);
        for _ in 0..m {
            let code = buf.get_u8()?;
            let stage = TraceStage::from_u8(code)
                .ok_or_else(|| format!("unknown trace stage {code}"))?;
            events.push(TraceEvent {
                stage,
                at_us: buf.get_u64_le()?,
                arg0: buf.get_u64_le()?,
                arg1: buf.get_u64_le()?,
            });
        }
        txs.push(TxTrace { id, events });
    }
    Ok(TraceSet { seed, cap, txs })
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
fn put_frame(out: &mut ByteBuf, body: impl FnOnce(&mut ByteBuf)) {
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
fn put_plan(body: &mut ByteBuf, count: usize, txs: impl Iterator<Item = WireTx>) {
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
fn put_outcomes(body: &mut ByteBuf, txs: &[WireOutcome]) {
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
fn put_message(out: &mut ByteBuf, msg: &Message) {
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
        Message::TraceChunk { set } => {
            f.put_u8(10);
            put_trace(f, set);
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
fn entry_count(body: &mut ByteReader, size: usize, what: &str) -> Result<usize, String> {
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
fn get_wire_outcome(body: &mut ByteReader) -> Result<WireOutcome, String> {
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
        10 => Ok(Message::TraceChunk {
            set: get_trace(&mut body)?,
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

/// Writes one framed message to a stream.
pub fn write_message(stream: &mut TcpStream, msg: &Message) -> Result<(), String> {
    stream.write_all(&encode(msg)).map_err(|e| e.to_string())
}

/// Sends what `fill` appends to the session's one encode buffer —
/// whole frames, as many as the protocol sends before it next reads —
/// in a single write. With `TCP_NODELAY` on the socket the bytes are on
/// the wire when this returns, and no small frame sits in the kernel
/// waiting for the ACK of the one before it.
fn send(
    stream: &mut TcpStream,
    out: &mut ByteBuf,
    fill: impl FnOnce(&mut ByteBuf),
) -> Result<(), String> {
    out.clear();
    fill(out);
    stream.write_all(out).map_err(|e| e.to_string())
}

/// [`send`] for one message.
fn send_message(stream: &mut TcpStream, out: &mut ByteBuf, msg: &Message) -> Result<(), String> {
    send(stream, out, |out| put_message(out, msg))
}

/// Reads one framed message from a stream.
pub fn read_message(stream: &mut TcpStream) -> Result<Message, String> {
    receive(stream, &mut Vec::new())
}

/// [`read_message`] through the session's one read buffer.
fn receive(stream: &mut TcpStream, frame: &mut Vec<u8>) -> Result<Message, String> {
    read_frame(stream, frame)?;
    decode(frame)
}

/// Reads one frame's body into `frame`, replacing what it held; a
/// session reads every frame into one buffer. The length prefix is a
/// claim by the peer: the buffer grows as bytes arrive, never by the
/// claim, so four bytes cannot make this end allocate [`MAX_FRAME`].
fn read_frame(stream: &mut TcpStream, frame: &mut Vec<u8>) -> Result<(), String> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(|e| e.to_string())?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds the limit"));
    }
    frame.clear();
    let got = stream
        .take(len as u64)
        .read_to_end(frame)
        .map_err(|e| e.to_string())?;
    if got < len {
        return Err(format!("frame of {len} bytes ended after {got}"));
    }
    Ok(())
}

/// Status ↔ wire encoding.
fn status_to_wire(status: TxStatus) -> u8 {
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

fn status_from_wire(code: u8) -> Result<TxStatus, String> {
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

fn planned_to_wire(tx: &PlannedTx) -> WireTx {
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

/// Accepts one Secondary on the Primary's listener. The socket is set
/// up before its first frame: `TCP_NODELAY`, because the session sends
/// a small frame and then waits for the answer, and every read under
/// the 30 s Secondary deadline, the first included — a peer that
/// connects and says nothing must not hang the Primary.
pub fn accept_secondary(listener: &TcpListener) -> Result<TcpStream, String> {
    let (stream, _addr) = listener.accept().map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(SECONDARY_DEADLINE))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// What is left of a Secondary after one phase of its session. A phase
/// that failed — silence past the deadline, a closed stream, or
/// something that is not the protocol: an undecodable frame, a message
/// out of turn, a `Plan` entry no transaction can be made from — is
/// that worker's death and nobody else's: it is counted, its socket is
/// closed, and the session goes on with the others.
fn survivor(si: usize, stream: TcpStream, phase: Result<(), String>) -> Option<TcpStream> {
    match phase {
        Ok(()) => Some(stream),
        Err(reason) => {
            // `{:.200}`: the reason may quote a whole unexpected message.
            eprintln!("warning: secondary {si} lost: {reason:.200}");
            diablo_telemetry::counter!("secondary.lost", 1);
            None
        }
    }
}

/// Runs one phase of the session on every Secondary still on the wire.
fn each_live(
    workers: &mut [Option<TcpStream>],
    mut phase: impl FnMut(usize, &mut TcpStream) -> Result<(), String>,
) {
    for (si, slot) in workers.iter_mut().enumerate() {
        if let Some(mut stream) = slot.take() {
            let done = phase(si, &mut stream);
            *slot = survivor(si, stream, done);
        }
    }
}

/// Runs the Primary end of the distributed mode: accepts
/// `n_secondaries` connections, dispatches assignments, collects plans,
/// runs the benchmark, returns outcomes and aggregates statistics.
pub fn serve_primary(
    listener: &TcpListener,
    chain: Chain,
    deployment: DeploymentKind,
    spec_text: &str,
    workload_name: &str,
    options: &BenchmarkOptions,
    n_secondaries: usize,
) -> Result<Report, String> {
    // Everything `run_local` checks is checked before a Secondary is
    // accepted.
    let Prepared {
        spec,
        ranges,
        run,
        dapp,
    } = prepare(chain, spec_text, n_secondaries, options)?;
    let faults = run.faults.clone();

    // Every frame of the session is read into one buffer and encoded
    // in another.
    let mut frame = Vec::new();
    let mut out = ByteBuf::new();

    // Accept the Secondaries and dispatch their shares. A slot is
    // `None` once its worker is lost on the wire; a Secondary killed
    // *in simulation* by the fault plan stays connected and keeps
    // exchanging messages.
    let mut workers: Vec<Option<TcpStream>> = Vec::with_capacity(ranges.len());
    for (si, range) in ranges.iter().enumerate() {
        let mut stream = accept_secondary(listener)?;
        let assigned = match receive(&mut stream, &mut frame) {
            Ok(Message::Hello { .. }) => {
                let assign = Message::Assign {
                    chain: chain.name().to_string(),
                    spec: spec_text.to_string(),
                    first: range.0,
                    last: range.1,
                };
                send_message(&mut stream, &mut out, &assign)
            }
            Ok(other) => Err(format!("expected Hello, got {other:?}")),
            Err(unreadable) => Err(unreadable),
        };
        workers.push(survivor(si, stream, assigned));
    }

    // Collect the plans, one Secondary after the other, each frame
    // decoded straight onto the end of `merged`; `shares[si]` is where
    // Secondary `si`'s entries lie. A lost worker's partial share is
    // discarded.
    let mut merged: Vec<PlannedTx> = Vec::new();
    let mut shares = vec![0..0; workers.len()];
    each_live(&mut workers, |si, stream| {
        let start = merged.len();
        let held = (|| loop {
            read_frame(stream, &mut frame)?;
            if !decode_plan_frame(&frame, &mut merged)? {
                return Ok(());
            }
            if u32::try_from(merged.len()).is_err() {
                return Err("more planned transactions than a 32-bit index holds".into());
            }
        })();
        match held {
            Ok(()) => shares[si] = start..merged.len(),
            Err(_) => merged.truncate(start),
        }
        held
    });

    // Order the plan by submission instant with one stable sort over
    // inline `(instant, index)` keys. A Secondary streams its clients
    // one by one, so `merged` is a concatenation of per-client runs,
    // each stably sorted by its Secondary; a stable sort of
    // concatenated stably-sorted runs is the stable sort of the
    // concatenation, so equal instants come out by (client, planning
    // order) — the order the Secondary's own whole-range sort gave when
    // it planned everything before it sent anything, and the one
    // `run_local` gives. The sort finds the runs and merges them.
    //
    // Declared Secondary kills apply here: a worker killed at T submits
    // nothing from T on, so its later transactions get no key (the
    // worker itself is still connected — its death is simulated — and
    // later receives Pending fillers for them).
    let mut keys: Vec<(SimTime, u32)> = Vec::with_capacity(merged.len());
    for (si, share) in shares.iter().enumerate() {
        let kill = faults.kill_of_secondary(si);
        keys.extend(
            share
                .clone()
                .filter(|&i| kill.is_none_or(|at| merged[i].at < at))
                .map(|i| (merged[i].at, i as u32)),
        );
    }
    let planned = merged.len();
    if keys.len() < planned {
        diablo_telemetry::counter!("secondary.killed_txs", (planned - keys.len()) as u64);
    }
    keys.sort_by_key(|&(at, _)| at);
    let order: Vec<u32> = keys.iter().map(|&(_, i)| i).collect();
    drop(keys);
    let plan: Vec<PlannedTx> = order.iter().map(|&i| merged[i as usize]).collect();
    // The run starts with the ordered plan and `order`, not with two
    // more copies of the plan.
    drop(merged);

    // Run the benchmark.
    let secs = spec.duration_secs() as f64;
    let mut result = match ChainHarness::new(chain, deployment, dapp, run) {
        Ok(h) => h.run(plan, workload_name, secs),
        Err(reason) => RunResult::unable(chain, workload_name, secs, reason),
    };

    // Route outcomes back in each Secondary's planning order: record
    // `pos` belongs to entry `order[pos]` of `merged`. Entries the kill
    // schedule removed, and all of them if the chain was unable to run,
    // answer as Pending (a Secondary checks it got one outcome per
    // planned transaction).
    let pending = WireOutcome {
        status: 0,
        submit_us: 0,
        decide_us: u64::MAX,
    };
    let mut outcomes = vec![pending; planned];
    for (rec, &i) in result.records.iter().zip(&order) {
        outcomes[i as usize] = WireOutcome {
            status: status_to_wire(rec.status),
            submit_us: rec.submitted.as_micros(),
            decide_us: rec.decided.map_or(u64::MAX, |d| d.as_micros()),
        };
    }
    each_live(&mut workers, |si, stream| {
        for chunk in outcomes[shares[si].clone()].chunks(CHUNK) {
            send(stream, &mut out, |out| {
                put_frame(out, |f| put_outcomes(f, chunk));
            })?;
        }
        send_message(stream, &mut out, &Message::OutcomesDone)
    });

    // Aggregate the Secondaries' statistics and telemetry reports. The
    // Primary ran the chain itself, so its own recorder holds the run's
    // simulation telemetry; the Secondaries contribute their
    // planning-side snapshots, merged commutatively. A Secondary that
    // dies before reporting is skipped: the aggregation is partial
    // rather than hung. The Primary's own snapshot is taken last: by
    // then an in-process Secondary has cleared the recorder it reported
    // from, and every `secondary.lost` is in it.
    let mut reported = diablo_telemetry::TelemetrySnapshot::default();
    each_live(&mut workers, |_, stream| {
        let mut next = || receive(stream, &mut frame);
        let (Message::Stats { .. }, Message::Telemetry { snapshot }, Message::TraceChunk { set }) =
            (next()?, next()?, next()?)
        else {
            return Err("expected Stats, Telemetry and TraceChunk".into());
        };
        let _ = send_message(stream, &mut out, &Message::Done);
        reported.merge(&snapshot);
        // Merged like telemetry: today's planning-side chunks are empty
        // (the merge is the identity), and an untraced run keeps
        // `trace: None` so reports stay byte-identical to an untraced
        // Primary's.
        match result.trace.as_mut() {
            Some(trace) => trace.merge(&set),
            None if !set.is_empty() => result.trace = Some(set),
            None => {}
        }
        Ok(())
    });
    let mut telemetry = diablo_telemetry::snapshot();
    telemetry.merge(&reported);

    // The report's lost set: workers gone from the wire plus workers
    // the fault plan killed in simulation.
    let lost_secondaries: Vec<usize> = (0..workers.len())
        .filter(|&si| workers[si].is_none() || faults.kill_of_secondary(si).is_some())
        .collect();

    Ok(Report {
        result,
        secondaries: workers.len(),
        clients: spec.client_count(),
        telemetry,
        faults,
        lost_secondaries,
        live_diff: None,
    })
}

/// Error of a Secondary run, split so callers can map connection
/// transience onto distinct process exit codes.
#[derive(Debug)]
pub enum SecondaryError {
    /// The Primary could not be reached (or the address is nonsense);
    /// `ConnectorError::is_transient` tells the two apart.
    Connect(crate::abstraction::ConnectorError),
    /// The wire protocol failed after the connection was up.
    Protocol(String),
}

impl std::fmt::Display for SecondaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecondaryError::Connect(e) => write!(f, "{e}"),
            SecondaryError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SecondaryError {}

/// Runs the Secondary end of the distributed mode against the Primary
/// at `addr`, retrying the default policy's worth of transient connect
/// failures. Returns the local statistics text it reported.
pub fn run_secondary(addr: &str, tag: &str) -> Result<String, String> {
    run_secondary_with_retry(addr, tag, &diablo_chains::RetryPolicy::default())
        .map_err(|e| e.to_string())
}

/// [`run_secondary`] under an explicit connect-retry policy (the
/// `--retry` grammar): a refused or reset connection — transient, the
/// Primary may still be binding — is retried with doubling backoff; an
/// address that cannot resolve fails fast.
pub fn run_secondary_with_retry(
    addr: &str,
    tag: &str,
    retry: &diablo_chains::RetryPolicy,
) -> Result<String, SecondaryError> {
    // This thread's recorder only: an in-process Primary records into
    // the same registry and has reset its own.
    diablo_telemetry::thread_reset();
    let stream = connect_primary(addr, retry)?;
    secondary_session(stream, tag).map_err(SecondaryError::Protocol)
}

/// Dials the Primary at `addr` under `retry` and sets `TCP_NODELAY` on
/// the socket (see [`accept_secondary`]). A Secondary reads without a
/// deadline: between its plan and its outcomes lies the whole run.
pub fn connect_primary(
    addr: &str,
    retry: &diablo_chains::RetryPolicy,
) -> Result<TcpStream, SecondaryError> {
    use crate::abstraction::ConnectorError;
    use diablo_net::{dial, DialErrorKind, DialPolicy};

    let policy = DialPolicy {
        attempts: retry.attempts,
        backoff: std::time::Duration::from_micros(retry.backoff.as_micros()),
        deadline: std::time::Duration::from_micros(retry.timeout.as_micros()),
    };
    let stream = dial(addr, &policy).map_err(|e| {
        diablo_telemetry::counter!("secondary.dial_failed", 1);
        SecondaryError::Connect(match e.kind {
            DialErrorKind::BadAddress => ConnectorError::BadAddress {
                addr: e.addr,
                reason: e.reason,
            },
            DialErrorKind::Unreachable => ConnectorError::Unreachable {
                addr: e.addr,
                reason: e.reason,
            },
        })
    })?;
    stream
        .set_nodelay(true)
        .map_err(|e| SecondaryError::Protocol(e.to_string()))?;
    Ok(stream)
}

/// The Secondary's side of the wire protocol, from Hello to Done, on an
/// established connection.
fn secondary_session(mut stream: TcpStream, tag: &str) -> Result<String, String> {
    // Every frame of the session is read into one buffer and encoded
    // in another.
    let mut frame = Vec::new();
    let mut out = ByteBuf::new();

    let hello = Message::Hello {
        tag: tag.to_string(),
    };
    send_message(&mut stream, &mut out, &hello)?;
    let (spec_text, chain_name, (first, last)) = match receive(&mut stream, &mut frame)? {
        Message::Assign {
            chain,
            spec,
            first,
            last,
        } => (spec, chain, (first, last)),
        other => return Err(format!("expected Assign, got {other:?}")),
    };
    let chain = Chain::parse(&chain_name).ok_or_else(|| format!("unknown chain {chain_name}"))?;
    let spec = BenchmarkSpec::parse(&spec_text).map_err(|e| e.to_string())?;

    // Presign (plan) the assigned share and ship it one client at a
    // time: the Primary reads and decodes client `g` while this end
    // plans client `g + 1`, and neither holds more than it must. A
    // client's plan is sorted by `take_plan`; the Primary's stable sort
    // of the concatenation restores the order a whole-range
    // `take_plan` would have sent (see `serve_primary`). The connector
    // is one for the whole range, so invocation sequence numbers run on
    // from client to client as they did.
    //
    // The planning calls are timed: §4's Secondaries "constantly check
    // if the submission time is not too late compared to the time
    // demanded by the Primary and emit a warning otherwise". In virtual
    // time nothing can be late, but a Secondary that presigns slower
    // than the workload's real-time rate would lag a live deployment,
    // so we warn on that. Waiting for the Primary to take the frames is
    // not planning and is not counted.
    let mut conn = adapters::connector(chain);
    declare_resources(&spec, &mut conn).map_err(|e| e.to_string())?;
    let mut planned = 0usize;
    let mut planning = std::time::Duration::ZERO;
    for client in first..last {
        let started = std::time::Instant::now();
        plan_range(&spec, (client, client + 1), &mut conn).map_err(|e| e.to_string())?;
        let plan = conn.take_plan();
        planning += started.elapsed();
        planned += plan.len();
        for chunk in plan.chunks(CHUNK) {
            let wire = chunk.iter().map(planned_to_wire);
            send(&mut stream, &mut out, |out| {
                put_frame(out, |f| put_plan(f, chunk.len(), wire));
            })?;
        }
    }
    send_message(&mut stream, &mut out, &Message::PlanDone)?;
    diablo_telemetry::counter!("secondary.planned_txs", planned as u64);
    let plan_wall = planning.as_secs_f64();
    let workload_secs = spec.duration_secs().max(1) as f64;
    let lag_warning = if plan_wall > workload_secs {
        format!(
            " [warning: presigning took {plan_wall:.1}s for a {workload_secs:.0}s workload —              this secondary would fall behind a live run]"
        )
    } else {
        String::new()
    };

    // Receive outcomes, folding each entry into the local statistics as
    // it is read off the frame.
    let mut committed = 0u64;
    let mut latency_sum = 0.0f64;
    let mut received = 0usize;
    loop {
        read_frame(&mut stream, &mut frame)?;
        if frame.first() != Some(&TAG_OUTCOMES) {
            match decode(&frame)? {
                Message::OutcomesDone => break,
                other => return Err(format!("expected Outcomes, got {other:?}")),
            }
        }
        let mut body = ByteReader::new(&frame[1..]);
        for _ in 0..entry_count(&mut body, OUTCOME_ENTRY, "outcomes")? {
            let o = get_wire_outcome(&mut body)?;
            received += 1;
            if status_from_wire(o.status)? == TxStatus::Committed && o.decide_us != u64::MAX {
                committed += 1;
                latency_sum += (o.decide_us.saturating_sub(o.submit_us)) as f64 / 1e6;
            }
        }
    }
    if received != planned {
        return Err(format!(
            "planned {planned} transactions but got {received} outcomes"
        ));
    }
    let avg_latency = if committed > 0 {
        latency_sum / committed as f64
    } else {
        0.0
    };
    let text = format!(
        "secondary {tag}: {planned} sent, {committed} {}, avg latency {avg_latency:.2}s{lag_warning}",
        status_name(TxStatus::Committed)
    );

    // The session runs on this one thread, so the thread's recorder is
    // the Secondary's share. It is cleared before the frames leave: a
    // Primary in the same process snapshots every recorder once it has
    // this one's copy, and must not find the same counts there again.
    let snapshot = diablo_telemetry::thread_snapshot();
    diablo_telemetry::thread_reset();
    // Secondaries plan and presign but do not simulate and own no
    // tracer: the trace contribution is empty.
    let report = [
        Message::Stats { text: text.clone() },
        Message::Telemetry { snapshot },
        Message::TraceChunk {
            set: diablo_telemetry::trace::TraceSet::default(),
        },
    ];
    send(&mut stream, &mut out, |out| {
        report.iter().for_each(|msg| put_message(out, msg));
    })?;
    match receive(&mut stream, &mut frame)? {
        Message::Done => Ok(text),
        other => Err(format!("expected Done, got {other:?}")),
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
            Message::TraceChunk {
                set: diablo_telemetry::trace::TraceSet {
                    seed: 42,
                    cap: 64,
                    txs: vec![
                        diablo_telemetry::trace::TxTrace {
                            id: 7,
                            events: vec![
                                diablo_telemetry::trace::TraceEvent {
                                    stage: diablo_telemetry::trace::TraceStage::Submitted,
                                    at_us: 1_000,
                                    arg0: 3,
                                    arg1: 0,
                                },
                                diablo_telemetry::trace::TraceEvent {
                                    stage: diablo_telemetry::trace::TraceStage::Finalized,
                                    at_us: 2_500,
                                    arg0: 1,
                                    arg1: 0,
                                },
                            ],
                        },
                        diablo_telemetry::trace::TxTrace {
                            id: 9,
                            events: vec![diablo_telemetry::trace::TraceEvent {
                                stage: diablo_telemetry::trace::TraceStage::Rejected,
                                at_us: 4_000,
                                arg0: 0,
                                arg1: 0,
                            }],
                        },
                    ],
                },
            },
            Message::TraceChunk {
                set: diablo_telemetry::trace::TraceSet::default(),
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
