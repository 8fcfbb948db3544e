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
use crate::primary::{partition_clients, BenchmarkOptions};
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

/// Starts a frame: reserves the 4-byte length prefix and writes the
/// message tag. Finish with [`finish_frame`].
fn begin_frame(tag: u8, capacity: usize) -> ByteBuf {
    let mut framed = ByteBuf::with_capacity(capacity + 5);
    framed.put_u32_le(0); // length prefix, patched by finish_frame
    framed.put_u8(tag);
    framed
}

/// Patches the reserved length prefix of a [`begin_frame`] buffer. The
/// body is framed in place — no copy into a second buffer.
fn finish_frame(mut framed: ByteBuf) -> ByteBuf {
    let body_len = framed.len() - 4;
    framed.set_u32_le(0, body_len as u32);
    framed
}

fn put_wire_tx(body: &mut ByteBuf, tx: &WireTx) {
    body.put_u64_le(tx.at_us);
    body.put_u32_le(tx.sender);
    body.put_u8(tx.kind);
    body.put_u8(tx.dapp);
    body.put_u64_le(tx.seq);
    body.put_u8(tx.entry);
    body.put_i32_le(tx.args[0]);
    body.put_i32_le(tx.args[1]);
    body.put_u8(tx.argc);
}

fn put_wire_outcome(body: &mut ByteBuf, tx: &WireOutcome) {
    body.put_u8(tx.status);
    body.put_u64_le(tx.submit_us);
    body.put_u64_le(tx.decide_us);
}

/// Encodes a `Plan` frame straight from a slice of planned
/// transactions: the Secondary streams chunk views of its plan without
/// first collecting each chunk into an owned `Vec<WireTx>`.
fn encode_plan_chunk(txs: &[PlannedTx]) -> ByteBuf {
    let mut framed = begin_frame(3, 4 + txs.len() * 32);
    framed.put_u32_le(txs.len() as u32);
    for tx in txs {
        put_wire_tx(&mut framed, &planned_to_wire(tx));
    }
    finish_frame(framed)
}

/// Encodes an `Outcomes` frame straight from a slice: the Primary's
/// fan-out sends chunk views of one outcomes vector without cloning
/// each chunk into an owned message.
fn encode_outcomes_chunk(txs: &[WireOutcome]) -> ByteBuf {
    let mut framed = begin_frame(5, 4 + txs.len() * 17);
    framed.put_u32_le(txs.len() as u32);
    for tx in txs {
        put_wire_outcome(&mut framed, tx);
    }
    finish_frame(framed)
}

/// Encodes a message into a framed byte buffer.
pub fn encode(msg: &Message) -> ByteBuf {
    let framed = match msg {
        Message::Hello { tag } => {
            let mut f = begin_frame(1, 64);
            put_string(&mut f, tag);
            f
        }
        Message::Assign {
            chain,
            spec,
            first,
            last,
        } => {
            let mut f = begin_frame(2, chain.len() + spec.len() + 16);
            put_string(&mut f, chain);
            put_string(&mut f, spec);
            f.put_u32_le(*first);
            f.put_u32_le(*last);
            f
        }
        Message::Plan { txs } => return encode_plan_frame_owned(txs),
        Message::PlanDone => begin_frame(4, 0),
        Message::Outcomes { txs } => return encode_outcomes_chunk(txs),
        Message::OutcomesDone => begin_frame(6, 0),
        Message::Stats { text } => {
            let mut f = begin_frame(7, text.len() + 4);
            put_string(&mut f, text);
            f
        }
        Message::Done => begin_frame(8, 0),
        Message::Telemetry { snapshot } => {
            let mut f = begin_frame(9, 256);
            put_telemetry(&mut f, snapshot);
            f
        }
        Message::TraceChunk { set } => {
            let mut f = begin_frame(10, 20 + set.txs.len() * 64);
            put_trace(&mut f, set);
            f
        }
    };
    finish_frame(framed)
}

/// [`encode`]'s arm for an owned `Plan` message (roundtrip tests and
/// any caller holding `WireTx` values directly).
fn encode_plan_frame_owned(txs: &[WireTx]) -> ByteBuf {
    let mut framed = begin_frame(3, 4 + txs.len() * 32);
    framed.put_u32_le(txs.len() as u32);
    for tx in txs {
        put_wire_tx(&mut framed, tx);
    }
    finish_frame(framed)
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
        3 => {
            let n = body.get_u32_le().map_err(|_| "truncated plan")? as usize;
            if body.remaining() < n * 32 {
                return Err("truncated plan body".into());
            }
            let mut txs = Vec::with_capacity(n);
            for _ in 0..n {
                txs.push(WireTx {
                    at_us: body.get_u64_le()?,
                    sender: body.get_u32_le()?,
                    kind: body.get_u8()?,
                    dapp: body.get_u8()?,
                    seq: body.get_u64_le()?,
                    entry: body.get_u8()?,
                    args: [body.get_i32_le()?, body.get_i32_le()?],
                    argc: body.get_u8()?,
                });
            }
            Ok(Message::Plan { txs })
        }
        4 => Ok(Message::PlanDone),
        5 => {
            let n = body.get_u32_le().map_err(|_| "truncated outcomes")? as usize;
            if body.remaining() < n * 17 {
                return Err("truncated outcomes body".into());
            }
            let mut txs = Vec::with_capacity(n);
            for _ in 0..n {
                txs.push(WireOutcome {
                    status: body.get_u8()?,
                    submit_us: body.get_u64_le()?,
                    decide_us: body.get_u64_le()?,
                });
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

/// Writes one framed message to a stream.
pub fn write_message(stream: &mut TcpStream, msg: &Message) -> Result<(), String> {
    write_frame(stream, &encode(msg))
}

/// Writes an already-framed buffer to a stream.
fn write_frame(stream: &mut TcpStream, framed: &ByteBuf) -> Result<(), String> {
    stream.write_all(framed).map_err(|e| e.to_string())
}

/// Reads one framed message from a stream.
pub fn read_message(stream: &mut TcpStream) -> Result<Message, String> {
    let mut frame = Vec::new();
    read_frame(stream, &mut frame)?;
    decode(&frame)
}

/// Reads one frame's body into `frame`, replacing what it held. The
/// length prefix is a claim by the peer: the buffer grows as bytes
/// arrive, never by the claim, so four bytes cannot make this end
/// allocate [`MAX_FRAME`].
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

fn wire_to_planned(tx: &WireTx) -> Result<PlannedTx, String> {
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
    let spec = BenchmarkSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let clients = spec.client_count();
    let ranges = partition_clients(clients, n_secondaries);

    // The one layered resolution (defaults ← spec ← invocation). The
    // TCP path previously hand-merged only `storage:`; it now honors
    // the spec's `execution:` and `sigverify:` sections exactly like
    // the in-process runner.
    let run = options.resolve(&spec);
    let faults = run.faults.clone();

    // The report's telemetry covers exactly this experiment.
    diablo_telemetry::reset();

    // Resolve the DApp once for the backend.
    let mut scratch = adapters::connector(chain);
    declare_resources(&spec, &mut scratch).map_err(|e| e.to_string())?;
    let dapp = scratch.sole_dapp();

    // Accept the Secondaries and dispatch their shares. From its first
    // frame on a Secondary can be lost — silent past the deadline, gone
    // from the wire, or speaking something that is not the protocol
    // (an undecodable frame, a message out of turn, a `Plan` entry no
    // transaction can be made from). All three are that worker's death:
    // its share is discarded and the others' session goes on.
    // (`dead` tracks streams lost on the wire; a Secondary killed *in
    // simulation* by the fault plan stays connected and keeps
    // exchanging messages.)
    let mut streams = Vec::with_capacity(ranges.len());
    let mut dead = vec![false; ranges.len()];
    for (si, range) in ranges.iter().enumerate() {
        let (mut stream, _addr) = listener.accept().map_err(|e| e.to_string())?;
        // Every read runs under the deadline, the first included: a
        // peer that connects and says nothing must not hang the Primary.
        let _ = stream.set_read_timeout(Some(SECONDARY_DEADLINE));
        let assigned = (|| match read_message(&mut stream)? {
            Message::Hello { .. } => write_message(
                &mut stream,
                &Message::Assign {
                    chain: chain.name().to_string(),
                    spec: spec_text.to_string(),
                    first: range.0,
                    last: range.1,
                },
            ),
            other => Err(format!("expected Hello, got {other:?}")),
        })();
        if assigned.is_err() {
            dead[si] = true;
            diablo_telemetry::counter!("secondary.lost", 1);
        }
        streams.push(stream);
    }

    // Collect plans; a lost Secondary's partial plan is discarded.
    let mut merged: Vec<PlannedTx> = Vec::new();
    let mut origin: Vec<(u32, u32)> = Vec::new(); // (secondary, local index)
    let mut planned_counts: Vec<u32> = vec![0; streams.len()];
    for (si, stream) in streams.iter_mut().enumerate() {
        if dead[si] {
            continue;
        }
        let start = merged.len();
        let mut local = 0u32;
        let collected = (|| loop {
            match read_message(stream)? {
                Message::Plan { txs } => {
                    for wire in &txs {
                        merged.push(wire_to_planned(wire)?);
                        origin.push((si as u32, local));
                        local += 1;
                    }
                }
                Message::PlanDone => return Ok(()),
                other => return Err(format!("expected Plan, got {other:?}")),
            }
        })();
        if collected.is_err() {
            dead[si] = true;
            merged.truncate(start);
            origin.truncate(start);
            diablo_telemetry::counter!("secondary.lost", 1);
        } else {
            planned_counts[si] = local;
        }
    }

    // Apply declared Secondary kills: a worker killed at T submits
    // nothing from T on, so its later transactions leave the plan (the
    // worker itself is still connected — its death is simulated — and
    // later receives Pending fillers for the dropped entries).
    if !faults.secondary_kills().is_empty() {
        let mut dropped = 0u64;
        let mut keep = vec![true; merged.len()];
        for (i, tx) in merged.iter().enumerate() {
            let (si, _) = origin[i];
            if let Some(at) = faults.kill_of_secondary(si as usize) {
                if tx.at >= at {
                    keep[i] = false;
                    dropped += 1;
                }
            }
        }
        if dropped > 0 {
            let mut it = keep.iter();
            merged.retain(|_| *it.next().unwrap());
            let mut it = keep.iter();
            origin.retain(|_| *it.next().unwrap());
            diablo_telemetry::counter!("secondary.killed_txs", dropped);
        }
    }

    // Sort by time, keeping the origin map aligned.
    let mut order: Vec<usize> = (0..merged.len()).collect();
    order.sort_by_key(|&i| merged[i].at);
    let merged_sorted: Vec<PlannedTx> = order.iter().map(|&i| merged[i]).collect();

    // Run the benchmark.
    let mut result = match ChainHarness::new(chain, deployment, dapp, run.clone()) {
        Ok(h) => h.run(merged_sorted, workload_name, spec.duration_secs() as f64),
        Err(reason) => RunResult::unable(chain, workload_name, spec.duration_secs() as f64, reason),
    };

    // Route outcomes back in each Secondary's planning order. Buckets
    // start at the full planned size so entries the kill schedule
    // removed still answer as Pending (a Secondary checks it got one
    // outcome per planned transaction).
    let mut per_secondary: Vec<Vec<WireOutcome>> = planned_counts
        .iter()
        .map(|&n| {
            vec![
                WireOutcome {
                    status: 0,
                    submit_us: 0,
                    decide_us: u64::MAX,
                };
                n as usize
            ]
        })
        .collect();
    for (pos, &idx) in order.iter().enumerate() {
        let (si, local) = origin[idx];
        let rec = &result.records[pos];
        per_secondary[si as usize][local as usize] = WireOutcome {
            status: status_to_wire(rec.status),
            submit_us: rec.submitted.as_micros(),
            decide_us: rec.decided.map(|d| d.as_micros()).unwrap_or(u64::MAX),
        };
    }
    for (si, (stream, outcomes)) in streams.iter_mut().zip(per_secondary).enumerate() {
        if dead[si] {
            continue; // gone from the wire; nothing to answer
        }
        let send = (|| -> Result<(), String> {
            for chunk in outcomes.chunks(CHUNK) {
                write_frame(stream, &encode_outcomes_chunk(chunk))?;
            }
            write_message(stream, &Message::OutcomesDone)
        })();
        if send.is_err() {
            diablo_telemetry::counter!("secondary.lost", 1);
            dead[si] = true;
        }
    }

    // Aggregate the Secondaries' statistics and telemetry reports. The
    // Primary ran the chain itself, so its own recorder holds the run's
    // simulation telemetry; the Secondaries contribute their
    // planning-side snapshots, merged commutatively. A Secondary that
    // dies before reporting is skipped: the aggregation is partial
    // rather than hung. The Primary's own snapshot is taken last: by
    // then an in-process Secondary has cleared the recorder it reported
    // from, and `secondary.lost` below is in it.
    let mut reported = diablo_telemetry::TelemetrySnapshot::default();
    for (si, stream) in streams.iter_mut().enumerate() {
        if dead[si] {
            continue;
        }
        type SecondaryReport = (
            diablo_telemetry::TelemetrySnapshot,
            diablo_telemetry::trace::TraceSet,
        );
        let collect = (|| -> Result<SecondaryReport, String> {
            match read_message(stream)? {
                Message::Stats { .. } => {}
                other => return Err(format!("expected Stats, got {other:?}")),
            }
            let snapshot = match read_message(stream)? {
                Message::Telemetry { snapshot } => snapshot,
                other => return Err(format!("expected Telemetry, got {other:?}")),
            };
            let set = match read_message(stream)? {
                Message::TraceChunk { set } => set,
                other => return Err(format!("expected TraceChunk, got {other:?}")),
            };
            let _ = write_message(stream, &Message::Done);
            Ok((snapshot, set))
        })();
        match collect {
            Ok((snapshot, set)) => {
                reported.merge(&snapshot);
                // Merged like telemetry: today's planning-side chunks
                // are empty (the merge is the identity), and an untraced
                // run keeps `trace: None` so reports stay byte-identical
                // to an untraced Primary's.
                match result.trace.as_mut() {
                    Some(trace) => trace.merge(&set),
                    None if !set.is_empty() => result.trace = Some(set),
                    None => {}
                }
            }
            Err(_) => {
                diablo_telemetry::counter!("secondary.lost", 1);
                dead[si] = true;
            }
        }
    }

    let mut telemetry = diablo_telemetry::snapshot();
    telemetry.merge(&reported);

    // The report's lost set: workers gone from the wire plus workers
    // the fault plan killed in simulation.
    let lost_secondaries: Vec<usize> = (0..streams.len())
        .filter(|&si| dead[si] || faults.kill_of_secondary(si).is_some())
        .collect();

    Ok(Report {
        result,
        secondaries: streams.len(),
        clients,
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
    use crate::abstraction::ConnectorError;
    use diablo_net::{dial, DialErrorKind, DialPolicy};

    // This thread's recorder only: an in-process Primary records into
    // the same registry and has reset its own.
    diablo_telemetry::thread_reset();
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
    secondary_session(stream, tag).map_err(SecondaryError::Protocol)
}

/// The Secondary's side of the wire protocol, from Hello to Done, on an
/// established connection.
fn secondary_session(mut stream: TcpStream, tag: &str) -> Result<String, String> {
    write_message(
        &mut stream,
        &Message::Hello {
            tag: tag.to_string(),
        },
    )?;
    let (spec_text, chain_name, range) = match read_message(&mut stream)? {
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

    // Presign (plan) the assigned client share, timing it: §4's
    // Secondaries "constantly check if the submission time is not too
    // late compared to the time demanded by the Primary and emit a
    // warning otherwise". In virtual time nothing can be late, but a
    // Secondary that presigns slower than the workload's real-time rate
    // would lag a live deployment, so we warn on that.
    let plan_started = std::time::Instant::now();
    let mut conn = adapters::connector(chain);
    declare_resources(&spec, &mut conn).map_err(|e| e.to_string())?;
    plan_range(&spec, range, &mut conn).map_err(|e| e.to_string())?;
    let plan = conn.take_plan();
    let planned = plan.len();
    diablo_telemetry::counter!("secondary.planned_txs", planned as u64);
    let plan_wall = plan_started.elapsed().as_secs_f64();
    let workload_secs = spec.duration_secs().max(1) as f64;
    let lag_warning = if plan_wall > workload_secs {
        format!(
            " [warning: presigning took {plan_wall:.1}s for a {workload_secs:.0}s workload —              this secondary would fall behind a live run]"
        )
    } else {
        String::new()
    };
    for chunk in plan.chunks(CHUNK) {
        write_frame(&mut stream, &encode_plan_chunk(chunk))?;
    }
    write_message(&mut stream, &Message::PlanDone)?;

    // Receive outcomes and compute local statistics.
    let mut committed = 0u64;
    let mut latency_sum = 0.0f64;
    let mut received = 0usize;
    loop {
        match read_message(&mut stream)? {
            Message::Outcomes { txs } => {
                for o in &txs {
                    received += 1;
                    let status = status_from_wire(o.status)?;
                    if status == TxStatus::Committed && o.decide_us != u64::MAX {
                        committed += 1;
                        latency_sum += (o.decide_us.saturating_sub(o.submit_us)) as f64 / 1e6;
                    }
                }
            }
            Message::OutcomesDone => break,
            other => return Err(format!("expected Outcomes, got {other:?}")),
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
    write_message(&mut stream, &Message::Stats { text: text.clone() })?;
    // The session runs on this one thread, so the thread's recorder is
    // the Secondary's share. It is cleared before the frame leaves: a
    // Primary in the same process snapshots every recorder once it has
    // this one's copy, and must not find the same counts there again.
    let snapshot = diablo_telemetry::thread_snapshot();
    diablo_telemetry::thread_reset();
    write_message(&mut stream, &Message::Telemetry { snapshot })?;
    write_message(
        &mut stream,
        &Message::TraceChunk {
            set: diablo_telemetry::trace::TraceSet::default(),
        },
    )?;
    match read_message(&mut stream)? {
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
            let zero_copy = encode_outcomes_chunk(chunk);
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
            let zero_copy = encode_plan_chunk(chunk);
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
        let past_the_dapps = DApp::ALL.len() as u8;
        assert!(wire_to_planned(&WireTx { dapp: past_the_dapps, ..call }).is_err());
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
