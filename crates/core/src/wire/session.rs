//! The session: sockets, who sends what when, and who is lost.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use diablo_chains::{Chain, PlannedTx, TxStatus};
use diablo_net::{DeploymentConfig, DeploymentKind};

use super::codec::{
    decode, decode_outcomes_frame, decode_plan_frame, encode, planned_to_wire, put_frame,
    put_message, put_outcomes, put_plan, status_from_wire, status_to_wire, Message, WireOutcome,
};
use crate::abstraction::natural_runs;
use crate::adapters;
use crate::bytebuf::ByteBuf;
use crate::output::status_name;
use crate::primary::{prepare, BenchmarkOptions};
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
    let nodes = DeploymentConfig::standard(deployment).node_count();
    let prepared = prepare(chain, nodes, spec_text, n_secondaries, options)?;

    // Every frame of the session is read into one buffer and encoded
    // in another.
    let mut frame = Vec::new();
    let mut out = ByteBuf::new();

    // Accept the Secondaries and dispatch their shares. A slot is
    // `None` once its worker is lost on the wire; a Secondary killed
    // *in simulation* by the fault plan stays connected and keeps
    // exchanging messages.
    let mut workers: Vec<Option<TcpStream>> = Vec::with_capacity(prepared.ranges.len());
    for (si, range) in prepared.ranges.iter().enumerate() {
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
    // decoded straight onto the end of `shipped`; `shares[si]` is where
    // Secondary `si`'s entries lie. A lost worker's partial share is
    // discarded.
    let mut shipped: Vec<PlannedTx> = Vec::new();
    let mut shares = vec![0..0; workers.len()];
    each_live(&mut workers, |si, stream| {
        let start = shipped.len();
        let held = (|| loop {
            read_frame(stream, &mut frame)?;
            if !decode_plan_frame(&frame, &mut shipped)? {
                return Ok(());
            }
            if u32::try_from(shipped.len()).is_err() {
                return Err("more planned transactions than a 32-bit index holds".into());
            }
        })();
        match held {
            Ok(()) => shares[si] = start..shipped.len(),
            Err(_) => shipped.truncate(start),
        }
        held
    });

    // Order the plan as `run_local` does: a share is a concatenation of
    // per-client runs, so the merge puts equal instants in (client,
    // planning order). Kills cut the runs; a killed worker stays
    // connected and later gets Pending fillers. The shares lie one after
    // the other in `shipped`, so `pos_of[k]` is the place in the plan
    // of entry `k` of `shipped`, or `u32::MAX` if the kills cut it.
    let mut pos_of = vec![u32::MAX; shipped.len()];
    let mut pos = 0;
    let runs = shares
        .iter()
        .enumerate()
        .flat_map(|(si, share)| natural_runs(&shipped[share.clone()]).map(move |run| (si, run)));
    let plan = prepared.merge(runs, |k| {
        pos_of[k] = pos;
        pos += 1;
    });
    // The run holds the ordered plan and `pos_of`, not `shipped` too.
    drop(shipped);
    let result = prepared.run(DeploymentConfig::standard(deployment), plan, workload_name);

    // Route outcomes back in each Secondary's planning order, each read
    // off its record as its frame is encoded. Entries the kill schedule
    // removed, those past the records of a run cut short, and all of
    // them if the chain was unable to run, answer as Pending (a
    // Secondary checks it got one outcome per planned transaction).
    let outcome = |&pos: &u32| match result.records.get(pos as usize) {
        Some(rec) => WireOutcome {
            status: status_to_wire(rec.status),
            submit_us: rec.submitted.as_micros(),
            decide_us: rec.decided.map_or(u64::MAX, |d| d.as_micros()),
        },
        None => WireOutcome {
            status: 0,
            submit_us: 0,
            decide_us: u64::MAX,
        },
    };
    each_live(&mut workers, |si, stream| {
        for chunk in pos_of[shares[si].clone()].chunks(CHUNK) {
            send(stream, &mut out, |out| {
                put_frame(out, |f| {
                    put_outcomes(f, chunk.len(), chunk.iter().map(outcome))
                });
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
        let (Message::Stats { .. }, Message::Telemetry { snapshot }) = (next()?, next()?) else {
            return Err("expected Stats and Telemetry".into());
        };
        let _ = send_message(stream, &mut out, &Message::Done);
        reported.merge(&snapshot);
        Ok(())
    });
    let mut telemetry = diablo_telemetry::snapshot();
    telemetry.merge(&reported);
    Ok(prepared.report(result, telemetry, |si| workers[si].is_none()))
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
    // client's plan is its triggers: `take_plan` hands them over as
    // they are when they are in time order (one behaviour) and merges
    // them when not. The order of the whole share is made by the
    // Primary's merge of the concatenation (see `serve_primary`), and
    // is the one a whole-range `take_plan` would have sent. The
    // connector is one for the whole range, so invocation sequence
    // numbers run on from client to client as they did.
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
            " [warning: presigning took {plan_wall:.1}s for a {workload_secs:.0}s workload — \
             this secondary would fall behind a live run]"
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
        let Some(outcomes) = decode_outcomes_frame(&frame)? else {
            break;
        };
        for o in outcomes {
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
    let report = [
        Message::Stats { text: text.clone() },
        Message::Telemetry { snapshot },
    ];
    send(&mut stream, &mut out, |out| {
        report.iter().for_each(|msg| put_message(out, msg));
    })?;
    match receive(&mut stream, &mut frame)? {
        Message::Done => Ok(text),
        other => Err(format!("expected Done, got {other:?}")),
    }
}
