//! Allocation bounds of the wire session.
//!
//! A frame's length prefix is the peer's claim, not a fact: reading a
//! frame must cost this end what arrived, not what was announced. And a
//! session's memory is the plan it moves, once: the Secondary plans and
//! ships a client at a time, the Primary decodes frames straight onto
//! the end of the shares, merges them into the ordered plan and an index
//! per transaction, and starts the run holding those two, not the
//! shipped copy besides. This test has a process of its own because it
//! installs a counting global allocator.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread;

use diablo_chains::{Chain, RetryPolicy};
use diablo_core::primary::BenchmarkOptions;
use diablo_core::wire::{
    accept_secondary, connect_primary, read_message, run_secondary, serve_primary,
};
use diablo_net::DeploymentKind;
use diablo_testkit::alloc::{measure, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `wire`'s `MAX_FRAME`: the largest length prefix a reader accepts.
const MAX_FRAME: u32 = 64 << 20;

/// A connected loopback pair: (accepted end, connecting end).
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let dialing = thread::spawn(move || TcpStream::connect(addr).expect("connect"));
    let (accepted, _) = listener.accept().expect("accept");
    (accepted, dialing.join().expect("dialing thread"))
}

/// A peer announces the largest frame there is, sends ten bytes of it
/// and closes: a typed error, and a buffer that grew by what came.
fn an_announced_length_allocates_nothing() {
    let (mut reader, mut peer) = pair();
    peer.write_all(&MAX_FRAME.to_le_bytes()).expect("header");
    peer.write_all(&[3; 10]).expect("ten bytes");
    drop(peer);

    let (read, cost) = measure(|| read_message(&mut reader));
    assert!(
        cost.peak < 64 << 10,
        "read_message: {} bytes live at its peak ({} asked for in {} calls) for a ten-byte body",
        cost.peak,
        cost.bytes,
        cost.calls
    );
    let error = read.expect_err("a frame cut short is an error");
    assert!(error.contains("ended after 10"), "{error}");
}

/// 3 clients × 1,000 TPS × 10 s of transfers on Diem: `tcp_overload`'s
/// shape at a sixth of its length.
const SPEC: &str = r#"
workloads:
  - number: 3
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2000 } }
          load:
            0: 1000
            10: 0
"#;
const PLANNED: usize = 30_000;

/// Most bytes live at once, on both ends together, per planned
/// transaction of one in-process session.
fn a_session_holds_its_plan_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (report, cost) = measure(|| {
        let secondary = thread::spawn(move || run_secondary(&addr, "same-process"));
        let report = serve_primary(
            &listener,
            Chain::Diem,
            DeploymentKind::Testnet,
            SPEC,
            "wire-alloc",
            &BenchmarkOptions::default(),
            1,
        );
        secondary.join().expect("join").expect("secondary");
        report.expect("primary")
    });
    assert_eq!(report.result.records.len(), PLANNED);
    assert!(report.lost_secondaries.is_empty());
    let per_tx = cost.peak / PLANNED;
    assert!(
        per_tx <= PEAK_BYTES_PER_TX,
        "{} bytes live at the session's peak: {per_tx} per planned transaction",
        cost.peak
    );
}

/// The bound on [`a_session_holds_its_plan_once`]. The peak is where
/// the Primary orders the plan: the shipped shares (40 bytes an entry,
/// in a vector grown by doubling), the ordered plan and 4 bytes of
/// index, next to two frame buffers of a few hundred kilobytes.
/// Measured: 4,204,402 bytes, 140 per transaction; the session that
/// planned the whole range, merged it, mapped origins and sorted through
/// an index vector before it ran: 7,236,774 bytes, 241 per transaction.
const PEAK_BYTES_PER_TX: usize = 160;

/// Both ends of a session get their socket from these two functions,
/// and both must come back with Nagle's algorithm off: the protocol
/// writes a small frame and waits for the answer.
fn both_ends_disable_nagle() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let dialing = thread::spawn(move || connect_primary(&addr, &RetryPolicy::default()));
    let primary_end = accept_secondary(&listener).expect("accept");
    let secondary_end = dialing.join().expect("dialing thread").expect("connect");
    assert!(primary_end.nodelay().expect("nodelay"), "Primary's end");
    assert!(secondary_end.nodelay().expect("nodelay"), "Secondary's end");
    assert!(primary_end.read_timeout().expect("timeout").is_some());
}

// One test function: the counters are process-wide, and the harness
// would run two tests on two threads at once.
#[test]
fn the_wire_allocates_for_what_arrives() {
    an_announced_length_allocates_nothing();
    a_session_holds_its_plan_once();
    both_ends_disable_nagle();
}
