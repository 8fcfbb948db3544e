//! Allocation bounds of the wire session.
//!
//! A frame's length prefix is the peer's claim, not a fact: reading a
//! frame must cost this end what arrived, not what was announced. This
//! test has a process of its own because it installs a counting global
//! allocator.

mod counting;

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread;

use counting::measure;
use diablo_core::wire::read_message;

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

// One test function: the counters are process-wide, and the harness
// would run two tests on two threads at once.
#[test]
fn the_wire_allocates_for_what_arrives() {
    an_announced_length_allocates_nothing();
}
