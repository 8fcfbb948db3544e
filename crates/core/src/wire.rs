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
//! strings and vectors are length-prefixed. A body ends where its
//! message does: a frame with bytes left over is refused.
//!
//! The session, and who waits for whom:
//!
//! ```text
//! Secondary                          Primary
//!   Hello                      ──▶
//!                              ◀──   Assign
//!   per client, drawn as sent:
//!   Plan × ⌈n / 16,384⌉        ──▶   decoded onto the end of the shares
//!   PlanDone                   ──▶   (next Secondary; then the run
//!                                     draws the shares' merge)
//!                              ◀──   Outcomes × ⌈n / 16,384⌉, OutcomesDone
//!   Stats, Telemetry           ──▶
//!                              ◀──   Done
//! ```
//!
//! Neither end waits without cause. Both sockets have `TCP_NODELAY`
//! ([`accept_secondary`], [`connect_primary`]), each arrow is one
//! `write` of whole frames from the end's one encode buffer, and each
//! end reads every frame into one buffer that grows as bytes arrive. A
//! Secondary draws each frame from its client's cursor as it encodes
//! it, so the Primary decodes one frame while the Secondary draws the
//! next, and no plan is held on the Secondary; the Primary restores the
//! order with the merge `run_local` uses, drawn by the run (see
//! [`serve_primary`]). A Secondary that falls silent, hangs up or
//! breaks the protocol is lost — its share discarded, the worker listed
//! in the report's `lost_secondaries` — and the others carry on.
//!
//! No frame carries traces: Secondaries plan but never simulate, so the
//! Primary's own tracer writes every one. The protocol is unversioned:
//! a Primary and its Secondaries come from one build.

mod codec;
mod session;

pub use codec::{decode, decode_plan_frame, encode, wire_to_planned, Message, WireOutcome, WireTx};
pub use session::{
    accept_secondary, connect_primary, read_message, run_secondary, run_secondary_with_retry,
    serve_primary, write_message, SecondaryError,
};
