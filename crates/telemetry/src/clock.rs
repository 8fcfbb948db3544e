//! Telemetry clock: deterministic sim time or monotonic wall time.
//!
//! Inside the simulation the clock must be *virtual*: reading it twice
//! within one discrete event returns the same value, so telemetry never
//! perturbs determinism. The chain simulation publishes its current
//! [`SimTime`] here as it dispatches events ([`set_sim_now`]), and every
//! span and duration measurement reads that value. Live mode and the
//! host-cost benchmark in `benchmark/` — which measure real time, not
//! modeled time — opt into a monotonic wall clock with
//! [`use_wall_clock`].
//!
//! The default is the sim clock at t = 0, so telemetry recorded outside
//! any simulation (e.g. during workload planning) is deterministic too:
//! spans measure zero elapsed virtual time and only their call counts
//! are meaningful.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use diablo_sim::SimTime;

static SIM_NOW: AtomicU64 = AtomicU64::new(0);
static WALL: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Publishes the simulation's current virtual time. Call sites inside
/// the event loop keep this fresh; a no-op when telemetry is compiled
/// out.
#[inline]
pub fn set_sim_now(now: SimTime) {
    #[cfg(not(diablo_telemetry_off))]
    SIM_NOW.store(now.as_micros(), Ordering::Relaxed);
    #[cfg(diablo_telemetry_off)]
    let _ = now;
}

/// Switches the telemetry clock to monotonic wall time (live mode and
/// the host-cost benchmark). Wall-clocked snapshots are *not*
/// deterministic.
pub fn use_wall_clock() {
    EPOCH.get_or_init(Instant::now);
    WALL.store(true, Ordering::Relaxed);
}

/// Switches back to the deterministic sim clock and rewinds it to 0.
pub fn use_sim_clock() {
    WALL.store(false, Ordering::Relaxed);
    SIM_NOW.store(0, Ordering::Relaxed);
}

/// Reads the telemetry clock, in microseconds.
#[inline]
pub(crate) fn now_micros() -> u64 {
    if WALL.load(Ordering::Relaxed) {
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    } else {
        SIM_NOW.load(Ordering::Relaxed)
    }
}
