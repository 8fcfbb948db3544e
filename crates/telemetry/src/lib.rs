//! Deterministic telemetry for the Diablo benchmark suite.
//!
//! The paper's contribution is *diagnosis*, not a single throughput
//! number: §5–§6 explain each chain's behaviour through per-phase
//! breakdowns (where time goes in the mempool, consensus, execution
//! and the network). This crate gives the reproduction the same
//! capability without disturbing its two core guarantees:
//!
//! - **Determinism.** The telemetry clock ([`clock`]) reads the
//!   simulation's virtual time by default, so recording is invisible to
//!   the discrete-event engine; and every aggregation (counter sums,
//!   gauge maxima, bucket-wise histogram merges, span totals) is
//!   commutative and associative, so merged [`TelemetrySnapshot`]s are
//!   bit-identical whether a block executed under
//!   `Concurrency::Serial` or `Parallel(n)`.
//! - **Zero cost when off.** Building the workspace with
//!   `RUSTFLAGS="--cfg diablo_telemetry_off"` compiles every recording
//!   function down to an empty `#[inline]` body and [`SpanGuard`] to a
//!   zero-sized type with no `Drop`; snapshots are empty but the wire
//!   and report plumbing still type-check.
//!
//! Recording goes through thread-local shards (see [`mod@self`]
//! internals) registered in a global registry; [`snapshot`] freezes and
//! merges them, [`reset`] clears them between runs. Every call is one
//! *entry* — a TLS lookup, a `RefCell` borrow, the shard's lock, a hash
//! of the name: ~30 ns — so a loop over transactions tallies in a local
//! and publishes after it, or hands its observations to [`record_all`]:
//!
//! ```
//! use diablo_telemetry::{counter, record, record_all, span};
//!
//! fn commit_block(waits_us: &[u64]) {
//!     span!("consensus.commit");
//!     counter!("consensus.blocks.committed");
//!     record!("consensus.block.txs", waits_us.len() as u64);
//!     record_all("mempool.queue_wait_us", waits_us.iter().copied());
//! }
//! # commit_block(&[900, 1_200]);
//! ```

#![warn(missing_docs)]

pub mod clock;
mod snapshot;
pub mod trace;

#[cfg(not(diablo_telemetry_off))]
mod recorder;
#[cfg(not(diablo_telemetry_off))]
mod span;

pub use snapshot::{HistogramSnapshot, SpanStat, TelemetrySnapshot};

#[cfg(not(diablo_telemetry_off))]
pub use span::SpanGuard;

/// RAII span guard (no-op build): zero-sized, no `Drop`, fully erased
/// by the optimizer.
#[cfg(diablo_telemetry_off)]
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard;

/// Whether telemetry is compiled in (`false` under
/// `--cfg diablo_telemetry_off`).
pub const fn enabled() -> bool {
    cfg!(not(diablo_telemetry_off))
}

/// Adds `n` to the named monotonic counter.
#[inline]
pub fn counter(name: &'static str, n: u64) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::with_local(|data| data.counter(name, n));
    #[cfg(diablo_telemetry_off)]
    let _ = (name, n);
}

/// Records a gauge observation; snapshots keep the high-watermark
/// (maximum), which merges deterministically.
#[inline]
pub fn gauge(name: &'static str, v: i64) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::with_local(|data| data.gauge(name, v));
    #[cfg(diablo_telemetry_off)]
    let _ = (name, v);
}

/// Records one value into the named log-linear histogram.
#[inline]
pub fn record(name: &'static str, v: u64) {
    record_n(name, v, 1);
}

/// Records `n` identical values into the named histogram; the snapshot
/// is the one `n` calls of [`record()`] would leave (none for `n == 0`).
#[inline]
pub fn record_n(name: &'static str, v: u64, n: u64) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::with_local(|data| data.histogram(name, std::iter::once((v, n))));
    #[cfg(diablo_telemetry_off)]
    let _ = (name, v, n);
}

/// Records every value of `values` in one recorder entry; the snapshot
/// is the one a [`record()`] per value would leave (none for an empty
/// iterator). The iterator is pulled while the recorder is held, so it
/// must not record; the no-op build never pulls it.
#[inline]
pub fn record_all(name: &'static str, values: impl IntoIterator<Item = u64>) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::with_local(|data| data.histogram(name, values.into_iter().map(|v| (v, 1))));
    #[cfg(diablo_telemetry_off)]
    let _ = (name, values);
}

/// Records a [`diablo_sim::SimDuration`] into the named histogram, in
/// microseconds. This is how the simulation attributes *modeled* time
/// to a phase (consensus round, execution, network transfer).
#[inline]
pub fn record_duration(name: &'static str, d: diablo_sim::SimDuration) {
    record(name, d.as_micros());
}

/// Opens a scoped span; the returned guard closes it on drop. Prefer
/// the [`span!`] macro, which binds the guard for you.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(not(diablo_telemetry_off))]
    return span::enter(name);
    #[cfg(diablo_telemetry_off)]
    {
        let _ = name;
        SpanGuard
    }
}

/// Freezes all recorders into a sorted, mergeable snapshot. Empty in
/// no-op builds.
pub fn snapshot() -> TelemetrySnapshot {
    #[cfg(not(diablo_telemetry_off))]
    return recorder::snapshot();
    #[cfg(diablo_telemetry_off)]
    TelemetrySnapshot::default()
}

/// Clears all recorders and rewinds nothing else: the clock is managed
/// separately via [`clock`]. Benchmark runs call this at start so each
/// snapshot covers exactly one run.
pub fn reset() {
    #[cfg(not(diablo_telemetry_off))]
    recorder::reset();
}

/// Freezes what the calling thread itself recorded, leaving out every
/// other thread's recorder. A Secondary's session runs on one thread,
/// and in an in-process deployment the Primary's recorders are in the
/// same registry: this is the Secondary's share alone.
pub fn thread_snapshot() -> TelemetrySnapshot {
    #[cfg(not(diablo_telemetry_off))]
    return recorder::thread_snapshot();
    #[cfg(diablo_telemetry_off)]
    TelemetrySnapshot::default()
}

/// Clears the calling thread's recorder and no other thread's.
pub fn thread_reset() {
    #[cfg(not(diablo_telemetry_off))]
    recorder::thread_reset();
}

/// How often the calling thread entered its recorder since its last reset:
/// once per `counter`, `gauge`, `record*` or closed span. `0` in no-op builds.
pub fn recorder_entries() -> u64 {
    #[cfg(not(diablo_telemetry_off))]
    return recorder::entries();
    #[cfg(diablo_telemetry_off)]
    0
}

/// Increments a counter: `counter!("name")` adds 1,
/// `counter!("name", n)` adds `n`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::counter($name, $n)
    };
}

/// Records a gauge observation (snapshot keeps the maximum).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge($name, $v)
    };
}

/// Records a `u64` into a histogram: `record!("name", value)`.
#[macro_export]
macro_rules! record {
    ($name:expr, $v:expr) => {
        $crate::record($name, $v)
    };
}

/// Records a `SimDuration` into a histogram, in microseconds.
#[macro_export]
macro_rules! record_duration {
    ($name:expr, $d:expr) => {
        $crate::record_duration($name, $d)
    };
}

/// Opens a span covering the rest of the enclosing scope:
/// `span!("consensus.ba_star.round")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _diablo_telemetry_span = $crate::span($name);
    };
}

#[cfg(test)]
mod tests {
    // Global-state lifecycle tests (reset, cross-thread merge,
    // determinism) live in `tests/` so each runs in its own process;
    // unit tests here stick to names no other test touches and never
    // call `reset`.

    #[test]
    fn counters_accumulate() {
        super::counter("test.lib.counter_a", 2);
        super::counter!("test.lib.counter_a");
        let snap = super::snapshot();
        if super::enabled() {
            assert_eq!(snap.counter("test.lib.counter_a"), Some(3));
        } else {
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn thread_scope_sees_and_clears_only_its_own_thread() {
        super::counter("test.lib.thread_scope.outer", 5);
        std::thread::spawn(|| {
            super::counter("test.lib.thread_scope.inner", 2);
            let own = super::thread_snapshot();
            if super::enabled() {
                assert_eq!(own.counter("test.lib.thread_scope.inner"), Some(2));
                assert_eq!(own.counters.len(), 1, "{:?}", own.counters);
            }
            super::thread_reset();
            assert!(super::thread_snapshot().is_empty());
        })
        .join()
        .expect("scoped thread");
        let all = super::snapshot();
        if super::enabled() {
            assert_eq!(all.counter("test.lib.thread_scope.outer"), Some(5));
            assert_eq!(all.counter("test.lib.thread_scope.inner"), None);
        }
    }

    #[test]
    fn histograms_record() {
        for v in [1u64, 10, 100, 1000] {
            super::record!("test.lib.hist_a", v);
        }
        super::record_duration!("test.lib.hist_a", diablo_sim::SimDuration::from_millis(1));
        let snap = super::snapshot();
        if super::enabled() {
            let h = snap.histogram("test.lib.hist_a").unwrap();
            assert_eq!(h.count, 5);
            assert_eq!(h.max, 1000);
        }
    }

    #[test]
    fn record_n_equals_n_records() {
        super::record_n("test.lib.hist_n", 7, 3);
        super::record_n("test.lib.hist_n", 900, 2);
        super::record_n("test.lib.hist_none", 7, 0);
        super::record_all("test.lib.hist_all", [7u64, 900, 7, 900, 7]);
        super::record_all("test.lib.hist_all_none", std::iter::empty());
        for v in [7u64, 7, 7, 900, 900] {
            super::record!("test.lib.hist_singles", v);
        }
        let snap = super::snapshot();
        if super::enabled() {
            let singles = snap.histogram("test.lib.hist_singles");
            assert_eq!(snap.histogram("test.lib.hist_n"), singles);
            assert_eq!(snap.histogram("test.lib.hist_all"), singles);
            assert!(snap.histogram("test.lib.hist_none").is_none());
            assert!(snap.histogram("test.lib.hist_all_none").is_none());
        }
    }

    #[test]
    fn record_all_merges_across_threads_and_pulls_nothing_when_off() {
        let pulled = std::cell::Cell::new(0u64);
        let values = |range: std::ops::Range<u64>| range.map(|v| v * v * 37);
        std::thread::spawn(move || super::record_all("test.lib.hist_all_threads", values(0..100)))
            .join()
            .expect("recording thread");
        super::record_all(
            "test.lib.hist_all_threads",
            values(100..200).inspect(|_| pulled.set(pulled.get() + 1)),
        );
        values(0..200).for_each(|v| super::record!("test.lib.hist_all_threads_singles", v));
        let snap = super::snapshot();
        if super::enabled() {
            assert_eq!(pulled.get(), 100);
            let merged = snap.histogram("test.lib.hist_all_threads").unwrap();
            assert_eq!(merged.count, 200);
            assert_eq!(Some(merged), snap.histogram("test.lib.hist_all_threads_singles"));
        } else {
            assert_eq!(pulled.get(), 0);
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn recorder_entries_count_calls_not_values() {
        // A difference, so whatever this thread recorded before is out.
        let before = super::recorder_entries();
        super::counter("test.lib.entries.counter", 5);
        super::record_all("test.lib.entries.hist", 0..1_000);
        {
            super::span!("test.lib.entries.span");
        }
        let spent = super::recorder_entries() - before;
        assert_eq!(spent, if super::enabled() { 3 } else { 0 });
    }

    #[test]
    #[cfg(not(diablo_telemetry_off))]
    #[should_panic(expected = "must not record")]
    fn an_iterator_that_records_is_caught() {
        super::record_all(
            "test.lib.reentrant",
            (0..3u64).inspect(|_| super::counter!("test.lib.reentrant.inner")),
        );
    }

    #[test]
    fn gauges_keep_watermark() {
        super::gauge!("test.lib.gauge_a", 5);
        super::gauge!("test.lib.gauge_a", -3);
        let snap = super::snapshot();
        if super::enabled() {
            let v = snap
                .gauges
                .iter()
                .find(|(n, _)| n == "test.lib.gauge_a")
                .map(|(_, v)| *v);
            assert_eq!(v, Some(5));
        }
    }

    #[test]
    fn spans_nest() {
        {
            super::span!("test.lib.outer");
            {
                super::span!("test.lib.inner");
            }
        }
        let snap = super::snapshot();
        if super::enabled() {
            let outer = snap.spans.iter().find(|(n, _)| n == "test.lib.outer");
            let inner = snap
                .spans
                .iter()
                .find(|(n, _)| n == "test.lib.outer;test.lib.inner");
            assert!(outer.is_some(), "outer span missing: {:?}", snap.spans);
            assert!(inner.is_some(), "nested path missing: {:?}", snap.spans);
        }
    }
}
