//! Thread-local recorders and the global registry.
//!
//! Every recording thread owns a *shard*: a mutex-wrapped map of named
//! metrics. The mutex is uncontended — only the owning thread records
//! into it; the registry takes it briefly when a snapshot or reset
//! walks all shards — but every entry ([`with_local`]) takes it. Shards
//! of exited threads fold into a `retired` accumulator so short-lived
//! scoped workers (the parallel executor spawns them per block) never
//! leak registry entries.
//!
//! Determinism: every merge is commutative and associative (counters
//! add, gauges take the maximum, histograms add bucket-wise, span
//! totals add), and the final snapshot sorts by name. As long as the
//! *multiset* of recorded observations is schedule-independent — which
//! the deterministic parallel executor guarantees — the merged snapshot
//! is bit-identical regardless of worker count or thread interleaving.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use diablo_sim::LogHistogram;

use crate::snapshot::{HistogramSnapshot, SpanStat, TelemetrySnapshot};

/// FNV-1a: a tiny, dependency-free hasher. Metric names are short
/// static strings, so quality far beyond FNV buys nothing.
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;

/// One thread's raw metric state.
#[derive(Default)]
pub(crate) struct LocalData {
    counters: HashMap<&'static str, u64, FnvBuild>,
    gauges: HashMap<&'static str, i64, FnvBuild>,
    histograms: HashMap<&'static str, LogHistogram, FnvBuild>,
    spans: HashMap<Vec<&'static str>, SpanStat, FnvBuild>,
    /// [`with_local`] calls since the last clear; in no snapshot.
    entries: u64,
}

impl LocalData {
    pub(crate) fn counter(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub(crate) fn gauge(&mut self, name: &'static str, v: i64) {
        let e = self.gauges.entry(name).or_insert(i64::MIN);
        *e = (*e).max(v);
    }

    pub(crate) fn histogram(&mut self, name: &'static str, values: impl Iterator<Item = (u64, u64)>) {
        // No entry for zero observations: an empty histogram would
        // still show up in the snapshot.
        let mut values = values.filter(|&(_, n)| n > 0).peekable();
        if values.peek().is_some() {
            let h = self.histograms.entry(name).or_default();
            values.for_each(|(v, n)| h.record_n(v, n));
        }
    }

    pub(crate) fn span(&mut self, path: Vec<&'static str>, inclusive_us: u64, exclusive_us: u64) {
        let s = self.spans.entry(path).or_default();
        s.count += 1;
        s.inclusive_us += inclusive_us;
        s.exclusive_us += exclusive_us;
    }

    fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.spans.clear();
        self.entries = 0;
    }

    /// Folds `other` into `self` (commutative per key).
    fn absorb(&mut self, other: &LocalData) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            let e = self.gauges.entry(name).or_insert(i64::MIN);
            *e = (*e).max(v);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        for (path, s) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(s);
        }
    }

    /// The sorted, mergeable form of this state.
    fn freeze(&self) -> TelemetrySnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(&n, &v)| (n.to_string(), v))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .iter()
            .map(|(&n, &v)| (n.to_string(), v))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .iter()
            .map(|(&n, h)| (n.to_string(), HistogramSnapshot::from_histogram(h)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut spans: Vec<(String, SpanStat)> = self
            .spans
            .iter()
            .map(|(path, &s)| (path.join(";"), s))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0));

        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

pub(crate) struct Shard(Mutex<LocalData>);

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, LocalData> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Registry {
    shards: Vec<Arc<Shard>>,
    retired: LocalData,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            shards: Vec::new(),
            retired: LocalData::default(),
        })
    })
}

/// Owns the thread's shard; on thread exit, folds it into `retired`
/// and drops it from the registry.
struct LocalHandle {
    shard: Arc<Shard>,
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let data = std::mem::take(&mut *self.shard.lock());
        reg.retired.absorb(&data);
        let shard = &self.shard;
        reg.shards.retain(|s| !Arc::ptr_eq(s, shard));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalHandle>> = const { RefCell::new(None) };
}

/// Runs `f` against this thread's shard, creating and registering it on
/// first use. Silently drops the record if the thread is mid-teardown.
#[inline]
pub(crate) fn with_local<R>(f: impl FnOnce(&mut LocalData) -> R) -> Option<R> {
    LOCAL
        .try_with(|slot| {
            let mut slot = slot.try_borrow_mut().expect("a `record_all` iterator must not record");
            let handle = slot.get_or_insert_with(|| {
                let shard = Arc::new(Shard(Mutex::new(LocalData::default())));
                registry()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .shards
                    .push(Arc::clone(&shard));
                LocalHandle { shard }
            });
            let mut data = handle.shard.lock();
            data.entries += 1;
            f(&mut data)
        })
        .ok()
}

/// Freezes the union of all shards (live and retired) into a sorted
/// snapshot.
pub(crate) fn snapshot() -> TelemetrySnapshot {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut acc = LocalData::default();
    acc.absorb(&reg.retired);
    for shard in &reg.shards {
        acc.absorb(&shard.lock());
    }
    drop(reg);
    acc.freeze()
}

/// Freezes the calling thread's own shard: what this thread recorded,
/// whatever the rest of the process did meanwhile.
pub(crate) fn thread_snapshot() -> TelemetrySnapshot {
    with_local(|data| data.freeze()).unwrap_or_default()
}

/// This thread's [`with_local`] calls since its last clear, less this one.
pub(crate) fn entries() -> u64 {
    with_local(|data| {
        data.entries -= 1;
        data.entries
    })
    .unwrap_or(0)
}

/// Clears the calling thread's own shard and no other.
pub(crate) fn thread_reset() {
    with_local(LocalData::clear);
}

/// Clears every shard (live and retired). The start of each benchmark
/// run calls this so snapshots cover exactly one run.
pub(crate) fn reset() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.retired.clear();
    for shard in &reg.shards {
        shard.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_histogram_made_on_first_use_reports_its_smallest_value() {
        let mut shard = LocalData::default();
        shard.histogram("h", [(5, 1), (9, 1)].into_iter());
        assert_eq!(shard.freeze().histogram("h").map(|h| h.min), Some(5));
        // What a snapshot and a retiring thread do: fold the shard into
        // an accumulator that has no such histogram yet.
        let mut acc = LocalData::default();
        acc.absorb(&shard);
        assert_eq!(acc.freeze().histogram("h").map(|h| h.min), Some(5));
    }
}
