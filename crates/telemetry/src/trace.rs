//! Deterministic per-transaction lifecycle tracing.
//!
//! Aggregate telemetry ([`crate::TelemetrySnapshot`]) explains where a
//! *run* spent its time; it cannot explain where one tail-latency
//! transaction did. This module records a causal event trail per
//! transaction — `submitted → admitted → selected → ordered(round,
//! block) → executed(mode, execution count) → persisted(root) →
//! finalized`, plus rejection / retry / fault-delay edges — with
//! sim-time stamps, and exports it as Chrome Trace Event Format JSON
//! (loadable in Perfetto or `chrome://tracing`).
//!
//! # Determinism
//!
//! Two properties make traces byte-identical at any worker or
//! Secondary count:
//!
//! - **Events carry modeled time only.** Every stamp is virtual
//!   sim-time, produced by the single-threaded simulation loop; worker
//!   threads never emit trace events. The executor-dependent
//!   annotations ([`TraceStage::Executed`]'s mode and execution count)
//!   are kept in the [`TraceSet`] but deliberately
//!   *omitted from the Chrome export*, so the exported waterfall is a
//!   pure function of the modeled timeline and stays byte-identical
//!   across `Serial`, `Parallel(n)` and `Optimistic(n)` runs of the
//!   same seed.
//! - **Sampling is membership-by-identity, decided before the first
//!   event.** A classic reservoir depends on observation order. The
//!   bounded sampler here keeps the `N` transactions whose [`rank`] (a
//!   seeded splitmix64 hash of the transaction id) is smallest, and a
//!   run's ids are `0..n` with `n` known before it starts, so
//!   [`Tracer::arm`] settles membership from `(seed, N, n)` alone, into
//!   one bit per id, in two linear passes over `0..n` (a histogram of
//!   the ranks' top 12 bits, then the ids below the edge bucket plus a
//!   selection inside it), and lays the member trails out in id order.
//!   [`Tracer::emit`] then tests one bit: a non-member costs a range
//!   check and a bit test, a member is never evicted, and the sampled
//!   set cannot depend on emission interleaving.
//!
//! The [`Tracer`] is a value the run owns, not process state: two runs
//! in one process, on one thread or two, cannot see each other's
//! trails. It compiles out with the rest of the crate under
//! `--cfg diablo_telemetry_off`: [`Tracer::arm`] returns `None` and
//! [`Tracer::emit`] is an empty inline function. The data types stay
//! compiled so the report plumbing type-checks.

use std::fmt;

/// Lifecycle stages, in canonical causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// The client signed and scheduled the transaction (`arg0` =
    /// sender).
    Submitted = 0,
    /// The submission was corrupted and retried; the stamp is the first
    /// accepted attempt (`arg0` = retry delay in µs).
    Retried = 1,
    /// The submission node was crashed; the client failed over (`arg0`
    /// = the node submitted to instead).
    Rerouted = 2,
    /// Gossip reached a non-committing partition component; inclusion
    /// waits for the heal (`arg0` = deferral in µs).
    Deferred = 3,
    /// The proposers' mempool admitted the transaction (after gossip).
    Admitted = 4,
    /// A proposer drained the transaction from the pool into a block
    /// under assembly (`arg0` = consensus round).
    Selected = 5,
    /// Consensus ordered the block (`arg0` = round, `arg1` = block
    /// height).
    Ordered = 6,
    /// The execution engine committed the transaction's effects
    /// (`arg0` = concurrency mode code, `arg1` = times executed —
    /// more than 1 under optimistic speculation).
    Executed = 7,
    /// The state store persisted the enclosing block (`arg0` = first 8
    /// bytes of the block's state root, big-endian).
    Persisted = 8,
    /// The client observed the decision (`arg0` = 1 committed, 0
    /// aborted).
    Finalized = 9,
    /// Every submission attempt was corrupted; the client gave up.
    Rejected = 10,
    /// The pool was full; the transaction was dropped.
    DroppedPoolFull = 11,
    /// The sender exceeded its per-account pool quota.
    DroppedPerSender = 12,
    /// The transaction expired in the pool (recent-blockhash rule).
    DroppedExpired = 13,
}

impl TraceStage {
    /// Stable lowercase name (used in the Chrome export).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceStage::Submitted => "submitted",
            TraceStage::Retried => "retried",
            TraceStage::Rerouted => "rerouted",
            TraceStage::Deferred => "deferred",
            TraceStage::Admitted => "admitted",
            TraceStage::Selected => "selected",
            TraceStage::Ordered => "ordered",
            TraceStage::Executed => "executed",
            TraceStage::Persisted => "persisted",
            TraceStage::Finalized => "finalized",
            TraceStage::Rejected => "rejected",
            TraceStage::DroppedPoolFull => "dropped_pool_full",
            TraceStage::DroppedPerSender => "dropped_per_sender",
            TraceStage::DroppedExpired => "dropped_expired",
        }
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub stage: TraceStage,
    /// When, in sim-time microseconds.
    pub at_us: u64,
    /// Stage-specific annotation (see [`TraceStage`]).
    pub arg0: u64,
    /// Second stage-specific annotation.
    pub arg1: u64,
}

/// The event trail of one transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxTrace {
    /// Run-global transaction id (record index).
    pub id: u64,
    /// Events in emission order (causal order: the simulation loop is
    /// single-threaded).
    pub events: Vec<TraceEvent>,
}

impl TxTrace {
    /// The stamp of the first event of `stage`, if recorded.
    pub fn at(&self, stage: TraceStage) -> Option<u64> {
        self.events.iter().find(|e| e.stage == stage).map(|e| e.at_us)
    }

    /// The first event of `stage`, if recorded.
    pub fn event(&self, stage: TraceStage) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.stage == stage)
    }
}

/// How many transactions to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSample {
    /// The `n` transactions with the smallest seeded rank (bounded
    /// memory at any scale).
    Limit(u64),
    /// Every transaction.
    All,
}

impl TraceSample {
    /// Default bound when tracing is requested without an explicit
    /// sample size: caps tracer memory at scale.
    pub const DEFAULT_LIMIT: u64 = 4096;

    /// Parses `"all"` or a decimal count (0 is rejected).
    pub fn parse(s: &str) -> Result<TraceSample, String> {
        if s.eq_ignore_ascii_case("all") {
            return Ok(TraceSample::All);
        }
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(TraceSample::Limit(n)),
            _ => Err(format!("bad trace sample `{s}` (expected a positive count or `all`)")),
        }
    }

    /// The member cap (`u64::MAX` for `All`).
    pub fn cap(self) -> u64 {
        match self {
            TraceSample::Limit(n) => n,
            TraceSample::All => u64::MAX,
        }
    }
}

/// The seeded rank deciding sampler membership: splitmix64 over the
/// transaction id, perturbed by the run seed. Membership in a bounded
/// trace is "rank among the `N` smallest" — a pure function of the
/// id set and the seed, independent of emission order.
pub fn rank(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A frozen set of transaction traces, sorted by transaction id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// Sampler seed (the run seed).
    pub seed: u64,
    /// Sampler bound (`u64::MAX` = full tracing).
    pub cap: u64,
    /// Traced transactions, ascending by id.
    pub txs: Vec<TxTrace>,
}

impl TraceSet {
    /// The trace of transaction `id`, if sampled.
    pub fn tx(&self, id: u64) -> Option<&TxTrace> {
        self.txs
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| &self.txs[i])
    }

    /// Renders the set as Chrome Trace Event Format JSON.
    ///
    /// Per transaction (ascending id; `tid` = transaction id):
    ///
    /// - one complete (`"ph":"X"`) duration event per lifecycle stage
    ///   pair that was recorded (`network`, `mempool`, `consensus`,
    ///   `execution`, `storage`, `finality`),
    /// - one instant (`"ph":"i"`) event per point event (submission,
    ///   fault edges, terminal drops),
    /// - a flow (`"ph":"s"`/`"t"`/`"f"`) thread linking the stages.
    ///
    /// Only modeled-time facts are exported (see the module docs), so
    /// the bytes are identical across execution modes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for tx in &self.txs {
            write_tx_events(&mut out, tx, &mut first);
        }
        out.push_str("]}");
        out
    }

    /// The per-stage durations of one trail, as `(phase name, start µs,
    /// duration µs)` in canonical order — the waterfall the Chrome
    /// export draws and `trace-diff` aligns.
    pub fn waterfall(tx: &TxTrace) -> Vec<(&'static str, u64, u64)> {
        let mut out = Vec::new();
        let mut push = |name, from: Option<u64>, to: Option<u64>| {
            if let (Some(a), Some(b)) = (from, to) {
                out.push((name, a, b.saturating_sub(a)));
            }
        };
        let submitted = tx.at(TraceStage::Submitted);
        let admitted = tx.at(TraceStage::Admitted);
        let selected = tx.at(TraceStage::Selected);
        let ordered = tx.at(TraceStage::Ordered);
        let executed = tx.at(TraceStage::Executed);
        let persisted = tx.at(TraceStage::Persisted);
        let finalized = tx.at(TraceStage::Finalized);
        push("network", submitted, admitted);
        push("mempool", admitted, selected);
        push("consensus", selected, ordered);
        push("execution", ordered, executed);
        push("storage", executed, persisted);
        push("finality", persisted.or(executed), finalized);
        out
    }
}

/// Appends one transaction's Chrome events to `out`.
fn write_tx_events(out: &mut String, tx: &TxTrace, first: &mut bool) {
    use std::fmt::Write as _;
    let mut emit = |body: fmt::Arguments<'_>| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = out.write_fmt(body);
    };
    // Instant events: every point/terminal event in the trail. The
    // executor-dependent `executed` annotations are not exported.
    for e in &tx.events {
        let instant = matches!(
            e.stage,
            TraceStage::Submitted
                | TraceStage::Retried
                | TraceStage::Rerouted
                | TraceStage::Deferred
                | TraceStage::Rejected
                | TraceStage::DroppedPoolFull
                | TraceStage::DroppedPerSender
                | TraceStage::DroppedExpired
        );
        if instant {
            emit(format_args!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\"}}",
                e.stage.name(),
                e.at_us,
                tx.id
            ));
        }
    }
    // Stage duration events, with executor-invariant annotations.
    for (phase, start, dur) in TraceSet::waterfall(tx) {
        match phase {
            "consensus" => {
                let (round, block) = tx
                    .event(TraceStage::Ordered)
                    .map(|e| (e.arg0, e.arg1))
                    .unwrap_or((0, 0));
                emit(format_args!(
                    "{{\"name\":\"consensus\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"round\":{round},\"block\":{block}}}}}",
                    tx.id
                ));
            }
            "storage" => {
                let root = tx.event(TraceStage::Persisted).map(|e| e.arg0).unwrap_or(0);
                emit(format_args!(
                    "{{\"name\":\"storage\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"root\":\"{root:016x}\"}}}}",
                    tx.id
                ));
            }
            _ => emit(format_args!(
                "{{\"name\":\"{phase}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{}}}",
                tx.id
            )),
        }
    }
    // Flow thread: start at submission, step at each boundary, finish
    // at the trail's last stamp.
    let stamps: Vec<u64> = {
        let mut s: Vec<u64> = tx.events.iter().map(|e| e.at_us).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    if let (Some(&head), Some(&tail)) = (stamps.first(), stamps.last()) {
        emit(format_args!(
            "{{\"name\":\"tx\",\"ph\":\"s\",\"id\":{0},\"ts\":{head},\"pid\":1,\"tid\":{0}}}",
            tx.id
        ));
        for &t in stamps.get(1..stamps.len() - 1).unwrap_or_default() {
            emit(format_args!(
                "{{\"name\":\"tx\",\"ph\":\"t\",\"id\":{0},\"ts\":{t},\"pid\":1,\"tid\":{0}}}",
                tx.id
            ));
        }
        if tail > head {
            emit(format_args!(
                "{{\"name\":\"tx\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{0},\"ts\":{tail},\
                 \"pid\":1,\"tid\":{0}}}",
                tx.id
            ));
        }
    }
}

/// Bitmap words per prefix count: a count covers 512 ids.
const BLOCK_WORDS: usize = 8;

/// [`rank`] bits below the bucket index: [`Tracer::arm`]'s histogram
/// buckets ranks by their top 12 bits.
const BUCKET_SHIFT: u32 = 52;

/// One run's trace recorder: an owned value, armed once with the
/// sampler's inputs, fed by the single-threaded simulation loop and
/// finished into a [`TraceSet`].
///
/// Membership is decided by [`Tracer::arm`] into one bit per id;
/// [`Tracer::emit`] only tests an id's bit. Ids outside `0..n` are never
/// members.
#[derive(Debug)]
pub struct Tracer {
    seed: u64,
    cap: u64,
    /// Number of ids the run was armed for (`0..n`).
    n: u64,
    /// Bit `id % 64` of word `id / 64` is set iff `id` is a member; no
    /// bit at or past `n` is set.
    bits: Vec<u64>,
    /// Members before each block of [`BLOCK_WORDS`] words: a member's
    /// slot in `members` is its block's count plus the set bits before
    /// it in the block.
    before: Vec<u32>,
    /// Member trails, ascending by id.
    members: Vec<TxTrace>,
}

impl Tracer {
    /// Arms a tracer for the run whose transaction ids are `0..n`: the
    /// members are the `sample.cap()` ids of smallest [`rank`] under
    /// `seed`, or all of them when there are no more than that. `None`
    /// when the recorder is compiled out.
    pub fn arm(sample: TraceSample, seed: u64, n: u64) -> Option<Tracer> {
        if !crate::enabled() {
            return None;
        }
        let cap = sample.cap();
        let words = usize::try_from(n.div_ceil(64)).expect("one bit per id fits in memory");
        let mut bits = vec![0; words];
        if n <= cap {
            bits.fill(u64::MAX);
            if let Some(last) = bits.last_mut().filter(|_| !n.is_multiple_of(64)) {
                *last = (1 << (n % 64)) - 1;
            }
        } else {
            mark_lowest(&mut bits, seed, cap, n);
        }
        let mut before = Vec::with_capacity(words.div_ceil(BLOCK_WORDS));
        let mut members = Vec::with_capacity(n.min(cap) as usize);
        for (word, &set) in bits.iter().enumerate() {
            if word % BLOCK_WORDS == 0 {
                before.push(u32::try_from(members.len()).expect("fewer than 2^32 members"));
            }
            let mut rest = set;
            while rest != 0 {
                let id = word as u64 * 64 + u64::from(rest.trailing_zeros());
                members.push(TxTrace {
                    id,
                    events: Vec::new(),
                });
                rest &= rest - 1;
            }
        }
        Some(Tracer {
            seed,
            cap,
            n,
            bits,
            before,
            members,
        })
    }

    /// The number of ids the tracer was armed for.
    pub fn armed_for(&self) -> u64 {
        self.n
    }

    /// Records one lifecycle event for transaction `id` at sim-time
    /// `at_us`: a range check and a bit test for a non-member, an empty
    /// inline function when compiled out.
    #[inline]
    pub fn emit(&mut self, id: u64, stage: TraceStage, at_us: u64, arg0: u64, arg1: u64) {
        if !crate::enabled() {
            return;
        }
        // Ids past `n` land past the bitmap or on a clear bit.
        let word = usize::try_from(id / 64).unwrap_or(usize::MAX);
        let Some(&set) = self.bits.get(word) else {
            return;
        };
        let bit = 1 << (id % 64);
        if set & bit == 0 {
            return;
        }
        let event = TraceEvent {
            stage,
            at_us,
            arg0,
            arg1,
        };
        self.record(word, set & (bit - 1), event);
    }

    /// Pushes `event` onto the trail of the member in bitmap word `word`
    /// under whose bit the word's set bits are `below`. Cold and out of
    /// line: under a bound nearly every id is a non-member, and the
    /// emission sites' loops then inline only [`Tracer::emit`]'s bit test.
    #[cold]
    #[inline(never)]
    fn record(&mut self, word: usize, below: u64, event: TraceEvent) {
        let block = word / BLOCK_WORDS;
        let slot = self.before[block] as usize
            + self.bits[block * BLOCK_WORDS..word]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
            + below.count_ones() as usize;
        self.members[slot].events.push(event);
    }

    /// Freezes the recorded trails.
    pub fn finish(self) -> TraceSet {
        TraceSet {
            seed: self.seed,
            cap: self.cap,
            txs: self.members,
        }
    }
}

/// Sets the bits of the `cap` ids of `0..n` with the smallest [`rank`]
/// under `seed`, for `cap < n`, in two passes over the ids. The first
/// counts ranks per bucket of their top 12 bits; the running count
/// finds the edge bucket, the one holding the `cap`-th smallest rank.
/// The second sets every id below the edge bucket and keeps the edge
/// bucket's `(rank, id)` pairs, of which the smallest make up the rest.
/// `rank` is a bijection of the id, so no two ids tie.
fn mark_lowest(bits: &mut [u64], seed: u64, cap: u64, n: u64) {
    let mut histogram = vec![0u64; 1 << (64 - BUCKET_SHIFT)];
    for id in 0..n {
        histogram[(rank(seed, id) >> BUCKET_SHIFT) as usize] += 1;
    }
    let (mut edge, mut below) = (0, 0);
    while below + histogram[edge] < cap {
        below += histogram[edge];
        edge += 1;
    }
    let mut mark = |id: u64| bits[(id / 64) as usize] |= 1 << (id % 64);
    let mut edge_ranks = Vec::with_capacity(histogram[edge] as usize);
    for id in 0..n {
        let r = rank(seed, id);
        let bucket = (r >> BUCKET_SHIFT) as usize;
        if bucket < edge {
            mark(id);
        } else if bucket == edge {
            edge_ranks.push((r, id));
        }
    }
    // `cap - below` is at least 1 and at most the edge bucket's count
    // (0 only for a cap of 0).
    let rest = (cap - below) as usize;
    let lowest = if rest < edge_ranks.len() {
        edge_ranks.select_nth_unstable(rest).0
    } else {
        &mut edge_ranks[..]
    };
    lowest.iter().for_each(|&(_, id)| mark(id));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_parses() {
        assert_eq!(TraceSample::parse("all"), Ok(TraceSample::All));
        assert_eq!(TraceSample::parse("64"), Ok(TraceSample::Limit(64)));
        assert!(TraceSample::parse("0").is_err());
        assert!(TraceSample::parse("lots").is_err());
        assert_eq!(TraceSample::All.cap(), u64::MAX);
    }

    #[test]
    fn rank_is_seed_sensitive() {
        // Different seeds pick different members; same seed is stable.
        assert_eq!(rank(7, 42), rank(7, 42));
        assert_ne!(rank(7, 42), rank(8, 42));
        assert_ne!(rank(7, 42), rank(7, 43));
    }

    #[test]
    fn membership_is_order_independent() {
        if !crate::enabled() {
            return; // recorder compiled out
        }
        // Emitting ids in two different orders must sample the same set:
        // membership is a function of the id set and seed only.
        let expected: Vec<u64> = {
            let mut ranked: Vec<(u64, u64)> = (0..100).map(|i| (rank(9, i), i)).collect();
            ranked.sort_unstable();
            let mut keep: Vec<u64> = ranked[..10].iter().map(|&(_, i)| i).collect();
            keep.sort_unstable();
            keep
        };
        for forward in [true, false] {
            let mut tracer = Tracer::arm(TraceSample::Limit(10), 9, 100).unwrap();
            assert_eq!(tracer.armed_for(), 100);
            let order: Vec<u64> = if forward {
                (0..100).collect()
            } else {
                (0..100).rev().collect()
            };
            for id in order {
                tracer.emit(id, TraceStage::Submitted, id, 0, 0);
                tracer.emit(id, TraceStage::Admitted, id + 1, 0, 0);
            }
            let set = tracer.finish();
            assert_eq!((set.seed, set.cap), (9, 10));
            let got: Vec<u64> = set.txs.iter().map(|t| t.id).collect();
            assert_eq!(got, expected, "forward={forward}");
            // Sampled trails are complete: both events survived.
            for tx in &set.txs {
                assert_eq!(tx.events.len(), 2, "partial trail for {}", tx.id);
            }
        }
    }

    #[test]
    fn every_id_is_a_member_up_to_the_cap() {
        if !crate::enabled() {
            assert!(Tracer::arm(TraceSample::All, 1, 5).is_none());
            return;
        }
        for sample in [
            TraceSample::All,
            TraceSample::Limit(5),
            TraceSample::Limit(6),
        ] {
            let mut tracer = Tracer::arm(sample, 1, 5).unwrap();
            for id in (0..5).rev() {
                tracer.emit(id, TraceStage::Submitted, id * 10, 0, 0);
            }
            // Ids the run was not armed for go nowhere.
            tracer.emit(5, TraceStage::Submitted, 50, 0, 0);
            tracer.emit(u64::MAX, TraceStage::Submitted, 60, 0, 0);
            let set = tracer.finish();
            assert_eq!(set.cap, sample.cap());
            let ids: Vec<u64> = set.txs.iter().map(|t| t.id).collect();
            assert_eq!(ids, [0, 1, 2, 3, 4]);
            assert!(set.txs.iter().all(|t| t.events.len() == 1));
        }
        let armed_for_nothing = Tracer::arm(TraceSample::Limit(3), 1, 0).unwrap();
        assert!(armed_for_nothing.finish().txs.is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let tx = TxTrace {
            id: 7,
            events: vec![
                TraceEvent { stage: TraceStage::Submitted, at_us: 100, arg0: 3, arg1: 0 },
                TraceEvent { stage: TraceStage::Admitted, at_us: 250, arg0: 0, arg1: 0 },
                TraceEvent { stage: TraceStage::Selected, at_us: 900, arg0: 2, arg1: 0 },
                TraceEvent { stage: TraceStage::Ordered, at_us: 1400, arg0: 2, arg1: 1 },
                TraceEvent { stage: TraceStage::Executed, at_us: 1500, arg0: 2, arg1: 2 },
                TraceEvent { stage: TraceStage::Persisted, at_us: 1500, arg0: 0xabcd, arg1: 0 },
                TraceEvent { stage: TraceStage::Finalized, at_us: 2100, arg0: 1, arg1: 0 },
            ],
        };
        let set = TraceSet { seed: 0, cap: u64::MAX, txs: vec![tx.clone()] };
        let json = set.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for phase in ["network", "mempool", "consensus", "execution", "storage", "finality"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\",\"ph\":\"X\"")), "{phase}: {json}");
        }
        assert!(json.contains("\"args\":{\"round\":2,\"block\":1}"), "{json}");
        assert!(json.contains("\"args\":{\"root\":\"000000000000abcd\"}"), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        // Executor-specific facts stay out of the export.
        assert!(!json.contains("mode"), "{json}");
        // The waterfall telescopes: stages abut with no gaps.
        let w = TraceSet::waterfall(&tx);
        assert_eq!(w.len(), 6);
        for pair in w.windows(2) {
            assert_eq!(pair[0].1 + pair[0].2, pair[1].1, "{w:?}");
        }
        let total: u64 = w.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(total, 2100 - 100);
    }

    #[test]
    fn dropped_trails_export_instants_only() {
        let set = TraceSet {
            seed: 0,
            cap: u64::MAX,
            txs: vec![TxTrace {
                id: 1,
                events: vec![
                    TraceEvent { stage: TraceStage::Submitted, at_us: 10, arg0: 0, arg1: 0 },
                    TraceEvent { stage: TraceStage::DroppedPoolFull, at_us: 30, arg0: 0, arg1: 0 },
                ],
            }],
        };
        let json = set.to_chrome_json();
        assert!(json.contains("\"name\":\"dropped_pool_full\",\"ph\":\"i\""), "{json}");
        assert!(!json.contains("\"ph\":\"X\""), "{json}");
    }
}
