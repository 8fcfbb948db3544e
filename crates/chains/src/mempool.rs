//! Memory pools and their admission policies.
//!
//! The paper attributes several headline behaviours to mempool policy:
//! Diem accepts at most 100 transactions per sender and drops on
//! overflow (§5.2), Algorand and Solana drop transactions under bursts
//! (§6.5), while Quorum's IBFT "was historically designed to never drop
//! a client request" (§6.5) — an unbounded queue that is precisely why
//! it collapses under sustained 10,000 TPS (§6.3).

use std::collections::VecDeque;

use diablo_sim::{Arena, ArenaId};

use crate::tx::{TxId, TxMeta};

/// Admission policy of a node's memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MempoolPolicy {
    /// Maximum pool occupancy; `None` = unbounded (Quorum).
    pub capacity: Option<usize>,
    /// Maximum in-flight transactions per sender; `None` = unlimited.
    /// Diem uses `Some(100)`.
    pub per_sender: Option<u32>,
}

impl MempoolPolicy {
    /// Quorum's never-drop policy.
    pub const UNBOUNDED: MempoolPolicy = MempoolPolicy {
        capacity: None,
        per_sender: None,
    };

    /// A bounded pool without per-sender limits.
    pub const fn bounded(capacity: usize) -> MempoolPolicy {
        MempoolPolicy {
            capacity: Some(capacity),
            per_sender: None,
        }
    }
}

/// Why a transaction was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Pool at capacity — the transaction is dropped.
    PoolFull,
    /// The sender already has the maximum in-flight transactions.
    PerSenderLimit,
}

/// A FIFO memory pool with the policies above.
///
/// Records live in a generational [`Arena`]; the FIFO queue holds 8-byte
/// [`ArenaId`]s. Hot loops can drain a block by id
/// ([`take_batch_ids`](Mempool::take_batch_ids)), read the records in
/// place ([`meta`](Mempool::meta)) and return the slots afterwards
/// ([`release`](Mempool::release)) — a steady-state pool recycles slots
/// instead of allocating, and a million-entry backlog stays one dense
/// slab rather than a deque of owned copies.
///
/// [`admit`](Mempool::admit) runs per transaction and records no telemetry:
/// its caller publishes the growth of the lifetime tallies once per tick.
pub struct Mempool {
    policy: MempoolPolicy,
    arena: Arena<TxMeta>,
    queue: VecDeque<ArenaId>,
    /// In-flight count per sender, indexed directly by the workload's
    /// dense `u32` account id (grown on demand). Plans pre-size it via
    /// [`with_accounts`](Mempool::with_accounts), so the admission hot
    /// path is an array index, not a hash lookup.
    per_sender: Vec<u32>,
    admitted_total: u64,
    dropped_full: u64,
    dropped_sender: u64,
}

impl Mempool {
    /// An empty pool under `policy`.
    pub fn new(policy: MempoolPolicy) -> Self {
        Mempool::with_accounts(policy, 0)
    }

    /// An empty pool with the per-sender table pre-sized for `accounts`
    /// dense sender ids (avoids regrowth during the run).
    pub fn with_accounts(policy: MempoolPolicy, accounts: usize) -> Self {
        Mempool {
            policy,
            arena: Arena::new(),
            queue: VecDeque::new(),
            per_sender: vec![0; accounts],
            admitted_total: 0,
            dropped_full: 0,
            dropped_sender: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Occupancy as a fraction of capacity (0 for unbounded pools).
    pub fn fill_ratio(&self) -> f64 {
        match self.policy.capacity {
            Some(cap) if cap > 0 => (self.queue.len() as f64 / cap as f64).min(1.0),
            _ => 0.0,
        }
    }

    /// Lifetime admission count.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Lifetime drops due to a full pool.
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full
    }

    /// Lifetime drops due to the per-sender cap.
    pub fn dropped_sender(&self) -> u64 {
        self.dropped_sender
    }

    /// Tries to admit a transaction.
    pub fn admit(&mut self, tx: TxMeta) -> Result<(), AdmitError> {
        let sender = tx.sender as usize;
        if let Some(limit) = self.policy.per_sender {
            if self.per_sender.get(sender).copied().unwrap_or(0) >= limit {
                self.dropped_sender += 1;
                return Err(AdmitError::PerSenderLimit);
            }
        }
        if let Some(cap) = self.policy.capacity {
            if self.queue.len() >= cap {
                self.dropped_full += 1;
                return Err(AdmitError::PoolFull);
            }
        }
        if sender >= self.per_sender.len() {
            self.per_sender.resize(sender + 1, 0);
        }
        self.per_sender[sender] += 1;
        let id = self.arena.insert(tx);
        self.queue.push_back(id);
        self.admitted_total += 1;
        Ok(())
    }

    /// Pops up to `max` transactions in FIFO order, subject to a
    /// per-batch byte budget and a predicate (e.g. fee eligibility,
    /// gossip availability). Transactions failing the predicate are
    /// *skipped but retained* (they stay pending, preserving FIFO order
    /// among themselves).
    ///
    /// The returned ids stay readable through [`meta`](Mempool::meta)
    /// until [`release`](Mempool::release)d — the zero-copy drain the
    /// block-commit hot loop uses. [`take_batch`](Mempool::take_batch)
    /// wraps this for callers that want owned records.
    pub fn take_batch_ids(
        &mut self,
        max: usize,
        max_bytes: u64,
        mut eligible: impl FnMut(&TxMeta) -> bool,
    ) -> Vec<ArenaId> {
        // Work from the front in place: a block drains a few hundred
        // transactions, so the cost must scale with the batch, not with
        // the (possibly unbounded — Quorum) pool occupancy.
        let mut taken = Vec::new();
        let mut skipped: Vec<ArenaId> = Vec::new();
        let mut bytes = 0u64;
        while let Some(id) = self.queue.pop_front() {
            let tx = self.arena.get(id).expect("queued id must be live");
            if taken.len() >= max || bytes + tx.wire_bytes as u64 > max_bytes {
                self.queue.push_front(id);
                break;
            }
            if eligible(tx) {
                bytes += tx.wire_bytes as u64;
                self.per_sender[tx.sender as usize] -= 1;
                taken.push(id);
            } else {
                skipped.push(id);
            }
        }
        // Splice the skipped (still-pending) transactions back in front
        // of the untouched tail, preserving FIFO order among them.
        diablo_telemetry::counter!("mempool.take_batch.calls");
        diablo_telemetry::counter!("mempool.take_batch.skipped", skipped.len() as u64);
        diablo_telemetry::record!("mempool.take_batch.txs", taken.len() as u64);
        diablo_telemetry::record!("mempool.take_batch.bytes", bytes);
        for id in skipped.into_iter().rev() {
            self.queue.push_front(id);
        }
        diablo_telemetry::gauge!("mempool.depth_peak", self.queue.len() as i64);
        taken
    }

    /// Pops up to `max` transactions in FIFO order as owned records (see
    /// [`take_batch_ids`](Mempool::take_batch_ids) for the semantics).
    pub fn take_batch(
        &mut self,
        max: usize,
        max_bytes: u64,
        eligible: impl FnMut(&TxMeta) -> bool,
    ) -> Vec<TxMeta> {
        let ids = self.take_batch_ids(max, max_bytes, eligible);
        ids.into_iter().map(|id| self.release(id)).collect()
    }

    /// The record behind a batch id handed out by
    /// [`take_batch_ids`](Mempool::take_batch_ids) (or still queued).
    ///
    /// # Panics
    ///
    /// Panics on a stale id (already released): batch ids are owned by
    /// exactly one block-commit and must not outlive it.
    pub fn meta(&self, id: ArenaId) -> &TxMeta {
        self.arena.get(id).expect("stale mempool ArenaId")
    }

    /// Returns a drained transaction's slot to the pool's arena,
    /// yielding the owned record.
    ///
    /// # Panics
    ///
    /// Panics on a stale id (double release).
    pub fn release(&mut self, id: ArenaId) -> TxMeta {
        self.arena.remove(id).expect("stale mempool ArenaId")
    }

    /// Removes transactions matching `expired`, returning their ids
    /// (Solana's 120 s recent-blockhash expiry).
    pub fn evict_where(&mut self, mut expired: impl FnMut(&TxMeta) -> bool) -> Vec<TxId> {
        let mut evicted = Vec::new();
        let per_sender = &mut self.per_sender;
        let arena = &mut self.arena;
        let mut dead: Vec<ArenaId> = Vec::new();
        self.queue.retain(|&id| {
            let tx = arena.get(id).expect("queued id must be live");
            if expired(tx) {
                per_sender[tx.sender as usize] -= 1;
                evicted.push(tx.id);
                dead.push(id);
                false
            } else {
                true
            }
        });
        for id in dead {
            arena.remove(id);
        }
        diablo_telemetry::counter!("mempool.evicted", evicted.len() as u64);
        evicted
    }

    /// Iterates the queued transactions (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &TxMeta> {
        self.queue
            .iter()
            .map(|&id| self.arena.get(id).expect("queued id must be live"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Payload;
    use diablo_sim::SimTime;

    fn tx(id: TxId, sender: u32) -> TxMeta {
        TxMeta {
            id,
            sender,
            payload: Payload::Transfer,
            submitted: SimTime::from_micros(id as u64),
            available: SimTime::from_micros(id as u64),
            wire_bytes: 100,
            fee_cap_millis: 2000,
        }
    }

    #[test]
    fn fifo_order() {
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        for i in 0..10 {
            pool.admit(tx(i, 0)).unwrap();
        }
        let batch = pool.take_batch(5, u64::MAX, |_| true);
        assert_eq!(
            batch.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(pool.len(), 5);
    }

    #[test]
    fn capacity_drops() {
        let mut pool = Mempool::new(MempoolPolicy::bounded(3));
        for i in 0..3 {
            pool.admit(tx(i, i)).unwrap();
        }
        assert_eq!(pool.admit(tx(3, 3)), Err(AdmitError::PoolFull));
        assert_eq!(pool.dropped_full(), 1);
        assert_eq!(pool.fill_ratio(), 1.0);
    }

    #[test]
    fn per_sender_cap_like_diem() {
        let policy = MempoolPolicy {
            capacity: None,
            per_sender: Some(100),
        };
        let mut pool = Mempool::new(policy);
        for i in 0..100 {
            pool.admit(tx(i, 7)).unwrap();
        }
        assert_eq!(pool.admit(tx(100, 7)), Err(AdmitError::PerSenderLimit));
        // A different sender is fine.
        pool.admit(tx(101, 8)).unwrap();
        assert_eq!(pool.dropped_sender(), 1);
        // Popping frees the sender's slots.
        let _ = pool.take_batch(1, u64::MAX, |_| true);
        pool.admit(tx(102, 7)).unwrap();
    }

    #[test]
    fn take_batch_respects_byte_budget() {
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        for i in 0..10 {
            pool.admit(tx(i, 0)).unwrap();
        }
        let batch = pool.take_batch(100, 250, |_| true);
        assert_eq!(batch.len(), 2); // 100 bytes each, budget 250
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn ineligible_txs_are_retained_in_order() {
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        for i in 0..6 {
            pool.admit(tx(i, 0)).unwrap();
        }
        // Only even ids are eligible.
        let batch = pool.take_batch(100, u64::MAX, |t| t.id % 2 == 0);
        assert_eq!(
            batch.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        let rest: Vec<TxId> = pool.iter().map(|t| t.id).collect();
        assert_eq!(rest, vec![1, 3, 5]);
    }

    #[test]
    fn evict_where_removes_and_reports() {
        let mut pool = Mempool::new(MempoolPolicy {
            capacity: None,
            per_sender: Some(2),
        });
        for i in 0..4 {
            pool.admit(tx(i, i % 2)).unwrap();
        }
        let evicted = pool.evict_where(|t| t.id < 2);
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(pool.len(), 2);
        // Eviction released one slot per sender (tx 2 and tx 3 remain).
        pool.admit(tx(10, 0)).unwrap();
        assert_eq!(pool.admit(tx(11, 0)), Err(AdmitError::PerSenderLimit));
    }

    #[test]
    fn large_pool_batches_preserve_order_and_counters() {
        // A Quorum-style backlog: 100k pending transactions drained a
        // few hundred per block. take_batch must not touch the tail, and
        // the per-sender accounting must stay exact across many batches
        // with skipped (ineligible) transactions interleaved.
        let n: u32 = 100_000;
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        for i in 0..n {
            pool.admit(tx(i, i % 97)).unwrap();
        }
        let mut drained: Vec<TxId> = Vec::new();
        // Ids divisible by 7 only become eligible on a later pass.
        let mut deferred_pass = false;
        while !pool.is_empty() {
            let pass = deferred_pass;
            let batch = pool.take_batch(500, u64::MAX, |t| pass || t.id % 7 != 0);
            if batch.is_empty() {
                deferred_pass = true;
                continue;
            }
            drained.extend(batch.iter().map(|t| t.id));
        }
        assert_eq!(drained.len() as u32, n);
        // Within each eligibility class, FIFO order is preserved.
        let not_sevens: Vec<TxId> = drained.iter().copied().filter(|id| id % 7 != 0).collect();
        assert!(not_sevens.windows(2).all(|w| w[0] < w[1]));
        let sevens: Vec<TxId> = drained.iter().copied().filter(|id| id % 7 == 0).collect();
        assert!(sevens.windows(2).all(|w| w[0] < w[1]));
        // Every sender slot was released.
        for sender in 0..97 {
            pool.admit(tx(n + sender, sender)).unwrap();
        }
    }

    #[test]
    fn presized_pool_matches_grow_on_demand() {
        // `with_accounts` is purely a pre-sizing hint: admission,
        // batching and eviction behave identically with and without it.
        let policy = MempoolPolicy {
            capacity: None,
            per_sender: Some(2),
        };
        let mut sized = Mempool::with_accounts(policy, 50);
        let mut grown = Mempool::new(policy);
        for i in 0..80 {
            assert_eq!(sized.admit(tx(i, i % 40)), grown.admit(tx(i, i % 40)));
        }
        assert_eq!(sized.admit(tx(80, 0)), Err(AdmitError::PerSenderLimit));
        assert_eq!(grown.admit(tx(80, 0)), Err(AdmitError::PerSenderLimit));
        let a = sized.take_batch(30, u64::MAX, |_| true);
        let b = grown.take_batch(30, u64::MAX, |_| true);
        assert_eq!(
            a.iter().map(|t| t.id).collect::<Vec<_>>(),
            b.iter().map(|t| t.id).collect::<Vec<_>>()
        );
        // Drained slots free the sender cap in both.
        sized.admit(tx(81, 0)).unwrap();
        grown.admit(tx(81, 0)).unwrap();
    }

    #[test]
    fn unbounded_never_fills() {
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        for i in 0..10_000 {
            pool.admit(tx(i, i)).unwrap();
        }
        assert_eq!(pool.fill_ratio(), 0.0);
        assert_eq!(pool.dropped_full(), 0);
    }
}
