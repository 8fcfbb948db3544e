//! Memory pools and their admission policies.
//!
//! The paper attributes several headline behaviours to mempool policy:
//! Diem accepts at most 100 transactions per sender and drops on
//! overflow (§5.2), Algorand and Solana drop transactions under bursts
//! (§6.5), while Quorum's IBFT "was historically designed to never drop
//! a client request" (§6.5) — an unbounded queue that is precisely why
//! it collapses under sustained 10,000 TPS (§6.3).

use std::collections::VecDeque;

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
/// The pool owns its records: each queued [`TxMeta`] sits in a slot of
/// one vector (an `Option<TxMeta>` is as big as the record), and the
/// FIFO queue holds 4-byte slot indices. A block drains by slot
/// ([`take_batch_ids`](Mempool::take_batch_ids)), reads the records in
/// place ([`meta`](Mempool::meta)) and hands the slots back at its end
/// ([`release`](Mempool::release)), so a steady-state pool reuses its
/// slots and a block copies nothing out. A slot index lives only between
/// the drain and the release of one block, while nothing is admitted,
/// so it cannot outlive its record; releasing it twice panics.
///
/// [`admit`](Mempool::admit) runs per transaction and records no telemetry:
/// its caller publishes the growth of the lifetime tallies and the
/// occupancy once per tick.
pub struct Mempool {
    policy: MempoolPolicy,
    /// Records by slot; `None` is a free slot.
    slots: Vec<Option<TxMeta>>,
    /// Free slots, the most recently released last.
    free: Vec<u32>,
    /// Queued slots, oldest first.
    queue: VecDeque<u32>,
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
            slots: Vec::new(),
            free: Vec::new(),
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(tx);
                slot
            }
            None => {
                self.slots.push(Some(tx));
                (self.slots.len() - 1) as u32
            }
        };
        self.queue.push_back(slot);
        self.admitted_total += 1;
        Ok(())
    }

    /// Pops up to `max` transactions in FIFO order, subject to a
    /// per-batch byte budget and a predicate (e.g. fee eligibility,
    /// gossip availability). Transactions failing the predicate are
    /// *skipped but retained* (they stay pending, preserving FIFO order
    /// among themselves).
    ///
    /// Returns the batch's slots: their records stay readable through
    /// [`meta`](Mempool::meta) until [`release`](Mempool::release)d.
    pub fn take_batch_ids(
        &mut self,
        max: usize,
        max_bytes: u64,
        mut eligible: impl FnMut(&TxMeta) -> bool,
    ) -> Vec<u32> {
        // Work from the front in place: a block drains a few hundred
        // transactions, so the cost must scale with the batch, not with
        // the (possibly unbounded — Quorum) pool occupancy.
        let mut taken = Vec::new();
        let mut skipped: Vec<u32> = Vec::new();
        let mut bytes = 0u64;
        while let Some(slot) = self.queue.pop_front() {
            let tx = self.slots[slot as usize]
                .as_ref()
                .expect("queued slot holds a record");
            if taken.len() >= max || bytes + tx.wire_bytes as u64 > max_bytes {
                self.queue.push_front(slot);
                break;
            }
            if eligible(tx) {
                bytes += tx.wire_bytes as u64;
                self.per_sender[tx.sender as usize] -= 1;
                taken.push(slot);
            } else {
                skipped.push(slot);
            }
        }
        // Splice the skipped (still-pending) transactions back in front
        // of the untouched tail, preserving FIFO order among them.
        diablo_telemetry::counter!("mempool.take_batch.calls");
        diablo_telemetry::counter!("mempool.take_batch.skipped", skipped.len() as u64);
        diablo_telemetry::record!("mempool.take_batch.txs", taken.len() as u64);
        diablo_telemetry::record!("mempool.take_batch.bytes", bytes);
        for slot in skipped.into_iter().rev() {
            self.queue.push_front(slot);
        }
        taken
    }

    /// The record in a slot [`take_batch_ids`](Mempool::take_batch_ids)
    /// handed out.
    ///
    /// # Panics
    ///
    /// Panics on a released slot.
    pub fn meta(&self, slot: u32) -> &TxMeta {
        self.slots[slot as usize]
            .as_ref()
            .expect("mempool slot already released")
    }

    /// Frees a drained transaction's slot, yielding its record.
    ///
    /// # Panics
    ///
    /// Panics on a slot released before (a double release).
    pub fn release(&mut self, slot: u32) -> TxMeta {
        let tx = self.slots[slot as usize]
            .take()
            .expect("mempool slot released twice");
        self.free.push(slot);
        tx
    }

    /// Removes transactions matching `expired`, returning their ids
    /// (Solana's 120 s recent-blockhash expiry).
    pub fn evict_where(&mut self, mut expired: impl FnMut(&TxMeta) -> bool) -> Vec<TxId> {
        let mut evicted = Vec::new();
        let (slots, free, per_sender) = (&mut self.slots, &mut self.free, &mut self.per_sender);
        self.queue.retain(|&slot| {
            let held = &mut slots[slot as usize];
            let tx = held.as_ref().expect("queued slot holds a record");
            if !expired(tx) {
                return true;
            }
            per_sender[tx.sender as usize] -= 1;
            evicted.push(tx.id);
            *held = None;
            free.push(slot);
            false
        });
        diablo_telemetry::counter!("mempool.evicted", evicted.len() as u64);
        evicted
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

    /// Drains one block the way `ChainSim::commit_block` does: by slot,
    /// reading the records in place and releasing the slots at the end.
    fn drain(
        pool: &mut Mempool,
        max: usize,
        max_bytes: u64,
        eligible: impl FnMut(&TxMeta) -> bool,
    ) -> Vec<TxId> {
        let slots = pool.take_batch_ids(max, max_bytes, eligible);
        let ids = slots.iter().map(|&slot| pool.meta(slot).id).collect();
        for slot in slots {
            pool.release(slot);
        }
        ids
    }

    /// The queued ids, oldest first.
    fn queued(pool: &Mempool) -> Vec<TxId> {
        pool.queue.iter().map(|&slot| pool.meta(slot).id).collect()
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
        drain(&mut pool, 1, u64::MAX, |_| true);
        pool.admit(tx(102, 7)).unwrap();
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
        // few hundred per block. The drain must not touch the tail, and
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
            let batch = drain(&mut pool, 500, u64::MAX, |t| pass || t.id % 7 != 0);
            if batch.is_empty() {
                deferred_pass = true;
                continue;
            }
            drained.extend(batch);
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
        assert_eq!(
            drain(&mut sized, 30, u64::MAX, |_| true),
            drain(&mut grown, 30, u64::MAX, |_| true)
        );
        // Drained slots free the sender cap in both.
        sized.admit(tx(81, 0)).unwrap();
        grown.admit(tx(81, 0)).unwrap();
    }

    #[test]
    fn a_slot_costs_what_its_record_does() {
        assert_eq!(
            std::mem::size_of::<Option<TxMeta>>(),
            std::mem::size_of::<TxMeta>()
        );
    }

    #[test]
    #[should_panic(expected = "mempool slot released twice")]
    fn releasing_a_slot_twice_panics() {
        let mut pool = Mempool::new(MempoolPolicy::UNBOUNDED);
        pool.admit(tx(0, 0)).unwrap();
        let slots = pool.take_batch_ids(1, u64::MAX, |_| true);
        pool.release(slots[0]);
        pool.release(slots[0]);
    }

    #[test]
    fn the_pool_matches_a_plain_queue_model() {
        use diablo_testkit::gen::{u32s, u8s, vecs};
        use diablo_testkit::{prop_assert, prop_assert_eq, Property};

        // Each step is `(what, a, b)`: admit from sender `a`, available
        // at `b`; drain up to `a` (or a byte budget of `a` + 1 records)
        // of those available by `b`; release the `a`-th outstanding
        // batch; evict sender `a`'s records available by `b`.
        let steps = vecs((u8s(0..=9), u32s(0..=5), u32s(0..=12)), 0..=120);
        let policies = [
            MempoolPolicy::UNBOUNDED,
            MempoolPolicy::bounded(6),
            MempoolPolicy {
                capacity: Some(10),
                per_sender: Some(2),
            },
        ];
        Property::new("the_pool_matches_a_plain_queue_model")
            .cases(300)
            .check(&(u8s(0..=2), steps), |(policy, steps)| {
                let policy = policies[*policy as usize];
                let mut pool = Mempool::new(policy);
                // The model: the queued records themselves, oldest first.
                let mut model: VecDeque<TxMeta> = VecDeque::new();
                let mut in_flight = [0u32; 6];
                let (mut admitted, mut full, mut capped) = (0u64, 0u64, 0u64);
                let mut batches: Vec<Vec<u32>> = Vec::new();
                let mut peak = 0;
                for (k, &(what, a, b)) in steps.iter().enumerate() {
                    let record = TxMeta {
                        wire_bytes: 100 + 10 * a,
                        available: SimTime::from_micros(b as u64),
                        ..tx(k as TxId, a)
                    };
                    let ready = |t: &TxMeta| t.available <= SimTime::from_micros(b as u64);
                    match what {
                        0..=3 => {
                            let want = if policy
                                .per_sender
                                .is_some_and(|cap| in_flight[a as usize] >= cap)
                            {
                                capped += 1;
                                Err(AdmitError::PerSenderLimit)
                            } else if policy.capacity.is_some_and(|cap| model.len() >= cap) {
                                full += 1;
                                Err(AdmitError::PoolFull)
                            } else {
                                admitted += 1;
                                in_flight[a as usize] += 1;
                                model.push_back(record);
                                Ok(())
                            };
                            prop_assert_eq!(pool.admit(record), want, "admission of step {}", k);
                        }
                        4..=6 => {
                            let (max, max_bytes) = match what {
                                4 => (a as usize, u64::MAX),
                                _ => (usize::MAX, 100 * (a as u64 + 1)),
                            };
                            // A pass over the whole queue: take while the
                            // budget lasts, keep everything else in order.
                            let (mut want, mut kept, mut bytes) = (Vec::new(), VecDeque::new(), 0);
                            let mut open = true;
                            for t in model.drain(..) {
                                open &=
                                    want.len() < max && bytes + t.wire_bytes as u64 <= max_bytes;
                                if open && ready(&t) {
                                    bytes += t.wire_bytes as u64;
                                    in_flight[t.sender as usize] -= 1;
                                    want.push(t.id);
                                } else {
                                    kept.push_back(t);
                                }
                            }
                            model = kept;
                            let slots = pool.take_batch_ids(max, max_bytes, ready);
                            let got: Vec<TxId> = slots.iter().map(|&s| pool.meta(s).id).collect();
                            prop_assert_eq!(got, want, "drain of step {}", k);
                            batches.push(slots);
                        }
                        7..=8 => {
                            if !batches.is_empty() {
                                let batch = batches.remove(a as usize % batches.len());
                                for slot in batch {
                                    let id = pool.meta(slot).id;
                                    prop_assert_eq!(pool.release(slot).id, id);
                                }
                            }
                        }
                        _ => {
                            let dead = |t: &TxMeta| t.sender == a && ready(t);
                            let want: Vec<TxId> =
                                model.iter().filter(|t| dead(t)).map(|t| t.id).collect();
                            for t in model.iter().filter(|t| dead(t)) {
                                in_flight[t.sender as usize] -= 1;
                            }
                            model.retain(|t| !dead(t));
                            prop_assert_eq!(pool.evict_where(dead), want, "eviction of step {}", k);
                        }
                    }
                    let want: Vec<TxId> = model.iter().map(|t| t.id).collect();
                    prop_assert_eq!(queued(&pool), want, "queue after step {}", k);
                    prop_assert_eq!(
                        (
                            pool.admitted_total(),
                            pool.dropped_full(),
                            pool.dropped_sender()
                        ),
                        (admitted, full, capped)
                    );
                    for (sender, &n) in in_flight.iter().enumerate() {
                        prop_assert_eq!(pool.per_sender.get(sender).copied().unwrap_or(0), n);
                    }
                    // Slots are reused: there are never more of them than
                    // records held at once, queued or drained.
                    peak = peak.max(model.len() + batches.iter().map(Vec::len).sum::<usize>());
                    prop_assert!(
                        pool.slots.len() <= peak,
                        "{} slots, peak {peak}",
                        pool.slots.len()
                    );
                }
                Ok(())
            });
    }
}
