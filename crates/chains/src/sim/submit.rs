//! The client side and the network up to the pool: each submission tick
//! draws its slice of the plan and injects it — corruption retries,
//! crash failover, gossip to the proposers, partition deferral — and ends
//! at mempool admission.

use std::iter::Peekable;

use diablo_sim::{SimDuration, SimTime};
use diablo_telemetry::trace::TraceStage;
use diablo_workloads::TICK_MS;

use super::ChainSim;
use crate::harness::PlannedTx;
use crate::mempool::{AdmitError, Mempool};
use crate::records::{TxRecord, TxStatus};
use crate::tx::TxMeta;

impl ChainSim {
    /// Submits the transactions of tick `k`: the entries `plan` yields
    /// before the tick's end.
    ///
    /// # Panics
    ///
    /// Panics if an entry is earlier than the one drawn before it.
    pub(super) fn submit_tick<P: Iterator<Item = PlannedTx>>(
        &mut self,
        k: u32,
        plan: &mut Peekable<P>,
    ) {
        let tick_end = SimTime::from_millis((k as u64 + 1) * TICK_MS);
        let nodes = self.qmodel.node_count().max(1);
        let (mut rerouted, mut corrupted, mut rejected, mut deferred) = (0u64, 0u64, 0u64, 0u64);
        let tallies = |p: &Mempool| [p.admitted_total(), p.dropped_full(), p.dropped_sender()];
        let pool_before = tallies(&self.pool);
        while let Some(planned) = plan.next_if(|tx| tx.at < tick_end) {
            if let Some(previous) = self.records.last() {
                assert!(
                    previous.submitted <= planned.at,
                    "plan must be sorted by time"
                );
            }
            let id = self.records.len() as u32;
            self.records.push(TxRecord::submitted_at(planned.at));
            self.trace(
                id,
                TraceStage::Submitted,
                planned.at,
                (planned.sender % self.params.accounts.max(1)) as u64,
                0,
            );
            // The collocated Secondary submits to its nearest node; the
            // transaction must gossip to the proposers before inclusion.
            let mut site = (id as usize) % nodes;
            let mut submit_at = planned.at;
            if !self.timeline.is_empty() {
                // Corrupted submissions are rejected by the node; the
                // client retries with exponential backoff until its
                // policy runs out, then reports the transaction
                // rejected.
                match self.resolve_submission(planned.at, &mut corrupted) {
                    Some(at) => {
                        if at > planned.at {
                            let delay = at.since(planned.at).as_micros();
                            self.trace(id, TraceStage::Retried, at, delay, 0);
                        }
                        submit_at = at;
                    }
                    None => {
                        rejected += 1;
                        let decided = planned.at + self.faults.retry_policy().timeout;
                        let rec = &mut self.records[id as usize];
                        rec.status = TxStatus::Rejected;
                        rec.decided = Some(decided);
                        self.trace(id, TraceStage::Rejected, decided, 0, 0);
                        continue;
                    }
                }
                // A crashed submission node refuses connections: the
                // client deterministically fails over to the next live
                // node.
                if self.timeline.is_crashed(site, submit_at) {
                    for off in 1..nodes {
                        let alt = (site + off) % nodes;
                        if !self.timeline.is_crashed(alt, submit_at) {
                            rerouted += 1;
                            self.trace(id, TraceStage::Rerouted, submit_at, alt as u64, 0);
                            site = alt;
                            break;
                        }
                    }
                }
            }
            let mut gossip = SimDuration::from_secs_f64(self.qmodel.median_delay_from(site));
            if !self.timeline.is_empty() {
                // Lost gossip messages are retransmitted: the expected
                // propagation time stretches by 1/(1-loss).
                let loss = self.timeline.loss_rate(submit_at, site);
                if loss > 0.0 {
                    gossip = SimDuration::from_secs_f64(gossip.as_secs_f64() / (1.0 - loss));
                }
            }
            self.gossip_us.push(gossip.as_micros());
            let mut available = submit_at + gossip;
            if !self.timeline.is_empty() {
                // A transaction entering a non-committing partition
                // component only reaches the proposers after the heal.
                if let Some(p) = self.timeline.partition_at(available) {
                    let comp = p.component.get(site).copied().unwrap_or(0);
                    if comp != p.committing {
                        let deferred_from = available;
                        available = available.max(p.until);
                        deferred += 1;
                        let deferral = available.since(deferred_from).as_micros();
                        self.trace(id, TraceStage::Deferred, available, deferral, 0);
                    }
                }
            }
            let tx = TxMeta {
                id,
                sender: planned.sender % self.params.accounts.max(1),
                payload: planned.payload,
                submitted: planned.at,
                available,
                wire_bytes: self.wire_estimate,
                fee_cap_millis: self.fee.sign_fee_cap_millis(),
            };
            let sender = tx.sender;
            match self.pool.admit(tx) {
                Ok(()) => {
                    self.trace(id, TraceStage::Admitted, available, 0, 0);
                }
                Err(AdmitError::PoolFull) => {
                    self.records[id as usize].status = TxStatus::DroppedPoolFull;
                    self.trace(id, TraceStage::DroppedPoolFull, available, 0, 0);
                    if self.params.nonce_gaps {
                        // The dropped nonce stalls every *later*
                        // transaction of this account (geth nonce
                        // ordering); earlier ones still commit.
                        let slot = &mut self.broken_from[sender as usize];
                        *slot = (*slot).min(id);
                    }
                }
                Err(AdmitError::PerSenderLimit) => {
                    self.records[id as usize].status = TxStatus::DroppedPerSender;
                    self.trace(id, TraceStage::DroppedPerSender, available, 0, 0);
                }
            }
        }
        diablo_telemetry::record_all("net.submit.gossip_us", self.gossip_us.drain(..));
        let pool = tallies(&self.pool);
        // The loop above never enters the recorder; its tallies do, once.
        // A counter exists from its first bump: a zero must not make one.
        for (name, n) in [
            ("client.submit.rerouted", rerouted),
            ("client.submit.corrupted", corrupted),
            ("client.submit.rejected", rejected),
            ("net.partition.deferred", deferred),
            ("mempool.admitted", pool[0] - pool_before[0]),
            ("mempool.dropped.pool_full", pool[1] - pool_before[1]),
            ("mempool.dropped.per_sender", pool[2] - pool_before[2]),
        ] {
            if n > 0 {
                diablo_telemetry::counter(name, n);
            }
        }
        // Only a tick fills the pool, so its end is where the peak is.
        diablo_telemetry::gauge!("mempool.depth_peak", self.pool.len() as i64);
    }

    /// Resolves one submission against the corruption faults and the
    /// client retry policy, adding its corrupted attempts to `corrupted`:
    /// returns the instant of the first accepted attempt, or `None` when
    /// every attempt within the policy's timeout window was rejected.
    fn resolve_submission(&mut self, planned_at: SimTime, corrupted: &mut u64) -> Option<SimTime> {
        let policy = self.faults.retry_policy();
        let deadline = planned_at + policy.timeout;
        let mut attempt_at = planned_at;
        let mut backoff = policy.backoff;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 && attempt_at > deadline {
                break;
            }
            let rate = self.timeline.corruption_rate(attempt_at);
            if rate > 0.0 && self.rng.chance(rate) {
                *corrupted += 1;
                attempt_at = attempt_at + backoff;
                backoff = backoff * 2;
                continue;
            }
            return Some(attempt_at);
        }
        None
    }
}
