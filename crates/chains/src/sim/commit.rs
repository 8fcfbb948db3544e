//! The data and execution layers: what goes into a block and what
//! committing it does — pool drain, execution, the state store's
//! merkleize → persist → prune stages, finality and expiry.

use diablo_sim::{SimDuration, SimTime};
use diablo_store::{BlockRoots, ReceiptRec, StateDelta};
use diablo_telemetry::trace::TraceStage;

use super::{ChainSim, PendingFinality};
use crate::records::{BlockRecord, TxStatus};
use crate::tx::Payload;

impl ChainSim {
    /// Effective per-block transaction capacity after gas limits and
    /// admission-overload degradation.
    pub(super) fn block_capacity(&self, now: SimTime) -> usize {
        let by_gas = (self.params.block_gas_limit / self.gas_estimate) as usize;
        let mut base = self.params.block_tx_limit.min(by_gas.max(1));
        let is_invoke_run = self.engine.contract().is_some();
        if is_invoke_run {
            // Writes to one hot contract serialize in parallel runtimes
            // (Solana's banking stage): a hard per-block invoke cap.
            if let Some(cap) = self.params.invoke_tx_per_block {
                base = base.min(cap);
            }
        }
        // Offered load above the node's admission rate steals cycles
        // from block production (signature checks, prevalidation, pool
        // churn); contract calls cost `invoke_weight` transfers each.
        let sec = now.second_bucket() as usize;
        let weight = if is_invoke_run {
            self.params.invoke_weight
        } else {
            1.0
        };
        let arrivals = self.arrival_per_sec.get(sec).copied().unwrap_or(0) as f64 * weight;
        let overload = (arrivals / self.params.admission_rate - 1.0).max(0.0);
        let mult = 1.0 / (1.0 + self.params.overload_degradation * overload * overload);
        ((base as f64 * mult) as usize).max(1)
    }

    /// Evicts expired transactions (Solana's recent-blockhash rule).
    pub(super) fn evict_expired(&mut self, now: SimTime) {
        if let Some(expiry) = self.params.blockhash_expiry {
            let evicted = self.pool.evict_where(|tx| now.since(tx.submitted) > expiry);
            for id in evicted {
                self.records[id as usize].status = TxStatus::DroppedExpired;
                self.records[id as usize].decided = Some(now);
                self.trace(id, TraceStage::DroppedExpired, now, 0, 0);
            }
        }
    }

    /// Finalizes blocks that have gained confirmation depth.
    fn settle_finality(&mut self) {
        let depth = self.params.confirmations as u64;
        let now_height = self.height;
        while let Some(front) = self.awaiting.front() {
            if front.height + depth > now_height {
                break;
            }
            let block = self.awaiting.pop_front().expect("front exists");
            // The decision instant is the commit of the depth-th
            // successor block plus the client's detection delay.
            let confirm_height = block.height + depth;
            let confirm_at = self.blocks[(confirm_height - 1) as usize].committed;
            let decided = confirm_at.max(block.committed) + self.params.detection_delay;
            for (id, ok) in block.txs {
                let rec = &mut self.records[id as usize];
                rec.decided = Some(decided);
                rec.status = if ok {
                    TxStatus::Committed
                } else {
                    TxStatus::Failed
                };
                self.trace(id, TraceStage::Finalized, decided, ok as u64, 0);
            }
        }
    }

    /// Runs the store's merkleize → persist → prune stages for the
    /// block just appended at `self.height`, returning the block's
    /// roots. A no-op (`None`) when the run did not enable storage.
    ///
    /// A block that executed something (`changed`) hands the store the
    /// entries it wrote, drained from the contract state's write log;
    /// the store re-hashes those paths only. Empty blocks, and chains
    /// without a contract, carry the previous state root forward.
    fn persist_block(
        &mut self,
        committed: SimTime,
        bytes: u32,
        recs: &[ReceiptRec],
        changed: bool,
        touched: &[(u32, u32)],
    ) -> Option<BlockRoots> {
        let store = self.store.as_mut()?;
        let state = if changed {
            self.engine.contract_state_mut()
        } else {
            None
        };
        let drained = state.map(|state| (state.drain_writes(), &*state));
        let delta = drained.as_ref().map(|(written, state)| StateDelta {
            written,
            blob_bytes: state.blob_bytes(),
            blob_count: state.blob_count(),
        });
        let roots = store.commit_block(
            self.height,
            committed.as_micros(),
            bytes,
            recs,
            delta,
            touched,
        );
        if let Some((_, state)) = drained {
            // The from-scratch fold is the oracle: a write the log
            // missed, or a path the table did not re-hash, shows here.
            debug_assert_eq!(
                store.storage().root(),
                diablo_store::trie::root(&state.sorted_entries()),
                "incremental state root diverged at height {}",
                self.height
            );
        }
        Some(roots)
    }

    /// Advances the chain by one empty block (skipped or empty slots
    /// still deepen confirmations).
    pub(super) fn commit_empty(&mut self, committed: SimTime) {
        diablo_telemetry::counter!("consensus.blocks.empty");
        self.height += 1;
        self.blocks.push(BlockRecord {
            height: self.height,
            committed,
            txs: 0,
            bytes: 0,
        });
        self.persist_block(committed, 0, &[], false, &[]);
        self.settle_finality();
    }

    /// Fills a block from the pool, executes it and queues finality.
    ///
    /// `exec_share` is the (unjittered) verification-plus-execution
    /// estimate the proposing arm folded into `committed`; zero for the
    /// consensus models whose fitted rounds absorb execution. The
    /// consensus-phase latency histogram and the tracer's `ordered`
    /// stamp both exclude it, so the per-phase table and the per-tx
    /// waterfall attribute that time to execution exactly once.
    pub(super) fn commit_block(&mut self, now: SimTime, committed: SimTime, exec_share: SimDuration) {
        let capacity = self.block_capacity(now);
        let fee = &self.fee;
        let broken = &self.broken_from;
        // Drain by slot: records stay in the pool while the block is
        // assembled and executed, and the slots are freed at the end —
        // no owned copies on the per-block path.
        let batch = self
            .pool
            .take_batch_ids(capacity, self.params.block_bytes_limit, |tx| {
                tx.available <= now
                    && fee.is_eligible(tx.fee_cap_millis)
                    && tx.id < broken[tx.sender as usize]
            });
        let fill = batch.len() as f64 / capacity.max(1) as f64;
        self.fee.on_block(fill);
        diablo_telemetry::counter!("consensus.blocks.committed");
        diablo_telemetry::record!("consensus.block.txs", batch.len() as u64);
        diablo_telemetry::record_duration!(
            "consensus.commit_latency_us",
            committed.since(now).saturating_sub(exec_share)
        );
        // Queueing delay: submission to inclusion in a block.
        let waits = batch.iter().map(|&id| now.since(self.pool.meta(id).submitted).as_micros());
        diablo_telemetry::record_all("mempool.queue_wait_us", waits);
        if let Some(tracer) = &mut self.tracer {
            let round = self.rounds;
            let block = self.height + 1;
            let ordered_us = committed.as_micros().saturating_sub(exec_share.as_micros());
            for &id in &batch {
                let tid = self.pool.meta(id).id as u64;
                tracer.emit(tid, TraceStage::Selected, now.as_micros(), round, 0);
                tracer.emit(tid, TraceStage::Ordered, ordered_us, round, block);
            }
        }
        self.height += 1;
        let block_bytes: u32 = batch.iter().map(|&id| self.pool.meta(id).wire_bytes).sum();
        self.blocks.push(BlockRecord {
            height: self.height,
            committed,
            txs: batch.len() as u32,
            bytes: block_bytes,
        });
        if !batch.is_empty() {
            // The whole batch goes through the engine at once so a
            // parallel-configured engine can schedule its conflict-free
            // transactions across workers; costs come back in canonical
            // order either way.
            let payloads: Vec<Payload> = batch.iter().map(|&id| self.pool.meta(id).payload).collect();
            let costs = self.engine.execute_block(&payloads);
            if let Some(tracer) = &mut self.tracer {
                // The mode code and per-transaction execution counts are
                // the executor-dependent annotations: they live in the
                // trace set (and on the wire) but never in the Chrome
                // export, which must stay byte-identical across modes.
                let mode = self.engine.concurrency().code();
                let counts = self.engine.last_exec_counts();
                for (&id, &count) in batch.iter().zip(counts) {
                    let tid = self.pool.meta(id).id as u64;
                    tracer.emit(tid, TraceStage::Executed, committed.as_micros(), mode, count as u64);
                }
            }
            if self.store.is_some() {
                // Receipts in block order; the touched-accounts delta
                // aggregated and sorted by dense sender id.
                let recs: Vec<ReceiptRec> = batch
                    .iter()
                    .zip(&costs)
                    .map(|(&id, cost)| ReceiptRec {
                        id: self.pool.meta(id).sender,
                        ok: cost.ok,
                        gas: cost.gas,
                    })
                    .collect();
                let mut touched: Vec<(u32, u32)> = Vec::with_capacity(recs.len());
                let mut senders: Vec<u32> = recs.iter().map(|r| r.id).collect();
                senders.sort_unstable();
                for sender in senders {
                    match touched.last_mut() {
                        Some((id, n)) if *id == sender => *n += 1,
                        _ => touched.push((sender, 1)),
                    }
                }
                let roots = self.persist_block(committed, block_bytes, &recs, true, &touched);
                if let (Some(roots), Some(tracer)) = (roots, &mut self.tracer) {
                    for &id in &batch {
                        let tid = self.pool.meta(id).id as u64;
                        tracer.emit(
                            tid,
                            TraceStage::Persisted,
                            committed.as_micros(),
                            roots.state_root.0[0],
                            self.height,
                        );
                    }
                }
            }
            let txs = batch
                .iter()
                .zip(&costs)
                .map(|(&id, cost)| (self.pool.meta(id).id, cost.ok))
                .collect();
            self.awaiting.push_back(PendingFinality {
                height: self.height,
                committed,
                txs,
            });
        } else {
            self.persist_block(committed, 0, &[], false, &[]);
        }
        for id in batch {
            self.pool.release(id);
        }
        self.settle_finality();
    }
}
