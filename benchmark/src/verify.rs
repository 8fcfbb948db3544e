//! Output checks: a run that fails any of them counts as failed and
//! contributes no latency sample.

use diablo_chains::{RunResult, TxStatus};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words (the inputs are already word-shaped, and a
/// byte-wise pass over 120,000 records would rival the work measured).
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Hashes a byte string word by word, the tail byte by byte.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
    }
    chunks
        .remainder()
        .iter()
        .fold(h, |h, &b| mix(h, u64::from(b)))
}

/// The fingerprint of a run's simulated outcome: every record, every
/// block and the storage root. Two runs of the same inputs must agree
/// on it whatever the host did in between.
pub fn fingerprint(result: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    for rec in &result.records {
        h = mix(h, rec.submitted.as_micros());
        h = mix(h, rec.decided.map_or(u64::MAX, |d| d.as_micros()));
        h = mix(h, rec.status as u64);
    }
    for block in &result.blocks {
        h = mix(h, block.height);
        h = mix(h, block.committed.as_micros());
        h = mix(h, u64::from(block.txs) << 32 | u64::from(block.bytes));
    }
    if let Some(storage) = &result.storage {
        h = mix(h, hash_bytes(storage.root_hex.as_bytes()));
    }
    h
}

/// What a workload states about how many of its transactions commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commits {
    /// Every planned transaction commits.
    All,
    /// Every transaction commits except the few the injected corruption
    /// rejects after the client's retries ran out (under 1%).
    AllButRejected,
    /// The mempool sheds part of the load: some transactions commit,
    /// some are dropped at admission, none end otherwise.
    Shedding,
}

/// Transactions dropped at admission or evicted from the pool.
pub fn dropped(result: &RunResult) -> u64 {
    result.count_status(TxStatus::DroppedPoolFull)
        + result.count_status(TxStatus::DroppedPerSender)
        + result.count_status(TxStatus::DroppedExpired)
}

/// Checks conservation and the workload's stated commit count.
pub fn check(result: &RunResult, planned: u64, commits: Commits) -> Result<(), String> {
    if let Some(reason) = &result.unable_reason {
        return Err(format!("chain unable to run: {reason}"));
    }
    if result.submitted() != planned {
        return Err(format!(
            "{} records for {planned} planned transactions",
            result.submitted()
        ));
    }
    let committed = result.committed();
    let rejected = result.count_status(TxStatus::Rejected);
    let dropped = dropped(result);
    let ok = match commits {
        Commits::All => committed == planned,
        Commits::AllButRejected => committed + rejected == planned && rejected * 100 < planned,
        Commits::Shedding => committed + dropped == planned && committed > 0 && dropped > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "commit count missed ({commits:?}): {committed} committed, {dropped} dropped, \
             {rejected} rejected, {} pending, {} failed of {planned}",
            result.count_status(TxStatus::Pending),
            result.count_status(TxStatus::Failed)
        ))
    }
}

/// Checks that the emitted results JSON re-parses with the program's
/// own reader to the transaction counts of `result`.
pub fn json_matches(json: &str, result: &RunResult) -> Result<(), String> {
    let stats = diablo_core::json::read_result_stats(json)
        .map_err(|e| format!("results JSON does not re-parse: {e}"))?;
    if stats.sent == result.submitted() && stats.committed == result.committed() {
        Ok(())
    } else {
        Err(format!(
            "results JSON re-parses to {} sent, {} committed",
            stats.sent, stats.committed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_covers_the_tail() {
        assert_ne!(hash_bytes(b"12345678a"), hash_bytes(b"12345678b"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }
}
