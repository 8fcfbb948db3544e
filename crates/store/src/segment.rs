//! Append-only segmented logs, the static-file layer of the store.
//!
//! Block headers and receipts are immutable once committed, so they are
//! written to fixed-span *segments* (reth's static files, NVMf-style):
//! each segment owns a contiguous height range and packs its records
//! into one byte buffer plus an offset index. Random access is two
//! array lookups; pruning drops whole segments at the front, never
//! rewrites one — which is what makes the prune stage O(segments
//! dropped), independent of how much data each held.
//!
//! The buffers are in-memory stand-ins for files: the simulator models
//! data-layout cost (resident bytes, records, segment churn), it does
//! not do I/O.

use std::collections::VecDeque;

/// One contiguous run of records, `seg_blocks` heights wide.
#[derive(Debug, Clone)]
struct Segment {
    /// Height of the first record in this segment.
    first: u64,
    /// Concatenated record payloads.
    buf: Vec<u8>,
    /// `(offset, len)` of each record within `buf`, in height order.
    index: Vec<(u32, u32)>,
}

/// An append-only log of per-height byte records in fixed-span
/// segments.
#[derive(Debug, Clone)]
pub struct SegmentedLog {
    seg_blocks: u64,
    segments: VecDeque<Segment>,
    /// Next height expected by [`SegmentedLog::append`]; heights start
    /// at 1, matching the chains' genesis convention.
    next_height: u64,
    pruned_records: u64,
    pruned_bytes: u64,
}

impl SegmentedLog {
    /// A new empty log cutting a fresh segment every `seg_blocks`
    /// heights (min 1).
    pub fn new(seg_blocks: u64) -> SegmentedLog {
        SegmentedLog {
            seg_blocks: seg_blocks.max(1),
            segments: VecDeque::new(),
            next_height: 1,
            pruned_records: 0,
            pruned_bytes: 0,
        }
    }

    /// Which segment-first height covers `height`.
    fn segment_first(&self, height: u64) -> u64 {
        // Heights start at 1, so segment boundaries fall at
        // 1, 1+span, 1+2*span, ...
        (height - 1) / self.seg_blocks * self.seg_blocks + 1
    }

    /// Appends the record for the next height and returns that height.
    ///
    /// The log is strictly sequential by design — blocks commit in
    /// order — so there is no `append_at`.
    pub fn append(&mut self, bytes: &[u8]) -> u64 {
        let height = self.next_height;
        self.next_height += 1;
        let first = self.segment_first(height);
        let cut_new = match self.segments.back() {
            Some(seg) => seg.first != first,
            None => true,
        };
        if cut_new {
            self.segments.push_back(Segment {
                first,
                buf: Vec::new(),
                index: Vec::new(),
            });
        }
        let seg = self.segments.back_mut().expect("segment just ensured");
        let offset = seg.buf.len() as u32;
        seg.buf.extend_from_slice(bytes);
        seg.index.push((offset, bytes.len() as u32));
        height
    }

    /// The record at `height`, or `None` if never written or pruned.
    pub fn get(&self, height: u64) -> Option<&[u8]> {
        if height == 0 || height >= self.next_height {
            return None;
        }
        let first = self.segment_first(height);
        // Front segments may be pruned; binary search over the (sorted)
        // remaining firsts.
        let idx = self
            .segments
            .binary_search_by_key(&first, |s| s.first)
            .ok()?;
        let seg = &self.segments[idx];
        let (offset, len) = *seg.index.get((height - seg.first) as usize)?;
        Some(&seg.buf[offset as usize..(offset + len) as usize])
    }

    /// Drops every segment that lies entirely below `horizon` (the
    /// first height that must stay resident). Partial segments are
    /// kept whole — pruning never rewrites a segment.
    pub fn prune_below(&mut self, horizon: u64) -> u64 {
        let mut dropped = 0;
        while let Some(seg) = self.segments.front() {
            let seg_end = seg.first + seg.index.len() as u64; // exclusive
            let full = seg.index.len() as u64 == self.seg_blocks;
            if full && seg_end <= horizon {
                self.pruned_records += seg.index.len() as u64;
                self.pruned_bytes += seg.buf.len() as u64;
                self.segments.pop_front();
                dropped += 1;
            } else {
                break;
            }
        }
        dropped
    }

    /// Height the next append will receive.
    pub fn next_height(&self) -> u64 {
        self.next_height
    }

    /// Records currently resident (appended minus pruned).
    pub fn resident_records(&self) -> u64 {
        self.segments.iter().map(|s| s.index.len() as u64).sum()
    }

    /// Payload bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.buf.len() as u64).sum()
    }

    /// Records dropped by pruning so far.
    pub fn pruned_records(&self) -> u64 {
        self.pruned_records
    }

    /// Payload bytes dropped by pruning so far.
    pub fn pruned_bytes(&self) -> u64 {
        self.pruned_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(height: u64) -> Vec<u8> {
        // Variable-length so offsets are exercised.
        let mut v = height.to_le_bytes().to_vec();
        v.extend(std::iter::repeat(height as u8).take((height % 5) as usize));
        v
    }

    #[test]
    fn append_get_round_trip() {
        let mut log = SegmentedLog::new(4);
        for h in 1..=11 {
            assert_eq!(log.append(&rec(h)), h);
        }
        for h in 1..=11 {
            assert_eq!(log.get(h), Some(rec(h).as_slice()), "height {h}");
        }
        assert_eq!(log.get(0), None);
        assert_eq!(log.get(12), None);
        // Heights 1..=11 at 4/segment: [1..4][5..8][9..11].
        assert_eq!(log.segments.len(), 3);
        assert_eq!(log.resident_records(), 11);
    }

    #[test]
    fn prune_drops_whole_cold_segments_only() {
        let mut log = SegmentedLog::new(4);
        for h in 1..=11 {
            log.append(&rec(h));
        }
        let before_bytes = log.resident_bytes();
        // Horizon 6: segment [1..4] is entirely below it, [5..8] is not.
        assert_eq!(log.prune_below(6), 1);
        assert_eq!(log.segments.len(), 2);
        assert_eq!(log.get(3), None);
        assert_eq!(log.get(5), Some(rec(5).as_slice()));
        assert_eq!(log.pruned_records(), 4);
        assert_eq!(
            log.resident_bytes() + log.pruned_bytes(),
            before_bytes,
            "bytes are moved to the pruned counter, not lost"
        );
        // The live tail segment is never pruned even when below horizon.
        assert_eq!(log.prune_below(u64::MAX), 1);
        assert_eq!(log.segments.len(), 1);
        assert_eq!(log.get(9), Some(rec(9).as_slice()));
    }

    #[test]
    fn appends_continue_after_prune() {
        let mut log = SegmentedLog::new(2);
        for h in 1..=6 {
            log.append(&rec(h));
        }
        log.prune_below(5);
        assert_eq!(log.append(&rec(7)), 7);
        assert_eq!(log.get(7), Some(rec(7).as_slice()));
        assert_eq!(log.next_height(), 8);
    }
}
