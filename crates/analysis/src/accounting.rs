//! [`ChunkLedger`]: which chunk body each arrival belongs to, decided
//! once, as the arrival lands.

use mpdash_link::PathId;
use mpdash_mptcp::PktRecord;
use mpdash_sim::{DssRange, GiveBackSlack, SimDuration, SimTime};

/// Inter-arrival gaps longer than this are the idle periods MP-DASH
/// "eliminates" in Figure 8.
pub const IDLE_GAP: SimDuration = SimDuration::from_millis(500);

/// One fetched chunk: what the session logged about it, and its body
/// bytes by path ([`PathId::index`]: WiFi, then cellular) under the two
/// attribution rules, which differ on purpose.
///
/// * **Overlap** (the §6 tool's rule, Figure 8): each arrival
///   contributes the bytes of it that lie inside the body, so a packet
///   straddling a header/body or body/body boundary is split.
/// * **First byte** (the outage split): each arrival counts whole
///   toward the body holding its first byte, so a straddling packet
///   counts once, where it starts.
///
/// Retransmitted duplicates count on the path they arrived on (they cost
/// that radio's bytes), so either can slightly exceed the body size,
/// exactly like counting wire bytes in a real capture.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRecord {
    /// Chunk index.
    pub index: usize,
    /// Quality level fetched (0-based, ascending).
    pub level: usize,
    /// Body bytes.
    pub size: u64,
    /// Request issue time.
    pub started: SimTime,
    /// Last body byte arrival.
    pub completed: SimTime,
    /// Connection-stream range of the body. For a chunk delivered across
    /// several requests (abandon + byte-range resume), this is the
    /// *final* request's range, so its length can be smaller than `size`.
    pub body_dss: DssRange,
    /// The MP-DASH window granted, `None` when the adapter bypassed.
    pub deadline: Option<SimDuration>,
    /// HTTP requests it took to deliver the chunk (1 = the normal case;
    /// more after retries or abandon/resume cycles).
    pub requests: u32,
    /// Body bytes by path under the overlap rule.
    pub overlap_bytes: [u64; 2],
    /// Bytes by path under the first-byte rule.
    pub first_byte_bytes: [u64; 2],
}

impl ChunkRecord {
    /// Fraction of the chunk's overlap-attributed bytes that used
    /// cellular.
    pub(crate) fn cell_fraction(&self) -> f64 {
        let [wifi, cell] = self.overlap_bytes;
        if wifi + cell == 0 {
            0.0
        } else {
            cell as f64 / (wifi + cell) as f64
        }
    }

    /// Outage-bridged: under the first-byte rule, the `preferred` path
    /// carried under 10% of the chunk while the other carried some —
    /// cellular covering a WiFi fault window (or vice versa under
    /// CellularFirst).
    pub fn outage_bridged(&self, preferred: PathId) -> bool {
        let on = self.first_byte_bytes[preferred.index()];
        let other = self.first_byte_bytes.iter().sum::<u64>() - on;
        other > 0 && on * 10 < on + other
    }
}

/// An arrival that may still reach a chunk not finished yet, in 8 bytes:
/// its `dss`, `len` and whether it rode cellular, from the low bit up.
#[derive(Clone, Copy)]
struct Waiting(u64);

const LEN_SHIFT: u32 = 48;
const CELL_BIT: u32 = 63;

impl Waiting {
    fn pack(r: PktRecord) -> Self {
        assert!(
            r.dss < 1 << LEN_SHIFT && r.len < 1 << (CELL_BIT - LEN_SHIFT) && r.path.index() < 2,
            "chunk ledger: dss {}, len {} or {} past its packed width",
            r.dss,
            r.len,
            r.path
        );
        Waiting(r.dss | r.len << LEN_SHIFT | (r.path.index() as u64) << CELL_BIT)
    }

    fn dss(self) -> u64 {
        self.0 & ((1 << LEN_SHIFT) - 1)
    }

    fn len(self) -> u64 {
        self.0 >> LEN_SHIFT & ((1 << (CELL_BIT - LEN_SHIFT)) - 1)
    }

    fn path(self) -> usize {
        (self.0 >> CELL_BIT) as usize
    }
}

/// The session's chunk log, attributed online: every arrival is read
/// once, as the session's step reports it, so a session that keeps no
/// packet log (every fleet client but the traced one) attributes exactly
/// as one that does.
///
/// Chunks finish in stream order with ascending, disjoint bodies. An
/// arrival's bytes below the last finished body's end can only be a
/// finished chunk's (a late retransmission counts toward the chunk it
/// lands in); an arrival reaching past it waits until finished chunks
/// have passed its last byte. What waits is the chunk in flight's
/// arrivals, nothing older.
#[derive(Default)]
pub struct ChunkLedger {
    chunks: Vec<ChunkRecord>,
    waiting: Vec<Waiting>,
    last_arrival: Option<SimTime>,
    idle_gaps: u64,
}

impl ChunkLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// One arrival, in the order the receiver took them.
    pub fn on_arrival(&mut self, r: PktRecord) {
        if let Some(prev) = self.last_arrival.replace(r.t) {
            self.idle_gaps += u64::from(r.t.saturating_since(prev) > IDLE_GAP);
        }
        let (lo, hi, path) = (r.dss, r.dss + r.len, r.path.index());
        let end = self.chunks.last().map_or(0, |c| c.body_dss.end);
        if lo < end {
            let i = self.chunks.partition_point(|c| c.body_dss.end <= lo);
            if self.chunks[i].body_dss.start <= lo {
                self.chunks[i].first_byte_bytes[path] += r.len;
            }
            for c in self.chunks[i..].iter_mut() {
                if c.body_dss.start >= hi {
                    break;
                }
                c.overlap_bytes[path] += c.body_dss.overlap(lo, hi);
            }
        }
        if hi > end {
            self.waiting.push(Waiting::pack(r));
        }
    }

    /// A chunk finished: its body takes what waited inside it, and an
    /// arrival no later body can reach stops waiting. `chunk`'s
    /// attribution is the ledger's to fill.
    pub fn on_chunk(&mut self, mut chunk: ChunkRecord) {
        let body = chunk.body_dss;
        debug_assert!(
            self.chunks
                .last()
                .is_none_or(|c| c.body_dss.end <= body.start),
            "chunk bodies must ascend"
        );
        chunk.overlap_bytes = [0; 2];
        chunk.first_byte_bytes = [0; 2];
        self.waiting.retain(|w| {
            let (lo, hi) = (w.dss(), w.dss() + w.len());
            if body.start <= lo && lo < body.end {
                chunk.first_byte_bytes[w.path()] += w.len();
            }
            chunk.overlap_bytes[w.path()] += body.overlap(lo, hi);
            hi > body.end
        });
        self.waiting.give_back_slack();
        self.chunks.push(chunk);
    }

    /// The finished chunks, in stream order.
    pub fn chunks(&self) -> &[ChunkRecord] {
        &self.chunks
    }

    /// Inter-arrival gaps longer than [`IDLE_GAP`] so far.
    pub fn idle_gaps(&self) -> u64 {
        self.idle_gaps
    }

    /// The finished chunks, the ledger given up.
    pub fn into_chunks(self) -> Vec<ChunkRecord> {
        self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chunk_path_splits, idle_gaps};

    /// The first-byte rule as a batch over the whole capture: one binary
    /// search per record among every chunk the session finished.
    fn first_byte_by_search(chunks: &[ChunkRecord], records: &[PktRecord]) -> Vec<[u64; 2]> {
        let mut split = vec![[0u64; 2]; chunks.len()];
        for r in records {
            let i = chunks.partition_point(|c| c.body_dss.end <= r.dss);
            if chunks.get(i).is_some_and(|c| c.body_dss.start <= r.dss) {
                split[i][r.path.index()] += r.len;
            }
        }
        split
    }

    fn chunk(index: usize, start: u64, end: u64) -> ChunkRecord {
        ChunkRecord {
            index,
            level: 0,
            size: end - start,
            started: SimTime::ZERO,
            completed: SimTime::ZERO,
            body_dss: DssRange { start, end },
            deadline: None,
            requests: 1,
            overlap_bytes: [0; 2],
            first_byte_bytes: [0; 2],
        }
    }

    fn arrival(secs: u64, path: PathId, dss: u64, len: u64) -> PktRecord {
        PktRecord {
            t: SimTime::from_secs(secs),
            path,
            len,
            dss,
            retx: false,
        }
    }

    #[test]
    fn a_waiting_arrival_packs_into_8_bytes_and_back() {
        assert_eq!(std::mem::size_of::<Waiting>(), 8);
        let widest = PktRecord {
            t: SimTime::ZERO,
            path: PathId::CELLULAR,
            len: (1 << 15) - 1,
            dss: (1 << 48) - 1,
            retx: false,
        };
        for r in [
            widest,
            PktRecord {
                path: PathId::WIFI,
                ..widest
            },
        ] {
            let w = Waiting::pack(r);
            assert_eq!((w.dss(), w.len(), w.path()), (r.dss, r.len, r.path.index()));
        }
    }

    /// A finished chunk costs what its log entry and its outage-split
    /// entry cost before the two merged.
    #[test]
    fn a_chunk_record_is_no_larger_than_the_log_entry_and_split_it_replaced() {
        assert_eq!(std::mem::size_of::<ChunkRecord>(), 80 + 32);
    }

    /// Two chunks, bodies `[100, 1100)` and `[1300, 2300)`: a header
    /// packet straddling into the first body, one straddling the
    /// body/header/body boundary, and a retransmission into the first
    /// body after both finished. The overlap rule splits the straddlers;
    /// the first-byte rule counts each whole where it starts.
    #[test]
    fn straddling_and_late_arrivals_split_by_both_rules() {
        let mut ledger = ChunkLedger::new();
        ledger.on_arrival(arrival(0, PathId::WIFI, 0, 300)); // header 100 + body 200
        ledger.on_arrival(arrival(1, PathId::CELLULAR, 300, 700)); // rest of the body
        ledger.on_arrival(arrival(1, PathId::WIFI, 1000, 400)); // 100 | header | 100
        ledger.on_chunk(chunk(0, 100, 1100));
        ledger.on_arrival(arrival(2, PathId::CELLULAR, 1400, 900)); // the second body's rest
        ledger.on_chunk(chunk(1, 1300, 2300));
        ledger.on_arrival(arrival(4, PathId::CELLULAR, 500, 100)); // late, into chunk 0
        let [a, b] = ledger.chunks() else {
            panic!("two chunks")
        };
        assert_eq!(a.overlap_bytes, [200 + 100, 700 + 100]);
        assert_eq!(a.first_byte_bytes, [400, 700 + 100]);
        assert_eq!(b.overlap_bytes, [100, 900]);
        assert_eq!(b.first_byte_bytes, [0, 900]);
        assert!(!a.outage_bridged(PathId::WIFI));
        assert!(b.outage_bridged(PathId::WIFI) && !b.outage_bridged(PathId::CELLULAR));
        // Arrivals at 0, 1, 1, 2 and 4 s: three gaps over 0.5 s.
        assert_eq!(ledger.idle_gaps(), 3);
    }

    proptest::proptest! {
        /// The online ledger against both batch rules it replaced, with
        /// chunk completions interleaved among the arrivals at random
        /// points: arrivals that jump anywhere in the stream, repeat
        /// (retransmissions, duplicates), step backwards, straddle a
        /// header/body or a body/body boundary, or fall in a header,
        /// before the first body or past the last one — into a chunk
        /// that already finished, the one in flight, or one not yet
        /// requested — are attributed exactly as a search per record
        /// (first byte) and [`chunk_path_splits`] (overlap) attribute
        /// them over the final chunk list, and its idle gaps are the
        /// capture's.
        #[test]
        fn the_online_split_equals_a_search_per_record(
            bodies in proptest::collection::vec(1u64..60_000, 1..12),
            headers in proptest::collection::vec(0u64..900, 12..13),
            draws in proptest::collection::vec(0u64..1_000_000, 0..600),
            finish_at in proptest::collection::vec(0usize..600, 12..13),
        ) {
            let mut at = 0;
            let chunks: Vec<ChunkRecord> = bodies
                .iter()
                .zip(&headers)
                .enumerate()
                .map(|(index, (&size, &header))| {
                    let start = at + header;
                    at = start + size;
                    chunk(index, start, at)
                })
                .collect();
            let stream_end = at + 3_000;
            let (mut dss, mut t) = (0u64, SimTime::ZERO);
            let records: Vec<PktRecord> = draws
                .iter()
                .map(|&d| {
                    let retx = d % 8 == 1;
                    dss = match d % 8 {
                        0 => d * 7919 % stream_end,     // reordered: anywhere
                        1 => dss,                       // the same bytes again
                        2 => dss.saturating_sub(d / 8 % 5_000), // a late arrival
                        _ => dss + 1460,                // in order
                    };
                    // Up to 0.6 s apart: some gaps are idle ones.
                    t += SimDuration::from_millis(d / 24 % 7 * 100);
                    PktRecord {
                        t,
                        path: if d / 8 % 3 == 0 { PathId::CELLULAR } else { PathId::WIFI },
                        len: 1 + d % 1460,
                        dss,
                        retx,
                    }
                })
                .collect();
            // Chunk `c` finishes before the arrival at `finish_at[c]`,
            // in order; chunks drawn past the capture finish after it.
            let mut finish_at: Vec<usize> = finish_at[..chunks.len()].to_vec();
            finish_at.sort_unstable();
            let mut ledger = ChunkLedger::new();
            let mut next = 0;
            for (i, &r) in records.iter().enumerate() {
                while next < chunks.len() && finish_at[next] <= i {
                    ledger.on_chunk(chunks[next]);
                    next += 1;
                }
                ledger.on_arrival(r);
            }
            for &c in &chunks[next..] {
                ledger.on_chunk(c);
            }
            let bodies: Vec<DssRange> = chunks.iter().map(|c| c.body_dss).collect();
            let online = ledger.chunks();
            proptest::prop_assert_eq!(
                online.iter().map(|c| c.first_byte_bytes).collect::<Vec<_>>(),
                first_byte_by_search(&chunks, &records)
            );
            proptest::prop_assert_eq!(
                online.iter().map(|c| c.overlap_bytes).collect::<Vec<_>>(),
                chunk_path_splits(records.iter().copied(), &bodies)
            );
            proptest::prop_assert_eq!(
                ledger.idle_gaps(),
                idle_gaps(records.iter().copied(), IDLE_GAP).len() as u64
            );
        }
    }
}
