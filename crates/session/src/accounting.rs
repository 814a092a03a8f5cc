//! What a session reads off each packet as it arrives: the radio meters
//! (§7.1) and the outage split (the `exp faults` bridging count).
//!
//! Each takes every arrival once, as its step reports it, so a session
//! that keeps no packet log (every fleet client but the traced one)
//! accounts exactly as one that does.

use crate::report::ChunkLogEntry;
use mpdash_energy::{DeviceProfile, RadioMeter, SessionEnergy};
use mpdash_http::DssRange;
use mpdash_link::PathId;
use mpdash_mptcp::PktRecord;
use mpdash_sim::{GiveBackSlack, SimDuration, SimTime};

/// Both radios of the session's device, fed arrivals on the session's
/// own clock: a staggered fleet client's packets land in `[origin,
/// origin + duration]`, and the accounting window is `[0, duration]`.
pub(crate) struct EnergyMeter {
    origin: SimTime,
    wifi: RadioMeter,
    lte: RadioMeter,
}

impl EnergyMeter {
    pub(crate) fn new(device: &DeviceProfile, origin: SimTime) -> Self {
        EnergyMeter {
            origin,
            wifi: RadioMeter::new(device.wifi),
            lte: RadioMeter::new(device.lte),
        }
    }

    pub(crate) fn on_arrival(&mut self, r: PktRecord) {
        let at = SimTime::ZERO + r.t.saturating_since(self.origin);
        match r.path {
            PathId::WIFI => self.wifi.push(at, r.len),
            PathId::CELLULAR => self.lte.push(at, r.len),
            _ => {}
        }
    }

    /// Both radios over `[0, horizon]` of the session's clock.
    pub(crate) fn finish(&self, horizon: SimDuration) -> SessionEnergy {
        SessionEnergy {
            wifi: self.wifi.finish(horizon),
            lte: self.lte.finish(horizon),
        }
    }
}

/// An arrival no finished chunk holds yet, in 8 bytes: its `dss`, `len`
/// and whether it rode the non-preferred path, from the low bit up.
#[derive(Clone, Copy)]
struct Waiting(u64);

const LEN_SHIFT: u32 = 48;
const OTHER_BIT: u32 = 63;

impl Waiting {
    fn pack(r: PktRecord, other: bool) -> Self {
        assert!(
            r.dss < 1 << LEN_SHIFT && r.len < 1 << (OTHER_BIT - LEN_SHIFT),
            "outage split: dss {} or len {} past its packed width",
            r.dss,
            r.len
        );
        Waiting(r.dss | r.len << LEN_SHIFT | u64::from(other) << OTHER_BIT)
    }

    fn dss(self) -> u64 {
        self.0 & ((1 << LEN_SHIFT) - 1)
    }

    fn len(self) -> u64 {
        self.0 >> LEN_SHIFT & ((1 << (OTHER_BIT - LEN_SHIFT)) - 1)
    }

    fn other(self) -> usize {
        (self.0 >> OTHER_BIT) as usize
    }
}

/// Degradation accounting, online: a chunk is "outage-bridged" when the
/// preferred path carried under 10% of its body bytes while another
/// path carried some — cellular covering a WiFi fault window (or vice
/// versa under CellularFirst).
///
/// An arrival counts toward the chunk whose body holds its `dss`. Chunks
/// finish in stream order with ascending, disjoint bodies, so an arrival
/// below the last finished body's end can only be a finished chunk's (a
/// late retransmission), and one at or past it waits until the next
/// finished chunk claims it or passes over it. What waits is the chunk
/// in flight, nothing older.
pub(crate) struct OutageSplit {
    preferred: PathId,
    /// Per finished chunk: its body and the body bytes on [the
    /// preferred path, any other].
    finished: Vec<(DssRange, [u64; 2])>,
    /// The chunk in flight's arrivals so far; its finish claims them and
    /// gives the slack back.
    waiting: Vec<Waiting>,
}

impl OutageSplit {
    pub(crate) fn new(preferred: PathId) -> Self {
        OutageSplit {
            preferred,
            finished: Vec::new(),
            waiting: Vec::new(),
        }
    }

    pub(crate) fn on_arrival(&mut self, r: PktRecord) {
        let other = usize::from(r.path != self.preferred);
        match self.finished.last() {
            Some((last, _)) if r.dss < last.end => {
                let i = self.finished.partition_point(|(b, _)| b.end <= r.dss);
                let (body, split) = &mut self.finished[i];
                if body.start <= r.dss {
                    split[other] += r.len;
                }
            }
            _ => self.waiting.push(Waiting::pack(r, other == 1)),
        }
    }

    /// A chunk finished: its body claims what waited inside it; what
    /// waited below it belongs to no chunk.
    pub(crate) fn on_chunk(&mut self, done: &ChunkLogEntry) {
        let body = done.body_dss;
        debug_assert!(
            self.finished
                .last()
                .is_none_or(|(b, _)| b.end <= body.start),
            "chunk bodies must ascend"
        );
        let mut split = [0u64; 2];
        self.waiting.retain(|w| {
            if w.dss() < body.start {
                return false;
            }
            if w.dss() < body.end {
                split[w.other()] += w.len();
                return false;
            }
            true
        });
        self.waiting.give_back_slack();
        self.finished.push((body, split));
    }

    /// Finished chunks that were outage-bridged.
    pub(crate) fn bridged(&self) -> u64 {
        let bridged = |s: &&[u64; 2]| s[1] > 0 && s[0] * 10 < s[0] + s[1];
        self.finished.iter().map(|(_, s)| s).filter(bridged).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The attribution as a batch over the whole capture: one binary
    /// search per record among every chunk the session finished.
    fn outage_bridged_by_search(
        chunks: &[ChunkLogEntry],
        records: &[PktRecord],
        preferred: PathId,
    ) -> u64 {
        let mut split = vec![[0u64; 2]; chunks.len()];
        for r in records {
            let i = chunks.partition_point(|c| c.body_dss.end <= r.dss);
            if chunks.get(i).is_some_and(|c| c.body_dss.start <= r.dss) {
                split[i][usize::from(r.path != preferred)] += r.len;
            }
        }
        let bridged = |s: &&[u64; 2]| s[1] > 0 && s[0] * 10 < s[0] + s[1];
        split.iter().filter(bridged).count() as u64
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
        for (r, other) in [(widest, true), (widest, false)] {
            let w = Waiting::pack(r, other);
            assert_eq!(
                (w.dss(), w.len(), w.other()),
                (r.dss, r.len, usize::from(other))
            );
        }
    }

    proptest::proptest! {
        /// The online split against the batch it replaced, with chunk
        /// completions interleaved among the arrivals at random points:
        /// arrivals that jump anywhere in the stream, repeat
        /// (retransmissions, duplicates), step backwards, or fall in a
        /// header, before the first body or past the last one — into a
        /// chunk that already finished, the one in flight, or one not
        /// yet requested — are attributed exactly as a search per record
        /// over the final chunk list attributes them.
        #[test]
        fn the_online_split_equals_a_search_per_record(
            bodies in proptest::collection::vec(1u64..60_000, 1..12),
            headers in proptest::collection::vec(0u64..900, 12..13),
            draws in proptest::collection::vec(0u64..1_000_000, 0..600),
            finish_at in proptest::collection::vec(0usize..600, 12..13),
        ) {
            let mut at = 0;
            let chunks: Vec<ChunkLogEntry> = bodies
                .iter()
                .zip(&headers)
                .enumerate()
                .map(|(index, (&size, &header))| {
                    let start = at + header;
                    at = start + size;
                    ChunkLogEntry {
                        index,
                        level: 0,
                        size,
                        started: SimTime::ZERO,
                        completed: SimTime::ZERO,
                        body_dss: DssRange { start, end: at },
                        deadline: None,
                        requests: 1,
                    }
                })
                .collect();
            let stream_end = at + 3_000;
            let mut dss = 0u64;
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
                    PktRecord {
                        t: SimTime::ZERO,
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
            for preferred in [PathId::WIFI, PathId::CELLULAR] {
                let mut split = OutageSplit::new(preferred);
                let mut next = 0;
                for (i, &r) in records.iter().enumerate() {
                    while next < chunks.len() && finish_at[next] <= i {
                        split.on_chunk(&chunks[next]);
                        next += 1;
                    }
                    split.on_arrival(r);
                }
                for c in &chunks[next..] {
                    split.on_chunk(c);
                }
                proptest::prop_assert_eq!(
                    split.bridged(),
                    outage_bridged_by_search(&chunks, &records, preferred)
                );
            }
        }
    }
}
