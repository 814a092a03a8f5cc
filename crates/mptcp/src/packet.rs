//! Wire-level vocabulary shared by sender, receiver and simulator: the
//! segment size, and [`PacketLog`] (the per-packet receive trace consumed
//! by the analysis tool and the energy model, read back as [`PktRecord`]s).
//! The MP-DASH enable/disable overlay state signaled in the DSS option is
//! [`PathMask`](mpdash_sim::PathMask), shared with the scheduler that
//! decides it.

use mpdash_sim::{PathId, SimTime};
use std::fmt;

/// TCP maximum segment size used throughout the simulation, in bytes.
/// 1460 = 1500-byte Ethernet MTU minus 40 bytes of IP+TCP headers.
pub const MSS: u64 = 1460;

/// One received data packet, as logged by the receiver.
///
/// This is the simulation's packet capture: the §6 analysis tool correlates
/// the `dss` ranges against HTTP message boundaries to attribute bytes (and
/// radio energy) to paths and video chunks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PktRecord {
    /// Arrival time at the receiver.
    pub t: SimTime,
    /// Path the packet arrived on.
    pub path: PathId,
    /// Payload bytes.
    pub len: u64,
    /// Connection-level (data sequence) offset of the first payload byte.
    pub dss: u64,
    /// Whether this was a retransmission.
    pub retx: bool,
}

/// Bits of the packed word holding `dss`, `len` and `path`; `retx` is the
/// one bit left.
const DSS_BITS: u32 = 48;
const LEN_BITS: u32 = 12;
const PATH_BITS: u32 = 3;
const _: () = assert!(DSS_BITS + LEN_BITS + PATH_BITS + 1 == u64::BITS);
// The sender cuts segments of at most `MSS` bytes, which is all that
// bounds a record's `len`.
const _: () = assert!(MSS < 1 << LEN_BITS, "MSS must fit the packed len");

/// Records in the first block (1 KiB); each next block doubles...
const FIRST_BLOCK: usize = 64;
/// ...up to this many (32 KiB), which every later block holds.
const MAX_BLOCK: usize = 2048;
/// Blocks shorter than `MAX_BLOCK`, and the records they hold together.
const GROWING: usize = (MAX_BLOCK / FIRST_BLOCK).trailing_zeros() as usize;
const GROWN: usize = MAX_BLOCK - FIRST_BLOCK;

/// Records block `k` holds when full.
fn block_len(k: usize) -> usize {
    if k < GROWING {
        FIRST_BLOCK << k
    } else {
        MAX_BLOCK
    }
}

/// Record `i`'s `(block, offset)`. Block `k < GROWING` starts at record
/// `FIRST_BLOCK * (2^k - 1)`.
fn locate(i: usize) -> (usize, usize) {
    if i < GROWN {
        let k = (i / FIRST_BLOCK + 1).ilog2() as usize;
        (k, i + FIRST_BLOCK - (FIRST_BLOCK << k))
    } else {
        let past = i - GROWN;
        (GROWING + past / MAX_BLOCK, past % MAX_BLOCK)
    }
}

/// A [`PktRecord`] in 16 bytes: `t` in nanoseconds, then `dss`, `len`,
/// `path` and `retx` from the low bit up.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Packed {
    t: u64,
    bits: u64,
}

impl Packed {
    fn encode(r: PktRecord) -> Packed {
        let PktRecord {
            t,
            path,
            len,
            dss,
            retx,
        } = r;
        let path = u64::from(path.0);
        assert!(
            dss < 1 << DSS_BITS,
            "packet log: dss {dss} needs more than {DSS_BITS} bits"
        );
        assert!(
            len < 1 << LEN_BITS,
            "packet log: len {len} needs more than {LEN_BITS} bits"
        );
        assert!(
            path < 1 << PATH_BITS,
            "packet log: path {path} needs more than {PATH_BITS} bits"
        );
        Packed {
            t: t.as_nanos(),
            bits: dss
                | len << DSS_BITS
                | path << (DSS_BITS + LEN_BITS)
                | u64::from(retx) << (u64::BITS - 1),
        }
    }

    fn decode(self) -> PktRecord {
        let field = |shift: u32, bits: u32| self.bits >> shift & ((1 << bits) - 1);
        PktRecord {
            t: SimTime::from_nanos(self.t),
            path: PathId(field(DSS_BITS + LEN_BITS, PATH_BITS) as u8),
            len: field(DSS_BITS, LEN_BITS),
            dss: field(0, DSS_BITS),
            retx: field(u64::BITS - 1, 1) != 0,
        }
    }
}

/// The receiver's packet capture: every [`PktRecord`] in arrival order,
/// append-only.
///
/// A record is packed into 16 bytes and lives in a block that is
/// allocated once at its full size and never moved: growing the log
/// allocates the next block and copies nothing, so a session holds
/// 16 bytes a packet plus the unfilled tail of one block. The first
/// blocks are small so that a short session's tail stays small too.
/// Reading decodes back to [`PktRecord`], block by block.
#[derive(Default)]
pub struct PacketLog {
    /// Block `k` has capacity `block_len(k)`; all but the last are full.
    blocks: Vec<Vec<Packed>>,
    len: usize,
}

impl PacketLog {
    /// An empty log; allocates at the first [`push`](Self::push).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    ///
    /// # Panics
    /// If `dss`, `len` or `path` does not fit its packed width (2^48,
    /// 2^12, 2^3): a wrapped value would corrupt the capture silently.
    pub fn push(&mut self, r: PktRecord) {
        let packed = Packed::encode(r);
        let k = self.blocks.len();
        match self.blocks.last_mut() {
            Some(tail) if tail.len() < block_len(k - 1) => tail.push(packed),
            _ => {
                let mut tail = Vec::with_capacity(block_len(k));
                tail.push(packed);
                self.blocks.push(tail);
            }
        }
        self.len += 1;
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no packet was logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every record, in arrival order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// The records from index `cursor` on (none when `cursor == len()`):
    /// how a reader that keeps its place picks up what arrived since.
    ///
    /// # Panics
    /// If `cursor > len()`.
    pub fn iter_from(&self, cursor: usize) -> Iter<'_> {
        assert!(
            cursor <= self.len,
            "packet log: cursor {cursor} past the {} records held",
            self.len
        );
        let (k, offset) = locate(cursor);
        // `cursor == len()` on a block boundary names a block not yet
        // allocated.
        match self.blocks.get(k..) {
            Some([head, rest @ ..]) => Iter {
                head: head[offset..].iter(),
                rest: rest.iter(),
            },
            _ => Iter::default(),
        }
    }

    /// Heap bytes the log holds: its blocks at full capacity plus the
    /// table of them.
    pub fn heap_bytes(&self) -> usize {
        let blocks: usize = self.blocks.iter().map(Vec::capacity).sum();
        blocks * std::mem::size_of::<Packed>()
            + self.blocks.capacity() * std::mem::size_of::<Vec<Packed>>()
    }
}

/// A clone's blocks have their full capacity too, so it grows like the
/// original.
impl Clone for PacketLog {
    fn clone(&self) -> Self {
        let block = |(k, b): (usize, &Vec<Packed>)| {
            let mut copy = Vec::with_capacity(block_len(k));
            copy.extend_from_slice(b);
            copy
        };
        PacketLog {
            blocks: self.blocks.iter().enumerate().map(block).collect(),
            len: self.len,
        }
    }
}

impl PartialEq for PacketLog {
    /// Same records in the same order (equal lengths split into equal
    /// blocks, and packing is one-to-one).
    fn eq(&self, other: &Self) -> bool {
        self.blocks == other.blocks
    }
}

impl fmt::Debug for PacketLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a PacketLog {
    type Item = PktRecord;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Records of a [`PacketLog`], decoded one block's slice at a time.
#[derive(Clone, Default)]
pub struct Iter<'a> {
    /// What is left of the current block.
    head: std::slice::Iter<'a, Packed>,
    /// The blocks after it.
    rest: std::slice::Iter<'a, Vec<Packed>>,
}

impl Iterator for Iter<'_> {
    type Item = PktRecord;

    fn next(&mut self) -> Option<PktRecord> {
        loop {
            if let Some(p) = self.head.next() {
                return Some(p.decode());
            }
            self.head = self.rest.next()?.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(records: &[PktRecord]) -> PacketLog {
        let mut log = PacketLog::new();
        for &r in records {
            log.push(r);
        }
        log
    }

    /// The widest value of every field at once.
    const WIDEST: PktRecord = PktRecord {
        t: SimTime::MAX,
        path: PathId((1 << PATH_BITS) - 1),
        len: (1 << LEN_BITS) - 1,
        dss: (1 << DSS_BITS) - 1,
        retx: true,
    };

    #[test]
    fn a_record_packs_into_16_bytes_and_back() {
        assert_eq!(std::mem::size_of::<Packed>(), 16);
        let narrowest = PktRecord {
            t: SimTime::ZERO,
            path: PathId(0),
            len: 0,
            dss: 0,
            retx: false,
        };
        // Each field alone at its widest: no field reads a neighbour's bits.
        let alone = [
            PktRecord {
                t: WIDEST.t,
                ..narrowest
            },
            PktRecord {
                path: WIDEST.path,
                ..narrowest
            },
            PktRecord {
                len: WIDEST.len,
                ..narrowest
            },
            PktRecord {
                dss: WIDEST.dss,
                ..narrowest
            },
            PktRecord {
                retx: true,
                ..narrowest
            },
        ];
        for r in [narrowest, WIDEST].into_iter().chain(alone) {
            assert_eq!(Packed::encode(r).decode(), r);
        }
    }

    #[test]
    #[should_panic(expected = "dss 281474976710656 needs more than 48 bits")]
    fn a_dss_past_its_width_is_refused() {
        PacketLog::new().push(PktRecord {
            dss: WIDEST.dss + 1,
            ..WIDEST
        });
    }

    #[test]
    #[should_panic(expected = "path 8 needs more than 3 bits")]
    fn a_path_past_its_width_is_refused() {
        PacketLog::new().push(PktRecord {
            path: PathId(WIDEST.path.0 + 1),
            ..WIDEST
        });
    }

    #[test]
    #[should_panic(expected = "len 4096 needs more than 12 bits")]
    fn a_len_past_its_width_is_refused() {
        PacketLog::new().push(PktRecord {
            len: WIDEST.len + 1,
            ..WIDEST
        });
    }

    #[test]
    #[should_panic(expected = "cursor 3 past the 2 records held")]
    fn a_cursor_past_the_end_is_refused() {
        log_of(&[WIDEST, WIDEST]).iter_from(3);
    }

    #[test]
    fn an_empty_log_holds_no_heap() {
        let log = PacketLog::new();
        assert!(log.is_empty());
        assert_eq!(log.heap_bytes(), 0);
        assert_eq!(log.iter().next(), None);
        assert_eq!(log.iter_from(0).next(), None);
    }

    #[test]
    fn locate_inverts_the_block_layout() {
        let mut i = 0;
        for k in 0..GROWING + 3 {
            for offset in 0..block_len(k) {
                assert_eq!(locate(i), (k, offset));
                i += 1;
            }
        }
        assert_eq!(GROWN, (0..GROWING).map(block_len).sum::<usize>());
    }

    /// A record with each field drawn at, next to, or between its edges.
    fn record(d: u64) -> PktRecord {
        let pick = |sel: u64, max: u64, any: u64| match sel % 6 {
            0 => 0,
            1 => 1,
            2 => max - 1,
            3 => max,
            _ => any % (max + 1),
        };
        PktRecord {
            t: SimTime::from_nanos(pick(d, u64::MAX - 1, d.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            path: PathId(pick(d >> 3, u64::from(WIDEST.path.0), d >> 7) as u8),
            len: pick(
                d >> 11,
                WIDEST.len,
                if d >> 20 & 1 == 0 { MSS } else { d >> 21 },
            ),
            dss: pick(d >> 14, WIDEST.dss, d >> 9),
            retx: d >> 17 & 1 == 1,
        }
    }

    proptest::proptest! {
        /// The log against the `Vec<PktRecord>` it replaced, at lengths
        /// on and around every block boundary: same length, same records
        /// from the start and from any cursor, equal to a log built
        /// from the same records and to its clone, unequal to one that
        /// differs in a record or in length; and no block, of the log
        /// or of a clone that keeps growing, ever moves.
        #[test]
        fn the_log_reads_back_what_a_vec_holds(
            draws in proptest::collection::vec(proptest::any::<u64>(), 1..97),
            boundary in 0usize..9,
            around in 0usize..5,
        ) {
            let ends: Vec<usize> = (0..9)
                .scan(0, |end, k| {
                    *end += block_len(k);
                    Some(*end)
                })
                .collect();
            let n = match boundary {
                0 => around,
                b => ends[b - 1] + around - 2,
            };
            let model: Vec<PktRecord> = (0..n)
                .map(|i| record(draws[i % draws.len()].rotate_left(i as u32)))
                .collect();

            let mut log = PacketLog::new();
            let mut homes = Vec::new();
            for (i, &r) in model.iter().enumerate() {
                log.push(r);
                proptest::prop_assert_eq!(log.len(), i + 1);
                if log.blocks.len() > homes.len() {
                    homes.push(log.blocks[homes.len()].as_ptr());
                }
            }
            let now: Vec<_> = log.blocks.iter().map(|b| b.as_ptr()).collect();
            proptest::prop_assert_eq!(now, homes);
            proptest::prop_assert!(log.heap_bytes() >= 16 * n);

            proptest::prop_assert_eq!(log.is_empty(), model.is_empty());
            proptest::prop_assert_eq!(&log.iter().collect::<Vec<_>>(), &model);
            proptest::prop_assert!((&log).into_iter().eq(model.iter().copied()));
            let cursors = ends
                .iter()
                .flat_map(|&e| [e - 1, e, e + 1])
                .chain([0, n / 2, draws[0] as usize % (n + 1), n]);
            for cursor in cursors.filter(|&c| c <= n) {
                proptest::prop_assert!(
                    log.iter_from(cursor).eq(model[cursor..].iter().copied()),
                    "from cursor {}", cursor
                );
            }

            proptest::prop_assert!(log == log_of(&model));
            if let Some((&last, but_last)) = model.split_last() {
                let mut other = log_of(but_last);
                proptest::prop_assert!(log != other);
                other.push(PktRecord { retx: !last.retx, ..last });
                proptest::prop_assert!(log != other);
            }

            let mut copy = log.clone();
            proptest::prop_assert!(copy == log);
            if let Some(tail) = copy.blocks.last() {
                let (k, home) = (copy.blocks.len() - 1, tail.as_ptr());
                for _ in tail.len()..block_len(k) {
                    copy.push(WIDEST);
                }
                proptest::prop_assert_eq!(copy.blocks.len(), k + 1);
                proptest::prop_assert_eq!(copy.blocks[k].as_ptr(), home);
                proptest::prop_assert_eq!(copy.len(), ends[k]);
            }
        }
    }
}
