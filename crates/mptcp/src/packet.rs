//! Wire-level vocabulary shared by sender, receiver and simulator:
//! [`PathMask`] (the MP-DASH enable/disable overlay state signaled in the
//! DSS option), and [`PktRecord`] (the per-packet receive trace consumed by
//! the analysis tool and the energy model).

use mpdash_link::PathId;
use mpdash_sim::SimTime;

/// TCP maximum segment size used throughout the simulation, in bytes.
/// 1460 = 1500-byte Ethernet MTU minus 40 bytes of IP+TCP headers.
pub const MSS: u64 = 1460;

/// Which subflows the MP-DASH scheduler currently allows new data on.
///
/// This is the state the paper's reserved DSS-option bit carries from the
/// client-side decision function to the server-side enforcement function
/// (§3.2). A cleared bit means "skip this subflow in the packet scheduler";
/// it does not tear the subflow down, so in-flight data and retransmissions
/// still complete on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct PathMask(u32);

impl PathMask {
    /// All paths enabled (vanilla MPTCP behaviour).
    pub const ALL: PathMask = PathMask(u32::MAX);

    /// No paths enabled. Senders treat this as "pause new data"; it is a
    /// legal transient while signaling churns but never a steady state in
    /// any MP-DASH policy.
    pub const NONE: PathMask = PathMask(0);

    /// A mask with exactly one path enabled.
    pub fn only(path: PathId) -> PathMask {
        PathMask(1 << path.0)
    }

    /// The mask enabling exactly the paths whose flag is set — the
    /// per-path enabled set the MP-DASH control plane answers with,
    /// index = path id.
    pub fn from_enabled(enabled: &[bool]) -> PathMask {
        let mut mask = PathMask::NONE;
        for (i, &on) in enabled.iter().enumerate() {
            if on {
                mask = mask.with(PathId(i as u8));
            }
        }
        mask
    }

    /// Whether `path` is enabled.
    pub fn contains(self, path: PathId) -> bool {
        self.0 & (1 << path.0) != 0
    }

    /// A copy with `path` enabled.
    pub fn with(self, path: PathId) -> PathMask {
        PathMask(self.0 | (1 << path.0))
    }
}

impl Default for PathMask {
    fn default() -> Self {
        PathMask::ALL
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_operations() {
        let m = PathMask::ALL;
        assert!(m.contains(PathId::WIFI));
        assert!(m.contains(PathId::CELLULAR));

        let wifi_only = PathMask::only(PathId::WIFI);
        assert!(wifi_only.contains(PathId::WIFI));
        assert!(!wifi_only.contains(PathId::CELLULAR));

        let both = wifi_only.with(PathId::CELLULAR);
        assert!(both.contains(PathId::CELLULAR));
    }

    #[test]
    fn none_contains_nothing() {
        assert!(!PathMask::NONE.contains(PathId::WIFI));
        assert!(!PathMask::NONE.contains(PathId(7)));
    }

    #[test]
    fn from_enabled_sets_exactly_the_flagged_paths() {
        let m = PathMask::from_enabled(&[true, false, true]);
        assert_eq!(m, PathMask::only(PathId(0)).with(PathId(2)));
        assert_eq!(PathMask::from_enabled(&[]), PathMask::NONE);
    }

    #[test]
    fn default_is_all() {
        assert_eq!(PathMask::default(), PathMask::ALL);
    }
}
