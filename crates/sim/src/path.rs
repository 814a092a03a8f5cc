//! [`PathId`] and [`PathMask`]: one network interface, and a set of them.
//!
//! The paper instantiates MP-DASH for two paths (WiFi preferred over LTE)
//! but formulates the scheduler for N paths with arbitrary costs (§4). The
//! identifier is therefore a small integer, with named constants for the
//! two-path case every experiment uses, and a set of paths is one word:
//! the enabled set Algorithm 1 decides is the same value the transport
//! enforces.

use std::fmt;

/// Identifier of a network path (interface). Paths are dense small
/// integers assigned by the transport; the conventional two-path layout is
/// [`PathId::WIFI`] = 0 and [`PathId::CELLULAR`] = 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId(pub u8);

impl PathId {
    /// The preferred (low-cost) path in the paper's main scenario.
    pub const WIFI: PathId = PathId(0);
    /// The metered (high-cost) path in the paper's main scenario.
    pub const CELLULAR: PathId = PathId(1);

    /// Index into dense per-path arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PathId::WIFI => write!(f, "wifi"),
            PathId::CELLULAR => write!(f, "cell"),
            PathId(n) => write!(f, "path{n}"),
        }
    }
}

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
    /// Every path a mask can name enabled: where a connection starts
    /// before any decision (vanilla MPTCP behaviour).
    pub const ALL: PathMask = PathMask(u32::MAX);

    /// No paths enabled. Senders treat this as "pause new data"; it is a
    /// legal transient while signaling churns but never a steady state in
    /// any MP-DASH policy.
    pub const NONE: PathMask = PathMask(0);

    /// Paths `0..n` enabled: every path of an `n`-path connection. This
    /// is not [`PathMask::ALL`] below 32 paths, so the first decision to
    /// run on all of them still changes a fresh connection's mask.
    ///
    /// # Panics
    /// If `n` exceeds 32, the paths a mask can name.
    pub const fn first(n: usize) -> PathMask {
        assert!(n <= 32, "PathMask supports up to 32 paths");
        PathMask(((1u64 << n) - 1) as u32)
    }

    /// A mask with exactly one path enabled.
    pub const fn only(path: PathId) -> PathMask {
        PathMask(1 << path.0)
    }

    /// Whether `path` is enabled.
    pub fn contains(self, path: PathId) -> bool {
        self.0 & (1 << path.0) != 0
    }

    /// A copy with `path` enabled.
    pub fn with(self, path: PathId) -> PathMask {
        PathMask(self.0 | (1 << path.0))
    }

    /// The paths enabled here and not in `other`.
    pub fn minus(self, other: PathMask) -> PathMask {
        PathMask(self.0 & !other.0)
    }

    /// The mask as a word, bit `i` = path `i`.
    pub fn bits(self) -> u32 {
        self.0
    }
}

impl Default for PathMask {
    fn default() -> Self {
        PathMask::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_paths() {
        assert_eq!(PathId::WIFI.index(), 0);
        assert_eq!(PathId::CELLULAR.index(), 1);
        assert_eq!(format!("{}", PathId::WIFI), "wifi");
        assert_eq!(format!("{}", PathId::CELLULAR), "cell");
        assert_eq!(format!("{}", PathId(3)), "path3");
    }

    #[test]
    fn ordering_matches_index() {
        assert!(PathId::WIFI < PathId::CELLULAR);
    }

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
        assert_eq!(both.minus(wifi_only), PathMask::only(PathId::CELLULAR));
        assert_eq!(both.bits(), 0b11);
    }

    #[test]
    fn none_contains_nothing() {
        assert!(!PathMask::NONE.contains(PathId::WIFI));
        assert!(!PathMask::NONE.contains(PathId(7)));
    }

    #[test]
    fn default_is_all() {
        assert_eq!(PathMask::default(), PathMask::ALL);
    }

    #[test]
    fn first_n_is_the_low_n_bits_never_all_below_32() {
        assert_eq!(PathMask::first(0), PathMask::NONE);
        assert_eq!(PathMask::first(2).bits(), 0b11);
        assert_ne!(PathMask::first(31), PathMask::ALL);
        assert_eq!(PathMask::first(32), PathMask::ALL);
    }
}
