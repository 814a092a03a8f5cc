//! [`DssRange`]: a stretch of the connection-level byte stream, the one
//! coordinate the HTTP layer, the transport's packets and the analysis
//! tool's chunk attribution share.

/// A half-open range `[start, end)` of the MPTCP connection-level
/// (data-sequence) byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DssRange {
    /// First connection-stream byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl DssRange {
    /// Length of the range in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Bytes of `[lo, hi)` inside the range.
    pub fn overlap(&self, lo: u64, hi: u64) -> u64 {
        hi.min(self.end).saturating_sub(lo.max(self.start))
    }
}
