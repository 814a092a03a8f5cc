//! The MPTCP receiver: per-subflow cumulative ACK generation plus
//! connection-level (DSS) reassembly, and the client-side half of the
//! MP-DASH signaling (the desired path mask carried on every ACK).

use crate::packet::{PacketLog, PktRecord};
use crate::reassembly::IntervalSet;
use mpdash_sim::{PathId, PathMask, SimTime};

/// What the receiver tells the simulator after ingesting a data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxResult {
    /// Cumulative subflow-level ACK to send back on the arrival path.
    pub ack: u64,
    /// Connection-level bytes that became deliverable to the application
    /// because of this packet (0 if it filled no gap at the stream head).
    pub newly_delivered: u64,
}

/// Per-subflow receive state.
#[derive(Clone, Debug, Default)]
struct SubRx {
    /// Next expected subflow sequence number (== cumulative ACK value).
    rcv_nxt: u64,
    /// Out-of-order segments beyond `rcv_nxt`: `(start, end)` sorted by
    /// start, one per start (a handful: the path's reordering degree).
    ooo: Vec<(u64, u64)>,
}

impl SubRx {
    /// Ingest a `[seq, seq+len)` segment, returning the new cumulative ACK.
    ///
    /// `syn` marks the opening segment of a re-established subflow: the
    /// previous incarnation's unacked tail was abandoned by the sender, so
    /// the receive state jumps forward to `seq` instead of waiting forever
    /// for a range that will never arrive. Late duplicates of the old
    /// incarnation (or of the SYN segment itself once it has been
    /// processed) satisfy `seq <= rcv_nxt` and fall through to the normal
    /// duplicate path — the resync only ever moves forward.
    fn on_segment(&mut self, seq: u64, len: u64, syn: bool) -> u64 {
        if syn && seq > self.rcv_nxt {
            self.rcv_nxt = seq;
            // Buffered fragments of the dead incarnation are void.
            self.ooo.clear();
        }
        let end = seq + len;
        if seq <= self.rcv_nxt {
            // In-order (or duplicate overlapping the head).
            self.rcv_nxt = self.rcv_nxt.max(end);
            // Absorb any buffered segments now contiguous.
            let mut absorbed = 0;
            while let Some(&(_, e)) = self.ooo.get(absorbed).filter(|r| r.0 <= self.rcv_nxt) {
                self.rcv_nxt = self.rcv_nxt.max(e);
                absorbed += 1;
            }
            self.ooo.drain(..absorbed);
        } else {
            // Gap: buffer. Entries may overlap on pathological
            // retransmission patterns; keep the longer run per start.
            match self.ooo.binary_search_by_key(&seq, |&(s, _)| s) {
                Ok(i) => self.ooo[i].1 = self.ooo[i].1.max(end),
                Err(i) => self.ooo.insert(i, (seq, end)),
            }
        }
        self.rcv_nxt
    }
}

/// The connection-level MPTCP receiver.
pub struct Receiver {
    subs: Vec<SubRx>,
    conn: IntervalSet,
    conn_delivered: u64,
    /// The path mask the client-side MP-DASH decision function currently
    /// wants; piggybacked on every outgoing ACK (the paper's reserved DSS
    /// option bit, §3.2).
    desired_mask: PathMask,
    /// Per-packet receive trace for the analysis tool, kept while
    /// `logging` (the default).
    records: PacketLog,
    logging: bool,
    /// Per-path received payload byte counters (including retransmitted
    /// duplicates — they cost link bytes and radio energy all the same).
    path_bytes: Vec<u64>,
}

impl Receiver {
    /// A receiver for `n_paths` subflows.
    pub fn new(n_paths: usize) -> Self {
        Receiver {
            subs: vec![SubRx::default(); n_paths],
            conn: IntervalSet::new(),
            conn_delivered: 0,
            desired_mask: PathMask::ALL,
            records: PacketLog::new(),
            logging: true,
            path_bytes: vec![0; n_paths],
        }
    }

    /// Ingest one data packet. The arguments mirror the on-the-wire
    /// segment fields one-to-one, so a parameter struct would only
    /// restate them.
    #[allow(clippy::too_many_arguments)]
    pub fn on_data(
        &mut self,
        t: SimTime,
        path: PathId,
        seq: u64,
        len: u64,
        dss: u64,
        retx: bool,
        syn: bool,
    ) -> RxResult {
        let ack = self.subs[path.index()].on_segment(seq, len, syn);
        self.conn.insert(dss, dss + len);
        let head = self.conn.contiguous_from(self.conn_delivered);
        let newly = head - self.conn_delivered;
        self.conn_delivered = head;
        self.path_bytes[path.index()] += len;
        if self.logging {
            self.records.push(PktRecord {
                t,
                path,
                len,
                dss,
                retx,
            });
        }
        RxResult {
            ack,
            newly_delivered: newly,
        }
    }

    /// Total connection bytes delivered in order to the application.
    pub fn delivered(&self) -> u64 {
        self.conn_delivered
    }

    /// Payload bytes received on `path` (lifetime, duplicates included).
    pub fn path_bytes(&self, path: PathId) -> u64 {
        self.path_bytes[path.index()]
    }

    /// The desired path mask the decision function last set.
    pub fn desired_mask(&self) -> PathMask {
        self.desired_mask
    }

    /// Update the desired mask; returns `true` if it changed.
    pub fn set_desired_mask(&mut self, mask: PathMask) -> bool {
        let changed = self.desired_mask != mask;
        self.desired_mask = mask;
        changed
    }

    /// Cumulative ACK value currently held for `path` (what a pure control
    /// ACK would carry).
    pub fn current_ack(&self, path: PathId) -> u64 {
        self.subs[path.index()].rcv_nxt
    }

    /// The packet receive trace.
    pub fn records(&self) -> &PacketLog {
        &self.records
    }

    /// Log each later packet (the default) or not: a receiver whose
    /// caller reads no capture keeps none.
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Move the receive trace out (the byte counters stay).
    pub fn take_records(&mut self) -> PacketLog {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MSS;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn in_order_delivery_single_path() {
        let mut r = Receiver::new(2);
        let r1 = r.on_data(t0(), PathId::WIFI, 0, MSS, 0, false, false);
        assert_eq!(r1.ack, MSS);
        assert_eq!(r1.newly_delivered, MSS);
        let r2 = r.on_data(t0(), PathId::WIFI, MSS, MSS, MSS, false, false);
        assert_eq!(r2.ack, 2 * MSS);
        assert_eq!(r.delivered(), 2 * MSS);
    }

    #[test]
    fn subflow_gap_holds_ack_but_dss_can_deliver() {
        let mut r = Receiver::new(2);
        // WiFi seg (dss 0) lost; cellular carries dss MSS.. first.
        let rc = r.on_data(t0(), PathId::CELLULAR, 0, MSS, MSS, false, false);
        assert_eq!(rc.ack, MSS, "cellular subflow itself is in order");
        assert_eq!(rc.newly_delivered, 0, "dss 0 still missing");
        // WiFi seg with dss 0 arrives.
        let rw = r.on_data(t0(), PathId::WIFI, 0, MSS, 0, false, false);
        assert_eq!(rw.newly_delivered, 2 * MSS, "gap filled, both deliver");
        assert_eq!(r.delivered(), 2 * MSS);
    }

    #[test]
    fn out_of_order_within_subflow_generates_dup_acks() {
        let mut r = Receiver::new(1);
        r.on_data(t0(), PathId(0), 0, MSS, 0, false, false);
        // Segment at seq MSS lost; 2*MSS..3*MSS arrives.
        let d = r.on_data(t0(), PathId(0), 2 * MSS, MSS, 2 * MSS, false, false);
        assert_eq!(d.ack, MSS, "cumulative ack stuck at the hole");
        let d2 = r.on_data(t0(), PathId(0), 3 * MSS, MSS, 3 * MSS, false, false);
        assert_eq!(d2.ack, MSS);
        // Retransmission fills the hole; ack jumps over buffered data.
        let d3 = r.on_data(t0(), PathId(0), MSS, MSS, MSS, true, false);
        assert_eq!(d3.ack, 4 * MSS);
        assert_eq!(r.delivered(), 4 * MSS);
    }

    #[test]
    fn syn_resyncs_past_an_abandoned_incarnation() {
        let mut r = Receiver::new(1);
        r.on_data(t0(), PathId(0), 0, MSS, 0, false, false);
        // [MSS, 3*MSS) died with the old incarnation; a buffered fragment
        // of it is stranded beyond the hole.
        let d = r.on_data(t0(), PathId(0), 2 * MSS, MSS, 2 * MSS, false, false);
        assert_eq!(d.ack, MSS, "stuck at the hole before the resync");
        // The re-established subflow opens at 3*MSS with the SYN marker:
        // the ack jumps forward, skipping the range that will never come.
        let d2 = r.on_data(t0(), PathId(0), 3 * MSS, MSS, 3 * MSS, false, true);
        assert_eq!(d2.ack, 4 * MSS, "resync + opening segment");
        // A late retransmitted duplicate of the SYN segment must not
        // regress anything.
        let d3 = r.on_data(t0(), PathId(0), 3 * MSS, MSS, 3 * MSS, true, true);
        assert_eq!(d3.ack, 4 * MSS);
        // Subsequent data flows in order on the new incarnation.
        let d4 = r.on_data(t0(), PathId(0), 4 * MSS, MSS, 4 * MSS, false, false);
        assert_eq!(d4.ack, 5 * MSS);
    }

    #[test]
    fn duplicate_segments_do_not_double_deliver() {
        let mut r = Receiver::new(1);
        r.on_data(t0(), PathId(0), 0, MSS, 0, false, false);
        let d = r.on_data(t0(), PathId(0), 0, MSS, 0, true, false);
        assert_eq!(d.ack, MSS);
        assert_eq!(d.newly_delivered, 0);
        assert_eq!(r.delivered(), MSS);
        // But the duplicate still cost link bytes.
        assert_eq!(r.path_bytes(PathId(0)), 2 * MSS);
    }

    #[test]
    fn records_capture_the_packet_trace() {
        let mut r = Receiver::new(2);
        r.on_data(
            SimTime::from_millis(5),
            PathId::WIFI,
            0,
            MSS,
            0,
            false,
            false,
        );
        r.on_data(
            SimTime::from_millis(7),
            PathId::CELLULAR,
            0,
            500,
            MSS,
            false,
            false,
        );
        let recs: Vec<PktRecord> = r.records().iter().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].path, PathId::WIFI);
        assert_eq!(recs[1].len, 500);
        assert_eq!(recs[1].dss, MSS);
    }

    #[test]
    fn desired_mask_round_trip() {
        let mut r = Receiver::new(2);
        assert_eq!(r.desired_mask(), PathMask::ALL);
        assert!(r.set_desired_mask(PathMask::only(PathId::WIFI)));
        assert!(!r.set_desired_mask(PathMask::only(PathId::WIFI)));
        assert_eq!(r.desired_mask(), PathMask::only(PathId::WIFI));
    }
}
