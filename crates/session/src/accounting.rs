//! What a session reads off each packet as it arrives for its radios
//! (§7.1); the chunk attribution is `mpdash-analysis`'s
//! [`ChunkLedger`](mpdash_analysis::ChunkLedger).
//!
//! It takes every arrival once, as its step reports it, so a session
//! that keeps no packet log (every fleet client but the traced one)
//! accounts exactly as one that does.

use mpdash_energy::{DeviceProfile, RadioMeter, SessionEnergy};
use mpdash_link::PathId;
use mpdash_mptcp::PktRecord;
use mpdash_sim::{SimDuration, SimTime};

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
