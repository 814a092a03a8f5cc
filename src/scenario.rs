//! JSON scenario definitions for the `mpdash` CLI: describe a network, a
//! video, an ABR algorithm and a set of transport policies in a file, and
//! the runner replays the whole comparison.
//!
//! See `scenarios/example.json` for a complete document. The network can
//! be a constant rate, a seeded synthetic trace, or an external profile
//! in the `mpdash-trace` JSON format (so measured traces plug straight
//! in).
//!
//! The document is decoded in one pass, straight into the simulator's own
//! types: every value is range-checked where it is read, every error
//! names the full path of the offending key (`fleet.shared[1].quantum`),
//! and a key that is repeated, misspelt, or not taken by the level it
//! sits in is an error rather than a silent default. A trace file is
//! read and checked while parsing, so a document that parses always
//! builds; a missing key takes the library's default.

use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{
    ChurnSpec, FaultDomainSpec, FleetCacheSpec, FleetConfig, OverloadPolicy, SharedLinkSpec,
};
use mpdash_http::{OriginPoolConfig, OriginSpec};
use mpdash_link::{
    AqmConfig, BandwidthProfile, FaultScript, GilbertElliott, PathId, QueueDiscipline,
    SharedBottleneckConfig, DRR_QUANTUM,
};
use mpdash_mptcp::SchedulerSpec;
use mpdash_obs::TelemetrySpec;
use mpdash_results::Json;
use mpdash_session::{
    LifecyclePolicy, ServerFaultScript, SessionConfig, SharedSegmentCache, TransportMode,
};
use mpdash_sim::{SimDuration, SimTime};
use mpdash_trace::io::ProfileSpec;
use mpdash_trace::synth::SynthSpec;

/// Upper bound on every millisecond key: one minute is far beyond any
/// RTT, and keeps `ms * 10^6` and `client_index * skew` inside a `u64`.
const MAX_MILLIS: u64 = 60_000;

/// Upper bound on a fleet's RTT spread, `(clients - 1) * rtt_skew_ms`:
/// the extra one-way delay of its last client.
const MAX_RTT_SPREAD_MS: u64 = 1_000;

/// Upper bound on the whole-second keys (`buffer_secs`, `chunk_secs`):
/// one day, so the conversion to nanoseconds cannot wrap.
const MAX_SECS: u64 = 86_400;

/// A numeric constraint and how to say it in an error.
#[derive(Clone, Copy)]
struct Bound {
    ok: fn(f64) -> bool,
    want: &'static str,
}

const POSITIVE: Bound = Bound {
    ok: |v| v > 0.0,
    want: "> 0",
};
const NON_NEGATIVE: Bound = Bound {
    ok: |v| v >= 0.0,
    want: ">= 0",
};
const UNIT: Bound = Bound {
    ok: |v| (0.0..=1.0).contains(&v),
    want: "in [0,1]",
};
const UNIT_ABOVE_ZERO: Bound = Bound {
    ok: |v| v > 0.0 && v <= 1.0,
    want: "in (0,1]",
};
const UNIT_BELOW_ONE: Bound = Bound {
    ok: |v| (0.0..1.0).contains(&v),
    want: "in [0,1)",
};

// Scalar decoders. `at` is the value's full path in the document; every
// error starts with it.

/// A finite number within `bound` (so `1e999` fails here, not as a
/// panic deep inside the simulator).
fn finite(j: &Json, at: &str, bound: Bound) -> Result<f64, String> {
    let v = j
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("{at}: must be a finite number"))?;
    if (bound.ok)(v) {
        Ok(v)
    } else {
        Err(format!("{at}: must be {}, got {v}", bound.want))
    }
}

/// A whole number in `lo..=hi` that also fits the target type.
fn whole<T: TryFrom<u64>>(j: &Json, at: &str, lo: u64, hi: u64) -> Result<T, String> {
    j.as_u64()
        .filter(|v| (lo..=hi).contains(v))
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| {
            let upper = match hi {
                u64::MAX => String::new(),
                _ => format!(" and <= {hi}"),
            };
            format!("{at}: must be a whole number >= {lo}{upper}, got {j}")
        })
}

fn text<'a>(j: &'a Json, at: &str) -> Result<&'a str, String> {
    j.as_str().ok_or_else(|| format!("{at}: must be a string"))
}

fn unknown(at: &str, what: &str, name: &str, expected: &str) -> String {
    format!("{at}: unknown {what} '{name}' (expected {expected})")
}

/// The documents use serde-style externally-tagged enums in snake_case:
/// a bare string is a unit variant (`"vanilla"`), a single-key object
/// wraps a payload variant (`{"throttled": 700}`). For the latter, the
/// tag, the payload and the payload's path.
fn variant<'a>(j: &'a Json, at: &str) -> Result<(&'a str, &'a Json, String), String> {
    match j.as_obj() {
        Some([(tag, payload)]) => Ok((tag, payload, format!("{at}.{tag}"))),
        _ => Err(format!("{at}: expected a single-variant object")),
    }
}

/// One JSON object being decoded. Construction refuses repeated keys;
/// the extractors remember which keys were asked for, and
/// [`Obj::finish`] refuses every key nobody asked for — so each level
/// of the format accepts exactly the keys its decoder reads.
struct Obj<'a> {
    path: String,
    members: &'a [(String, Json)],
    asked: Vec<&'static str>,
}

impl<'a> Obj<'a> {
    fn new(j: &'a Json, path: &str) -> Result<Self, String> {
        let obj = Obj {
            path: path.to_string(),
            members: j
                .as_obj()
                .ok_or_else(|| format!("{}: must be an object", path_or_root(path)))?,
            asked: Vec::new(),
        };
        for (i, (key, _)) in obj.members.iter().enumerate() {
            if obj.members[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(format!("{}: key is given twice", obj.at(key)));
            }
        }
        Ok(obj)
    }

    /// Full path of `key` at this level.
    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Decode the value under `key`, if present.
    fn opt<T>(
        &mut self,
        key: &'static str,
        decode: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.asked.push(key);
        let at = self.at(key);
        self.members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, j)| decode(j, &at))
            .transpose()
    }

    /// Decode the value under `key`; its absence is an error.
    fn req<T>(
        &mut self,
        key: &'static str,
        decode: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt(key, decode)?
            .ok_or_else(|| format!("{}: missing required key", self.at(key)))
    }

    fn f64(&mut self, key: &'static str, bound: Bound) -> Result<f64, String> {
        self.req(key, |j, at| finite(j, at, bound))
    }

    fn opt_f64(&mut self, key: &'static str, bound: Bound) -> Result<Option<f64>, String> {
        self.opt(key, |j, at| finite(j, at, bound))
    }

    fn uint<T: TryFrom<u64>>(&mut self, key: &'static str, lo: u64, hi: u64) -> Result<T, String> {
        self.req(key, |j, at| whole(j, at, lo, hi))
    }

    fn opt_uint<T: TryFrom<u64>>(
        &mut self,
        key: &'static str,
        lo: u64,
        hi: u64,
    ) -> Result<Option<T>, String> {
        self.opt(key, |j, at| whole(j, at, lo, hi))
    }

    /// Fractional seconds as a duration.
    fn secs(&mut self, key: &'static str, bound: Bound) -> Result<SimDuration, String> {
        self.f64(key, bound).map(SimDuration::from_secs_f64)
    }

    fn opt_secs(&mut self, key: &'static str, bound: Bound) -> Result<Option<SimDuration>, String> {
        Ok(self.opt_f64(key, bound)?.map(SimDuration::from_secs_f64))
    }

    /// Whole milliseconds in `lo..=MAX_MILLIS` as a duration.
    fn opt_millis(&mut self, key: &'static str, lo: u64) -> Result<Option<SimDuration>, String> {
        Ok(self
            .opt_uint(key, lo, MAX_MILLIS)?
            .map(SimDuration::from_millis))
    }

    fn str(&mut self, key: &'static str) -> Result<&'a str, String> {
        self.req(key, text)
    }

    fn opt_bool(&mut self, key: &'static str) -> Result<Option<bool>, String> {
        self.opt(key, |j, at| {
            j.as_bool()
                .ok_or_else(|| format!("{at}: must be a boolean"))
        })
    }

    /// The array under `key` as `(item, item path)` pairs. An absent
    /// key is an empty list, unless `required` — then both absence and
    /// an empty array are errors.
    fn items(
        &mut self,
        key: &'static str,
        required: bool,
    ) -> Result<Vec<(&'a Json, String)>, String> {
        let at = self.at(key);
        let found = self.opt(key, |j, at| {
            j.as_arr().ok_or_else(|| format!("{at}: must be an array"))
        })?;
        match found {
            None if required => Err(format!("{at}: missing required key")),
            Some([]) if required => Err(format!("{at}: must list at least one entry")),
            found => Ok(found
                .unwrap_or_default()
                .iter()
                .enumerate()
                .map(|(i, item)| (item, format!("{at}[{i}]")))
                .collect()),
        }
    }

    /// Decode every item of the array under `key` (see [`Obj::items`]).
    fn list<T>(
        &mut self,
        key: &'static str,
        required: bool,
        mut decode: impl FnMut(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.items(key, required)?
            .into_iter()
            .map(|(j, at)| decode(j, &at))
            .collect()
    }

    /// Refuse every key no extractor asked for, naming the keys this
    /// level takes.
    fn finish(self) -> Result<(), String> {
        match self
            .members
            .iter()
            .find(|(k, _)| !self.asked.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((stray, _)) => Err(format!(
                "{}: unknown key ({} accepts: {})",
                self.at(stray),
                path_or_root(&self.path),
                self.asked.join(", ")
            )),
        }
    }
}

fn path_or_root(path: &str) -> &str {
    if path.is_empty() {
        "the scenario document"
    } else {
        path
    }
}

/// A network path's bandwidth: `{"constant": mbps}`, a seeded AR(1)
/// trace `{"synthetic": {"mean_mbps", "sigma", "seed"}}` (σ as a
/// fraction of the mean), or `{"file": path}`, an `mpdash-trace` JSON
/// profile that is read and checked here, so a document that parses
/// always builds.
fn decode_bandwidth(j: &Json, at: &str) -> Result<BandwidthProfile, String> {
    let (tag, payload, at) = variant(j, at)?;
    match tag {
        // Zero is a legitimate dead path.
        "constant" => finite(payload, &at, NON_NEGATIVE).map(BandwidthProfile::constant_mbps),
        "synthetic" => {
            let mut o = Obj::new(payload, &at)?;
            let spec = SynthSpec::new(
                o.f64("mean_mbps", POSITIVE)?,
                o.f64("sigma", NON_NEGATIVE)?,
                o.uint("seed", 0, u64::MAX)?,
            );
            o.finish()?;
            Ok(spec.profile())
        }
        "file" => {
            let path = text(payload, &at)?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let spec = ProfileSpec::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            spec.to_profile().map_err(|e| format!("{path}: {e}"))
        }
        other => Err(unknown(
            &at,
            "bandwidth kind",
            other,
            "constant, synthetic, file",
        )),
    }
}

/// `{"named": ...}` picks a Table 3 dataset video; `{"custom": {...}}`
/// declares a ladder (average Mbps per level, strictly ascending).
fn decode_video(j: &Json, at: &str) -> Result<Video, String> {
    let (tag, payload, at) = variant(j, at)?;
    match tag {
        "named" => match text(payload, &at)? {
            "big_buck_bunny" => Ok(Video::big_buck_bunny()),
            "red_bull_playstreets" => Ok(Video::red_bull_playstreets()),
            "tears_of_steel" => Ok(Video::tears_of_steel()),
            "tears_of_steel_hd" => Ok(Video::tears_of_steel_hd()),
            other => Err(unknown(
                &at,
                "video",
                other,
                "big_buck_bunny, red_bull_playstreets, tears_of_steel, tears_of_steel_hd",
            )),
        },
        "custom" => {
            let mut o = Obj::new(payload, &at)?;
            let mut levels: Vec<f64> = Vec::new();
            for (j, at) in o.items("levels_mbps", true)? {
                let mbps = finite(j, &at, POSITIVE)?;
                if let Some(prev) = levels.last().filter(|&&prev| mbps <= prev) {
                    return Err(format!(
                        "{at}: levels must be strictly ascending, got {mbps} after {prev}"
                    ));
                }
                levels.push(mbps);
            }
            let video = Video::new(
                "custom",
                &levels,
                SimDuration::from_secs(o.uint("chunk_secs", 1, MAX_SECS)?),
                o.uint("n_chunks", 1, u64::MAX)?,
            );
            o.finish()?;
            Ok(video)
        }
        other => Err(unknown(&at, "video kind", other, "named, custom")),
    }
}

fn decode_abr(j: &Json, at: &str) -> Result<AbrKind, String> {
    match text(j, at)? {
        "gpac" => Ok(AbrKind::Gpac),
        "festive" => Ok(AbrKind::Festive),
        "bba" => Ok(AbrKind::Bba),
        "bba_c" | "bbac" | "bba-c" => Ok(AbrKind::BbaC),
        "mpc" => Ok(AbrKind::Mpc),
        other => Err(unknown(at, "abr", other, "gpac, festive, bba, bba_c, mpc")),
    }
}

fn decode_lifecycle(j: &Json, at: &str) -> Result<LifecyclePolicy, String> {
    match text(j, at)? {
        "wait_forever" => Ok(LifecyclePolicy::wait_forever()),
        "retry_only" => Ok(LifecyclePolicy::retry_only()),
        "deadline_aware" => Ok(LifecyclePolicy::deadline_aware()),
        other => Err(unknown(
            at,
            "lifecycle",
            other,
            "wait_forever, retry_only, deadline_aware",
        )),
    }
}

/// A transport policy to compare, with an optional per-mode MPTCP
/// packet-scheduler override.
#[derive(Debug)]
pub struct ModeSpec {
    /// The transport policy.
    pub mode: TransportMode,
    /// Packet scheduler: `min_rtt` (the default when absent),
    /// `round_robin`, or `qaware`.
    pub scheduler: Option<SchedulerSpec>,
}

impl ModeSpec {
    fn decode(j: &Json, at: &str) -> Result<Self, String> {
        // The long form `{"mode": ..., "scheduler": "..."}` wraps any
        // short-form mode with a packet-scheduler override; the short
        // forms ("vanilla", {"throttled": 700}) stay valid unchanged.
        if j.get("mode").is_none() {
            return Ok(ModeSpec {
                mode: decode_transport(j, at)?,
                scheduler: None,
            });
        }
        let mut o = Obj::new(j, at)?;
        let spec = ModeSpec {
            mode: o.req("mode", decode_transport)?,
            scheduler: o.opt("scheduler", |j, at| {
                let name = text(j, at)?;
                SchedulerSpec::parse(name).ok_or_else(|| {
                    unknown(at, "scheduler", name, "min_rtt, round_robin, or qaware")
                })
            })?,
        };
        o.finish()?;
        Ok(spec)
    }

    /// Display label; a non-default scheduler is suffixed so grid rows
    /// stay distinguishable (e.g. `Rate+qaware`).
    pub fn label(&self) -> String {
        let base = self.mode.label();
        match self.scheduler {
            None => base,
            Some(s) => format!("{base}+{}", s.label()),
        }
    }
}

fn decode_transport(j: &Json, at: &str) -> Result<TransportMode, String> {
    const EXPECTED: &str =
        "vanilla, wifi_only, mpdash_rate, mpdash_duration, {\"throttled\": kbps}";
    if let Some(tag) = j.as_str() {
        return match tag {
            "vanilla" => Ok(TransportMode::Vanilla),
            "wifi_only" => Ok(TransportMode::WifiOnly),
            "mpdash_rate" => Ok(TransportMode::mpdash_rate_based()),
            "mpdash_duration" => Ok(TransportMode::mpdash_duration_based()),
            other => Err(unknown(at, "mode", other, EXPECTED)),
        };
    }
    match variant(j, at)? {
        // A zero rate is not a throttle; a zero-rate `cell` bandwidth
        // models a dead path.
        ("throttled", payload, at) => Ok(TransportMode::Throttled {
            kbps: whole(payload, &at, 1, u64::MAX)?,
        }),
        (other, ..) => Err(unknown(at, "mode", other, EXPECTED)),
    }
}

/// The `at_s`/`secs` window every fault payload carries.
fn fault_window(o: &mut Obj) -> Result<(SimTime, SimDuration), String> {
    Ok((
        SimTime::ZERO + o.secs("at_s", NON_NEGATIVE)?,
        o.secs("secs", POSITIVE)?,
    ))
}

/// Decode one externally-tagged link-fault entry — e.g.
/// `{"rate_collapse": {"at_s": 20, "secs": 40, "factor": 0.15}}` — and
/// append it to `script`.
fn decode_link_fault(script: FaultScript, j: &Json, at: &str) -> Result<FaultScript, String> {
    let (tag, payload, at) = variant(j, at)?;
    let mut o = Obj::new(payload, &at)?;
    let (start, dur) = fault_window(&mut o)?;
    let script = match tag {
        "burst_loss" => {
            let ge = GilbertElliott::default();
            script.burst_loss(
                start,
                dur,
                GilbertElliott::new(
                    o.opt_f64("p_enter", UNIT_ABOVE_ZERO)?.unwrap_or(ge.p_enter),
                    o.opt_f64("p_exit", UNIT_ABOVE_ZERO)?.unwrap_or(ge.p_exit),
                    o.opt_f64("loss", UNIT)?.unwrap_or(ge.loss_bad),
                ),
            )
        }
        "rtt_spike" => script.rtt_spike(
            start,
            dur,
            SimDuration::from_secs_f64(o.opt_f64("extra_ms", NON_NEGATIVE)?.unwrap_or(200.0) / 1e3),
            SimDuration::from_secs_f64(o.opt_f64("jitter_ms", NON_NEGATIVE)?.unwrap_or(0.0) / 1e3),
        ),
        "rate_collapse" => script.rate_collapse(start, dur, o.f64("factor", UNIT_ABOVE_ZERO)?),
        "disassociation" => script.disassociation(
            start,
            dur,
            o.opt_secs("reassoc_s", NON_NEGATIVE)?
                .unwrap_or(SimDuration::from_secs(1)),
        ),
        other => {
            return Err(unknown(
                &at,
                "fault kind",
                other,
                "burst_loss, rtt_spike, rate_collapse, disassociation",
            ))
        }
    };
    o.finish()?;
    Ok(script)
}

/// Decode one externally-tagged server-fault entry — e.g.
/// `{"stalled_body": {"at_s": 8, "secs": 6, "stall_s": 30, "after_fraction": 0.5}}`
/// — and append it to `script`.
fn decode_server_fault(
    script: ServerFaultScript,
    j: &Json,
    at: &str,
) -> Result<ServerFaultScript, String> {
    let (tag, payload, at) = variant(j, at)?;
    let mut o = Obj::new(payload, &at)?;
    let (start, dur) = fault_window(&mut o)?;
    let script = match tag {
        "error_burst" => script.error_burst(start, dur),
        "blackhole" => script.blackhole(start, dur),
        "stalled_body" => script.stalled_body(
            start,
            dur,
            o.secs("stall_s", POSITIVE)?,
            o.opt_f64("after_fraction", UNIT_BELOW_ONE)?.unwrap_or(0.5),
        ),
        "slow_first_byte" => script.slow_first_byte(start, dur, o.secs("delay_s", POSITIVE)?),
        other => {
            return Err(unknown(
                &at,
                "server fault kind",
                other,
                "error_burst, blackhole, stalled_body, slow_first_byte",
            ))
        }
    };
    o.finish()?;
    Ok(script)
}

fn link_faults(o: &mut Obj, key: &'static str) -> Result<FaultScript, String> {
    o.items(key, false)?
        .into_iter()
        .try_fold(FaultScript::new(), |script, (j, at)| {
            decode_link_fault(script, j, &at)
        })
}

fn server_faults(o: &mut Obj, key: &'static str) -> Result<ServerFaultScript, String> {
    o.items(key, false)?
        .into_iter()
        .try_fold(ServerFaultScript::new(), |script, (j, at)| {
            decode_server_fault(script, j, &at)
        })
}

/// The AQM knobs of one `fleet.shared[]` entry, over the discipline's
/// defaults. `alpha`/`beta` are PIE gains, so CoDel is not asked for
/// them and they fall to [`Obj::finish`] there.
fn decode_aqm(o: &mut Obj, mut aqm: AqmConfig, pie_gains: bool) -> Result<AqmConfig, String> {
    if let Some(ms) = o.opt_f64("target_delay_ms", POSITIVE)? {
        aqm = aqm.with_target_ms(ms);
    }
    if let Some(ms) = o.opt_f64("interval_ms", POSITIVE)? {
        aqm = aqm.with_interval_ms(ms);
    }
    if pie_gains {
        if let Some(alpha) = o.opt_f64("alpha", NON_NEGATIVE)? {
            aqm = aqm.with_alpha(alpha);
        }
        if let Some(beta) = o.opt_f64("beta", NON_NEGATIVE)? {
            aqm = aqm.with_beta(beta);
        }
    }
    if let Some(ecn) = o.opt_bool("ecn")? {
        aqm = aqm.with_ecn(ecn);
    }
    for (key, ns) in [
        ("target_delay_ms", aqm.target_ns),
        ("interval_ms", aqm.interval_ns),
    ] {
        if ns == 0 {
            return Err(format!("{}: must be at least one nanosecond", o.at(key)));
        }
    }
    Ok(aqm)
}

/// One shared bottleneck (`fleet.shared[]`): `rate_mbps`, optional
/// `capacity_bytes`, the subscribing `paths` (`wifi` and/or `cell`), and
/// a `discipline` — `fifo` (drop-tail, the default), `fq` (per-flow
/// DRR), or an AQM: `pie`, `fq_pie` (DRR + per-flow PIE), `codel`. Each
/// discipline is asked only for the knobs it takes (`quantum` on the
/// per-flow ones, the AQM knobs on the AQMs), so a knob on the wrong
/// discipline is an unknown key.
fn decode_shared(j: &Json, at: &str) -> Result<SharedLinkSpec, String> {
    let mut o = Obj::new(j, at)?;
    let mut config = SharedBottleneckConfig::fifo_mbps(o.f64("rate_mbps", POSITIVE)?);
    if config.rate.is_zero() {
        return Err(format!("{}: must be at least 1 bit/s", o.at("rate_mbps")));
    }
    if let Some(bytes) = o.opt_uint("capacity_bytes", 1, u64::MAX)? {
        config = config.with_capacity(bytes);
    }
    let discipline = o.opt("discipline", text)?.unwrap_or("fifo");
    config.discipline = match discipline {
        "fifo" => QueueDiscipline::Fifo,
        "fq" => QueueDiscipline::FlowQueue {
            quantum: o.opt_uint("quantum", 1, u64::MAX)?.unwrap_or(DRR_QUANTUM),
        },
        "pie" => QueueDiscipline::Pie(decode_aqm(&mut o, AqmConfig::pie(), true)?),
        "fq_pie" => QueueDiscipline::FqPie {
            quantum: o.opt_uint("quantum", 1, u64::MAX)?.unwrap_or(DRR_QUANTUM),
            aqm: decode_aqm(&mut o, AqmConfig::pie(), true)?,
        },
        "codel" => QueueDiscipline::Codel(decode_aqm(&mut o, AqmConfig::codel(), false)?),
        other => {
            return Err(unknown(
                &o.at("discipline"),
                "discipline",
                other,
                "fifo, fq, pie, fq_pie, codel",
            ))
        }
    };
    let paths = o.list("paths", true, |j, at| match text(j, at)? {
        "wifi" => Ok(PathId::WIFI),
        "cell" => Ok(PathId::CELLULAR),
        other => Err(unknown(at, "path", other, "wifi, cell")),
    })?;
    o.finish()
        .map_err(|e| format!("{e} under discipline '{discipline}'"))?;
    Ok(SharedLinkSpec { config, paths })
}

/// Seeded fleet churn (`fleet.churn`): exponential inter-arrivals and
/// viewing times with the given means (seconds) replace the fixed
/// stagger; `min_watch_s` floors the viewing draw.
fn decode_churn(j: &Json, at: &str) -> Result<ChurnSpec, String> {
    let mut o = Obj::new(j, at)?;
    let mut spec = ChurnSpec::new(
        o.secs("mean_interarrival_s", POSITIVE)?,
        o.secs("mean_watch_s", POSITIVE)?,
    );
    if let Some(floor) = o.opt_secs("min_watch_s", NON_NEGATIVE)? {
        spec = spec.with_min_watch(floor);
    }
    o.finish()?;
    Ok(spec)
}

/// One correlated fault domain (`fleet.fault_domains[]`): `members`
/// (client indices) share the `wifi_faults`/`cell_faults`/
/// `server_faults` scripts, same entry format as the top-level keys.
fn decode_fault_domain(j: &Json, at: &str, clients: usize) -> Result<FaultDomainSpec, String> {
    let mut o = Obj::new(j, at)?;
    let label = o.str("label")?;
    let mut members: Vec<usize> = Vec::new();
    for (j, at) in o.items("members", true)? {
        let member = whole(j, &at, 0, (clients - 1) as u64)?;
        if members.contains(&member) {
            return Err(format!(
                "{at}: client {member} is listed twice (the domain's scripts would \
                 compose onto it once per listing)"
            ));
        }
        members.push(member);
    }
    let domain = FaultDomainSpec::new(label, members)
        .with_wifi(link_faults(&mut o, "wifi_faults")?)
        .with_cell(link_faults(&mut o, "cell_faults")?)
        .with_server(server_faults(&mut o, "server_faults")?);
    if domain.wifi.is_empty() && domain.cell.is_empty() && domain.server.is_empty() {
        return Err(format!(
            "{at}: has no fault scripts (add wifi_faults, cell_faults, or \
             server_faults — or drop the domain)"
        ));
    }
    o.finish()?;
    Ok(domain)
}

/// Overload protection (`fleet.overload`): arrivals past `max_active`
/// concurrent sessions — or while the shared queues hold more than
/// `queue_threshold_bytes` — are shed, newest first.
fn decode_overload(j: &Json, at: &str) -> Result<OverloadPolicy, String> {
    let mut o = Obj::new(j, at)?;
    // A zero cap would shed every session; dropping the key admits
    // everyone.
    let mut policy = OverloadPolicy::max_active(o.uint("max_active", 1, u64::MAX)?);
    if let Some(bytes) = o.opt_uint("queue_threshold_bytes", 1, u64::MAX)? {
        policy = policy.with_queue_threshold(bytes);
    }
    o.finish()?;
    Ok(policy)
}

/// Multi-client co-simulation topology (the optional `fleet` key):
/// `clients` copies of `base` under [`FleetConfig::new`], whose defaults
/// each other key overrides only when present. No `shared` bottleneck
/// means private links (a no-contention control fleet); `churn`
/// supersedes the stagger.
fn decode_fleet(j: &Json, at: &str, base: &SessionConfig) -> Result<FleetConfig, String> {
    let mut o = Obj::new(j, at)?;
    let clients = o.uint("clients", 1, FleetConfig::MAX_CLIENTS as u64)?;
    let mut fleet = FleetConfig::new(base.clone(), clients);
    if let Some(stagger) = o.opt_secs("stagger_s", NON_NEGATIVE)? {
        fleet.stagger = stagger;
    }
    if let Some(skew) = o.opt_uint("rtt_skew_ms", 0, MAX_MILLIS)? {
        let spread = (clients as u64 - 1) * skew;
        if spread > MAX_RTT_SPREAD_MS {
            return Err(format!(
                "{}: the last of {clients} clients would get {spread} ms of extra one-way \
                 delay ((clients - 1) x rtt_skew_ms), more than {MAX_RTT_SPREAD_MS}",
                o.at("rtt_skew_ms")
            ));
        }
        fleet.rtt_skew = SimDuration::from_millis(skew);
    }
    if let Some(seed) = o.opt_uint("seed", 0, u64::MAX)? {
        fleet.seed = seed;
    }
    fleet.shared.extend(o.list("shared", false, decode_shared)?);
    fleet.churn = o.opt("churn", decode_churn)?.or(fleet.churn);
    fleet
        .fault_domains
        .extend(o.list("fault_domains", false, |j, at| {
            decode_fault_domain(j, at, clients)
        })?);
    fleet.overload = o.opt("overload", decode_overload)?.or(fleet.overload);
    fleet.watchdog = o.opt_bool("watchdog")?.or(fleet.watchdog);
    o.finish()?;
    Ok(fleet)
}

/// Multi-origin serving policy (the optional `origins` key): `pool[]`
/// in priority order — each entry an `id` (unique), an optional
/// `rtt_penalty_ms` and its own `faults` script — plus `hedge_quantile`
/// in `(0, 1]` (absent disables hedging) and `failure_threshold`
/// (consecutive failures that trip a breaker, default 2).
fn decode_origins(j: &Json, at: &str) -> Result<OriginPoolConfig, String> {
    let mut o = Obj::new(j, at)?;
    let mut pool: Vec<OriginSpec> = Vec::new();
    for (j, at) in o.items("pool", true)? {
        let mut entry = Obj::new(j, &at)?;
        let id = entry.str("id")?;
        if pool.iter().any(|earlier| earlier.id == id) {
            return Err(format!(
                "{}: duplicate origin id '{id}' (pool ids must be unique so \
                 explain/trace attribution stays unambiguous)",
                entry.at("id")
            ));
        }
        let mut origin = OriginSpec::new(id);
        if let Some(penalty) = entry.opt_millis("rtt_penalty_ms", 0)? {
            origin = origin.with_rtt_penalty(penalty);
        }
        pool.push(origin.with_faults(server_faults(&mut entry, "faults")?));
        entry.finish()?;
    }
    let mut config = OriginPoolConfig::new(pool);
    // 0 would hedge instantly, >1 can never fire before the deadline.
    if let Some(quantile) = o.opt_f64("hedge_quantile", UNIT_ABOVE_ZERO)? {
        config = config.with_hedge_quantile(quantile);
    }
    // A zero threshold would trip every breaker on sight.
    if let Some(threshold) = o.opt_uint("failure_threshold", 1, u32::MAX.into())? {
        config = config.with_failure_threshold(threshold);
    }
    o.finish()?;
    Ok(config)
}

/// Shared segment cache in front of the origins (the optional `cache`
/// key): `capacity_mb`, and the modeled delivery delay of a hit,
/// `edge_delay_ms` (default 5).
fn decode_cache(j: &Json, at: &str) -> Result<FleetCacheSpec, String> {
    let mut o = Obj::new(j, at)?;
    let bytes = (o.f64("capacity_mb", POSITIVE)? * (1 << 20) as f64) as u64;
    if bytes == 0 {
        return Err(format!(
            "{}: must be at least one byte (drop the 'cache' key to run uncached)",
            o.at("capacity_mb")
        ));
    }
    let mut spec = FleetCacheSpec::new(bytes);
    if let Some(delay) = o.opt_millis("edge_delay_ms", 0)? {
        spec = spec.with_edge_delay(delay);
    }
    o.finish()?;
    Ok(spec)
}

fn decode_telemetry(j: &Json, at: &str) -> Result<TelemetrySpec, String> {
    let mut o = Obj::new(j, at)?;
    let secs = o.f64("epoch_s", POSITIVE)?;
    let epoch = SimDuration::from_secs_f64(secs);
    // A series stores every epoch from its first write to its last, and
    // nothing samples faster than the 50 ms tick: a finer epoch only
    // exhausts memory (or rounds to zero).
    if epoch < TelemetrySpec::MIN_EPOCH {
        return Err(format!(
            "{}: must be at least 0.001 (one millisecond), got {secs}",
            o.at("epoch_s")
        ));
    }
    o.finish()?;
    Ok(TelemetrySpec::new(epoch))
}

/// A complete scenario document, decoded onto the library's own
/// configs: what the document leaves out keeps the library's default.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario title for the report.
    pub name: String,
    /// Every session key (RTTs, buffer, fault scripts, lifecycle,
    /// origins, telemetry) over `SessionConfig::controlled((wifi, cell),
    /// abr, _).with_video(video)`. Its `mode` and `scheduler` are
    /// [`Scenario::build`]'s to set.
    pub base: SessionConfig,
    /// Transport policies to compare, in order.
    pub modes: Vec<ModeSpec>,
    /// Optional shared segment cache in front of the origins. A solo
    /// session gets a fresh cache per mode; in fleet runs every client
    /// shares one cache built fresh per run.
    pub cache: Option<FleetCacheSpec>,
    /// Optional multi-client fleet topology, with `base` as its template
    /// and `cache` as its cache. When present the runner co-simulates
    /// `clients` sessions per mode instead of one.
    pub fleet: Option<FleetConfig>,
}

impl Scenario {
    /// Parse a scenario document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        // Keys are decoded in one fixed order, so the first error a
        // document reports never depends on how its defaults are kept.
        let mut o = Obj::new(&doc, "")?;
        let name = o.str("name")?.to_string();
        let video = o.req("video", decode_video)?;
        let wifi = o.req("wifi", decode_bandwidth)?;
        let cell = o.req("cell", decode_bandwidth)?;
        let wifi_rtt = o.opt_millis("wifi_rtt_ms", 1)?;
        let cell_rtt = o.opt_millis("cell_rtt_ms", 1)?;
        let abr = o.req("abr", decode_abr)?;
        // The mode is a placeholder: `build` sets each declared one.
        let mut base =
            SessionConfig::controlled((wifi, cell), abr, TransportMode::Vanilla).with_video(video);
        // One-way delay is half the RTT; in nanoseconds, so odd RTTs
        // survive the halving exactly.
        for (link, rtt) in [(&mut base.wifi, wifi_rtt), (&mut base.cell, cell_rtt)] {
            link.delay = rtt.map_or(link.delay, |rtt| rtt / 2);
        }
        if let Some(secs) = o.opt_uint("buffer_secs", 1, MAX_SECS)? {
            base.buffer_capacity = SimDuration::from_secs(secs);
        }
        let modes = o.list("modes", true, ModeSpec::decode)?;
        let wifi = link_faults(&mut o, "wifi_faults")?;
        let cell = link_faults(&mut o, "cell_faults")?;
        for (link, script) in [(&mut base.wifi, wifi), (&mut base.cell, cell)] {
            if !script.is_empty() {
                link.faults = Some(script);
            }
        }
        // An absent array is the empty script, a healthy server.
        base.server_faults = server_faults(&mut o, "server_faults")?;
        if let Some(policy) = o.opt("lifecycle", decode_lifecycle)? {
            base = base.with_lifecycle(policy);
        }
        let mut fleet = o.opt("fleet", |j, at| decode_fleet(j, at, &base))?;
        base.origins = o.opt("origins", decode_origins)?.or(base.origins);
        let cache = o.opt("cache", decode_cache)?;
        base.telemetry = o.opt("telemetry", decode_telemetry)?.or(base.telemetry);
        o.finish()?;
        if base.origins.is_some() {
            let domains = fleet.iter().flat_map(|f| &f.fault_domains);
            let in_domain = domains
                .enumerate()
                .find(|(_, d)| !d.server.is_empty())
                .map(|(i, _)| format!("fleet.fault_domains[{i}].server_faults"));
            let top_level = (!base.server_faults.is_empty()).then(|| "server_faults".into());
            if let Some(path) = top_level.or(in_domain) {
                return Err(format!(
                    "{path}: never applies once `origins` is set (every request is served \
                     by a pool origin) — move the script to origins.pool[i].faults"
                ));
            }
        }
        if let Some(fleet) = &mut fleet {
            fleet.base = base.clone();
            fleet.cache = cache.or(fleet.cache);
        }
        Ok(Scenario {
            name,
            base,
            modes,
            cache,
            fleet,
        })
    }

    /// Read and parse the document at `path`; the error says which of
    /// the two failed and names the file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Scenario::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    }

    /// The session configs, one per mode, in declaration order: `base`
    /// with the mode, its scheduler override and, when the document has
    /// a `cache` key, a fresh cache per mode — compared policies must not
    /// warm each other's working set.
    pub fn build(&self) -> Vec<(String, SessionConfig)> {
        self.modes
            .iter()
            .map(|spec| {
                let mut cfg = self.base.clone();
                cfg.mode = spec.mode;
                cfg.scheduler = spec.scheduler.unwrap_or(cfg.scheduler);
                cfg.cache = self.cache.map(|c| {
                    SharedSegmentCache::new(c.capacity_bytes).with_edge_delay(c.edge_delay)
                });
                (spec.label(), cfg)
            })
            .collect()
    }

    /// The document's fleet with one built mode config as every client's
    /// template; `None` when the document has no `fleet` key.
    pub fn fleet_config(&self, cfg: SessionConfig) -> Option<FleetConfig> {
        let mut fleet = self.fleet.clone()?;
        fleet.base = cfg;
        // In a fleet the cache is per *run*, not per mode config: the
        // fleet holds the spec, so drop the session-level handle and two
        // runs of the same FleetConfig never share warm state.
        if fleet.cache.is_some() {
            fleet.base.cache = None;
        }
        Some(fleet)
    }

    /// The fleet configs, one per mode, in declaration order; `None`
    /// when the document has no `fleet` key.
    pub fn fleet_configs(&self) -> Option<Vec<(String, FleetConfig)>> {
        self.build()
            .into_iter()
            .map(|(label, cfg)| Some((label, self.fleet_config(cfg)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "demo",
        "video": {"named": "big_buck_bunny"},
        "wifi": {"synthetic": {"mean_mbps": 3.8, "sigma": 0.1, "seed": 42}},
        "cell": {"constant": 3.0},
        "abr": "festive",
        "modes": ["vanilla", "mpdash_rate", {"throttled": 700}]
    }"#;

    #[test]
    fn parses_and_builds() {
        let sc = Scenario::from_json(DOC).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(
            sc.base.wifi.delay * 2,
            SimDuration::from_millis(50),
            "default applied"
        );
        let configs = sc.build();
        assert_eq!(configs.len(), 3);
        assert_eq!(configs[0].0, "Baseline");
        assert_eq!(configs[1].0, "Rate");
        assert_eq!(configs[2].0, "Throttle700k");
        assert_eq!(configs[0].1.video.n_chunks(), 150);
        // Priors track the declared bandwidths.
        assert!((configs[0].1.priors.0.as_mbps_f64() - 3.8).abs() < 0.4);
    }

    /// The scenario side keeps no default of its own: an absent key is
    /// whatever `controlled` and `FleetConfig::new` set.
    #[test]
    fn a_document_that_omits_every_optional_key_is_the_library_default() {
        let doc = r#"{
            "name": "minimal",
            "video": {"named": "tears_of_steel"},
            "wifi": {"constant": 3.8},
            "cell": {"constant": 3.0},
            "abr": "bba",
            "modes": ["mpdash_duration"],
            "fleet": {"clients": 4}
        }"#;
        let library = SessionConfig::controlled(
            (
                BandwidthProfile::constant_mbps(3.8),
                BandwidthProfile::constant_mbps(3.0),
            ),
            AbrKind::Bba,
            TransportMode::mpdash_duration_based(),
        )
        .with_video(Video::tears_of_steel());
        let sc = Scenario::from_json(doc).unwrap();
        let [(label, cfg)] = &sc.build()[..] else {
            panic!("one mode, one config")
        };
        assert_eq!(label, "Duration");
        assert_eq!(format!("{cfg:?}"), format!("{library:?}"));
        let [(_, fleet)] = &sc.fleet_configs().unwrap()[..] else {
            panic!("one mode, one fleet")
        };
        assert_eq!(
            format!("{fleet:?}"),
            format!("{:?}", FleetConfig::new(library, 4))
        );
    }

    #[test]
    fn rejects_unknown_names() {
        for (from, to, expect) in [
            ("festive", "quantum", "abr: unknown abr 'quantum'"),
            (
                "big_buck_bunny",
                "rickroll",
                "video.named: unknown video 'rickroll'",
            ),
            (r#"{"named":"#, r#"{"nmaed":"#, "unknown video kind 'nmaed'"),
            (
                r#"{"constant":"#,
                r#"{"steady":"#,
                "unknown bandwidth kind 'steady'",
            ),
            (
                r#""mpdash_rate""#,
                r#""mpdash_fast""#,
                "modes[1]: unknown mode",
            ),
            (
                r#"{"throttled":"#,
                r#"{"throtled":"#,
                "modes[2]: unknown mode",
            ),
        ] {
            let err = Scenario::from_json(&DOC.replace(from, to)).unwrap_err();
            assert!(err.contains(expect), "{to}: {err}");
        }
    }

    #[test]
    fn rejects_values_that_would_wedge_the_simulator() {
        for (patch, expect) in [
            (
                r#""wifi_rtt_ms": 0,"#,
                "wifi_rtt_ms: must be a whole number >= 1",
            ),
            (
                r#""buffer_secs": 0,"#,
                "buffer_secs: must be a whole number >= 1",
            ),
            // Would wrap `rtt_ms * 500` to a garbage RTT.
            (
                r#""wifi_rtt_ms": 36893488147419104,"#,
                "wifi_rtt_ms: must be a whole number >= 1 and <= 60000",
            ),
            (r#""cell_rtt_ms": 60001,"#, "cell_rtt_ms: must be"),
            (r#""buffer_secs": 86401,"#, "buffer_secs: must be"),
        ] {
            let doc = DOC.replacen(r#""name":"#, &format!("{patch} \"name\":"), 1);
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{patch}: {err}");
        }

        let doc = DOC.replace(r#"["vanilla", "mpdash_rate", {"throttled": 700}]"#, "[]");
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("modes: must list at least one"), "{err}");

        let doc = DOC.replace(r#"{"throttled": 700}"#, r#"{"throttled": 0}"#);
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(
            err.contains("modes[2].throttled: must be a whole number >= 1"),
            "{err}"
        );

        for (from, to, expect) in [
            (
                r#"{"constant": 3.0}"#,
                r#"{"constant": -1.0}"#,
                "cell.constant: must be >= 0, got -1",
            ),
            (
                r#"{"constant": 3.0}"#,
                r#"{"constant": 1e999}"#,
                "cell.constant: must be a finite number",
            ),
            (
                r#""mean_mbps": 3.8"#,
                r#""mean_mbps": 0.0"#,
                "wifi.synthetic.mean_mbps: must be > 0",
            ),
            (
                r#""sigma": 0.1"#,
                r#""sigma": -0.1"#,
                "wifi.synthetic.sigma: must be >= 0",
            ),
        ] {
            let err = Scenario::from_json(&DOC.replace(from, to)).unwrap_err();
            assert!(err.contains(expect), "{to}: {err}");
        }
    }

    #[test]
    fn per_mode_scheduler_key_parses_and_applies() {
        let doc = DOC.replace(
            r#"["vanilla", "mpdash_rate", {"throttled": 700}]"#,
            r#"["vanilla",
               {"mode": "mpdash_rate", "scheduler": "qaware"},
               {"mode": {"throttled": 700}, "scheduler": "round_robin"},
               {"mode": "vanilla"}]"#,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.modes[0].scheduler, None);
        assert_eq!(sc.modes[1].scheduler, Some(SchedulerSpec::QAware));
        assert_eq!(sc.modes[2].scheduler, Some(SchedulerSpec::RoundRobin));
        assert_eq!(sc.modes[3].scheduler, None, "long form without the key");
        let configs = sc.build();
        assert_eq!(configs[0].1.scheduler, SchedulerSpec::MinRtt, "default");
        assert_eq!(configs[1].1.scheduler, SchedulerSpec::QAware);
        assert_eq!(configs[2].1.scheduler, SchedulerSpec::RoundRobin);
        // Labels stay distinguishable per grid row.
        assert_eq!(configs[0].0, "Baseline");
        assert_eq!(configs[1].0, "Rate+qaware");
        assert_eq!(configs[2].0, "Throttle700k+round_robin");
        assert_eq!(configs[3].0, "Baseline");
    }

    #[test]
    fn rejects_an_unknown_scheduler_name() {
        let doc = DOC.replace(
            r#""mpdash_rate""#,
            r#"{"mode": "mpdash_rate", "scheduler": "lowest_latency_first"}"#,
        );
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(
            err.contains("modes[1].scheduler: unknown scheduler 'lowest_latency_first'")
                && err.contains("min_rtt, round_robin, or qaware"),
            "{err}"
        );

        let doc = DOC.replace(
            r#""mpdash_rate""#,
            r#"{"mode": "mpdash_rate", "scheduler": 3}"#,
        );
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(
            err.contains("modes[1].scheduler: must be a string"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_descending_bitrate_ladder() {
        let doc = r#"{
            "name": "bad-ladder",
            "video": {"custom": {"levels_mbps": [2.0, 1.0], "chunk_secs": 2, "n_chunks": 10}},
            "wifi": {"constant": 5.0},
            "cell": {"constant": 3.0},
            "abr": "gpac",
            "modes": ["vanilla"]
        }"#;
        for (video, expect) in [
            (
                r#""levels_mbps": [2.0, 1.0], "chunk_secs": 2, "n_chunks": 10"#,
                "video.custom.levels_mbps[1]: levels must be strictly ascending",
            ),
            (
                r#""levels_mbps": [1.0, 1.0], "chunk_secs": 2, "n_chunks": 10"#,
                "video.custom.levels_mbps[1]: levels must be strictly ascending",
            ),
            (
                r#""levels_mbps": [0.0, 1.0], "chunk_secs": 2, "n_chunks": 10"#,
                "video.custom.levels_mbps[0]: must be > 0",
            ),
            (
                r#""levels_mbps": [], "chunk_secs": 2, "n_chunks": 10"#,
                "video.custom.levels_mbps: must list at least one",
            ),
            (
                r#""levels_mbps": [1.0, 2.0], "chunk_secs": 0, "n_chunks": 10"#,
                "video.custom.chunk_secs: must be a whole number >= 1",
            ),
            (
                r#""levels_mbps": [1.0, 2.0], "chunk_secs": 2, "n_chunks": 0"#,
                "video.custom.n_chunks: must be a whole number >= 1",
            ),
        ] {
            let doc = doc.replace(
                r#""levels_mbps": [2.0, 1.0], "chunk_secs": 2, "n_chunks": 10"#,
                video,
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{video}: {err}");
        }
    }

    #[test]
    fn parses_fault_arrays_onto_links() {
        let doc = DOC.replacen(
            r#""name":"#,
            r#""wifi_faults": [
                {"rate_collapse": {"at_s": 20, "secs": 40, "factor": 0.15}},
                {"disassociation": {"at_s": 90, "secs": 10, "reassoc_s": 2}}
            ],
            "cell_faults": [
                {"rtt_spike": {"at_s": 5, "secs": 10, "extra_ms": 300, "jitter_ms": 50}}
            ],
            "name":"#,
            1,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.base.wifi.faults.as_ref().unwrap().events().len(), 2);
        assert_eq!(sc.base.cell.faults.as_ref().unwrap().events().len(), 1);
        assert_eq!(
            sc.base.wifi.faults.as_ref().unwrap().events()[0]
                .kind
                .name(),
            "rate_collapse"
        );
        // The disassociation window includes the reassociation tail.
        assert_eq!(
            sc.base.wifi.faults.as_ref().unwrap().events()[1].end(),
            SimTime::from_secs(102)
        );
        let configs = sc.build();
        let cfg = &configs[0].1;
        assert_eq!(
            cfg.wifi.faults.as_ref().map(|s| s.events().len()),
            Some(2),
            "faults land on the built WiFi link"
        );
        assert_eq!(cfg.cell.faults.as_ref().map(|s| s.events().len()), Some(1));
    }

    #[test]
    fn parses_server_faults_and_lifecycle() {
        let doc = DOC.replacen(
            r#""name":"#,
            r#""server_faults": [
                {"error_burst": {"at_s": 10, "secs": 3}},
                {"stalled_body": {"at_s": 8, "secs": 6, "stall_s": 30, "after_fraction": 0.5}},
                {"slow_first_byte": {"at_s": 12, "secs": 6, "delay_s": 1}}
            ],
            "lifecycle": "deadline_aware",
            "name":"#,
            1,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.base.server_faults.events().len(), 3);
        // Events are sorted by activation time.
        assert_eq!(
            sc.base.server_faults.events()[0].kind.name(),
            "stalled_body"
        );
        assert!(sc.base.lifecycle.abandon_resume);
        let configs = sc.build();
        assert_eq!(configs[0].1.server_faults.events().len(), 3);
        assert!(configs[0].1.lifecycle.abandon_resume);
        // Absent keys keep the passive defaults.
        let sc = Scenario::from_json(DOC).unwrap();
        assert!(sc.base.server_faults.is_empty());
        assert!(sc.base.lifecycle.is_passive());
    }

    #[test]
    fn rejects_bad_server_fault_values() {
        for (faults, expect) in [
            (
                r#"[{"error_burst": {"at_s": -1, "secs": 3}}]"#,
                "server_faults[0].error_burst.at_s: must be >= 0",
            ),
            (
                r#"[{"error_burst": {"at_s": 1, "secs": 0}}]"#,
                "error_burst.secs: must be > 0",
            ),
            (
                r#"[{"error_burst": {"at_s": 1e999, "secs": 3}}]"#,
                "error_burst.at_s: must be a finite number",
            ),
            (
                r#"[{"stalled_body": {"at_s": 1, "secs": 3, "stall_s": 5, "after_fraction": 1.0}}]"#,
                "stalled_body.after_fraction: must be in [0,1)",
            ),
            (
                r#"[{"stalled_body": {"at_s": 1, "secs": 3, "stall_s": 0}}]"#,
                "stalled_body.stall_s: must be > 0",
            ),
            (
                r#"[{"slow_first_byte": {"at_s": 1, "secs": 3, "delay_s": 0}}]"#,
                "slow_first_byte.delay_s: must be > 0",
            ),
            (
                r#"[{"ransomware": {"at_s": 1, "secs": 3}}]"#,
                "unknown server fault kind",
            ),
        ] {
            let doc = DOC.replacen(
                r#""name":"#,
                &format!(r#""server_faults": {faults}, "name":"#),
                1,
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{faults}: {err}");
        }

        let doc = DOC.replacen(r#""name":"#, r#""lifecycle": "yolo", "name":"#, 1);
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("unknown lifecycle"), "{err}");
    }

    #[test]
    fn shipped_server_faults_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/server_faults.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        assert!(!sc.base.server_faults.is_empty());
        assert!(sc.base.lifecycle.abandon_resume);
        assert_eq!(sc.build().len(), sc.modes.len());
    }

    #[test]
    fn rejects_bad_fault_values() {
        for (faults, expect) in [
            (
                r#"[{"rate_collapse": {"at_s": 5, "secs": 10, "factor": 0.0}}]"#,
                "wifi_faults[0].rate_collapse.factor: must be in (0,1]",
            ),
            (
                r#"[{"rate_collapse": {"at_s": 5, "secs": 0, "factor": 0.5}}]"#,
                "rate_collapse.secs: must be > 0",
            ),
            (
                r#"[{"rate_collapse": {"at_s": 5, "secs": 1e999, "factor": 0.5}}]"#,
                "rate_collapse.secs: must be a finite number",
            ),
            (
                r#"[{"burst_loss": {"at_s": 5, "secs": 10, "p_enter": 2.0}}]"#,
                "burst_loss.p_enter: must be in (0,1]",
            ),
            (
                r#"[{"meteor_strike": {"at_s": 5, "secs": 10}}]"#,
                "unknown fault kind",
            ),
        ] {
            let doc = DOC.replacen(
                r#""name":"#,
                &format!(r#""wifi_faults": {faults}, "name":"#),
                1,
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{faults}: {err}");
        }
    }

    const FLEET_PATCH: &str = r#""fleet": {
        "clients": 4,
        "stagger_s": 1.0,
        "rtt_skew_ms": 10,
        "seed": 7,
        "shared": [
            {"rate_mbps": 10.0, "discipline": "fq", "quantum": 1540, "paths": ["wifi"]},
            {"rate_mbps": 3.0, "discipline": "fifo", "paths": ["cell"]}
        ]
    },"#;

    fn fleet_doc(patch: &str) -> String {
        DOC.replacen(r#""name":"#, &format!("{patch} \"name\":"), 1)
    }

    #[test]
    fn parses_a_fleet_topology() {
        let sc = Scenario::from_json(&fleet_doc(FLEET_PATCH)).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 4);
        assert_eq!(fleet.shared.len(), 2);
        let configs = sc.fleet_configs().unwrap();
        assert_eq!(configs.len(), 3, "one fleet per mode");
        let fc = &configs[0].1;
        assert_eq!(fc.clients, 4);
        assert_eq!(fc.stagger, SimDuration::from_secs(1));
        assert_eq!(fc.rtt_skew, SimDuration::from_millis(10));
        assert_eq!(fc.seed, 7);
        assert_eq!(fc.shared[0].paths, vec![PathId::WIFI]);
        assert_eq!(fc.shared[1].paths, vec![PathId::CELLULAR]);
        // Documents without the key build no fleet.
        let plain = Scenario::from_json(DOC).unwrap();
        assert!(plain.fleet.is_none());
        assert!(plain.fleet_configs().is_none());
    }

    #[test]
    fn parses_aqm_disciplines_with_knobs() {
        let patch = r#""fleet": {
            "clients": 4,
            "seed": 7,
            "shared": [
                {"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": 20.0,
                 "interval_ms": 30.0, "alpha": 0.25, "beta": 2.5, "ecn": true,
                 "paths": ["wifi"]},
                {"rate_mbps": 8.0, "discipline": "fq_pie", "quantum": 3080, "paths": ["wifi"]},
                {"rate_mbps": 3.0, "discipline": "codel", "target_delay_ms": 5.0,
                 "interval_ms": 100.0, "paths": ["cell"]}
            ]
        },"#;
        let sc = Scenario::from_json(&fleet_doc(patch)).unwrap();
        let fc = &sc.fleet_configs().unwrap()[0].1;
        match fc.shared[0].config.discipline {
            QueueDiscipline::Pie(a) => {
                assert_eq!(a.target_ns, 20_000_000);
                assert_eq!(a.interval_ns, 30_000_000);
                assert_eq!(
                    a,
                    AqmConfig::pie()
                        .with_target_ms(20.0)
                        .with_interval_ms(30.0)
                        .with_alpha(0.25)
                        .with_beta(2.5)
                        .with_ecn(true)
                );
            }
            ref d => panic!("expected pie, got {d:?}"),
        }
        match fc.shared[1].config.discipline {
            QueueDiscipline::FqPie { quantum, aqm } => {
                assert_eq!(quantum, 3080);
                assert_eq!(aqm, AqmConfig::pie(), "fq_pie defaults to PIE's knobs");
            }
            ref d => panic!("expected fq_pie, got {d:?}"),
        }
        match fc.shared[2].config.discipline {
            QueueDiscipline::Codel(a) => assert_eq!(a, AqmConfig::codel()),
            ref d => panic!("expected codel, got {d:?}"),
        }
    }

    #[test]
    fn parses_the_telemetry_key_into_every_config() {
        let doc = fleet_doc(&format!(
            r#""telemetry": {{"epoch_s": 2.0}}, {FLEET_PATCH}"#
        ));
        let sc = Scenario::from_json(&doc).unwrap();
        let spec = sc.base.telemetry.expect("telemetry parsed");
        assert_eq!(spec.epoch, SimDuration::from_secs(2));
        for (_, cfg) in sc.build() {
            assert_eq!(cfg.telemetry, Some(spec));
        }
        for (_, fc) in sc.fleet_configs().unwrap() {
            assert_eq!(fc.base.telemetry, Some(spec));
        }
        // Absent key → no telemetry; bad epoch rejected.
        assert!(Scenario::from_json(DOC).unwrap().base.telemetry.is_none());
        let err = Scenario::from_json(&fleet_doc(r#""telemetry": {"epoch_s": 0.0},"#)).unwrap_err();
        assert!(err.contains("telemetry.epoch_s: must be > 0"), "{err}");
        // So is a positive epoch too fine to be a real one: 1e-10 s rounds
        // to zero nanoseconds, 1 µs is millions of dense cells a second.
        for epoch_s in ["1e-10", "0.000001", "0.0009"] {
            let doc = fleet_doc(&format!(r#""telemetry": {{"epoch_s": {epoch_s}}},"#));
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(
                err.contains("telemetry.epoch_s: must be at least 0.001"),
                "{epoch_s}: {err}"
            );
        }
        let doc = fleet_doc(r#""telemetry": {"epoch_s": 0.001},"#);
        assert!(Scenario::from_json(&doc).is_ok());
    }

    const CHURN_PATCH: &str = r#""fleet": {
        "clients": 8,
        "seed": 23,
        "watchdog": true,
        "churn": {"mean_interarrival_s": 6.0, "mean_watch_s": 30.0, "min_watch_s": 4.0},
        "fault_domains": [
            {"label": "region", "members": [0, 1, 2, 3],
             "wifi_faults": [{"disassociation": {"at_s": 30, "secs": 3, "reassoc_s": 1}}]}
        ],
        "overload": {"max_active": 4, "queue_threshold_bytes": 262144},
        "shared": [
            {"rate_mbps": 4.8, "paths": ["wifi"]},
            {"rate_mbps": 3.0, "paths": ["cell"]}
        ]
    },"#;

    #[test]
    fn parses_churn_domains_and_overload_onto_the_fleet() {
        let sc = Scenario::from_json(&fleet_doc(CHURN_PATCH)).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        let churn = fleet.churn.as_ref().unwrap();
        assert_eq!(churn.mean_interarrival, SimDuration::from_secs(6));
        assert_eq!(fleet.fault_domains.len(), 1);
        assert_eq!(fleet.fault_domains[0].members, vec![0, 1, 2, 3]);
        assert_eq!(fleet.overload.unwrap().max_active, 4);

        let configs = sc.fleet_configs().unwrap();
        let fc = &configs[0].1;
        let built = fc.churn.expect("churn forwarded");
        assert_eq!(built.mean_interarrival, SimDuration::from_secs(6));
        assert_eq!(built.mean_watch, SimDuration::from_secs(30));
        assert_eq!(built.min_watch, SimDuration::from_secs(4));
        assert_eq!(fc.fault_domains.len(), 1);
        assert_eq!(fc.fault_domains[0].label, "region");
        assert_eq!(fc.fault_domains[0].wifi.events().len(), 1);
        assert!(fc.fault_domains[0].cell.is_empty());
        let overload = fc.overload.expect("overload forwarded");
        assert_eq!(overload.max_active, 4);
        assert_eq!(overload.queue_threshold_bytes, 262144);
        assert_eq!(fc.watchdog, Some(true));

        // Documents without the keys keep the plain staggered fleet.
        let plain = Scenario::from_json(&fleet_doc(FLEET_PATCH)).unwrap();
        let fc = &plain.fleet_configs().unwrap()[0].1;
        assert!(fc.churn.is_none() && fc.fault_domains.is_empty());
        assert!(fc.overload.is_none() && fc.watchdog.is_none());
    }

    /// Each row is refused with a path-qualified message, except where
    /// the message is empty: that row sits at a bound and must parse.
    #[test]
    fn rejects_wedging_fleet_values() {
        for (patch, expect) in [
            (r#""fleet": {"clients": 0},"#, "fleet.clients: must be a whole number >= 1"),
            (
                r#""fleet": {"clients": 1e12},"#,
                "fleet.clients: must be a whole number >= 1 and <= 65536, got 1000000000000",
            ),
            (
                r#""fleet": {"clients": 4, "stagger_s": -1.0},"#,
                "fleet.stagger_s: must be >= 0",
            ),
            (
                r#""fleet": {"clients": 4, "stagger_s": 1e999},"#,
                "fleet.stagger_s: must be a finite number",
            ),
            (
                r#""fleet": {"clients": 4, "rtt_skew_ms": -5},"#,
                "fleet.rtt_skew_ms: must be a whole number >= 0 and <= 60000, got -5",
            ),
            (
                r#""fleet": {"clients": 4, "rtt_skew_ms": 60001},"#,
                "fleet.rtt_skew_ms: must be",
            ),
            (
                r#""fleet": {"clients": 1024, "rtt_skew_ms": 10},"#,
                "fleet.rtt_skew_ms: the last of 1024 clients would get 10230 ms of extra \
                 one-way delay ((clients - 1) x rtt_skew_ms), more than 1000",
            ),
            (r#""fleet": {"clients": 101, "rtt_skew_ms": 10},"#, ""),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 0.0, "mean_watch_s": 30}},"#,
                "fleet.churn.mean_interarrival_s: must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 6, "mean_watch_s": -2.0}},"#,
                "fleet.churn.mean_watch_s: must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 6, "mean_watch_s": 30, "min_watch_s": -1.0}},"#,
                "fleet.churn.min_watch_s: must be >= 0",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_watch_s": 30}},"#,
                "fleet.churn.mean_interarrival_s: missing required key",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": []}]},"#,
                "fleet.fault_domains[0].members: must list at least one",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [7],
                   "wifi_faults": [{"disassociation": {"at_s": 1, "secs": 1}}]}]},"#,
                "fleet.fault_domains[0].members[0]: must be a whole number >= 0 and <= 3, got 7",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [1, 1],
                   "wifi_faults": [{"disassociation": {"at_s": 1, "secs": 1}}]}]},"#,
                "fleet.fault_domains[0].members[1]: client 1 is listed twice",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [0]}]},"#,
                "fleet.fault_domains[0]: has no fault scripts",
            ),
            (
                r#""fleet": {"clients": 4, "overload": {"max_active": 0}},"#,
                "fleet.overload.max_active: must be a whole number >= 1",
            ),
            (
                r#""fleet": {"clients": 4, "overload": {"max_active": 2, "queue_threshold_bytes": 0}},"#,
                "fleet.overload.queue_threshold_bytes: must be a whole number >= 1",
            ),
            (
                r#""fleet": {"clients": 4, "watchdog": "on"},"#,
                "fleet.watchdog: must be a boolean",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "paths": []}]},"#,
                "fleet.shared[0].paths: must list at least one",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 0.0, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].rate_mbps: must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 1e999, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].rate_mbps: must be a finite number",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 1e-9, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].rate_mbps: must be at least 1 bit/s",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "capacity_bytes": 0, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].capacity_bytes: must be a whole number >= 1",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "red", "paths": ["wifi"]}]},"#,
                "fleet.shared[0].discipline: unknown discipline 'red' (expected fifo, fq, pie, fq_pie, codel)",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "paths": ["starlink"]}]},"#,
                "fleet.shared[0].paths[0]: unknown path 'starlink'",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "fifo", "ecn": true, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].ecn: unknown key (fleet.shared[0] accepts: rate_mbps, capacity_bytes, discipline, paths) under discipline 'fifo'",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "fq", "target_delay_ms": 15.0, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].target_delay_ms: unknown key",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": 0.0, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].target_delay_ms: must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": -3, "paths": ["wifi"]}, {"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": -3, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].target_delay_ms: must be > 0, got -3",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "codel", "interval_ms": 1e-9, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].interval_ms: must be at least one nanosecond",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "alpha": 1e999, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].alpha: must be a finite number",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "codel", "alpha": 0.125, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].alpha: unknown key (fleet.shared[0] accepts: rate_mbps, capacity_bytes, discipline, target_delay_ms, interval_ms, ecn, paths) under discipline 'codel'",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "quantum": 1540, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].quantum: unknown key",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "beta": -1.0, "paths": ["wifi"]}]},"#,
                "fleet.shared[0].beta: must be >= 0",
            ),
        ] {
            match Scenario::from_json(&fleet_doc(patch)) {
                Err(err) => assert!(!expect.is_empty() && err.contains(expect), "{patch}: {err}"),
                Ok(sc) => assert!(expect.is_empty() && sc.fleet_configs().is_some(), "{patch}"),
            }
        }
    }

    #[test]
    fn shipped_churn_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/churn.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert!(fleet.churn.is_some());
        assert_eq!(fleet.fault_domains.len(), 1);
        assert!(fleet.overload.is_some());
        assert_eq!(fleet.watchdog, Some(true));
        assert!(sc.fleet_configs().is_some());
    }

    #[test]
    fn shipped_fleet_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fleet.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 16);
        assert!(!fleet.shared.is_empty());
        assert!(sc.fleet_configs().is_some());
    }

    #[test]
    fn shipped_aqm_scenario_parses_to_fq_pie() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/aqm.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 8);
        assert!(matches!(
            fleet.shared[0].config.discipline,
            QueueDiscipline::FqPie { quantum: 1540, aqm }
                if aqm.ecn && aqm.target_ns == 15_000_000
        ));
        assert!(sc.fleet_configs().is_some());
    }

    const ORIGINS_PATCH: &str = r#""origins": {
        "hedge_quantile": 0.5,
        "failure_threshold": 3,
        "pool": [
            {"id": "primary", "faults": [{"error_burst": {"at_s": 10, "secs": 3}}]},
            {"id": "backup", "rtt_penalty_ms": 30}
        ]
    },
    "cache": {"capacity_mb": 64, "edge_delay_ms": 8},"#;

    #[test]
    fn parses_origins_and_cache_onto_sessions() {
        let doc = fleet_doc(ORIGINS_PATCH);
        let sc = Scenario::from_json(&doc).unwrap();
        let origins = sc.base.origins.as_ref().unwrap();
        assert_eq!(origins.origins.len(), 2);
        assert_eq!(origins.hedge_quantile, Some(0.5));
        let configs = sc.build();
        let pool = configs[0].1.origins.as_ref().unwrap();
        assert_eq!(pool.origins.len(), 2);
        assert_eq!(pool.origins[0].id, "primary");
        assert_eq!(pool.origins[0].faults.events().len(), 1);
        assert_eq!(
            pool.origins[1].rtt_penalty,
            SimDuration::from_millis(30),
            "the backup's RTT penalty survives the build"
        );
        assert_eq!(pool.failure_threshold, 3);
        assert_eq!(pool.hedge_quantile, Some(0.5));
        assert_eq!(sc.cache.unwrap().capacity_bytes, 64 << 20);
        let cache = configs[0].1.cache.as_ref().unwrap();
        assert_eq!(cache.capacity_bytes(), 64 << 20);
        assert_eq!(cache.edge_delay(), SimDuration::from_millis(8));
        // Documents without the keys keep the single implicit origin.
        let plain = Scenario::from_json(DOC).unwrap();
        assert!(plain.base.origins.is_none() && plain.cache.is_none());
        assert!(plain.build()[0].1.origins.is_none());
    }

    #[test]
    fn fleet_builds_share_one_cache_spec_not_a_live_handle() {
        let doc = fleet_doc(&format!("{FLEET_PATCH} {ORIGINS_PATCH}"));
        let sc = Scenario::from_json(&doc).unwrap();
        let configs = sc.fleet_configs().unwrap();
        let fc = &configs[0].1;
        let spec = fc.cache.expect("fleet inherits the cache key");
        assert_eq!(spec.capacity_bytes, 64 << 20);
        assert_eq!(spec.edge_delay, SimDuration::from_millis(8));
        assert!(
            fc.base.cache.is_none(),
            "the session-level handle must be stripped so each fleet run \
             builds a fresh cache"
        );
        assert!(fc.base.origins.is_some(), "the pool rides into the fleet");
    }

    #[test]
    fn rejects_bad_origins_and_cache_values() {
        for (patch, expect) in [
            (
                r#""origins": {"pool": []},"#,
                "origins.pool: must list at least one",
            ),
            (
                r#""origins": {"pool": [{"id": "a"}, {"id": "a"}]},"#,
                "origins.pool[1].id: duplicate origin id 'a'",
            ),
            (
                r#""origins": {"hedge_quantile": 0.0, "pool": [{"id": "a"}]},"#,
                "origins.hedge_quantile: must be in (0,1]",
            ),
            (
                r#""origins": {"hedge_quantile": 1.5, "pool": [{"id": "a"}]},"#,
                "origins.hedge_quantile: must be in (0,1]",
            ),
            (
                r#""origins": {"failure_threshold": 0, "pool": [{"id": "a"}]},"#,
                "origins.failure_threshold: must be a whole number >= 1",
            ),
            // Would be cast `as u32` to 0 after passing the zero check.
            (
                r#""origins": {"failure_threshold": 4294967296, "pool": [{"id": "a"}]},"#,
                "origins.failure_threshold: must be a whole number >= 1 and <= 4294967295",
            ),
            (
                r#""origins": {"pool": [{"id": "a", "rtt_penalty_ms": 60001}]},"#,
                "origins.pool[0].rtt_penalty_ms: must be",
            ),
            (
                r#""origins": {"pool": [{"rtt_penalty_ms": 5}]},"#,
                "origins.pool[0].id: missing required key",
            ),
            // A pool serves every request, so a script on the implicit
            // origin would be silently inert.
            (
                r#""origins": {"pool": [{"id": "a"}]},
                   "server_faults": [{"error_burst": {"at_s": 10, "secs": 3}}],"#,
                "server_faults: never applies once `origins` is set (every request is served by \
                 a pool origin) — move the script to origins.pool[i].faults",
            ),
            (
                r#""origins": {"pool": [{"id": "a"}]},
                   "fleet": {"clients": 2, "fault_domains": [
                       {"label": "wifi", "members": [0],
                        "wifi_faults": [{"rtt_spike": {"at_s": 5, "secs": 2, "extra_ms": 80}}]},
                       {"label": "rack", "members": [1],
                        "server_faults": [{"error_burst": {"at_s": 10, "secs": 3}}]}]},"#,
                "fleet.fault_domains[1].server_faults: never applies once `origins` is set",
            ),
            (
                r#""cache": {"capacity_mb": 0},"#,
                "cache.capacity_mb: must be > 0",
            ),
            (
                r#""cache": {"capacity_mb": -3.5},"#,
                "cache.capacity_mb: must be > 0",
            ),
            (
                r#""cache": {"capacity_mb": 1e999},"#,
                "cache.capacity_mb: must be a finite number",
            ),
            (
                r#""cache": {"capacity_mb": 1e-9},"#,
                "cache.capacity_mb: must be at least one byte",
            ),
            (
                r#""cache": {"capacity_mb": 64, "edge_delay_ms": 60001},"#,
                "cache.edge_delay_ms: must be",
            ),
            (
                r#""cache": {"edge_delay_ms": 5},"#,
                "cache.capacity_mb: missing required key",
            ),
        ] {
            let err = Scenario::from_json(&fleet_doc(patch)).unwrap_err();
            assert!(err.contains(expect), "{patch}: {err}");
        }
    }

    #[test]
    fn shipped_origins_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/origins.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let origins = sc.base.origins.as_ref().unwrap();
        assert!(origins.origins.len() >= 2);
        assert!(origins.hedge_quantile.is_some());
        assert!(sc.cache.is_some());
        assert_eq!(sc.build().len(), sc.modes.len());
    }

    /// A document with one instance of every object level the format
    /// has — bar `origins`, which excludes `server_faults` and so gets
    /// [`ORIGINS_LEVELS`].
    const EVERY_LEVEL: &str = r#"{
        "name": "every-level",
        "video": {"custom": {"levels_mbps": [1.0, 2.0], "chunk_secs": 2, "n_chunks": 10}},
        "wifi": {"synthetic": {"mean_mbps": 3.8, "sigma": 0.1, "seed": 42}},
        "cell": {"constant": 3.0},
        "abr": "festive",
        "modes": ["vanilla", {"mode": "mpdash_rate", "scheduler": "qaware"}],
        "wifi_faults": [
            {"burst_loss": {"at_s": 1, "secs": 2, "loss": 0.4}},
            {"rtt_spike": {"at_s": 4, "secs": 2, "extra_ms": 100}},
            {"rate_collapse": {"at_s": 7, "secs": 2, "factor": 0.5}},
            {"disassociation": {"at_s": 10, "secs": 2, "reassoc_s": 1}}
        ],
        "server_faults": [
            {"error_burst": {"at_s": 1, "secs": 2}},
            {"blackhole": {"at_s": 4, "secs": 2}},
            {"stalled_body": {"at_s": 7, "secs": 2, "stall_s": 5}},
            {"slow_first_byte": {"at_s": 10, "secs": 2, "delay_s": 1}}
        ],
        "fleet": {
            "clients": 4,
            "shared": [{"rate_mbps": 10.0, "discipline": "fq_pie", "paths": ["wifi"]}],
            "churn": {"mean_interarrival_s": 6.0, "mean_watch_s": 30.0},
            "overload": {"max_active": 2},
            "fault_domains": [
                {"label": "r", "members": [0], "cell_faults": [{"rtt_spike": {"at_s": 1, "secs": 1}}]}
            ]
        },
        "cache": {"capacity_mb": 64},
        "telemetry": {"epoch_s": 2.0}
    }"#;

    const ORIGINS_LEVELS: &str = r#"{
        "name": "origins-levels",
        "video": {"custom": {"levels_mbps": [1.0, 2.0], "chunk_secs": 2, "n_chunks": 10}},
        "wifi": {"constant": 3.8},
        "cell": {"constant": 3.0},
        "abr": "festive",
        "modes": ["mpdash_rate"],
        "origins": {"pool": [{"id": "a", "faults": [{"blackhole": {"at_s": 1, "secs": 1}}]}]}
    }"#;

    #[test]
    fn a_misspelt_key_is_an_error_at_every_object_level() {
        for doc in [EVERY_LEVEL, ORIGINS_LEVELS] {
            Scenario::from_json(doc).expect("the unpatched document parses");
        }
        // (text opening the level, the level's path)
        for (opening, level) in [
            (
                r#"{
        "name":"#,
                "",
            ),
            (r#"{"levels_mbps":"#, "video.custom"),
            (r#"{"mean_mbps":"#, "wifi.synthetic"),
            (r#"{"mode":"#, "modes[1]"),
            (
                r#"{"at_s": 1, "secs": 2, "loss":"#,
                "wifi_faults[0].burst_loss",
            ),
            (
                r#"{"at_s": 4, "secs": 2, "extra_ms":"#,
                "wifi_faults[1].rtt_spike",
            ),
            (
                r#"{"at_s": 7, "secs": 2, "factor":"#,
                "wifi_faults[2].rate_collapse",
            ),
            (
                r#"{"at_s": 10, "secs": 2, "reassoc_s":"#,
                "wifi_faults[3].disassociation",
            ),
            (r#"{"at_s": 1, "secs": 2}"#, "server_faults[0].error_burst"),
            (r#"{"at_s": 4, "secs": 2}"#, "server_faults[1].blackhole"),
            (
                r#"{"at_s": 7, "secs": 2, "stall_s":"#,
                "server_faults[2].stalled_body",
            ),
            (
                r#"{"at_s": 10, "secs": 2, "delay_s":"#,
                "server_faults[3].slow_first_byte",
            ),
            (
                r#"{
            "clients":"#,
                "fleet",
            ),
            (r#"{"rate_mbps":"#, "fleet.shared[0]"),
            (r#"{"mean_interarrival_s":"#, "fleet.churn"),
            (r#"{"max_active":"#, "fleet.overload"),
            (r#"{"label":"#, "fleet.fault_domains[0]"),
            (
                r#"{"at_s": 1, "secs": 1}}]}
            ]"#,
                "fleet.fault_domains[0].cell_faults[0].rtt_spike",
            ),
            (r#"{"pool":"#, "origins"),
            (r#"{"id":"#, "origins.pool[0]"),
            (
                r#"{"at_s": 1, "secs": 1}}]}]}"#,
                "origins.pool[0].faults[0].blackhole",
            ),
            (r#"{"capacity_mb":"#, "cache"),
            (r#"{"epoch_s":"#, "telemetry"),
        ] {
            let doc = match level.starts_with("origins") {
                true => ORIGINS_LEVELS,
                false => EVERY_LEVEL,
            };
            assert_eq!(doc.matches(opening).count(), 1, "{opening}");
            let patched = opening.replacen('{', r#"{"overlaod": 1, "#, 1);
            let err = Scenario::from_json(&doc.replace(opening, &patched)).unwrap_err();
            let key = match level {
                "" => "overlaod".to_string(),
                level => format!("{level}.overlaod"),
            };
            assert!(
                err.starts_with(&format!("{key}: unknown key (")) && err.contains(" accepts: "),
                "{level}: {err}"
            );
        }
        // The message lists what the level does take.
        let err = Scenario::from_json(
            &EVERY_LEVEL.replace(r#""max_active": 2"#, r#""max_active": 2, "max_actve": 3"#),
        )
        .unwrap_err();
        assert_eq!(
            err,
            "fleet.overload.max_actve: unknown key (fleet.overload accepts: max_active, \
             queue_threshold_bytes)"
        );
    }

    #[test]
    fn a_repeated_key_is_an_error() {
        for (from, to, expect) in [
            (
                r#""abr": "festive","#,
                r#""abr": "festive", "abr": "gpac","#,
                "abr: key is given twice",
            ),
            (
                r#""clients": 4,"#,
                r#""clients": 4, "clients": 8,"#,
                "fleet.clients: key is given twice",
            ),
            (
                r#""max_active": 2"#,
                r#""max_active": 2, "max_active": 2"#,
                "fleet.overload.max_active: key is given twice",
            ),
        ] {
            let err = Scenario::from_json(&EVERY_LEVEL.replace(from, to)).unwrap_err();
            assert_eq!(err, expect, "{to}");
        }
    }

    #[test]
    fn every_shipped_scenario_parses_and_builds() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let sc =
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(sc.build().len(), sc.modes.len(), "{}", path.display());
            seen += 1;
        }
        assert!(seen >= 6, "only {seen} files under {dir}");
    }

    #[test]
    fn custom_video_and_file_profile() {
        // Write a profile to a temp file and reference it.
        let dir = std::env::temp_dir().join("mpdash-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wifi.json");
        let spec = mpdash_trace::io::ProfileSpec {
            name: "t".into(),
            points: vec![
                mpdash_trace::io::ProfilePoint {
                    at_secs: 0.0,
                    mbps: 5.0,
                },
                mpdash_trace::io::ProfilePoint {
                    at_secs: 1.0,
                    mbps: 2.0,
                },
            ],
            period_secs: Some(2.0),
        };
        std::fs::write(&path, spec.to_json()).unwrap();
        let doc = format!(
            r#"{{
            "name": "custom",
            "video": {{"custom": {{"levels_mbps": [1.0, 2.0], "chunk_secs": 2, "n_chunks": 10}}}},
            "wifi": {{"file": "{}"}},
            "cell": {{"constant": 3.0}},
            "abr": "gpac",
            "buffer_secs": 20,
            "modes": ["vanilla"]
        }}"#,
            path.display()
        );
        let sc = Scenario::from_json(&doc).unwrap();
        let configs = sc.build();
        assert_eq!(configs[0].1.video.n_levels(), 2);
        assert_eq!(configs[0].1.buffer_capacity, SimDuration::from_secs(20));
    }
}
