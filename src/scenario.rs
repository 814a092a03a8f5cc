//! JSON scenario definitions for the `mpdash` CLI: describe a network, a
//! video, an ABR algorithm and a set of transport policies in a file, and
//! the runner replays the whole comparison.
//!
//! See `scenarios/example.json` for a complete document. The network can
//! be a constant rate, a seeded synthetic trace, or an external profile
//! in the `mpdash-trace` JSON format (so measured traces plug straight
//! in).
//!
//! Each object level of the document is one static table here: its keys
//! in decode order, each with its kind and range, a one-line doc, and
//! how its value lands in the simulator's own types. One walker decodes
//! every level against its table in one pass: every value is
//! range-checked where it is read, every error names the full path of
//! the offending key (`fleet.shared[1].quantum`), and a key that is
//! repeated, misspelt, or not taken by its level is an error rather than
//! a silent default. A trace file is read and checked while parsing, and
//! the checks that read several keys run beside the level that owns
//! them, so a document that parses always builds; a missing key takes
//! the library's default. [`reference()`] renders the same tables.

mod schema;

use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{
    ChurnSpec, FaultDomainSpec, FleetCacheSpec, FleetConfig, OverloadPolicy, SharedLinkSpec,
};
use mpdash_http::{OriginPoolConfig, OriginSpec, ServerFaultEvent, ServerFaultKind};
use mpdash_link::{
    AqmConfig, BandwidthProfile, FaultEvent, FaultKind, FaultScript, GilbertElliott, PathId,
    QueueDiscipline, SharedBottleneckConfig, DRR_QUANTUM,
};
use mpdash_mptcp::SchedulerSpec;
use mpdash_obs::TelemetrySpec;
use mpdash_results::Json;
use mpdash_session::{
    LifecyclePolicy, ServerFaultScript, SessionConfig, SharedSegmentCache, TransportMode,
};
use mpdash_sim::{FaultTimeline, FaultWindow, SimDuration, SimTime};
use mpdash_trace::io::ProfileSpec;
use mpdash_trace::synth::SynthSpec;
use schema::Kind::{Bool, List, Num, Obj, Tagged, Text, Whole};
use schema::Land::{Set, Try};
use schema::{bare, decode, opt, req, under, Bound, Level, Tags, Val};

/// Upper bound on every millisecond key: one minute is far beyond any
/// RTT, and keeps `ms * 10^6` and `client_index * skew` inside a `u64`.
const MAX_MILLIS: u64 = 60_000;

/// Upper bound on a fleet's RTT spread, `(clients - 1) * rtt_skew_ms`:
/// the extra one-way delay of its last client.
const MAX_RTT_SPREAD_MS: u64 = 1_000;

/// Upper bound on the whole-second keys (`buffer_secs`, `chunk_secs`),
/// so the conversion to nanoseconds cannot wrap, and on a fleet's last
/// arrival: one day. Every fleet's clock reaches past it, the shortest
/// (at `FleetConfig::MAX_CLIENTS`) to 78 hours.
const MAX_SECS: u64 = 86_400;

/// Upper bound on a throttle, so its rate in bits/s fits a `u64`.
const MAX_KBPS: u64 = u64::MAX / 1_000;

/// The upper bound of a whole number with no bound of its own.
const ANY: u64 = u64::MAX;

const MAX_CLIENTS: u64 = FleetConfig::MAX_CLIENTS as u64;

const POSITIVE: Bound = Bound(0.0, f64::INFINITY, true, false);
const NON_NEGATIVE: Bound = Bound(0.0, f64::INFINITY, false, false);
const UNIT: Bound = Bound(0.0, 1.0, false, false);
const UNIT_ABOVE_ZERO: Bound = Bound(0.0, 1.0, true, false);
const UNIT_BELOW_ONE: Bound = Bound(0.0, 1.0, false, true);

// The variants several keys share. A land that picks a library value
// by variant indexes an array in the same order.
#[rustfmt::skip]
static VIDEO: Tags = Tags::new("video kind", &[], &[("named", Tagged(&Tags::new("video",
    &["big_buck_bunny", "red_bull_playstreets", "tears_of_steel", "tears_of_steel_hd"], &[]))),
    ("custom", Obj(&LADDER))]);
#[rustfmt::skip]
static BANDWIDTH: Tags = Tags::new("bandwidth kind", &[],
    &[("constant", Num(NON_NEGATIVE)), ("synthetic", Obj(&SYNTHETIC)), ("file", Text)]);
#[rustfmt::skip]
static LINK_FAULTS: Tags = Tags::new("fault kind", &[], &[("burst_loss", Obj(&LINK_FAULT.0)),
    ("rtt_spike", Obj(&LINK_FAULT.0)), ("rate_collapse", Obj(&LINK_FAULT.0)),
    ("disassociation", Obj(&LINK_FAULT.0))]);
#[rustfmt::skip]
static SERVER_FAULTS: Tags = Tags::new("server fault kind", &[], &[("error_burst",
    Obj(&SERVER_FAULT.0)), ("blackhole", Obj(&SERVER_FAULT.0)),
    ("stalled_body", Obj(&SERVER_FAULT.0)), ("slow_first_byte", Obj(&SERVER_FAULT.0))]);

/// The root level's values, before `from_json` assembles `base`.
#[derive(Default)]
struct Doc {
    name: String,
    video: Option<Video>,
    links: [Option<BandwidthProfile>; 2],
    rtts: [Option<SimDuration>; 2],
    abr: Option<AbrKind>,
    buffer: Option<SimDuration>,
    modes: Vec<ModeSpec>,
    faults: [FaultScript; 2],
    server_faults: ServerFaultScript,
    lifecycle: Option<LifecyclePolicy>,
    fleet: Option<FleetConfig>,
    origins: Option<OriginPoolConfig>,
    cache: Option<FleetCacheSpec>,
    telemetry: Option<TelemetrySpec>,
}

#[rustfmt::skip]
static ROOT: Level<Doc> = Level(&[
    req("name", Text, "Scenario title for the report.", Set(|d, v| d.name = v.text().into())),
    req("video", Tagged(&VIDEO), "A Table 3 video, or a custom bitrate ladder.", Try(|d, v| {
        use Video as V;
        let named = [V::big_buck_bunny, V::red_bull_playstreets, V::tears_of_steel,
            V::tears_of_steel_hd];
        d.video = Some(match v.tag {
            "named" => named[v.inner](),
            _ => decode(&LADDER, Default::default(), v)
                .map(|(levels, chunk, n)| V::new("custom", &levels, chunk, n))?,
        });
        Ok(())
    })),
    req("wifi", Tagged(&BANDWIDTH), "Mbps: a constant, a seeded AR(1) trace, or an \
        `mpdash-trace` profile file, read at parse time.",
        Try(|d, v| bandwidth(v).map(|b| d.links[0] = Some(b)))),
    req("cell", Tagged(&BANDWIDTH), "As `wifi`; a constant 0 is a dead path.",
        Try(|d, v| bandwidth(v).map(|b| d.links[1] = Some(b)))),
    opt("wifi_rtt_ms", Whole(1, MAX_MILLIS), "WiFi round-trip time; default 50.",
        Set(|d, v| d.rtts[0] = Some(v.millis()))),
    opt("cell_rtt_ms", Whole(1, MAX_MILLIS), "Cellular round-trip time; default 55.",
        Set(|d, v| d.rtts[1] = Some(v.millis()))),
    req("abr", Tagged(&Tags::new("abr", &["gpac", "festive", "bba", "bba_c|bbac|bba-c", "mpc"],
        &[])), "Adaptive bitrate algorithm.", Set(|d, v| {
            use AbrKind::*;
            d.abr = Some([Gpac, Festive, Bba, BbaC, Mpc][v.pick]);
        })),
    opt("buffer_secs", Whole(1, MAX_SECS), "Player buffer; it must hold two chunks. Default 40.",
        Set(|d, v| d.buffer = Some(SimDuration::from_secs(v.whole())))),
    req("modes", List(&Obj(&MODE)), "Transport policies to compare, in order.", Try(|d, v| {
        let mode = ModeSpec { mode: TransportMode::Vanilla, scheduler: None };
        decode(&MODE, mode, v).map(|m| d.modes.push(m))
    })),
    opt("wifi_faults", List(&Tagged(&LINK_FAULTS)), "WiFi link faults.",
        Try(|d, v| fault(&mut d.faults[0], &LINK_FAULT, v))),
    opt("cell_faults", List(&Tagged(&LINK_FAULTS)), "Cellular link faults.",
        Try(|d, v| fault(&mut d.faults[1], &LINK_FAULT, v))),
    opt("server_faults", List(&Tagged(&SERVER_FAULTS)), "Faults of the one implicit origin.",
        Try(|d, v| fault(&mut d.server_faults, &SERVER_FAULT, v))),
    opt("lifecycle", Tagged(&Tags::new("lifecycle", &["wait_forever", "retry_only",
        "deadline_aware"], &[])), "HTTP request lifecycle; default `wait_forever`.", Set(|d, v| {
            use LifecyclePolicy as P;
            d.lifecycle = Some([P::wait_forever, P::retry_only, P::deadline_aware][v.pick]());
        })),
    opt("fleet", Obj(&FLEET), "Co-simulate a fleet of sessions per mode instead of one.",
        Try(|d, v| {
            // `from_json` swaps the finished `base` in.
            let (abr, mode) = (AbrKind::Gpac, TransportMode::Vanilla);
            let base = SessionConfig::controlled_mbps(0.0, 0.0, abr, mode);
            decode(&FLEET, FleetConfig::new(base, 0), v).map(|f| d.fleet = Some(f))
        })),
    opt("origins", Obj(&ORIGINS), "A priority-ordered origin pool; `server_faults` then never \
        applies.", Try(|d, v| {
            decode(&ORIGINS, OriginPoolConfig::new(Vec::new()), v).map(|o| d.origins = Some(o))
        })),
    opt("cache", Obj(&CACHE), "A segment cache in front of the origins: one per mode, or one per \
        fleet run.",
        Try(|d, v| decode(&CACHE, FleetCacheSpec::new(0), v).map(|c| d.cache = Some(c)))),
    opt("telemetry", Obj(&TELEMETRY), "Per-epoch telemetry; observe-only.",
        Try(|d, v| decode(&TELEMETRY, None, v).map(|t| d.telemetry = t))),
]);

#[rustfmt::skip]
static LADDER: Level<(Vec<f64>, SimDuration, usize)> = Level(&[
    req("levels_mbps", List(&Num(POSITIVE)), "Average Mbps per level, strictly ascending.",
        Try(|l, v| match l.0.last() {
            Some(&prev) if v.num() <= prev => Err(format!(
                "{}: levels must be strictly ascending, got {} after {prev}", v.at, v.num())),
            _ => {
                l.0.push(v.num());
                Ok(())
            }
        })),
    req("chunk_secs", Whole(1, MAX_SECS), "Chunk duration.",
        Set(|l, v| l.1 = SimDuration::from_secs(v.whole()))),
    req("n_chunks", Whole(1, ANY), "Chunks in the video.", Set(|l, v| l.2 = v.whole() as usize)),
]);

/// A link's profile; a file is read and checked here, so a document
/// that parses always builds.
fn bandwidth(v: &Val) -> Result<BandwidthProfile, String> {
    let path = v.text();
    match v.tag {
        "constant" => Ok(BandwidthProfile::constant_mbps(v.num())),
        "synthetic" => decode(&SYNTHETIC, (0.0, 0.0, 0), v)
            .map(|(mean, sigma, seed)| SynthSpec::new(mean, sigma, seed).profile()),
        _ => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                ProfileSpec::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
            })
            .and_then(|spec| spec.to_profile().map_err(|e| format!("{path}: {e}"))),
    }
}

#[rustfmt::skip]
static SYNTHETIC: Level<(f64, f64, u64)> = Level(&[
    req("mean_mbps", Num(POSITIVE), "Long-run mean.", Set(|s, v| s.0 = v.num())),
    req("sigma", Num(NON_NEGATIVE), "Deviation as a fraction of the mean.",
        Set(|s, v| s.1 = v.num())),
    req("seed", Whole(0, ANY), "Trace seed.", Set(|s, v| s.2 = v.whole())),
]);

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
    /// Display label; a non-default scheduler is suffixed so grid rows
    /// stay distinguishable (e.g. `Rate+qaware`).
    pub(crate) fn label(&self) -> String {
        let base = self.mode.label();
        match self.scheduler {
            None => base,
            Some(s) => format!("{base}+{}", s.label()),
        }
    }
}

#[rustfmt::skip]
static MODE: Level<ModeSpec> = Level(&[
    // A zero rate is not a throttle; a zero-rate `cell` models a dead path.
    bare(req("mode", Tagged(&Tags::new("mode", &["vanilla", "wifi_only", "mpdash_rate",
        "mpdash_duration"], &[("throttled", Whole(1, MAX_KBPS))])), "The transport policy; \
        `throttled` caps the cellular rate in kbps.", Set(|m, v| {
            use TransportMode as T;
            let units =
                [T::Vanilla, T::WifiOnly, T::mpdash_rate_based(), T::mpdash_duration_based()];
            m.mode = units.get(v.pick).copied().unwrap_or(T::Throttled { kbps: v.whole() });
        }))),
    opt("scheduler", Tagged(&Tags { or: true, ..Tags::new("scheduler", &["min_rtt", "round_robin",
        "qaware"], &[]) }), "MPTCP packet scheduler; default `min_rtt`.",
        Set(|m, v| m.scheduler = Some(SchedulerSpec::ALL[v.pick]))),
]);

/// Append one `{"<kind>": {…}}` fault entry to `timeline`: the window
/// of kind `v.pick` in `level`'s defaults, with `level`'s keys applied.
/// The knobs' defaults are the scenario's own: the library takes them all.
fn fault<K: Copy>(
    timeline: &mut FaultTimeline<K>,
    (level, kinds): &(Level<FaultWindow<K>>, &[K]),
    v: &Val,
) -> Result<(), String> {
    let window = FaultWindow {
        at: SimTime::ZERO,
        duration: SimDuration::ZERO,
        kind: kinds[v.pick],
    };
    timeline.extend([decode(level, window, v)?]);
    Ok(())
}

/// A link fault's keys, and each kind's defaults in `LINK_FAULTS`' order.
#[rustfmt::skip]
static LINK_FAULT: (Level<FaultEvent>, &[FaultKind]) = (Level(&[
    req("at_s", Num(NON_NEGATIVE), "Start, in seconds.",
        Set(|e, v| e.at = SimTime::ZERO + v.secs())),
    req("secs", Num(POSITIVE), "Duration, in seconds.", Set(|e, v| e.duration = v.secs())),
    under(&["burst_loss"], opt("p_enter", Num(UNIT_ABOVE_ZERO), "Chance per packet to turn \
        lossy; default 0.05.",
        Set(|e, v| if let FaultKind::BurstLoss(g) = &mut e.kind { g.p_enter = v.num() }))),
    under(&["burst_loss"], opt("p_exit", Num(UNIT_ABOVE_ZERO), "Chance to turn back; default 0.3.",
        Set(|e, v| if let FaultKind::BurstLoss(g) = &mut e.kind { g.p_exit = v.num() }))),
    under(&["burst_loss"], opt("loss", Num(UNIT), "Loss rate while lossy; default 0.5.",
        Set(|e, v| if let FaultKind::BurstLoss(g) = &mut e.kind { g.loss_bad = v.num() }))),
    under(&["rtt_spike"], opt("extra_ms", Num(NON_NEGATIVE), "Extra one-way delay; default 200.",
        Set(|e, v| if let FaultKind::RttSpike { extra, .. } = &mut e.kind {
            *extra = SimDuration::from_secs_f64(v.num() / 1e3)
        }))),
    under(&["rtt_spike"], opt("jitter_ms", Num(NON_NEGATIVE), "Uniform jitter on top; default 0.",
        Set(|e, v| if let FaultKind::RttSpike { jitter, .. } = &mut e.kind {
            *jitter = SimDuration::from_secs_f64(v.num() / 1e3)
        }))),
    under(&["rate_collapse"], req("factor", Num(UNIT_ABOVE_ZERO), "Rate multiplier.",
        Set(|e, v| if let FaultKind::RateCollapse { factor } = &mut e.kind { *factor = v.num() }))),
    under(&["disassociation"], opt("reassoc_s", Num(NON_NEGATIVE), "Re-association time; \
        default 1.",
        Set(|e, v| if let FaultKind::Disassociation { reassociation: r } = &mut e.kind {
            *r = v.secs()
        }))),
]), &[
    FaultKind::BurstLoss(GilbertElliott { p_enter: 0.05, p_exit: 0.3, loss_bad: 0.5 }),
    FaultKind::RttSpike { extra: SimDuration::from_millis(200), jitter: SimDuration::ZERO },
    FaultKind::RateCollapse { factor: 1.0 },
    FaultKind::Disassociation { reassociation: SimDuration::from_millis(1000) },
]);

/// A server fault's keys, and each kind's defaults in `SERVER_FAULTS`'
/// order.
#[rustfmt::skip]
static SERVER_FAULT: (Level<ServerFaultEvent>, &[ServerFaultKind]) = (Level(&[
    req("at_s", Num(NON_NEGATIVE), "Start, in seconds.",
        Set(|e, v| e.at = SimTime::ZERO + v.secs())),
    req("secs", Num(POSITIVE), "Duration, in seconds.", Set(|e, v| e.duration = v.secs())),
    under(&["stalled_body"], req("stall_s", Num(POSITIVE), "How long the body hangs.",
        Set(|e, v| if let ServerFaultKind::StalledBody { stall, .. } = &mut e.kind {
            *stall = v.secs()
        }))),
    under(&["stalled_body"], opt("after_fraction", Num(UNIT_BELOW_ONE), "Body share sent before \
        the stall; default 0.5.",
        Set(|e, v| if let ServerFaultKind::StalledBody { after_fraction: a, .. } = &mut e.kind {
            *a = v.num()
        }))),
    under(&["slow_first_byte"], req("delay_s", Num(POSITIVE), "Time-to-first-byte inflation.",
        Set(|e, v| if let ServerFaultKind::SlowFirstByte { delay } = &mut e.kind {
            *delay = v.secs()
        }))),
]), &[
    ServerFaultKind::ErrorBurst,
    ServerFaultKind::Blackhole,
    ServerFaultKind::StalledBody { stall: SimDuration::ZERO, after_fraction: 0.5 },
    ServerFaultKind::SlowFirstByte { delay: SimDuration::ZERO },
]);

/// The fleet loop keys each client's next event on a clock that
/// reaches past one day at any fleet size, but no further.
fn joins_within_a_day(clients: usize, last_secs: f64, v: &Val) -> Result<(), String> {
    match last_secs > MAX_SECS as f64 {
        false => Ok(()),
        true => Err(format!(
            "{}: the last of {clients} clients would join at {last_secs:.0} s, past one day \
             ({MAX_SECS} s)",
            v.at
        )),
    }
}

#[rustfmt::skip]
static FLEET: Level<FleetConfig> = Level(&[
    req("clients", Whole(1, MAX_CLIENTS), "Clients per mode. The fleet loop's packed keys keep \
        a 78-hour clock at 65536.", Set(|f, v| f.clients = v.whole() as usize)),
    opt("stagger_s", Num(NON_NEGATIVE), "Client k joins at k x stagger_s, the last within a \
        day; default 0.5.", Try(|f, v| {
            f.stagger = v.secs();
            joins_within_a_day(f.clients, (f.clients - 1) as f64 * v.num(), v)
        })),
    opt("rtt_skew_ms", Whole(0, MAX_MILLIS), "Client k gets k x rtt_skew_ms of extra one-way \
        delay, the last at most 1000.", Try(|f, v| {
            let (clients, spread) = (f.clients, (f.clients as u64 - 1) * v.whole());
            f.rtt_skew = v.millis();
            match spread > MAX_RTT_SPREAD_MS {
                false => Ok(()),
                true => Err(format!("{}: the last of {clients} clients would get {spread} ms of \
                    extra one-way delay ((clients - 1) x rtt_skew_ms), more than \
                    {MAX_RTT_SPREAD_MS}", v.at)),
            }
        })),
    opt("seed", Whole(0, ANY), "Base seed of every client's links; default 1.",
        Set(|f, v| f.seed = v.whole())),
    opt("shared", List(&Obj(&SHARED)), "Shared bottlenecks; none means private links.",
        Try(|f, v| {
            let (config, paths) = (SharedBottleneckConfig::fifo_mbps(0.0), Vec::new());
            decode(&SHARED, SharedLinkSpec { config, paths }, v).map(|s| f.shared.push(s))
        })),
    opt("churn", Obj(&CHURN), "Seeded arrivals and departures in place of the stagger, the last \
        arrival within a day.", Try(|f, v| {
            let churn = decode(&CHURN, ChurnSpec::new(SimDuration::ZERO, SimDuration::ZERO), v)?;
            f.churn = Some(churn);
            let last = churn.plan(f.seed, f.clients).last().map_or(0.0, |p| p.0.as_secs_f64());
            joins_within_a_day(f.clients, last, v)
        })),
    opt("fault_domains", List(&Obj(&DOMAIN)), "Fault scripts shared by groups of clients.",
        Try(|f, v| {
            let d = decode(&DOMAIN, (f.clients, FaultDomainSpec::default()), v)?.1;
            if d.wifi.is_empty() && d.cell.is_empty() && d.server.is_empty() {
                return Err(format!("{}: has no fault scripts (add wifi_faults, cell_faults, or \
                    server_faults — or drop the domain)", v.at));
            }
            f.fault_domains.push(d);
            Ok(())
        })),
    opt("overload", Obj(&OVERLOAD), "Admission control; absent admits everyone.",
        Try(|f, v| {
            decode(&OVERLOAD, OverloadPolicy::max_active(0), v).map(|o| f.overload = Some(o))
        })),
    opt("watchdog", Bool, "Arm the fleet loop's invariant watchdog; default true.",
        Set(|f, v| f.watchdog = Some(v.bool()))),
]);

/// The AQM knobs of a shared link being read.
fn aqm(s: &mut SharedLinkSpec) -> &mut AqmConfig {
    match &mut s.config.discipline {
        QueueDiscipline::Pie(aqm) | QueueDiscipline::Codel(aqm) => aqm,
        QueueDiscipline::FqPie { aqm, .. } => aqm,
        _ => unreachable!("AQM knobs are read only under an AQM discipline"),
    }
}

/// An AQM delay that rounds to zero nanoseconds.
fn at_least_1ns(ns: u64, v: &Val) -> Result<(), String> {
    match ns {
        0 => Err(format!("{}: must be at least one nanosecond", v.at)),
        _ => Ok(()),
    }
}

const AQMS: &[&str] = &["pie", "fq_pie", "codel"];

#[rustfmt::skip]
static SHARED: Level<SharedLinkSpec> = Level(&[
    req("rate_mbps", Num(POSITIVE), "Service rate; at least 1 bit/s.", Try(|s, v| {
        s.config = SharedBottleneckConfig::fifo_mbps(v.num());
        match s.config.rate.is_zero() {
            true => Err(format!("{}: must be at least 1 bit/s", v.at)),
            false => Ok(()),
        }
    })),
    opt("capacity_bytes", Whole(1, ANY), "Queue capacity; default 131072.",
        Set(|s, v| s.config = s.config.with_capacity(v.whole()))),
    opt("discipline", Tagged(&Tags::new("discipline", &["fifo", "fq", "pie", "fq_pie", "codel"],
        &[])), "Drop-tail, per-flow DRR, or an AQM (`fq_pie`: DRR with per-flow PIE); default \
        `fifo`.", Set(|s, v| {
            use QueueDiscipline as Q;
            let (quantum, pie) = (DRR_QUANTUM, AqmConfig::pie());
            s.config.discipline = [Q::Fifo, Q::FlowQueue { quantum }, Q::Pie(pie),
                Q::FqPie { quantum, aqm: pie }, Q::Codel(AqmConfig::codel())][v.pick];
        })),
    under(&["fq", "fq_pie"], opt("quantum", Whole(1, ANY), "DRR quantum in bytes; default 1540.",
        Set(|s, v| match &mut s.config.discipline {
            QueueDiscipline::FlowQueue { quantum } | QueueDiscipline::FqPie { quantum, .. } => {
                *quantum = v.whole()
            }
            _ => unreachable!("quantum is read only under fq and fq_pie"),
        }))),
    under(AQMS, opt("target_delay_ms", Num(POSITIVE), "Target queue delay.", Try(|s, v| {
        let a = aqm(s);
        *a = a.with_target_ms(v.num());
        at_least_1ns(a.target_ns, v)
    }))),
    under(AQMS, opt("interval_ms", Num(POSITIVE), "Update interval.", Try(|s, v| {
        let a = aqm(s);
        *a = a.with_interval_ms(v.num());
        at_least_1ns(a.interval_ns, v)
    }))),
    under(&["pie", "fq_pie"], opt("alpha", Num(NON_NEGATIVE), "PIE gain on the delay error.",
        Set(|s, v| *aqm(s) = aqm(s).with_alpha(v.num())))),
    under(&["pie", "fq_pie"], opt("beta", Num(NON_NEGATIVE), "PIE gain on the delay trend.",
        Set(|s, v| *aqm(s) = aqm(s).with_beta(v.num())))),
    under(AQMS, opt("ecn", Bool, "Mark instead of dropping.",
        Set(|s, v| *aqm(s) = aqm(s).with_ecn(v.bool())))),
    req("paths", List(&Tagged(&Tags::new("path", &["wifi", "cell"], &[]))), "The client paths \
        that ride this bottleneck.",
        Set(|s, v| s.paths.push([PathId::WIFI, PathId::CELLULAR][v.pick]))),
]);

#[rustfmt::skip]
static CHURN: Level<ChurnSpec> = Level(&[
    req("mean_interarrival_s", Num(POSITIVE), "Mean gap between joins.",
        Set(|c, v| c.mean_interarrival = v.secs())),
    req("mean_watch_s", Num(POSITIVE), "Mean viewing time.", Set(|c, v| c.mean_watch = v.secs())),
    opt("min_watch_s", Num(NON_NEGATIVE), "Floor on the viewing time; default 4.",
        Set(|c, v| c.min_watch = v.secs())),
]);

/// A fault domain is read knowing the fleet's size.
#[rustfmt::skip]
static DOMAIN: Level<(usize, FaultDomainSpec)> = Level(&[
    req("label", Text, "Domain name in traces.", Set(|d, v| d.1.label = v.text().into())),
    req("members", List(&Whole(0, MAX_CLIENTS - 1)), "Client indices, each below `clients` and \
        listed once.", Try(|(clients, d), v| {
            let member = v.whole() as usize;
            if member >= *clients {
                let last = *clients - 1;
                return Err(format!("{}: must be a whole number >= 0 and <= {last}, got {member}",
                    v.at));
            }
            if d.members.contains(&member) {
                return Err(format!("{}: client {member} is listed twice (the domain's scripts \
                    would compose onto it once per listing)", v.at));
            }
            d.members.push(member);
            Ok(())
        })),
    opt("wifi_faults", List(&Tagged(&LINK_FAULTS)), "WiFi faults every member shares.",
        Try(|d, v| fault(&mut d.1.wifi, &LINK_FAULT, v))),
    opt("cell_faults", List(&Tagged(&LINK_FAULTS)), "Cellular faults every member shares.",
        Try(|d, v| fault(&mut d.1.cell, &LINK_FAULT, v))),
    opt("server_faults", List(&Tagged(&SERVER_FAULTS)), "Server faults every member shares.",
        Try(|d, v| fault(&mut d.1.server, &SERVER_FAULT, v))),
]);

#[rustfmt::skip]
static OVERLOAD: Level<OverloadPolicy> = Level(&[
    req("max_active", Whole(1, ANY), "Shed arrivals past this many active sessions.",
        Set(|o, v| o.max_active = v.whole() as usize)),
    opt("queue_threshold_bytes", Whole(1, ANY), "Also shed while a shared queue holds this much.",
        Set(|o, v| o.queue_threshold_bytes = v.whole())),
]);

#[rustfmt::skip]
static ORIGINS: Level<OriginPoolConfig> = Level(&[
    req("pool", List(&Obj(&ORIGIN)), "Origins in priority order.", Try(|o, v| {
        let origin = decode(&ORIGIN, OriginSpec::new(""), v)?;
        if o.origins.iter().any(|earlier| earlier.id == origin.id) {
            return Err(format!("{}.id: duplicate origin id '{}' (pool ids must be unique so \
                explain/trace attribution stays unambiguous)", v.at, origin.id));
        }
        o.origins.push(origin);
        Ok(())
    })),
    // 0 would hedge instantly, >1 can never fire before the deadline.
    opt("hedge_quantile", Num(UNIT_ABOVE_ZERO), "Hedge at this quantile of the deadline; absent: \
        never.", Set(|o, v| o.hedge_quantile = Some(v.num()))),
    // A zero threshold would trip every breaker on sight.
    opt("failure_threshold", Whole(1, u32::MAX as u64), "Consecutive failures that trip a \
        breaker; default 2.", Set(|o, v| o.failure_threshold = v.whole() as u32)),
]);

#[rustfmt::skip]
static ORIGIN: Level<OriginSpec> = Level(&[
    req("id", Text, "Unique name in explain and traces.", Set(|o, v| o.id = v.text().into())),
    opt("rtt_penalty_ms", Whole(0, MAX_MILLIS), "Extra round trip per response.",
        Set(|o, v| o.rtt_penalty = v.millis())),
    opt("faults", List(&Tagged(&SERVER_FAULTS)), "This origin's server faults.",
        Try(|o, v| fault(&mut o.faults, &SERVER_FAULT, v))),
]);

#[rustfmt::skip]
static CACHE: Level<FleetCacheSpec> = Level(&[
    req("capacity_mb", Num(POSITIVE), "Capacity in MiB, at least a byte.", Try(|c, v| {
        c.capacity_bytes = (v.num() * (1 << 20) as f64) as u64;
        match c.capacity_bytes {
            0 => Err(format!("{}: must be at least one byte (drop the 'cache' key to run \
                uncached)", v.at)),
            _ => Ok(()),
        }
    })),
    opt("edge_delay_ms", Whole(0, MAX_MILLIS), "Delivery delay of a hit; default 5.",
        Set(|c, v| c.edge_delay = v.millis())),
]);

// A series stores every epoch from its first write to its last, and
// nothing samples faster than the 50 ms tick: a finer epoch only
// exhausts memory (or rounds to zero).
#[rustfmt::skip]
static TELEMETRY: Level<Option<TelemetrySpec>> = Level(&[
    req("epoch_s", Num(POSITIVE), "Epoch width; at least 0.001.", Try(|t, v| {
        match v.secs() < TelemetrySpec::MIN_EPOCH {
            true => Err(format!("{}: must be at least 0.001 (one millisecond), got {}",
                v.at, v.num())),
            false => {
                *t = Some(TelemetrySpec::new(v.secs()));
                Ok(())
            }
        }
    })),
]);

/// The scenario-key reference, one table per object level in the order
/// the document reaches it: what `mpdash schema` prints.
pub fn reference() -> String {
    schema::render(&ROOT)
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
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        // Keys are decoded in one fixed order, so the first error a
        // document reports never depends on how its defaults are kept.
        let doc = decode(&ROOT, Doc::default(), &Val::of(&json, String::new()))?;
        let (Some(video), [Some(wifi), Some(cell)], Some(abr)) = (doc.video, doc.links, doc.abr)
        else {
            unreachable!("the walker refuses a document without a required key")
        };
        // The mode is a placeholder: `build` sets each declared one.
        let mut base =
            SessionConfig::controlled((wifi, cell), abr, TransportMode::Vanilla).with_video(video);
        let links = [&mut base.wifi, &mut base.cell];
        for ((link, rtt), script) in links.into_iter().zip(doc.rtts).zip(doc.faults) {
            // One-way delay is half the RTT; in nanoseconds, so odd RTTs
            // survive the halving exactly.
            link.delay = rtt.map_or(link.delay, |rtt| rtt / 2);
            link.faults = script;
        }
        base.buffer_capacity = doc.buffer.unwrap_or(base.buffer_capacity);
        // An absent array is the empty script, a healthy server.
        base.server_faults = doc.server_faults;
        base.lifecycle = doc.lifecycle.unwrap_or(base.lifecycle);
        base.origins = doc.origins.or(base.origins);
        base.telemetry = doc.telemetry.or(base.telemetry);
        let mut fleet = doc.fleet;
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
        // The player refuses a buffer that cannot hold two chunks.
        let (buffer, chunk) = (base.buffer_capacity, base.video.chunk_duration());
        if buffer < chunk * 2 {
            let key = if doc.buffer.is_some() {
                "buffer_secs"
            } else {
                "video"
            };
            return Err(format!(
                "{key}: the {} s player buffer must hold at least two {} s chunks",
                buffer.as_secs_f64(),
                chunk.as_secs_f64()
            ));
        }
        if let Some(fleet) = &mut fleet {
            fleet.base = base.clone();
            fleet.cache = doc.cache.or(fleet.cache);
        }
        Ok(Scenario {
            name: doc.name,
            base,
            modes: doc.modes,
            cache: doc.cache,
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
    pub(crate) fn fleet_config(&self, cfg: SessionConfig) -> Option<FleetConfig> {
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
    use mpdash_session::StreamingSession;
    use schema::Kind;

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
        assert_eq!(sc.base.wifi.faults.windows().len(), 2);
        assert_eq!(sc.base.cell.faults.windows().len(), 1);
        assert_eq!(
            sc.base.wifi.faults.windows()[0].kind.name(),
            "rate_collapse"
        );
        // The disassociation window includes the reassociation tail.
        assert_eq!(
            sc.base.wifi.faults.windows()[1].end(),
            SimTime::from_secs(102)
        );
        let configs = sc.build();
        let cfg = &configs[0].1;
        assert_eq!(
            cfg.wifi.faults.windows().len(),
            2,
            "faults land on the built WiFi link"
        );
        assert_eq!(cfg.cell.faults.windows().len(), 1);
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
        assert_eq!(sc.base.server_faults.windows().len(), 3);
        // Events are sorted by activation time.
        assert_eq!(
            sc.base.server_faults.windows()[0].kind.name(),
            "stalled_body"
        );
        assert!(sc.base.lifecycle.abandon_resume);
        let configs = sc.build();
        assert_eq!(configs[0].1.server_faults.windows().len(), 3);
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
        assert_eq!(fc.fault_domains[0].wifi.windows().len(), 1);
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
        assert_eq!(pool.origins[0].faults.windows().len(), 1);
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

    /// The player holds at least two chunks; a document that asks for
    /// less is refused naming the key that set the buffer, not panicked
    /// on in `Player::new`.
    #[test]
    fn rejects_a_buffer_shorter_than_two_chunks() {
        let err = Scenario::from_json(&fleet_doc(r#""buffer_secs": 7,"#)).unwrap_err();
        assert_eq!(
            err,
            "buffer_secs: the 7 s player buffer must hold at least two 4 s chunks"
        );
        let custom = r#"{"custom": {"levels_mbps": [1.0], "chunk_secs": 21, "n_chunks": 10}}"#;
        let err = Scenario::from_json(&DOC.replace(r#"{"named": "big_buck_bunny"}"#, custom));
        assert_eq!(
            err.unwrap_err(),
            "video: the 40 s player buffer must hold at least two 21 s chunks"
        );
        assert!(Scenario::from_json(&fleet_doc(r#""buffer_secs": 8,"#)).is_ok());
    }

    /// The fleet loop keys each client's next event on a clock that
    /// reaches past one day at any size: a later arrival is refused here
    /// instead of panicking while the run keys its clients.
    #[test]
    fn rejects_a_fleet_whose_last_arrival_is_past_one_day() {
        for (fleet, expect) in [
            (
                r#"{"clients": 3, "stagger_s": 1e12}"#,
                "fleet.stagger_s: the last of 3 clients would join at 2000000000000 s, past one \
                 day (86400 s)",
            ),
            (
                r#"{"clients": 64, "stagger_s": 1e7}"#,
                "fleet.stagger_s: the last of 64 clients would join at 630000000 s",
            ),
            (
                r#"{"clients": 4, "churn": {"mean_interarrival_s": 1e300, "mean_watch_s": 10}}"#,
                "fleet.churn: the last of 4 clients would join at 18446744074 s",
            ),
            (r#"{"clients": 2, "stagger_s": 86400}"#, ""),
            (
                r#"{"clients": 2, "stagger_s": 86400.001}"#,
                "fleet.stagger_s: the last",
            ),
        ] {
            match Scenario::from_json(&fleet_doc(&format!(r#""fleet": {fleet},"#))) {
                Err(err) => assert!(
                    !expect.is_empty() && err.starts_with(expect),
                    "{fleet}: {err}"
                ),
                Ok(_) => assert!(expect.is_empty(), "{fleet}"),
            }
        }
    }

    #[test]
    fn readme_carries_the_generated_key_reference() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
        let readme = readme.unwrap();
        let (_, rest) = readme
            .split_once("<!-- mpdash schema: begin -->\n")
            .unwrap();
        let (section, _) = rest.split_once("<!-- mpdash schema: end -->").unwrap();
        assert!(
            section == reference(),
            "README is stale: paste `mpdash schema` between the markers"
        );
    }

    #[test]
    fn scheduler_names_are_the_librarys_labels() {
        let doc = DOC.replace(
            r#""mpdash_rate""#,
            r#"{"mode": "vanilla", "scheduler": "x"}"#,
        );
        let err = Scenario::from_json(&doc).unwrap_err();
        let labels: Vec<_> = SchedulerSpec::ALL.iter().map(|s| s.label()).collect();
        let listed = format!("{}, or {}", labels[..2].join(", "), labels[2]);
        assert!(err.ends_with(&format!("(expected {listed})")), "{err}");
    }

    /// One step from an object to a member: a key or an array index.
    #[derive(Clone)]
    enum Step {
        Key(String),
        Item(usize),
    }

    /// A key a generated document wrote: where its object sits, the
    /// key's full path and table row, and the path of its level when a
    /// bare value may stand for that level.
    struct Site {
        object: Vec<Step>,
        path: String,
        spec: &'static schema::Spec,
        bare_level: Option<String>,
    }

    /// A seeded document generator that walks the tables: every required
    /// key and a share of the optional ones, each value at an edge of its
    /// range or log-uniform between the edges.
    struct Gen {
        rng: mpdash_sim::Prng,
        sites: Vec<Site>,
        /// A valid profile for `{"file": …}`.
        file: String,
    }

    impl Gen {
        fn coin(&mut self, p: f64) -> bool {
            self.rng.next_f64() < p
        }

        fn log_between(&mut self, lo: f64, hi: f64) -> f64 {
            lo * (hi / lo).powf(self.rng.next_f64())
        }

        fn object(
            &mut self,
            level: &dyn schema::Schema,
            tag: &'static str,
            at: &str,
            loc: &[Step],
        ) -> Json {
            let specs = level.specs();
            let bare_level = specs.iter().any(|s| s.bare).then(|| at.to_string());
            if let (Some(bare), true) = (specs.iter().find(|s| s.bare), self.coin(0.3)) {
                return self.value(&bare.kind, at, loc, true).0;
            }
            let switches = specs.iter().any(|s| !s.only.is_empty());
            let (mut gate, mut members) = (tag, Vec::new());
            for spec in specs {
                if !spec.only.is_empty() && !spec.only.contains(&gate) {
                    continue;
                }
                let path = schema::join(at, spec.name);
                let mut item = loc.to_vec();
                item.push(Step::Key(spec.name.into()));
                let (value, picked) = match spec.required || self.coin(0.4) {
                    true => self.value(&spec.kind, &path, &item, spec.required),
                    false => (Json::Null, ""),
                };
                if switches && matches!(spec.kind, Tagged(_)) {
                    gate = match (picked, spec.kind) {
                        ("", Tagged(tags)) => tags.variants().next().unwrap(),
                        _ => picked,
                    };
                }
                if value != Json::Null {
                    members.push((spec.name.to_string(), value));
                    let (object, bare_level) = (loc.to_vec(), bare_level.clone());
                    self.sites.push(Site {
                        object,
                        path,
                        spec,
                        bare_level,
                    });
                }
            }
            Json::Obj(members)
        }

        /// A value of `kind`, and the variant it picked if tagged. A
        /// required list is not empty; numbers in a list ascend, once
        /// each, as a ladder's levels and a domain's members must.
        fn value(
            &mut self,
            kind: &Kind,
            at: &str,
            loc: &[Step],
            required: bool,
        ) -> (Json, &'static str) {
            let json = match *kind {
                Num(b) => {
                    let (lo, hi) = (b.0.max(1e-6), b.1.min(1e7));
                    let v = match self.rng.next_below(4) {
                        0 if !b.2 => b.0,
                        1 if b.1.is_finite() && !b.3 => b.1,
                        _ => self.log_between(lo, hi),
                    };
                    Json::Float(if b.admits(v) { v } else { (b.0 + hi) / 2.0 })
                }
                Whole(lo, hi) => {
                    let hi = hi.min(i64::MAX as u64);
                    let v = match self.rng.next_below(4) {
                        0 => lo,
                        1 => hi,
                        _ => self.log_between(lo.max(1) as f64, hi.min(1 << 40) as f64) as u64,
                    };
                    Json::Int(v.clamp(lo, hi) as i64)
                }
                Text if at.ends_with(".file") => Json::Str(self.file.clone()),
                Text => Json::Str(format!("t{}", self.rng.next_u64())),
                Bool => Json::Bool(self.coin(0.5)),
                Obj(level) => self.object(level, "", at, loc),
                List(item) => {
                    let n = (self.rng.next_below(4) as usize).max(required as usize);
                    let mut items: Vec<_> = (0..n)
                        .map(|i| {
                            let mut step = loc.to_vec();
                            step.push(Step::Item(i));
                            self.value(item, &format!("{at}[{i}]"), &step, true).0
                        })
                        .collect();
                    if let Num(_) | Whole(..) = item {
                        let key = |j: &Json| j.as_f64().unwrap_or_default();
                        items.sort_by(|a, b| key(a).total_cmp(&key(b)));
                        items.dedup_by(|a, b| key(a) == key(b));
                    }
                    Json::Arr(items)
                }
                Tagged(tags) => {
                    let units = tags.units.len();
                    let pick = self.rng.next_below((units + tags.payloads.len()) as u64) as usize;
                    let tag = tags.variants().nth(pick).unwrap();
                    if pick < units {
                        let spellings: Vec<_> = tags.units[pick].split('|').collect();
                        let spelling =
                            spellings[self.rng.next_below(spellings.len() as u64) as usize];
                        return (Json::Str(spelling.into()), tag);
                    }
                    let mut inner = loc.to_vec();
                    inner.push(Step::Key(tag.into()));
                    let payload = match tags.payloads[pick - units].1 {
                        Obj(level) => self.object(level, tag, &format!("{at}.{tag}"), &inner),
                        ref kind => self.value(kind, &format!("{at}.{tag}"), &inner, true).0,
                    };
                    return (Json::Obj(vec![(tag.into(), payload)]), tag);
                }
            };
            (json, "")
        }
    }

    fn member<'a>(doc: &'a mut Json, loc: &[Step]) -> &'a mut Json {
        loc.iter().fold(doc, |j, step| match (j, step) {
            (Json::Obj(members), Step::Key(key)) => {
                &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (Json::Arr(items), Step::Item(i)) => &mut items[*i],
            _ => unreachable!("a site's steps lead through what the generator wrote"),
        })
    }

    /// One way a key can be wrong.
    enum Mutation {
        Dropped,
        Misspelt,
        Repeated,
        /// Out of range, or of the wrong type.
        Set(Json),
    }

    /// Every way `spec` can be wrong: dropped (when required), misspelt,
    /// repeated, of the wrong type, or out of range (when it has one).
    fn mutations(spec: &schema::Spec) -> Vec<Mutation> {
        let mut out = vec![Mutation::Misspelt, Mutation::Repeated];
        if spec.required {
            out.push(Mutation::Dropped);
        }
        out.push(Mutation::Set(match spec.kind {
            Num(_) | Whole(..) => Json::Str("x".into()),
            _ => Json::Int(1),
        }));
        let out_of_range = match spec.kind {
            Num(b) => Some(Json::Float(if b.2 { b.0 } else { b.0 - 1.0 })),
            Whole(lo, _) => Some(Json::Int(lo as i64 - 1)),
            Tagged(tags) if tags.units.is_empty() => {
                Some(Json::Obj(vec![("zz".into(), Json::Int(1))]))
            }
            Tagged(_) => Some(Json::Str("zz".into())),
            List(_) if spec.required => Some(Json::Arr(Vec::new())),
            _ => None,
        };
        out.extend(out_of_range.map(Mutation::Set));
        out
    }

    /// Generate `docs` documents from `seed`: each one the decoder
    /// accepts must build every mode and fleet config and start every
    /// mode's session, and each one-key mutation of it must be refused
    /// with an error that starts with that key's full path. Returns how
    /// many were accepted.
    fn generated_documents_hold(seed: u64, docs: usize) -> usize {
        let dir = std::env::temp_dir().join(format!("mpdash-scenario-gen-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("profile.json");
        let points = vec![mpdash_trace::io::ProfilePoint {
            at_secs: 0.0,
            mbps: 4.0,
        }];
        let spec = mpdash_trace::io::ProfileSpec {
            name: "g".into(),
            points,
            period_secs: None,
        };
        std::fs::write(&file, spec.to_json()).unwrap();
        let rng = mpdash_sim::Prng::new(seed);
        let mut gen = Gen {
            rng,
            sites: Vec::new(),
            file: file.display().to_string(),
        };
        let mut accepted = 0;
        for _ in 0..docs {
            gen.sites.clear();
            let doc = gen.object(&ROOT, "", "", &[]);
            let Ok(sc) = Scenario::from_json(&doc.to_string()) else {
                continue;
            };
            accepted += 1;
            for (label, cfg) in sc.build() {
                let start = std::panic::AssertUnwindSafe(|| drop(StreamingSession::start(cfg)));
                let run = std::panic::catch_unwind(start);
                assert!(run.is_ok(), "{label} of {doc} does not start");
            }
            assert_eq!(
                sc.fleet_configs().map(|f| f.len()),
                sc.fleet.as_ref().map(|_| sc.modes.len())
            );
            // A sample of the keys it wrote, each mutated every way.
            for _ in 0..6 {
                let site = &gen.sites[gen.rng.next_below(gen.sites.len() as u64) as usize];
                for mutation in mutations(site.spec) {
                    let mut bad = doc.clone();
                    let Json::Obj(members) = member(&mut bad, &site.object) else {
                        unreachable!("a site's object is an object")
                    };
                    let i = members
                        .iter()
                        .position(|(k, _)| k == site.spec.name)
                        .unwrap();
                    match &mutation {
                        Mutation::Dropped => drop(members.remove(i)),
                        Mutation::Misspelt => members[i].0.push('x'),
                        Mutation::Repeated => members.push(members[i].clone()),
                        Mutation::Set(value) => members[i].1 = value.clone(),
                    }
                    // A lone misspelt key reads as the bare form of its level.
                    let alone = members.len() == 1;
                    let err = Scenario::from_json(&bad.to_string()).unwrap_err();
                    let expected = match (&mutation, &site.bare_level) {
                        (Mutation::Misspelt, Some(level)) if alone => level,
                        _ => &site.path,
                    };
                    assert!(
                        err.starts_with(expected.as_str()),
                        "{}: {err}\nin {bad}",
                        site.path
                    );
                }
            }
        }
        accepted
    }

    #[test]
    fn generated_documents_build_and_their_mutations_name_the_key() {
        let accepted = generated_documents_hold(7, 250);
        assert!(
            accepted >= 60,
            "only {accepted} of 250 generated documents parse"
        );
    }

    #[test]
    #[ignore = "long budget: cargo test --release -- --ignored"]
    fn generated_documents_hold_over_a_long_budget() {
        let accepted: usize = (100..120)
            .map(|seed| generated_documents_hold(seed, 1000))
            .sum();
        assert!(
            accepted >= 5000,
            "only {accepted} of 20000 generated documents parse"
        );
    }
}
