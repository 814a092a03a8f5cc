//! Trace serialization: save and load bandwidth profiles as JSON.
//!
//! The paper's field campaign produced 150+ GB of captures that were
//! replayed through the trace-driven simulator and the energy model. The
//! equivalent workflow here: export any [`BandwidthProfile`] (synthetic
//! or corpus) to a portable JSON document, edit or collect your own, and
//! load it back for experiments — so downstream users can feed *real*
//! measured traces into the same harness.
//!
//! Format: a flat list of `(seconds, mbps)` step points plus an optional
//! looping period — deliberately trivial to produce from `iperf` logs or
//! packet captures.

use mpdash_link::BandwidthProfile;
use mpdash_results::{Json, JsonError};
use mpdash_sim::{Rate, SimDuration, SimTime};
use std::sync::Arc;

/// A serializable bandwidth profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSpec {
    /// Human-readable label.
    pub name: String,
    /// Step points: the rate is `mbps[i]` from `at_secs[i]` until the
    /// next point. Must be non-empty, starting at 0.0 seconds, strictly
    /// increasing.
    pub points: Vec<ProfilePoint>,
    /// Looping period in seconds; `null` for a one-shot trace that holds
    /// its last rate forever.
    pub period_secs: Option<f64>,
}

/// One step point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfilePoint {
    /// Step start, seconds from trace start.
    pub at_secs: f64,
    /// Rate from this instant, Mbps.
    pub mbps: f64,
}

/// Errors loading a [`ProfileSpec`].
#[derive(Debug, PartialEq, Eq)]
pub enum ProfileSpecError {
    /// No points.
    Empty,
    /// First point does not start at 0.
    DoesNotStartAtZero,
    /// Points not strictly increasing in time.
    NotIncreasing,
    /// A non-finite or negative number appeared, or a period that is not
    /// positive once rounded to nanoseconds.
    BadNumber,
    /// The looping period ends before the last point starts, so that
    /// point (and any after it) would never be reached.
    PeriodTooShort,
}

impl std::fmt::Display for ProfileSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileSpecError::Empty => write!(f, "profile has no points"),
            ProfileSpecError::DoesNotStartAtZero => {
                write!(f, "first point must start at t=0")
            }
            ProfileSpecError::NotIncreasing => {
                write!(f, "points must be strictly increasing in time")
            }
            ProfileSpecError::BadNumber => write!(
                f,
                "times and rates must be finite and >= 0, period_secs at least a nanosecond"
            ),
            ProfileSpecError::PeriodTooShort => {
                write!(f, "period_secs must be >= the last point's at_secs")
            }
        }
    }
}

impl std::error::Error for ProfileSpecError {}

impl ProfileSpec {
    /// Validate and convert into a [`BandwidthProfile`].
    pub fn to_profile(&self) -> Result<BandwidthProfile, ProfileSpecError> {
        if self.points.is_empty() {
            return Err(ProfileSpecError::Empty);
        }
        for p in &self.points {
            if !p.at_secs.is_finite() || p.at_secs < 0.0 || !p.mbps.is_finite() || p.mbps < 0.0 {
                return Err(ProfileSpecError::BadNumber);
            }
        }
        if self.points[0].at_secs != 0.0 {
            return Err(ProfileSpecError::DoesNotStartAtZero);
        }
        // Order and period are checked on the nanoseconds the profile
        // stores, not on the seconds the file carries: two points a
        // fraction of a nanosecond apart round to one instant, and a
        // period below half a nanosecond rounds to none.
        let steps: Arc<[(SimTime, Rate)]> = self
            .points
            .iter()
            .map(|p| {
                (
                    SimTime::from_secs_f64(p.at_secs),
                    Rate::from_mbps_f64(p.mbps),
                )
            })
            .collect();
        if steps.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(ProfileSpecError::NotIncreasing);
        }
        let period = self.period_secs.map(SimDuration::from_secs_f64);
        if let Some(period) = period {
            // What a negative, non-finite or sub-nanosecond period becomes.
            if period.is_zero() {
                return Err(ProfileSpecError::BadNumber);
            }
            if SimTime::ZERO + period < steps[steps.len() - 1].0 {
                return Err(ProfileSpecError::PeriodTooShort);
            }
        }
        Ok(BandwidthProfile::Steps { steps, period })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "points",
                Json::arr(self.points.iter().map(|p| {
                    Json::obj([
                        ("at_secs", Json::Float(p.at_secs)),
                        ("mbps", Json::Float(p.mbps)),
                    ])
                })),
            ),
            ("period_secs", Json::from(self.period_secs)),
        ])
        .to_pretty()
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v = Json::parse(s)?;
        let name = v
            .req("name")?
            .as_str()
            .ok_or_else(|| JsonError::schema("'name' must be a string"))?
            .to_string();
        let points = v
            .req("points")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("'points' must be an array"))?
            .iter()
            .map(|p| {
                let num = |key: &str| -> Result<f64, JsonError> {
                    p.req(key)?
                        .as_f64()
                        .ok_or_else(|| JsonError::schema(format!("'{key}' must be a number")))
                };
                Ok(ProfilePoint {
                    at_secs: num("at_secs")?,
                    mbps: num("mbps")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let period_secs = match v.get("period_secs") {
            None => None,
            Some(p) if p.is_null() => None,
            Some(p) => Some(
                p.as_f64()
                    .ok_or_else(|| JsonError::schema("'period_secs' must be a number"))?,
            ),
        };
        Ok(ProfileSpec {
            name,
            points,
            period_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let spec = ProfileSpec {
            name: "office-wifi".into(),
            points: vec![
                ProfilePoint {
                    at_secs: 0.0,
                    mbps: 28.4,
                },
                ProfilePoint {
                    at_secs: 1.5,
                    mbps: 22.0,
                },
                ProfilePoint {
                    at_secs: 3.0,
                    mbps: 30.1,
                },
            ],
            period_secs: Some(4.5),
        };
        let json = spec.to_json();
        let back = ProfileSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let empty = ProfileSpec {
            name: "x".into(),
            points: vec![],
            period_secs: None,
        };
        assert_eq!(empty.to_profile().unwrap_err(), ProfileSpecError::Empty);

        let late_start = ProfileSpec {
            name: "x".into(),
            points: vec![ProfilePoint {
                at_secs: 1.0,
                mbps: 1.0,
            }],
            period_secs: None,
        };
        assert_eq!(
            late_start.to_profile().unwrap_err(),
            ProfileSpecError::DoesNotStartAtZero
        );

        let unordered = ProfileSpec {
            name: "x".into(),
            points: vec![
                ProfilePoint {
                    at_secs: 0.0,
                    mbps: 1.0,
                },
                ProfilePoint {
                    at_secs: 2.0,
                    mbps: 1.0,
                },
                ProfilePoint {
                    at_secs: 1.0,
                    mbps: 1.0,
                },
            ],
            period_secs: None,
        };
        assert_eq!(
            unordered.to_profile().unwrap_err(),
            ProfileSpecError::NotIncreasing
        );

        let nan = ProfileSpec {
            name: "x".into(),
            points: vec![ProfilePoint {
                at_secs: 0.0,
                mbps: f64::NAN,
            }],
            period_secs: None,
        };
        assert_eq!(nan.to_profile().unwrap_err(), ProfileSpecError::BadNumber);

        let bad_period = ProfileSpec {
            name: "x".into(),
            points: vec![ProfilePoint {
                at_secs: 0.0,
                mbps: 1.0,
            }],
            period_secs: Some(-1.0),
        };
        assert_eq!(
            bad_period.to_profile().unwrap_err(),
            ProfileSpecError::BadNumber
        );
    }

    #[test]
    fn a_period_that_cuts_off_a_point_is_rejected() {
        let spec = |period_secs| ProfileSpec {
            name: "x".into(),
            points: vec![
                ProfilePoint {
                    at_secs: 0.0,
                    mbps: 1.0,
                },
                ProfilePoint {
                    at_secs: 3.0,
                    mbps: 2.0,
                },
            ],
            period_secs,
        };
        assert_eq!(
            spec(Some(2.0)).to_profile().unwrap_err(),
            ProfileSpecError::PeriodTooShort
        );
        // The documented bound is inclusive, and a one-shot trace has none.
        assert!(spec(Some(3.0)).to_profile().is_ok());
        assert!(spec(None).to_profile().is_ok());
    }

    /// Both specs pass every check made in seconds; what the profile
    /// stores is nanoseconds.
    #[test]
    fn a_spec_is_validated_in_the_nanoseconds_it_is_stored_in() {
        let point = |at_secs, mbps| ProfilePoint { at_secs, mbps };
        // 1.0 s and 1.0000000002 s are one instant: the first one's
        // 2 Mbps would never be served.
        let collide = ProfileSpec {
            name: "x".into(),
            points: vec![
                point(0.0, 1.0),
                point(1.0, 2.0),
                point(1.000_000_000_2, 3.0),
            ],
            period_secs: None,
        };
        assert!(collide.points[1].at_secs < collide.points[2].at_secs);
        assert_eq!(
            collide.to_profile().unwrap_err(),
            ProfileSpecError::NotIncreasing
        );
        // A period of 0 ns is no period: the trace would run one-shot.
        let no_period = ProfileSpec {
            name: "x".into(),
            points: vec![point(0.0, 1.0)],
            period_secs: Some(1e-10),
        };
        assert_eq!(
            no_period.to_profile().unwrap_err(),
            ProfileSpecError::BadNumber
        );
        // The smallest period that survives the conversion loads.
        let one_ns = ProfileSpec {
            period_secs: Some(1e-9),
            ..no_period
        };
        assert_eq!(
            one_ns
                .to_profile()
                .unwrap()
                .next_change_after(SimTime::ZERO),
            SimTime::from_nanos(1)
        );
    }

    #[test]
    fn loaded_profile_loops() {
        let spec = ProfileSpec {
            name: "loop".into(),
            points: vec![
                ProfilePoint {
                    at_secs: 0.0,
                    mbps: 1.0,
                },
                ProfilePoint {
                    at_secs: 1.0,
                    mbps: 2.0,
                },
            ],
            period_secs: Some(2.0),
        };
        let p = spec.to_profile().unwrap();
        assert_eq!(p.rate_at(SimTime::from_millis(500)).as_mbps_f64(), 1.0);
        assert_eq!(p.rate_at(SimTime::from_millis(2_500)).as_mbps_f64(), 1.0);
        assert_eq!(p.rate_at(SimTime::from_millis(3_500)).as_mbps_f64(), 2.0);
    }
}
