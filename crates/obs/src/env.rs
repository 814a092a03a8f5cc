//! The `MPDASH_*` environment. No library reads it: `exp` and `mpdash`
//! call [`RunEnv::parse`] once with a lookup into `std::env` (tests with
//! a map) and stamp the value where a config leaves it unset.

use crate::sink::{NdjsonSink, RingSink, Tracer};
use crate::timeseries::TelemetrySpec;
use mpdash_sim::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the environment asks of every run. Nothing here moves a result:
/// artifacts are byte-identical at any worker count, traced or not.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// Batch threads: `MPDASH_WORKERS`, unset meaning every core.
    pub workers: usize,
    /// Where artifacts land: `MPDASH_RESULTS_DIR`, default `results`.
    pub artifact_dir: PathBuf,
    /// `MPDASH_TRACE`: off (unset, `""`, `"0"`, `"off"`), `"ring"` or
    /// `"ndjson"` (`trace.ndjson` in `MPDASH_TRACE_DIR`, default `traces`).
    pub tracer: Tracer,
    /// `MPDASH_TELEMETRY`: off, or the epoch in seconds (at least 1 ms).
    pub telemetry: Option<TelemetrySpec>,
}

impl RunEnv {
    /// Read the variables through `var`. A set `MPDASH_WORKERS` that is not
    /// a positive integer is an error (every core would make a 1-vs-4 check
    /// N-vs-N); an unusable trace or telemetry value, or a trace file that
    /// cannot be opened, goes to `warn` and leaves that observer off.
    pub fn parse(
        var: impl Fn(&str) -> Option<String>,
        mut warn: impl FnMut(String),
    ) -> Result<RunEnv, String> {
        let workers = match var("MPDASH_WORKERS") {
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Some(v) => (v.trim().parse().ok().filter(|&n| n > 0)).ok_or(format!(
                "MPDASH_WORKERS must be a positive integer, got '{v}'"
            ))?,
        };
        let tracer = match var("MPDASH_TRACE").unwrap_or_default().as_str() {
            "" | "0" | "off" => Tracer::disabled(),
            "ring" => Tracer::new(Arc::new(RingSink::new(1 << 16))),
            "ndjson" => {
                let dir = var("MPDASH_TRACE_DIR").unwrap_or_else(|| "traces".into());
                let path = Path::new(&dir).join("trace.ndjson");
                match NdjsonSink::create(&path) {
                    Ok(sink) => Tracer::new(Arc::new(sink)),
                    Err(e) => {
                        let path = path.display();
                        warn(format!(
                            "MPDASH_TRACE=ndjson but cannot open {path}: {e}; tracing disabled"
                        ));
                        Tracer::disabled()
                    }
                }
            }
            other => {
                warn(format!(
                    "unknown MPDASH_TRACE value '{other}' \
                     (expected off|ring|ndjson); tracing disabled"
                ));
                Tracer::disabled()
            }
        };
        let telemetry = match var("MPDASH_TELEMETRY").unwrap_or_default().trim() {
            "" | "0" | "off" => None,
            v => match v.parse().map(SimDuration::from_secs_f64) {
                Ok(epoch) if epoch >= TelemetrySpec::MIN_EPOCH => Some(TelemetrySpec::new(epoch)),
                _ => {
                    warn(format!(
                        "unusable MPDASH_TELEMETRY value '{v}' \
                         (expected off|0|<epoch seconds, at least 0.001>); telemetry disabled"
                    ));
                    None
                }
            },
        };
        Ok(RunEnv {
            workers,
            artifact_dir: var("MPDASH_RESULTS_DIR")
                .unwrap_or_else(|| "results".into())
                .into(),
            tracer,
            telemetry,
        })
    }

    /// Fill what a config leaves unset (a disabled tracer, no telemetry).
    pub fn stamp(&self, tracer: &mut Tracer, telemetry: &mut Option<TelemetrySpec>) {
        if !tracer.enabled() {
            *tracer = self.tracer.clone();
        }
        *telemetry = telemetry.or(self.telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Parse `vars` as the whole environment, with the warnings given.
    fn parse(vars: &[(&str, &str)]) -> (Result<RunEnv, String>, Vec<String>) {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        let mut warnings = Vec::new();
        let env = RunEnv::parse(|k| map.get(k).map(|v| v.to_string()), |w| warnings.push(w));
        (env, warnings)
    }

    #[test]
    fn with_nothing_set_every_field_takes_its_default() {
        let (env, warnings) = parse(&[]);
        let env = env.unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(env.workers, cores);
        assert_eq!(env.artifact_dir, Path::new("results"));
        assert!(!env.tracer.enabled());
        assert_eq!(env.telemetry, None);
    }

    #[test]
    fn set_values_are_read() {
        let dir = std::env::temp_dir().join(format!("mpdash-run-env-{}", std::process::id()));
        let (env, warnings) = parse(&[
            ("MPDASH_WORKERS", " 4 "),
            ("MPDASH_RESULTS_DIR", "out"),
            ("MPDASH_TRACE", "ndjson"),
            ("MPDASH_TRACE_DIR", dir.to_str().unwrap()),
            ("MPDASH_TELEMETRY", "2"),
        ]);
        let env = env.unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(env.workers, 4);
        assert_eq!(env.artifact_dir, Path::new("out"));
        assert!(env.tracer.enabled() && dir.join("trace.ndjson").is_file());
        assert_eq!(env.telemetry, Some(TelemetrySpec::seconds(2.0)));
        assert!(parse(&[("MPDASH_TRACE", "ring")])
            .0
            .unwrap()
            .tracer
            .enabled());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unusable_worker_count_is_an_error_naming_the_variable_and_value() {
        for bad in ["0", "four", "-1", "", "4x"] {
            let err = parse(&[("MPDASH_WORKERS", bad)]).0.unwrap_err();
            assert!(
                err.contains("MPDASH_WORKERS") && err.contains(&format!("'{bad}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn an_epoch_below_a_millisecond_is_an_unusable_setting() {
        // 1e-10 s rounds to 0 ns (a panic in `TelemetrySpec::new`) and
        // 1 µs epochs exhaust memory on dense cells: both must warn and
        // disable, like any other unusable value.
        for bad in ["1e-10", "0.000001", "0.0009", "-1", "nan", "inf", "abc"] {
            let (env, warnings) = parse(&[("MPDASH_TELEMETRY", bad)]);
            assert_eq!(env.unwrap().telemetry, None, "{bad}");
            assert_eq!(warnings.len(), 1, "{bad}");
            assert!(
                warnings[0].contains("unusable MPDASH_TELEMETRY") && warnings[0].contains(bad),
                "{warnings:?}"
            );
        }
        for off in ["0", "off", " off ", ""] {
            let (env, warnings) = parse(&[("MPDASH_TELEMETRY", off)]);
            assert_eq!(env.unwrap().telemetry, None, "{off:?}");
            assert!(warnings.is_empty(), "{off:?}: {warnings:?}");
        }
        let spec = |v| parse(&[("MPDASH_TELEMETRY", v)]).0.unwrap().telemetry;
        let finest = TelemetrySpec::new(TelemetrySpec::MIN_EPOCH);
        assert_eq!(spec("0.001"), Some(finest));
    }

    #[test]
    fn an_unknown_trace_value_or_an_unopenable_trace_file_warns_and_leaves_tracing_off() {
        let (env, warnings) = parse(&[("MPDASH_TRACE", "json")]);
        assert!(!env.unwrap().tracer.enabled());
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("unknown MPDASH_TRACE value 'json'"),
            "{warnings:?}"
        );

        // The trace directory would sit under a regular file.
        let file = std::env::temp_dir().join(format!("mpdash-run-env-{}.file", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("traces");
        let (env, warnings) = parse(&[
            ("MPDASH_TRACE", "ndjson"),
            ("MPDASH_TRACE_DIR", dir.to_str().unwrap()),
        ]);
        std::fs::remove_file(&file).unwrap();
        assert!(!env.unwrap().tracer.enabled());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("cannot open"), "{warnings:?}");
    }

    #[test]
    fn a_stamp_fills_only_what_a_config_leaves_unset() {
        let ring = Tracer::new(Arc::new(RingSink::new(4)));
        let env = RunEnv {
            tracer: ring,
            telemetry: Some(TelemetrySpec::seconds(1.0)),
            ..parse(&[]).0.unwrap()
        };
        let (mut tracer, mut telemetry) = (Tracer::disabled(), None);
        env.stamp(&mut tracer, &mut telemetry);
        assert!(tracer.enabled());
        assert_eq!(telemetry, Some(TelemetrySpec::seconds(1.0)));

        let untraced = parse(&[]).0.unwrap();
        let own = Some(TelemetrySpec::seconds(5.0));
        telemetry = own;
        untraced.stamp(&mut tracer, &mut telemetry);
        assert!(tracer.enabled(), "a set tracer stays");
        assert_eq!(telemetry, own, "a set spec stays");
    }
}
