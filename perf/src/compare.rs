//! `perf compare A.json B.json`: apply the catalogue's bounds to two
//! ledgers, per end-to-end metric and workload.

use crate::metrics::{self, Better, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use mpdash_results::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Pass,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judge `b` against parent `a`. `worse` is how much worse `b`'s median
/// is, as a share of `a`'s (negative = better).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let b_worse_than = |x: f64, y: f64| sign * (y - x) > 0.0;
    let verdict = if spread(a).max(spread(b)) > bound {
        // Resolved only when the two sets do not overlap at all.
        if a.iter().all(|&x| b.iter().all(|&y| !b_worse_than(x, y))) {
            Verdict::Pass
        } else if worse > bound && a.iter().all(|&x| b.iter().all(|&y| b_worse_than(x, y))) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    (verdict, worse)
}

/// One run of a ledger file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .ok_or_else(|| format!("{path}: a run lacks \"{k}\""))
            };
            let metrics = field("metrics")?
                .as_obj()
                .ok_or_else(|| format!("{path}: \"metrics\" is not an object"))?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_u64().unwrap_or_default(),
                trace: field("trace")?.as_bool().unwrap_or_default(),
                failed: field("failed")?.as_u64().unwrap_or_default(),
                digest: field("digest")?.as_str().unwrap_or_default().to_string(),
                metrics,
            })
        })
        .collect()
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "A = {path_a} ({} runs), B = {path_b} ({} runs)",
        a.len(),
        b.len()
    );
    for w in &WORKLOADS {
        let mut cells = Vec::new();
        let mut details = Vec::new();
        for m in &END_TO_END {
            let (va, vb) = (
                values(&a, w.name, false, m.name),
                values(&b, w.name, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                cells.push(format!("{} missing", m.name));
                continue;
            }
            let (verdict, worse) = judge(&va, &vb, m.better, m.bound);
            ok &= verdict != Verdict::Regressed;
            cells.push(format!("{} {verdict:?}", m.name));
            if verdict != Verdict::Pass {
                details.push(format!(
                    "    {}: A median {:.6} (spread {:.1}%), B median {:.6} (spread {:.1}%), \
                     {:+.1}% worse, bound {:.1}%",
                    m.name,
                    median(&va),
                    spread(&va) * 100.0,
                    median(&vb),
                    spread(&vb) * 100.0,
                    worse * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        println!("{:<20} {}", w.name, cells.join(" | "));
        details.iter().for_each(|d| println!("{d}"));
    }

    // What repeats exactly must be bit-equal run for run.
    let mut unequal = 0;
    for ra in &a {
        let twin = b
            .iter()
            .find(|rb| (&rb.workload, rb.seed, rb.trace) == (&ra.workload, ra.seed, ra.trace));
        let Some(rb) = twin else { continue };
        let mut differ: Vec<String> = ra
            .metrics
            .iter()
            .filter(|(name, _)| metrics::repeats_exactly(name))
            .filter(|(name, v)| rb.metrics.get(*name).is_some_and(|w| w != *v))
            .map(|(name, _)| name.clone())
            .collect();
        if ra.digest != rb.digest {
            differ.push("digest".into());
        }
        if ra.failed + rb.failed > 0 {
            differ.push(format!("failed operations ({} / {})", ra.failed, rb.failed));
            ok = false;
        }
        if !differ.is_empty() {
            unequal += 1;
            println!(
                "{} seed {} trace {}: differs in {}",
                ra.workload,
                ra.seed,
                u8::from(ra.trace),
                differ.join(", ")
            );
        }
    }
    if unequal == 0 {
        println!("every simulated metric, count row and digest is bit-equal between matching runs");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // 5% slower under an 8% bound passes; 20% slower regresses.
        assert_eq!(
            judge(&steady, &[10.5, 10.6, 10.4, 10.5], Better::Lower, 0.08).0,
            Verdict::Pass
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.08).0,
            Verdict::Regressed
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.08).0,
            Verdict::Pass
        );
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.08).0,
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved while the sets overlap,
        // resolved once every B run beats every A run.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(&noisy, &[9.0, 11.0, 13.0, 15.0], Better::Lower, 0.08).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[4.0, 5.0, 6.0, 7.0], Better::Lower, 0.08).0,
            Verdict::Pass
        );
        assert_eq!(
            judge(&noisy, &[20.0, 25.0, 30.0, 35.0], Better::Lower, 0.08).0,
            Verdict::Regressed
        );
    }
}
