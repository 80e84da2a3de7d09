//! `fg-benchmark compare <base.json> <new.json>`: judge two result
//! files (as written by `suite`) metric by metric, workload by workload.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{registry, Better, Judge, MetricDef, WORKLOADS};
use crate::stats::{median, spread};

/// Every run of one workload in one result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Values per metric name, one per run that printed it.
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: f64,
    pub failed: f64,
    pub incorrect_runs: usize,
}

impl WorkloadRuns {
    fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }
}

/// A result file, by workload name.
pub type ResultFile = BTreeMap<String, WorkloadRuns>;

/// Read a `suite` result document.
pub fn parse_results(text: &str) -> Result<ResultFile, String> {
    let doc = json::parse(text)?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("result file has no \"runs\" list")?;
    let mut file = ResultFile::new();
    for run in runs {
        let workload =
            run.get("workload").and_then(Json::as_str).ok_or("run without a workload name")?;
        let result = run.get("result").ok_or("run without a result")?;
        let w = file.entry(workload.to_string()).or_default();
        let num = |key: &str| {
            result.get(key).and_then(Json::as_f64).ok_or(format!("{workload}: result lacks {key}"))
        };
        w.attempted += num("attempted")?;
        w.failed += num("failed")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            w.incorrect_runs += 1;
        }
        let metrics = result.get("metrics").and_then(Json::as_obj).ok_or("result lacks metrics")?;
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
            w.values.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(file)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Worse than the base by more than its bound.
    Regression,
    /// Run-to-run spread exceeds the bound: neither changed nor unchanged.
    Unresolved,
    /// Deterministic metric, identical in every run of both files.
    ExactOk,
    /// Deterministic metric that differs.
    ExactMismatch,
    /// Diagnostic metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::ExactOk => "exact",
            Verdict::ExactMismatch => "EXACT MISMATCH",
            Verdict::Info => "info",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::ExactMismatch)
    }
}

/// Run-to-run spread of a sample: IQR over median from four runs on,
/// range over median for two or three, unknown (0) for one.
fn sample_spread(v: &[f64]) -> f64 {
    match v.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let m = median(v);
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            if m == 0.0 {
                0.0
            } else {
                (hi - lo) / m.abs()
            }
        }
        _ => spread(v),
    }
}

/// Judge one metric on one workload: `base` and `new` hold one value per
/// run.
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    match def.judge {
        Judge::Info => Verdict::Info,
        Judge::Exact => {
            let first = base[0].to_bits();
            if base.iter().chain(new).all(|v| v.to_bits() == first) {
                Verdict::ExactOk
            } else {
                Verdict::ExactMismatch
            }
        }
        Judge::Bound(bound) => {
            if sample_spread(base).max(sample_spread(new)) > bound {
                return Verdict::Unresolved;
            }
            let (b, n) = (median(base), median(new));
            let worse = match def.better {
                Better::Lower => n / b - 1.0,
                Better::Higher => 1.0 - n / b,
            };
            if worse > bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            }
        }
    }
}

/// Compare two result files; returns the printed report and whether the
/// new file regressed.
pub fn compare(base: &ResultFile, new: &ResultFile) -> (String, bool) {
    let defs = registry();
    let mut out = String::new();
    let mut failed = false;
    for workload in WORKLOADS {
        let (Some(b), Some(n)) = (base.get(workload), new.get(workload)) else {
            out.push_str(&format!("{workload}: missing from one file\n"));
            failed = true;
            continue;
        };
        out.push_str(&format!(
            "\n{workload}\n  {:<34} {:>16} {:>16} {:>9} {:>8}  verdict\n",
            "metric", "base median", "new median", "new/base", "spread"
        ));
        for def in &defs {
            let (Some(bv), Some(nv)) = (b.values.get(&def.name), n.values.get(&def.name)) else {
                continue;
            };
            // A per-layer metric the workload has no use for reads 0.
            if bv.iter().chain(nv).all(|v| *v == 0.0) {
                continue;
            }
            let verdict = judge(def, bv, nv);
            failed |= verdict.fails();
            let (bm, nm) = (median(bv), median(nv));
            out.push_str(&format!(
                "  {:<34} {:>16.6} {:>16.6} {:>9.4} {:>7.2}%  {}\n",
                def.name,
                bm,
                nm,
                nm / bm,
                sample_spread(bv).max(sample_spread(nv)) * 100.0,
                verdict.label()
            ));
        }
        let (bs, ns) = (b.failed_share(), n.failed_share());
        out.push_str(&format!(
            "  failed operations: base {}/{} new {}/{}; incorrect runs: base {} new {}\n",
            b.failed, b.attempted, n.failed, n.attempted, b.incorrect_runs, n.incorrect_runs
        ));
        if ns > bs || n.incorrect_runs > b.incorrect_runs {
            out.push_str("  MORE FAILURES than the base\n");
            failed = true;
        }
    }
    out.push_str(if failed { "\nresult: REGRESSION\n" } else { "\nresult: no regression\n" });
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> MetricDef {
        registry().into_iter().find(|d| d.name == name).expect("registered metric")
    }

    /// A file with `runs` runs of one workload, `step_ms_p50` scaled.
    fn file(step_ms: &[f64], makespan: f64, failed: f64) -> ResultFile {
        let mut w = WorkloadRuns { attempted: 100.0, failed, ..WorkloadRuns::default() };
        w.values.insert("step_ms_p50".into(), step_ms.to_vec());
        w.values.insert("virtual_makespan_s".into(), vec![makespan; step_ms.len()]);
        WORKLOADS.iter().map(|name| (name.to_string(), w.clone())).collect()
    }

    fn bound_of(d: &MetricDef) -> f64 {
        match d.judge {
            Judge::Bound(b) => b,
            other => panic!("{} is judged {other:?}, not bounded", d.name),
        }
    }

    #[test]
    fn flags_a_slowdown_five_points_past_the_bound() {
        // +15 % on a 10 % metric; +30 % on step_ms_p50, whose bound is 25 %.
        let base = [340.0, 341.0, 339.0, 340.5];
        for name in ["peak_rss_mb", "step_ms_p50"] {
            let d = def(name);
            let slow: Vec<f64> = base.iter().map(|v| v * (1.05 + bound_of(&d))).collect();
            assert_eq!(judge(&d, &base, &slow), Verdict::Regression, "{name}");
        }
        let slow: Vec<f64> = base.iter().map(|v| v * 1.30).collect();
        let (report, failed) = compare(&file(&base, 1.0, 0.0), &file(&slow, 1.0, 0.0));
        assert!(failed, "{report}");
        assert!(report.contains("REGRESSION"));
    }

    #[test]
    fn passes_a_three_percent_wobble_in_either_direction() {
        let d = def("step_ms_p50");
        let base = [340.0, 341.0, 339.0, 340.5];
        for scale in [0.97, 1.03] {
            let wobble: Vec<f64> = base.iter().map(|v| v * scale).collect();
            assert_eq!(judge(&d, &base, &wobble), Verdict::Ok);
            let (report, failed) = compare(&file(&base, 1.0, 0.0), &file(&wobble, 1.0, 0.0));
            assert!(!failed, "{report}");
        }
        // Higher-is-better metrics are judged the other way round.
        let up = def("steps_per_s");
        let drop = 1.0 - bound_of(&up) - 0.05;
        assert_eq!(judge(&up, &[3.0; 4], &[3.0 * drop; 4]), Verdict::Regression);
        assert_eq!(judge(&up, &[3.0; 4], &[3.0 / drop; 4]), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let d = def("step_ms_p50");
        let noisy = [300.0, 340.0, 380.0, 420.0];
        let slow: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&d, &noisy, &slow), Verdict::Unresolved);
        let (_, failed) = compare(&file(&noisy, 1.0, 0.0), &file(&slow, 1.0, 0.0));
        assert!(!failed, "unresolved is reported, not failed");
    }

    #[test]
    fn exact_metric_mismatch_fails() {
        let d = def("virtual_makespan_s");
        assert_eq!(judge(&d, &[1.5, 1.5], &[1.5, 1.5]), Verdict::ExactOk);
        assert_eq!(judge(&d, &[1.5, 1.5], &[1.5, 1.5000000000000002]), Verdict::ExactMismatch);
        let base = [340.0; 4];
        let (report, failed) = compare(&file(&base, 1.0, 0.0), &file(&base, 1.0 + 1e-12, 0.0));
        assert!(failed && report.contains("EXACT MISMATCH"), "{report}");
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let base = [340.0; 4];
        let (report, failed) = compare(&file(&base, 1.0, 0.0), &file(&base, 1.0, 2.0));
        assert!(failed && report.contains("MORE FAILURES"), "{report}");
    }

    #[test]
    fn parses_suite_documents() {
        let text = r#"{"seconds": 20, "runs": [
            {"workload": "mesh_sample_p2", "trace": 0, "seed": 1, "result":
              {"correct": true, "attempted": 50, "failed": 0,
               "metrics": {"step_ms_p50": {"value": 340.5, "unit": "ms"}}}},
            {"workload": "mesh_sample_p2", "trace": 0, "seed": 2, "result":
              {"correct": false, "attempted": 50, "failed": 1,
               "metrics": {"step_ms_p50": {"value": 341.5, "unit": "ms"}}}}]}"#;
        let file = parse_results(text).expect("well-formed");
        let w = &file["mesh_sample_p2"];
        assert_eq!(w.values["step_ms_p50"], [340.5, 341.5]);
        assert_eq!((w.attempted, w.failed, w.incorrect_runs), (100.0, 1.0, 1));
        assert!(parse_results("{}").is_err());
    }
}
