//! The metric catalogue, one workload's result, result files and
//! `compare`.

use crate::json::Json;
use crate::stats::{supported, Summary};

pub const WORKLOADS: [&str; 4] = ["steady", "paging", "sweep-par", "campaign"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the simulator or the service sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `campaign_*` latencies exist on `campaign` alone.
    pub campaign_only: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    campaign_only: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        campaign_only,
    }
}

/// The end-to-end metrics. `fail_share` is the seventh: it is carried by
/// the attempted/failed counts and its bound is zero, absolute; these six
/// are timings or sizes with a relative bound.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("wall_s", "s", Better::Lower, false),
    e2e("sim_kips", "kinstr/s", Better::Higher, false),
    e2e("peak_rss_mb", "MB", Better::Lower, false),
    e2e("setup_s", "s", Better::Lower, false),
    e2e("campaign_cold_p50_ms", "ms", Better::Lower, true),
    e2e("campaign_warm_p50_ms", "ms", Better::Lower, true),
];

/// How much the median of `metric` may worsen on `workload` before
/// `compare` calls it a regression. Wall time is noisier the more threads
/// and sockets a workload involves.
pub fn bound(workload: &str, metric: &str) -> f64 {
    match (metric, workload) {
        ("wall_s" | "sim_kips", "steady" | "paging") => 0.05,
        ("wall_s" | "sim_kips", "sweep-par") => 0.08,
        _ => 0.10,
    }
}

/// A per-layer metric: measured from outside the layer, in the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn entry(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric, in print order. Unit `count` marks an exact
/// count of simulated work: it has no host noise, so it must repeat
/// exactly across runs and across any host-only change (its direction is
/// nominal).
pub const PER_LAYER: [Layer; 78] = {
    use Better::{Higher as H, Lower as L};
    [
        entry("workloads.build_ms", "ms", L),
        entry("isa.funcsim_kips", "kinstr/s", H),
        entry("isa.dyn_instrs", "count", L),
        entry("sm.harness_kips.baseline", "kinstr/s", H),
        entry("sm.harness_kips.wd-commit", "kinstr/s", H),
        entry("sm.harness_kips.wd-lastcheck", "kinstr/s", H),
        entry("sm.harness_kips.replay-queue", "kinstr/s", H),
        entry("sm.harness_kips.oplog16k", "kinstr/s", H),
        entry("sm.issued", "count", L),
        entry("sm.committed", "count", L),
        entry("sm.squashed", "count", L),
        entry("sm.faults", "count", L),
        entry("sm.idle_issue_cycles", "count", L),
        entry("sm.stall_raw", "count", L),
        entry("sm.stall_war", "count", L),
        entry("sm.stall_unit", "count", L),
        entry("sm.stall_log", "count", L),
        entry("sm.fetch_blocked", "count", L),
        entry("sm.blocks_switched_out", "count", L),
        entry("mem.replay_hit_kaccess_per_s", "kaccess/s", H),
        entry("mem.replay_fault_kaccess_per_s", "kaccess/s", H),
        entry("mem.accesses", "count", L),
        entry("mem.requests", "count", L),
        entry("mem.walks", "count", L),
        entry("mem.faulted_requests", "count", L),
        entry("mem.mshr_retries", "count", L),
        entry("mem.denied_requests", "count", L),
        entry("mem.lp_coalesced", "count", H),
        entry("mem.lp_splintered", "count", L),
        entry("mem.l1_hit_ratio", "ratio", H),
        entry("mem.l2_hit_ratio", "ratio", H),
        entry("sim.point_ms_p50", "ms", L),
        entry("sim.point_ms_p90", "ms", L),
        entry("sim.kcycles_per_s", "kcycle/s", H),
        entry("sim.kips.baseline", "kinstr/s", H),
        entry("sim.kips.wd-commit", "kinstr/s", H),
        entry("sim.kips.wd-lastcheck", "kinstr/s", H),
        entry("sim.kips.replay-queue", "kinstr/s", H),
        entry("sim.kips.oplog16k", "kinstr/s", H),
        entry("sim.group_ms.steady", "ms", L),
        entry("sim.group_ms.fig12", "ms", L),
        entry("sim.group_ms.fig13", "ms", L),
        entry("sim.group_ms.fig14", "ms", L),
        entry("sim.group_ms.lp", "ms", L),
        entry("sim.group_ms.mt", "ms", L),
        entry("sim.cycles", "count", L),
        entry("sim.blocks", "count", L),
        entry("sim.switches", "count", L),
        entry("sim.cpu_migrations", "count", L),
        entry("sim.cpu_resolved", "count", L),
        entry("sim.cpu_evictions", "count", L),
        entry("sim.local_resolved", "count", L),
        entry("sim.mt_quarantined", "count", L),
        entry("exec.noop_job_ns", "ns", L),
        entry("exec.scaling_x", "x", H),
        entry("exec.worker_busy_share", "ratio", H),
        entry("core.cache.hit_ns", "ns", L),
        entry("core.cache.hits", "count", H),
        entry("core.cache.misses", "count", L),
        entry("core.journal.record_us_p50", "us", L),
        entry("core.journal.record_us_p90", "us", L),
        entry("core.journal.open_ms", "ms", L),
        entry("core.supervise.noop_point_us", "us", L),
        entry("serve.campaign_cold_p50_ms", "ms", L),
        entry("serve.campaign_warm_p50_ms", "ms", L),
        entry("serve.campaign_cold_max_ms", "ms", L),
        entry("serve.campaign_warm_max_ms", "ms", L),
        entry("serve.submit_ack_ms_p50", "ms", L),
        entry("serve.first_result_ms_p50", "ms", L),
        entry("serve.results_fetch_ms_p50", "ms", L),
        entry("serve.ping_us_p50", "us", L),
        entry("serve.recover_ms", "ms", L),
        entry("serve.wire.spec_parse_ns", "ns", L),
        entry("serve.wire.spec_encode_ns", "ns", L),
        entry("serve.cold_overhead_x", "x", L),
        entry("serve.shed", "count", L),
        entry("serve.quarantined", "count", L),
        entry("trace.overhead_x", "x", L),
    ]
};

fn layer(name: &str) -> &'static Layer {
    PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue"))
}

/// The run's configuration: two results compare only if these agree
/// (the commit aside).
pub type Header = Vec<(String, String)>;

/// Metrics by name, in print order.
pub type Metrics = Vec<(String, Summary)>;
/// Exact counts by name, in print order.
pub type Counts = Vec<(String, u64)>;

/// One workload's result, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Warm-up and timed pass counts, worker count, phases: free text.
    pub shape: String,
    /// End-to-end metrics (untraced run only).
    pub e2e: Metrics,
    /// Per-layer timings and ratios (traced run only).
    pub layers: Metrics,
    /// Exact counts over the workload's points; simulated statistics that
    /// repeat exactly across runs and across any host-only change.
    pub counts: Counts,
}

impl WorkloadResult {
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn e2e(&self, name: &str) -> Option<&Summary> {
        self.e2e.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn to_json(&self) -> Json {
        let summaries =
            |m: &[(String, Summary)]| Json::obj(m.iter().map(|(n, s)| (n.clone(), s.to_json())));
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("shape", Json::str(self.shape.clone())),
            ("end_to_end", summaries(&self.e2e)),
            ("per_layer", summaries(&self.layers)),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|(n, c)| (n.clone(), Json::Num(*c as f64))),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<WorkloadResult> {
        let summaries = |key: &str| -> Option<Metrics> {
            j.get(key)?
                .fields()
                .iter()
                .map(|(n, s)| Some((n.clone(), Summary::from_json(s)?)))
                .collect()
        };
        Some(WorkloadResult {
            workload: j.get("workload")?.as_str()?.to_string(),
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            shape: j.get("shape")?.as_str()?.to_string(),
            e2e: summaries("end_to_end")?,
            layers: summaries("per_layer")?,
            counts: j
                .get("counts")?
                .fields()
                .iter()
                .map(|(n, c)| Some((n.clone(), c.as_f64()? as u64)))
                .collect::<Option<_>>()?,
        })
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// metrics of the mode, exactly as `BENCHMARK.json` lists them: the
    /// end-to-end metrics every workload has, untraced; every per-layer
    /// metric, counts included, traced.
    pub fn driver_line(&self, traced: bool) -> Json {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|l| l.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| !m.campaign_only)
                .map(|m| m.name)
                .collect()
        };
        let metrics = names.into_iter().map(|name| {
            let (value, unit) = if let Some(s) = self.e2e(name) {
                (
                    s.median,
                    END_TO_END
                        .iter()
                        .find(|m| m.name == name)
                        .expect("catalogued")
                        .unit,
                )
            } else if let Some((_, s)) = self.layers.iter().find(|(n, _)| n == name) {
                (s.median, layer(name).unit)
            } else if let Some((_, c)) = self.counts.iter().find(|(n, _)| n == name) {
                (*c as f64, "count")
            } else {
                panic!("{} did not measure {name}", self.workload)
            };
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Human-readable block: every metric by name and unit, with median,
    /// quartiles, minimum and sample count.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "workload {} ({})", self.workload, self.shape);
        let _ = writeln!(
            out,
            "  {:<34} {:>14} {:<9} {:<6} {:>12} {:>12} {:>12} {:>5}",
            "metric", "median", "unit", "better", "q1", "q3", "min", "n"
        );
        let mut row = |name: &str, unit: &str, better: Better, s: &Summary| {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            // A percentile is only as good as the ten samples beyond it.
            let p = if name.ends_with("_p90") { 90.0 } else { 50.0 };
            let is_percentile = name.contains("_p50") || name.contains("_p90");
            let thin = is_percentile && s.n > 0 && !supported(s.n, p);
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<9} {:<6} {:>12.4} {:>12.4} {:>12.4} {:>5}{}",
                name,
                s.median,
                unit,
                better,
                s.q1,
                s.q3,
                s.min,
                s.n,
                if thin {
                    "  (fewer than ten samples beyond)"
                } else {
                    ""
                }
            );
        };
        for (name, s) in &self.e2e {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("catalogued metric");
            row(name, m.unit, m.better, s);
        }
        for (name, s) in &self.layers {
            let l = layer(name);
            row(name, l.unit, l.better, s);
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>14.4} {:<9} attempted {} failed {}",
            "fail_share",
            self.fail_share(),
            "share",
            self.attempted,
            self.failed
        );
        if !self.counts.is_empty() {
            let _ = writeln!(
                out,
                "  exact counts (simulated; Test preset, not validated against the paper):"
            );
            for chunk in self.counts.chunks(3) {
                let line: Vec<String> = chunk.iter().map(|(n, c)| format!("{n}={c}")).collect();
                let _ = writeln!(out, "    {}", line.join("  "));
            }
        }
        out
    }
}

/// A result file: one header, the workloads in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub header: Header,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "header",
                Json::obj(
                    self.header
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
                ),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<ResultFile> {
        let header = j
            .get("header")?
            .fields()
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect::<Option<_>>()?;
        let Json::Arr(ws) = j.get("workloads")? else {
            return None;
        };
        Some(ResultFile {
            header,
            workloads: ws
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Option<_>>()?,
        })
    }

    pub fn render_header(&self) -> String {
        let fields: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("header: {}\n", fields.join(" "))
    }
}

/// Outcome of [`compare`].
pub struct Comparison {
    pub text: String,
    /// A metric regressed beyond its bound or `fail_share` rose.
    pub regressed: bool,
}

fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> (&'static str, f64) {
    let ratio = if a.median == 0.0 {
        1.0
    } else {
        b.median / a.median
    };
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let all_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    // Samples that scatter wider than the bound cannot resolve a change
    // of the bound's size: say so instead of calling it unchanged — unless
    // every sample of the change beats every sample of the parent.
    let v = if a.spread().max(b.spread()) > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    (v, ratio)
}

/// Diff result file `b` (the change) against `a` (the parent). `Err` when
/// the two were not measured under the same configuration.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Comparison, String> {
    use std::fmt::Write;
    let differing: Vec<String> = a
        .header
        .iter()
        .filter(|(k, _)| k != "commit")
        .filter_map(|(k, va)| {
            let vb = b
                .header
                .iter()
                .find(|(kb, _)| kb == k)
                .map(|(_, v)| v.as_str());
            (vb != Some(va)).then(|| format!("{k}: {va} vs {}", vb.unwrap_or("<absent>")))
        })
        .collect();
    if !differing.is_empty() || a.header.len() != b.header.len() {
        return Err(format!(
            "headers differ, refusing to compare ({})",
            differing.join("; ")
        ));
    }
    let mut text = String::new();
    let mut regressed = false;
    let _ = writeln!(
        text,
        "{:<10} {:<22} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            return Err(format!(
                "workload {} missing from the second file",
                wa.workload
            ));
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.e2e(m.name), wb.e2e(m.name)) else {
                continue;
            };
            let bound = bound(&wa.workload, m.name);
            let (v, ratio) = verdict(m.better, bound, sa, sb);
            regressed |= v == "regressed";
            let _ = writeln!(
                text,
                "{:<10} {:<22} {:>12.4} {:>12.4} {:>7.3}x {:>5.0}%  {v} (base {:.4} {})",
                wa.workload,
                m.name,
                sa.median,
                sb.median,
                ratio,
                bound * 100.0,
                sa.median,
                m.unit
            );
        }
        let (fa, fb) = (wa.fail_share(), wb.fail_share());
        let v = if fb > fa { "regressed" } else { "ok" };
        regressed |= fb > fa;
        let _ = writeln!(
            text,
            "{:<10} {:<22} {:>12.4} {:>12.4} {:>8} {:>6}  {v} ({}/{} vs {}/{} failed)",
            wa.workload,
            "fail_share",
            fa,
            fb,
            "",
            "0",
            wa.failed,
            wa.attempted,
            wb.failed,
            wb.attempted
        );
        let moved: Vec<String> = wa
            .counts
            .iter()
            .filter_map(|(n, ca)| {
                let cb = wb.counts.iter().find(|(nb, _)| nb == n).map(|(_, c)| *c);
                (cb != Some(*ca)).then(|| {
                    format!(
                        "{n}: {ca} -> {}",
                        cb.map_or("absent".to_string(), |c| c.to_string())
                    )
                })
            })
            .collect();
        if moved.is_empty() {
            let _ = writeln!(
                text,
                "{:<10} {} exact counts identical",
                wa.workload,
                wa.counts.len()
            );
        } else {
            let _ = writeln!(
                text,
                "{:<10} {} of {} exact counts differ (a host-only change must move none): {}",
                wa.workload,
                moved.len(),
                wa.counts.len(),
                moved.join(", ")
            );
        }
    }
    Ok(Comparison { text, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(wall: &[f64], failed: u64, cycles: u64) -> ResultFile {
        ResultFile {
            header: vec![
                ("commit".into(), "abc".into()),
                ("seed".into(), "1".into()),
                ("host_cores".into(), "2".into()),
            ],
            workloads: vec![WorkloadResult {
                workload: "steady".into(),
                attempted: 880,
                failed,
                shape: "1 warm-up + 9 timed passes, W=1".into(),
                e2e: vec![
                    ("wall_s".into(), Summary::of(wall)),
                    ("sim_kips".into(), Summary::single(132.5)),
                    ("peak_rss_mb".into(), Summary::single(41.25)),
                    ("setup_s".into(), Summary::single(2.4)),
                ],
                layers: vec![],
                counts: vec![
                    ("sim.cycles".into(), cycles),
                    ("sm.committed".into(), 2_194_176),
                ],
            }],
        }
    }

    #[test]
    fn result_file_round_trips_and_compares_clean_against_itself() {
        let a = sample_file(&[2.0, 2.01, 2.02, 2.03, 2.04], 0, 777);
        let text = a.to_json().encode();
        let back = ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        let c = compare(&a, &back).unwrap();
        assert!(!c.regressed, "{}", c.text);
        assert!(c.text.contains("2 exact counts identical"), "{}", c.text);
        assert_eq!(c.text.matches(" ok ").count(), 5, "{}", c.text);
    }

    #[test]
    fn compare_flags_regressions_noise_failures_and_counts() {
        let a = sample_file(&[2.0, 2.01, 2.02, 2.03, 2.04], 0, 777);
        // 10% slower on a 5% bound, tight spread: regressed.
        let slow = sample_file(&[2.2, 2.21, 2.22, 2.23, 2.24], 0, 777);
        let c = compare(&a, &slow).unwrap();
        assert!(
            c.regressed && c.text.contains("regressed (base 2.0200 s)"),
            "{}",
            c.text
        );
        // Within the bound: ok. Faster: ok.
        assert!(
            !compare(&a, &sample_file(&[2.05, 2.06, 2.07, 2.08, 2.09], 0, 777))
                .unwrap()
                .regressed
        );
        assert!(!compare(&slow, &a).unwrap().regressed);
        // Spread wider than the bound: unresolved, not ok, not a failure.
        let noisy = sample_file(&[1.8, 1.9, 2.0, 2.3, 2.4], 0, 777);
        let c = compare(&a, &noisy).unwrap();
        assert!(!c.regressed && c.text.contains("unresolved"), "{}", c.text);
        // ... unless every sample of the change beats every parent sample.
        let c = compare(&noisy, &sample_file(&[1.0, 1.01, 1.02], 0, 777)).unwrap();
        assert!(!c.text.contains("unresolved"), "{}", c.text);
        // A higher fail share fails the comparison; a moved count is listed.
        let c = compare(&a, &sample_file(&[2.0, 2.01, 2.02, 2.03, 2.04], 1, 778)).unwrap();
        assert!(c.regressed);
        assert!(c.text.contains("1 of 2 exact counts differ"), "{}", c.text);
        assert!(c.text.contains("sim.cycles: 777 -> 778"), "{}", c.text);
    }

    #[test]
    fn compare_refuses_mismatched_headers_but_not_commits() {
        let a = sample_file(&[2.0], 0, 1);
        let mut b = a.clone();
        b.header[0].1 = "def".into();
        assert!(compare(&a, &b).is_ok());
        b.header[2].1 = "8".into();
        let err = compare(&a, &b).err().unwrap();
        assert!(err.contains("host_cores: 2 vs 8"), "{err}");
    }

    #[test]
    fn untraced_driver_line_has_exactly_the_shared_end_to_end_metrics() {
        let w = &sample_file(&[2.0, 2.2], 0, 9).workloads[0];
        assert_eq!(
            w.driver_line(false).encode(),
            "{\"correct\":true,\"attempted\":880,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":2.1,\"unit\":\"s\"},\
             \"sim_kips\":{\"value\":132.5,\"unit\":\"kinstr/s\"},\
             \"peak_rss_mb\":{\"value\":41.25,\"unit\":\"MB\"},\
             \"setup_s\":{\"value\":2.4,\"unit\":\"s\"}}}"
        );
    }
}
