//! Performance-trajectory recorder: times the paper's figure sweeps
//! serially and on the parallel sweep engine, and emits a `BENCH_<n>.json`
//! snapshot so every PR leaves a recorded perf baseline.
//!
//! The `perfstat` binary drives this module. Each [`Group`] is the point
//! grid behind one figure, built by the experiment driver's own grid
//! builder; [`run_all`] executes it through [`gex_exec::par_map`] and
//! [`gex::run_point`] and returns the total simulated cycles, which —
//! divided by wall-clock — gives the sim-cycles/second throughput
//! recorded in the JSON. The binary disables the result cache before
//! timing, so every point simulates.

use gex::experiments::{self, GridPoint, Inputs};
use gex::workloads::Preset;
use gex::{Interconnect, RunBudget};
use std::time::{Duration, Instant};

/// The point grid behind one figure of the paper.
pub struct Group {
    /// Group id, e.g. `fig10`.
    pub id: &'static str,
    inputs: Inputs,
    builder: fn(&Inputs, u32) -> Vec<GridPoint<'_>>,
}

impl Group {
    /// The figure's grid on a `sms`-SM GPU.
    pub fn grid(&self, sms: u32) -> Vec<GridPoint<'_>> {
        (self.builder)(&self.inputs, sms)
    }
}

/// Run every point of `grid` through the sweep engine; returns total
/// simulated cycles. Thread count follows [`gex_exec::threads`], so
/// callers time the serial path with `gex_exec::set_threads(1)` and the
/// parallel path with the override cleared.
pub fn run_all(grid: &[GridPoint<'_>]) -> u64 {
    gex_exec::par_map(grid.iter().collect(), |p| {
        match gex::run_point(&p.spec, &RunBudget::none()) {
            Ok(outcome) => outcome.cycles,
            Err(e) => panic!("{}: {e}", p.key),
        }
    })
    .into_iter()
    .sum()
}

fn fig11_grid(inputs: &Inputs, sms: u32) -> Vec<GridPoint<'_>> {
    experiments::fig11_grid(inputs, sms, &gex::power::studied_sizes())
}

fn local_handling_grid(inputs: &Inputs, sms: u32) -> Vec<GridPoint<'_>> {
    experiments::local_handling_grid(inputs, sms, Interconnect::nvlink())
}

/// The figure groups perfstat times: the single-stream figure grids
/// (NVLink panels for Figures 13 and 14).
pub fn standard_groups(preset: Preset) -> Vec<Group> {
    let group = |id, inputs, builder| Group { id, inputs, builder };
    let resident = experiments::resident_inputs(preset);
    vec![
        group("fig10", resident.clone(), experiments::fig10_grid),
        group("fig11", resident, fig11_grid),
        group("fig13", experiments::fig13_inputs(preset), local_handling_grid),
        group("fig14", experiments::fig14_inputs(preset), local_handling_grid),
    ]
}

/// Timing record for one group.
#[derive(Debug, Clone)]
pub struct GroupStat {
    /// Group id.
    pub id: String,
    /// Simulation points in the grid.
    pub points: usize,
    /// Total simulated cycles across the grid.
    pub sim_cycles: u64,
    /// Best serial wall-clock across samples.
    pub serial: Duration,
    /// Best wall-clock per swept worker count, in the order requested on
    /// the command line. The first entry is the *primary* threaded column
    /// recorded as `parallel_ms`/`speedup`/`sim_cycles_per_sec`; the rest
    /// become `t<n>_ms`/`t<n>_speedup` scaling columns.
    pub threaded: Vec<(usize, Duration)>,
}

impl GroupStat {
    /// Primary threaded wall-clock (the first swept worker count).
    pub fn parallel(&self) -> Duration {
        self.threaded.first().map_or(self.serial, |&(_, d)| d)
    }

    /// Serial over primary-threaded wall-clock.
    pub fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.parallel().as_secs_f64().max(1e-12)
    }

    /// Serial-over-threaded speedup per swept worker count.
    pub fn scaling(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let serial = self.serial.as_secs_f64();
        self.threaded.iter().map(move |&(t, d)| (t, serial / d.as_secs_f64().max(1e-12)))
    }

    /// Simulated cycles per wall-clock second on the primary threaded
    /// path.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.parallel().as_secs_f64().max(1e-12)
    }

    /// Simulated cycles per wall-clock second on the serial path — the
    /// thread-count-independent column snapshots are compared on when
    /// they were recorded with different worker counts.
    pub fn serial_sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.serial.as_secs_f64().max(1e-12)
    }
}

/// Time `group` `samples` times on each path, keeping the best sample.
/// The serial path forces one worker; each entry of `threads` then times
/// the sweep at that worker count (0 = the ambient count from
/// `GEX_THREADS` / the machine).
pub fn time_group(group: &Group, sms: u32, samples: usize, threads: &[usize]) -> GroupStat {
    let grid = group.grid(sms);
    let mut sim_cycles = 0;
    let mut best = |threads: usize| {
        gex_exec::set_threads(threads);
        let mut best = Duration::MAX;
        for _ in 0..samples.max(1) {
            let t0 = Instant::now();
            sim_cycles = run_all(&grid);
            best = best.min(t0.elapsed());
        }
        best
    };
    let serial = best(1);
    let threaded = threads.iter().map(|&t| (t, best(t))).collect();
    gex_exec::set_threads(0);
    GroupStat {
        id: group.id.to_string(),
        points: grid.len(),
        sim_cycles,
        serial,
        threaded,
    }
}

/// The host's logical core count (1 if it cannot be determined) — stamped
/// into every snapshot so scaling gates can tell "threading is broken"
/// from "this box has one core".
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Render the whole snapshot as JSON (hand-rolled: offline build, no
/// serde). `threads` is the swept worker-count list; its first entry is
/// the primary threaded column. The serial column is always one worker,
/// and both throughputs are recorded per group so `benchdiff` can compare
/// snapshots taken at different worker counts on the serial basis. The
/// header also stamps the host's core count and the result-cache state
/// the timed sweeps ran under, without which a recorded speedup is
/// uninterpretable.
pub fn to_json(
    preset: Preset,
    sms: u32,
    samples: usize,
    threads: &[usize],
    stats: &[GroupStat],
) -> String {
    let primary = threads.first().copied().unwrap_or(1);
    let list =
        threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"perfstat\",\n");
    s.push_str(&format!("  \"preset\": \"{}\",\n", preset_name(preset)));
    s.push_str(&format!("  \"sms\": {sms},\n"));
    s.push_str(&format!("  \"threads\": {primary},\n"));
    s.push_str(&format!("  \"thread_counts\": [{list}],\n"));
    s.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    s.push_str(&format!("  \"sim_cache\": {},\n", gex::cache::enabled()));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"groups\": [\n");
    for (i, g) in stats.iter().enumerate() {
        let scaling: String = g
            .scaling()
            .map(|(t, sp)| {
                let ms = g
                    .threaded
                    .iter()
                    .find(|&&(tt, _)| tt == t)
                    .map_or(0.0, |&(_, d)| d.as_secs_f64() * 1e3);
                format!(", \"t{t}_ms\": {ms:.3}, \"t{t}_speedup\": {sp:.3}")
            })
            .collect();
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"points\": {}, \"sim_cycles\": {}, \
             \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \
             \"serial_sim_cycles_per_sec\": {:.0}, \
             \"sim_cycles_per_sec\": {:.0}{}}}{}\n",
            g.id,
            g.points,
            g.sim_cycles,
            g.serial.as_secs_f64() * 1e3,
            g.parallel().as_secs_f64() * 1e3,
            g.speedup(),
            g.serial_sim_cycles_per_sec(),
            g.sim_cycles_per_sec(),
            scaling,
            if i + 1 == stats.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    let serial: f64 = stats.iter().map(|g| g.serial.as_secs_f64()).sum();
    let parallel: f64 = stats.iter().map(|g| g.parallel().as_secs_f64()).sum();
    s.push_str(&format!(
        "  \"total\": {{\"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}}}\n",
        serial * 1e3,
        parallel * 1e3,
        serial / parallel.max(1e-12),
    ));
    s.push_str("}\n");
    s
}

fn preset_name(p: Preset) -> &'static str {
    match p {
        Preset::Test => "test",
        Preset::Bench => "bench",
        Preset::Paper => "paper",
    }
}

/// One group row parsed back out of a `BENCH_<n>.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// Group id, e.g. `fig10`.
    pub id: String,
    /// Simulation points in the grid.
    pub points: u64,
    /// Recorded threaded-path throughput.
    pub sim_cycles_per_sec: f64,
    /// Serial-path throughput: the explicit field when the snapshot
    /// records one, otherwise derived from `sim_cycles / serial_ms`
    /// (older snapshots), otherwise `None`.
    pub serial_sim_cycles_per_sec: Option<f64>,
    /// `(worker count, serial-over-threaded speedup)` per swept count —
    /// the `t<n>_speedup` columns; empty for single-count snapshots.
    pub scaling: Vec<(u64, f64)>,
}

/// Extract the field `name` (string or number, colon optionally followed
/// by spaces) from one snapshot line.
fn snapshot_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Every `t<n>_speedup` scaling column on a group line, in order.
fn parse_scaling(line: &str) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("\"t") {
        rest = &rest[pos + 2..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits == 0 {
            continue;
        }
        let Some(value) = rest[digits..].strip_prefix("_speedup\":") else { continue };
        let value = value.trim_start();
        let end = value.find([',', '}']).unwrap_or(value.len());
        if let (Ok(t), Ok(sp)) = (rest[..digits].parse(), value[..end].trim().parse()) {
            out.push((t, sp));
        }
    }
    out
}

/// Parse the group rows of a perfstat snapshot (the inverse of
/// [`to_json`]'s `groups` array — hand-rolled like the writer). Lines
/// that do not carry a group entry are skipped, so the parser tolerates
/// format drift everywhere except the fields it needs.
pub fn parse_snapshot(json: &str) -> Vec<GroupSnapshot> {
    json.lines()
        .filter_map(|line| {
            let id = snapshot_field(line, "id")?.to_string();
            let points = snapshot_field(line, "points")?.parse().ok()?;
            let sim_cycles_per_sec =
                snapshot_field(line, "sim_cycles_per_sec")?.parse().ok()?;
            let serial_sim_cycles_per_sec = snapshot_field(line, "serial_sim_cycles_per_sec")
                .and_then(|v| v.parse().ok())
                .or_else(|| {
                    // Older snapshots carry the raw columns instead.
                    let cycles: f64 = snapshot_field(line, "sim_cycles")?.parse().ok()?;
                    let serial_ms: f64 = snapshot_field(line, "serial_ms")?.parse().ok()?;
                    (serial_ms > 0.0).then(|| cycles / (serial_ms * 1e-3))
                });
            Some(GroupSnapshot {
                id,
                points,
                sim_cycles_per_sec,
                serial_sim_cycles_per_sec,
                scaling: parse_scaling(line),
            })
        })
        .collect()
}

/// The worker count a snapshot's threaded column was recorded with (the
/// top-level `threads` field); `None` for malformed snapshots.
pub fn parse_snapshot_threads(json: &str) -> Option<u64> {
    parse_header_u64(json, "threads")
}

/// The host core count stamped into a snapshot's header; `None` for
/// snapshots that predate the field.
pub fn parse_snapshot_host_cores(json: &str) -> Option<u64> {
    parse_header_u64(json, "host_cores")
}

/// A numeric field from the snapshot header (group rows, distinguished by
/// their `id` field, are skipped).
fn parse_header_u64(json: &str, name: &str) -> Option<u64> {
    json.lines().find_map(|line| {
        if snapshot_field(line, "id").is_some() {
            return None;
        }
        snapshot_field(line, name)?.parse().ok()
    })
}

/// The `BENCH_<n>.json` files in `dir`, sorted by index (oldest first).
pub fn snapshot_files(dir: &std::path::Path) -> Vec<(u32, std::path::PathBuf)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|r| r.parse::<u32>().ok())
            {
                out.push((n, e.path()));
            }
        }
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Next free `BENCH_<n>.json` index in `dir` (one above the highest
/// existing index; 0 for a fresh directory).
pub fn next_bench_index(dir: &std::path::Path) -> u32 {
    snapshot_files(dir).last().map_or(0, |(n, _)| n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_the_figures() {
        let gs = standard_groups(Preset::Test);
        let ids: Vec<&str> = gs.iter().map(|g| g.id).collect();
        assert_eq!(ids, ["fig10", "fig11", "fig13", "fig14"]);
        assert!(gs.iter().all(|g| !g.grid(2).is_empty()));
        // fig10 is the full parboil x scheme grid.
        assert_eq!(gs[0].grid(2).len(), gex::workloads::suite::parboil(Preset::Test).len() * 4);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let stats = vec![GroupStat {
            id: "fig10".into(),
            points: 44,
            sim_cycles: 123_456,
            serial: Duration::from_millis(10),
            threaded: vec![(1, Duration::from_millis(5))],
        }];
        let j = to_json(Preset::Test, 8, 3, &[1], &stats);
        assert!(j.contains("\"preset\": \"test\""));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"thread_counts\": [1]"));
        assert!(j.contains("\"host_cores\": "));
        assert!(j.contains("\"sim_cache\": "));
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"sim_cycles\": 123456"));
        assert!(j.contains("\"serial_sim_cycles_per_sec\": 12345600"));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn multi_count_sweeps_record_scaling_columns() {
        let stats = vec![GroupStat {
            id: "fig11".into(),
            points: 10,
            sim_cycles: 1_000_000,
            serial: Duration::from_millis(10),
            threaded: vec![(2, Duration::from_millis(5)), (4, Duration::from_micros(2500))],
        }];
        let j = to_json(Preset::Test, 8, 3, &[2, 4], &stats);
        assert!(j.contains("\"threads\": 2"), "primary column is the first swept count");
        assert!(j.contains("\"thread_counts\": [2, 4]"));
        assert!(j.contains("\"t2_speedup\": 2.000"));
        assert!(j.contains("\"t4_speedup\": 4.000"));
        let parsed = parse_snapshot(&j);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].scaling, vec![(2, 2.0), (4, 4.0)]);
        assert_eq!(parse_snapshot_host_cores(&j), Some(host_cores() as u64));
        assert!(parse_snapshot_host_cores("not json").is_none());
    }

    #[test]
    fn historical_smt_columns_are_ignored() {
        // BENCH_4.json's fig13 row, verbatim: the `smt<n>_*` columns of
        // the removed intra-run tick stay on disk and must not disturb
        // the serial basis or bleed into the `t<n>` scaling list (the
        // `"t` scan needs a quote directly before the `t`).
        let row = r#"    {"id": "fig13", "points": 10, "sim_cycles": 441011, "serial_ms": 354.916, "parallel_ms": 332.867, "speedup": 1.066, "serial_sim_cycles_per_sec": 1242577, "sim_cycles_per_sec": 1324888, "t2_ms": 332.867, "t2_speedup": 1.066, "t4_ms": 356.191, "t4_speedup": 0.996, "smt2_ms": 934.650, "smt2_speedup": 0.380, "smt4_ms": 1174.743, "smt4_speedup": 0.302},"#;
        let parsed = parse_snapshot(row);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].id, "fig13");
        assert_eq!(parsed[0].serial_sim_cycles_per_sec, Some(1_242_577.0));
        assert_eq!(parsed[0].scaling, vec![(2, 1.066), (4, 0.996)]);
    }

    #[test]
    fn snapshots_round_trip_through_the_parser() {
        let stats = vec![
            GroupStat {
                id: "fig10".into(),
                points: 44,
                sim_cycles: 2_000_000,
                serial: Duration::from_millis(10),
                threaded: vec![(2, Duration::from_millis(4))],
            },
            GroupStat {
                id: "fig13".into(),
                points: 10,
                sim_cycles: 500_000,
                serial: Duration::from_millis(2),
                threaded: vec![(2, Duration::from_millis(1))],
            },
        ];
        let json = to_json(Preset::Test, 8, 3, &[2], &stats);
        let parsed = parse_snapshot(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "fig10");
        assert_eq!(parsed[0].points, 44);
        assert_eq!(parsed[0].sim_cycles_per_sec, 500_000_000.0);
        assert_eq!(parsed[0].serial_sim_cycles_per_sec, Some(200_000_000.0));
        assert_eq!(parsed[1].id, "fig13");
        assert_eq!(parse_snapshot_threads(&json), Some(2));
        assert!(parse_snapshot("not json").is_empty());
        assert!(parse_snapshot_threads("not json").is_none());
    }

    #[test]
    fn serial_column_derives_from_raw_fields_in_old_snapshots() {
        // BENCH_1-era rows carry sim_cycles + serial_ms but no explicit
        // serial throughput; the parser reconstructs it.
        let old = r#"{"id": "fig10", "points": 44, "sim_cycles": 1000000, "serial_ms": 2000.000, "parallel_ms": 1000.000, "speedup": 2.000, "sim_cycles_per_sec": 1000000}"#;
        let parsed = parse_snapshot(old);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].serial_sim_cycles_per_sec, Some(500_000.0));
        // Rows with neither column still parse, with no serial basis.
        let bare = r#"{"id": "fig10", "points": 44, "sim_cycles_per_sec": 1000000}"#;
        let parsed = parse_snapshot(bare);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].serial_sim_cycles_per_sec, None);
    }

    #[test]
    fn snapshot_files_sort_by_index() {
        let dir = std::env::temp_dir().join(format!("gex-snapfiles-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_3.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_0.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_10.json"), "{}").unwrap();
        let files = snapshot_files(&dir);
        assert_eq!(files.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![0, 3, 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_index_scans_existing_files() {
        let dir = std::env::temp_dir().join(format!("gex-perfstat-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_index(&dir), 0);
        std::fs::write(dir.join("BENCH_2.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("not-a-bench.json"), "{}").unwrap();
        assert_eq!(next_bench_index(&dir), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
