//! Bench-regression gate: compare two perfstat snapshots and fail on a
//! large throughput drop.
//!
//! ```text
//! cargo run -p gex-bench --release --bin benchdiff -- OLD.json NEW.json
//! cargo run -p gex-bench --release --bin benchdiff -- [--out DIR]
//! ```
//!
//! With two explicit paths, compares them directly. With none, compares
//! the two newest `BENCH_<n>.json` in the output directory (default `.`),
//! i.e. "did the snapshot I just recorded regress against the previous
//! baseline?". Exits 1 if any group's throughput fell by more than the
//! gate factor (default 2x; override with `GEX_BENCHDIFF_GATE`).
//!
//! The comparison is thread-count aware: when both snapshots were
//! recorded with the same worker count the threaded `sim_cycles_per_sec`
//! columns are compared, otherwise the serial columns (always one
//! worker, hence always an equal-thread-count basis) are used, derived
//! from `sim_cycles / serial_ms` for snapshots that predate the explicit
//! field. `GEX_BENCHDIFF_BASIS=serial|threaded` overrides the automatic
//! choice (CI pins the serial basis for no-serial-regression gates and
//! the threaded basis for threading-win gates).
//!
//! `GEX_BENCHDIFF_MIN=R` additionally *requires* an improvement: any
//! gated group whose ratio falls below `R` fails the diff. Restrict the
//! requirement to specific groups with a comma-separated
//! `GEX_BENCHDIFF_MIN_GROUPS=fig10,fig11` (default: all groups). CI uses
//! this to pin optimization PRs to their claimed speedup.
//!
//! `GEX_BENCHDIFF_SCALING_MIN=t2:1.5,t4:2.5` gates the *new* snapshot's
//! recorded scaling columns (`t<n>_speedup`, written by `perfstat
//! --threads 1,2,4`): each group carrying a `t<n>` column must reach the
//! required serial-over-threaded speedup. A requirement only binds when
//! the snapshot's recorded `host_cores` is at least `n` — on a smaller
//! host real scaling is physically impossible, so the requirement relaxes
//! to `GEX_BENCHDIFF_SCALING_FLOOR` (default 0.9: threading may not *tax*
//! the sweep by more than ~10% even when it cannot win).
//!
//! Groups present in only one snapshot are reported but never gate — a
//! renamed or added figure must not fail CI. Exits 0 with a notice when
//! fewer than two snapshots exist (first run of a fresh repo).

use gex_bench::perfstat::{
    parse_snapshot, parse_snapshot_host_cores, parse_snapshot_threads, snapshot_files,
    GroupSnapshot,
};
use gex_bench::BenchArgs;
use std::path::PathBuf;

fn load(path: &PathBuf) -> (Vec<GroupSnapshot>, Option<u64>, Option<u64>) {
    match std::fs::read_to_string(path) {
        Ok(s) => (parse_snapshot(&s), parse_snapshot_threads(&s), parse_snapshot_host_cores(&s)),
        Err(e) => {
            eprintln!("benchdiff: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Parse `GEX_BENCHDIFF_SCALING_MIN`: comma-separated `t<n>:<min>` (the
/// `t` is optional) requirements on the new snapshot's scaling columns.
fn scaling_requirements() -> Vec<(u64, f64)> {
    let Ok(spec) = std::env::var("GEX_BENCHDIFF_SCALING_MIN") else {
        return Vec::new();
    };
    spec.split(',')
        .filter_map(|entry| {
            let (t, min) = entry.trim().split_once(':')?;
            let t = t.trim().trim_start_matches('t').parse().ok()?;
            let min = min.trim().parse().ok()?;
            Some((t, min))
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse();
    let gate: f64 = std::env::var("GEX_BENCHDIFF_GATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    // Positional paths must look like files, not preset names.
    let explicit: Vec<PathBuf> = args
        .positional
        .iter()
        .filter(|p| p.ends_with(".json"))
        .map(PathBuf::from)
        .collect();
    let (old_path, new_path) = if explicit.len() >= 2 {
        (explicit[0].clone(), explicit[1].clone())
    } else {
        let dir = PathBuf::from(args.out.as_deref().unwrap_or("."));
        let files = snapshot_files(&dir);
        if files.len() < 2 {
            println!(
                "benchdiff: {} snapshot(s) in {} — need two to compare, passing",
                files.len(),
                dir.display()
            );
            return;
        }
        (files[files.len() - 2].1.clone(), files[files.len() - 1].1.clone())
    };

    let min_ratio: Option<f64> =
        std::env::var("GEX_BENCHDIFF_MIN").ok().and_then(|v| v.parse().ok());
    let min_groups: Vec<String> = std::env::var("GEX_BENCHDIFF_MIN_GROUPS")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();

    let (old, old_threads, _) = load(&old_path);
    let (new, new_threads, new_cores) = load(&new_path);
    // Equal recorded worker counts → compare the threaded columns;
    // otherwise fall back to the serial columns, which are always a
    // one-worker-vs-one-worker comparison. GEX_BENCHDIFF_BASIS pins the
    // choice either way.
    let (use_serial, basis_label) = match std::env::var("GEX_BENCHDIFF_BASIS").as_deref() {
        Ok("serial") => (true, "serial (pinned)"),
        Ok("threaded") => (false, "threaded (pinned)"),
        _ => match (old_threads, new_threads) {
            (Some(a), Some(b)) if a != b => (true, "serial (thread counts differ)"),
            _ => (false, "threaded"),
        },
    };
    println!(
        "benchdiff: {} -> {} (gate: fail below 1/{gate:.1}x{}; {} basis)",
        old_path.display(),
        new_path.display(),
        min_ratio.map_or(String::new(), |m| format!(", require >= {m:.2}x")),
        basis_label,
    );

    let col = |g: &GroupSnapshot| {
        if use_serial {
            g.serial_sim_cycles_per_sec.unwrap_or(g.sim_cycles_per_sec)
        } else {
            g.sim_cycles_per_sec
        }
    };

    let mut failed = false;
    for n in &new {
        let Some(o) = old.iter().find(|o| o.id == n.id) else {
            println!("{:<8} new group ({:>12.0} sim-cyc/s), not gated", n.id, col(n));
            continue;
        };
        if col(o) <= 0.0 {
            println!("{:<8} old throughput is zero, not gated", n.id);
            continue;
        }
        let ratio = col(n) / col(o);
        let min_applies =
            min_ratio.is_some() && (min_groups.is_empty() || min_groups.iter().any(|g| g == &n.id));
        let verdict = if ratio * gate < 1.0 {
            failed = true;
            "REGRESSION"
        } else if min_applies && ratio < min_ratio.unwrap() {
            failed = true;
            "BELOW REQUIRED MINIMUM"
        } else {
            "ok"
        };
        println!(
            "{:<8} {:>12.0} -> {:>12.0} sim-cyc/s ({:>6.2}x)  {verdict}",
            n.id,
            col(o),
            col(n),
            ratio
        );
    }
    for o in &old {
        if !new.iter().any(|n| n.id == o.id) {
            println!("{:<8} dropped from the new snapshot, not gated", o.id);
        }
    }

    // Scaling gate over the new snapshot's t<n>_speedup columns.
    let requirements = scaling_requirements();
    if !requirements.is_empty() {
        let floor: f64 = std::env::var("GEX_BENCHDIFF_SCALING_FLOOR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.9);
        let cores = new_cores.unwrap_or(1);
        for &(t, min) in &requirements {
            // A t-worker speedup requirement is only achievable with t
            // cores; on a smaller host, require only that threading does
            // not tax the sweep (the floor).
            let (required, basis) = if cores >= t {
                (min, "required")
            } else {
                (floor, "host too small, floor")
            };
            for n in &new {
                let min_applies =
                    min_groups.is_empty() || min_groups.iter().any(|g| g == &n.id);
                let Some(&(_, speedup)) = n.scaling.iter().find(|&&(st, _)| st == t) else {
                    if min_applies {
                        println!("{:<8} t{t}: no scaling column recorded, not gated", n.id);
                    }
                    continue;
                };
                if !min_applies {
                    continue;
                }
                let verdict = if speedup < required {
                    failed = true;
                    "BELOW REQUIRED SCALING"
                } else {
                    "ok"
                };
                println!(
                    "{:<8} t{t}: {speedup:.2}x (>= {required:.2}x, {basis}; host_cores {cores})  {verdict}",
                    n.id
                );
            }
        }
    }

    if failed {
        eprintln!("benchdiff: throughput gate failed");
        std::process::exit(1);
    }
}
