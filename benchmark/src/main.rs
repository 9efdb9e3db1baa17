//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! gex-benchmark run     [--seed N] [--seconds S] [--smoke] [--out FILE]
//! gex-benchmark trace   [--seed N] [--seconds S] [--smoke] [--out FILE]
//! gex-benchmark compare PARENT.json CHANGE.json
//! gex-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke 1]
//! ```
//!
//! `run` and `trace` start one child process per workload — the last
//! form, which is also what the benchmark driver calls — so that peak
//! memory, thread-local arenas and the result cache of one workload never
//! leak into the next.

mod campaign;
mod json;
mod points;
mod probes;
mod report;
mod stats;
mod sweep;
mod trace;

use json::Json;
use report::{Header, ResultFile, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 23.0;
/// Prefix of the child's full-result line, a one-workload result file
/// (the line after it is the driver's result line).
const DETAIL: &str = "detail ";

/// One workload run's arguments.
pub struct Args {
    /// Empty on `run`, `trace` and `compare`, which name no workload.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// No warm-up, one pass, four campaigns.
    pub smoke: bool,
}

/// Workers of the parallel workloads and of the campaign server.
pub fn pool_workers() -> usize {
    host_cores().min(4)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the benchmark may write: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under `benchmark/out/` that is removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn scratch_dir(name: &str) -> ScratchDir {
    let dir = out_dir().join(format!("tmp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", dir.display()));
    ScratchDir(dir)
}

/// Filesystem type of the mount holding `path` (journal flushes cost
/// different amounts on tmpfs and on disk).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (mount, fs) = (f.nth(1)?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max()
        .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Whether a workload starts another timed pass: always a first one,
/// then only while at least half a pass still fits into `--seconds`, so a
/// run measures for about that long, not up to a whole pass longer.
pub fn another_pass(args: &Args, measuring: &std::time::Instant, last_pass_s: Option<f64>) -> bool {
    let Some(last) = last_pass_s else { return true };
    !args.smoke && measuring.elapsed().as_secs_f64() + last / 2.0 < args.seconds
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print what broke (first few of each kind) where a person will see it.
pub fn report_failures(failures: &[String]) {
    for f in failures.iter().take(8) {
        println!("FAILED {f}");
    }
    if failures.len() > 8 {
        println!("FAILED ... and {} more", failures.len() - 8);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn header(args: &Args) -> Header {
    [
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        ("host_cores", host_cores().to_string()),
        ("pool_workers", pool_workers().to_string()),
        ("preset", format!("{:?}", points::PRESET)),
        ("sms", points::SMS.to_string()),
        ("sm_threads", "1".to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("smoke", args.smoke.to_string()),
        ("traced", args.traced.to_string()),
        (
            "result_cache",
            "off on the sweeps, on for campaign".to_string(),
        ),
        ("scratch_fs", filesystem_of(&out_dir())),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec()
}

/// Run one workload in this process and print its result.
fn child(args: &Args) -> ExitCode {
    // The ambient knobs would silently change what is measured.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("GEX_")) {
        eprintln!("refusing to measure with {k} set: unset every GEX_* variable");
        return ExitCode::from(2);
    }
    std::fs::create_dir_all(out_dir()).expect("benchmark/out is writable");
    let tracer = trace::Tracer::new(args.traced);
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(args, &tracer),
        _ => sweep::run(args, &tracer),
    };
    print!("{}", result.render());
    if args.traced {
        let file = out_dir().join(format!("trace-{}.json", args.workload));
        let spans = tracer.spans();
        std::fs::write(
            &file,
            trace::to_chrome_json(&args.workload, &spans).encode(),
        )
        .expect("benchmark/out is writable");
        println!("  {} spans written to {}", spans.len(), file.display());
    }
    let driver_line = result.driver_line(args.traced).encode();
    let detail = ResultFile {
        header: header(args),
        workloads: vec![result],
    };
    println!("{DETAIL}{}", detail.to_json().encode());
    println!("{driver_line}");
    ExitCode::SUCCESS
}

/// `run` / `trace`: every workload, one child process each; print as
/// they finish, write the result file. Fails if any output check did.
fn parent(traced: bool, opts: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut file: Option<ResultFile> = None;
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &opts.args.seed.to_string()])
            .args(["--seconds", &opts.args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--smoke", if opts.args.smoke { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("start a child process per workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The child's detail line is a result file of its one workload.
        let parsed = stdout
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL))
            .and_then(|d| Json::parse(d).ok())
            .and_then(|d| ResultFile::from_json(&d));
        let Some(mut one) = parsed.filter(|_| out.status.success()) else {
            print!("{stdout}");
            eprintln!(
                "workload {workload} did not produce a result ({})",
                out.status
            );
            return ExitCode::FAILURE;
        };
        let file = file.get_or_insert_with(|| {
            let f = ResultFile {
                header: one.header.clone(),
                workloads: Vec::new(),
            };
            print!("{}", f.render_header());
            f
        });
        for line in stdout.lines().take_while(|l| !l.starts_with(DETAIL)) {
            println!("{line}");
        }
        file.workloads.append(&mut one.workloads);
    }
    let file = file.expect("four workloads ran");
    let default = if traced { "trace.json" } else { "run.json" };
    let path = opts.out.clone().unwrap_or_else(|| out_dir().join(default));
    std::fs::write(&path, file.to_json().encode()).expect("result file is writable");
    println!("result file: {}", path.display());
    let failed: u64 = file.workloads.iter().map(|w| w.failed).sum();
    if failed > 0 {
        eprintln!("{failed} operation(s) failed an output check");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        ResultFile::from_json(&json).ok_or_else(|| format!("{}: not a result file", p.display()))
    };
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| report::compare(&a, &b))
    {
        Ok(c) => {
            print!("{}", c.text);
            if c.regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// The parsed command line.
struct Options {
    args: Args,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        args: Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
        out: None,
        positional: Vec::new(),
    };
    let flag = |v: &str| matches!(v, "1" | "true");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                o.args.workload = w.clone();
            }
            "--seed" => o.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.args.seconds > 0.0 && o.args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => o.args.traced = flag(value()?),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            // `--smoke` alone on run/trace, `--smoke 0|1` towards a child.
            "--smoke" => {
                o.args.smoke = true;
                if let Some(v) = it
                    .clone()
                    .next()
                    .filter(|v| matches!(v.as_str(), "0" | "1"))
                {
                    o.args.smoke = flag(v);
                    it.next();
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = opts.positional.iter().map(String::as_str).collect();
    match (opts.args.workload.is_empty(), positional.as_slice()) {
        (false, []) => child(&opts.args),
        (true, ["run"]) => parent(false, &opts),
        (true, ["trace"]) => parent(true, &opts),
        (true, ["compare", a, b]) => compare(Path::new(a), Path::new(b)),
        _ => {
            eprintln!(
                "usage: run | trace [--seed N] [--seconds S] [--smoke] [--out FILE]\n       \
                 compare PARENT.json CHANGE.json\n       \
                 --workload NAME --seed N --seconds S --trace 0|1"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let o = parse(&argv(
            "--workload sweep-par --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        let a = &o.args;
        assert_eq!(a.workload, "sweep-par");
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (42, 20.0, true, false)
        );
        let o = parse(&argv("run --smoke --seed 3")).unwrap();
        assert!(o.args.workload.is_empty());
        assert_eq!(
            (o.positional, o.args.smoke, o.args.seed),
            (vec!["run".to_string()], true, 3)
        );
        let o = parse(&argv("--workload steady --smoke 0")).unwrap();
        assert!(!o.args.smoke);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }

    /// `BENCHMARK.json` is the driver's view of this catalogue; the two
    /// must name the same workloads and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            let Some(Json::Arr(items)) = spec.get(key) else {
                panic!("{key} missing")
            };
            let field =
                |i: &Json, f: &str| i.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            items
                .iter()
                .map(|i| (field(i, "name"), field(i, "unit"), field(i, "better")))
                .collect()
        };
        let better = |b: report::Better| match b {
            report::Better::Lower => "lower".to_string(),
            report::Better::Higher => "higher".to_string(),
        };
        let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<_> = END_TO_END
            .iter()
            .filter(|m| !m.campaign_only)
            .map(|m| (m.name.to_string(), m.unit.to_string(), better(m.better)))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string(), better(l.better)))
            .collect();
        assert_eq!(list("per_layer"), layers);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        // The driver has one bound per metric: the loosest any workload needs.
        let Some(Json::Arr(items)) = spec.get("end_to_end") else {
            unreachable!()
        };
        for i in items {
            let name = i.get("name").unwrap().as_str().unwrap();
            let loosest = WORKLOADS
                .iter()
                .map(|w| report::bound(w, name))
                .fold(0.0, f64::max);
            assert!(
                i.get("bound").unwrap().as_f64().unwrap() >= loosest,
                "{name}"
            );
        }
    }
}
