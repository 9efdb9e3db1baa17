//! `gex-served` — the campaign server daemon.
//!
//! Binds a TCP listener, recovers any campaigns found in the journal
//! directory, and serves the JSON-lines campaign protocol until a client
//! sends `shutdown` (or the process is killed — which is safe: restart
//! with the same `--journal-dir` and every accepted campaign resumes).
//!
//! ```text
//! cargo run -p gex-bench --release --bin gex-served -- \
//!     [--addr HOST:PORT] [--journal-dir DIR] [--workers N] \
//!     [--max-pending N] [--max-campaigns N] [--fault-budget N] \
//!     [--stream-fault-budget N] [--deadline-cycles N] [--idle-timeout-ms N]
//! ```
//!
//! Defaults: `127.0.0.1:0` (a free port — the bound address is printed as
//! the first stdout line, `gex-served listening on ADDR`, so wrappers and
//! tests can scrape it), no journal directory (in-memory only), one
//! worker per core (`GEX_THREADS` overrides; each worker simulates one
//! point at a time), 1024 queued points, 64 live campaigns, tenant fault
//! budget 4, in-run stream fault budget 64 (partitioned points),
//! no per-point deadline (the run budget's fallback bound applies), 30 s
//! socket timeout. Each point runs once: an overrun is quarantined, not
//! re-run.

use gex::RunBudget;
use gex_serve::server::{self, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: gex-served [--addr HOST:PORT] [--journal-dir DIR] [--workers N] \
         [--max-pending N] [--max-campaigns N] [--fault-budget N] \
         [--stream-fault-budget N] [--deadline-cycles N] [--idle-timeout-ms N]"
    );
    std::process::exit(2);
}

/// `text` as a number, or the usage message and exit 2.
fn number<T: std::str::FromStr>(text: String) -> T {
    text.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("gex-served: {flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("an address"),
            "--journal-dir" => cfg.journal_dir = Some(value("a directory").into()),
            "--workers" => cfg.workers = number(value("a count")),
            "--max-pending" => cfg.max_pending_points = number(value("a count")),
            "--max-campaigns" => cfg.max_campaigns = number(value("a count")),
            "--fault-budget" => cfg.tenant_fault_budget = number(value("a count")),
            "--stream-fault-budget" => cfg.stream_fault_budget = number(value("a count")),
            "--deadline-cycles" => {
                cfg.policy.budget = RunBudget::cycles(number(value("a cycle count")))
            }
            "--idle-timeout-ms" => {
                let ms: u64 = number(value("milliseconds"));
                cfg.idle_timeout = Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gex-served: unknown flag {other}");
                usage();
            }
        }
    }

    // Worker panics are an expected, supervised event (poisoned points
    // are caught at the point boundary and quarantined); a full backtrace
    // per panicking point would drown the log. One line each.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("gex-served: supervised panic: {info}");
    }));

    let handle = match server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gex-served: cannot start: {e}");
            std::process::exit(1);
        }
    };
    // The first stdout line is machine-readable: wrappers scrape the
    // bound address from it (port 0 resolves to a free port).
    println!("gex-served listening on {}", handle.addr());
    handle.wait();
    // Stdout may be a pipe whose reader stopped caring after the banner
    // (wrappers scrape only the first line); the farewell must not panic.
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "gex-served stopped");
}
