//! # gex-bench — harness regenerating every table and figure
//!
//! * The `fig` binary (`cargo run -p gex-bench --release --bin fig --
//!   <id>[,<id>...] [preset] [flags]`, ids `10`-`14`, `lp`, `mt`,
//!   `scalability`, `table1`, `table2`): prints the paper's tables/series,
//!   at the `Paper` preset unless told otherwise.
//! * The self-timed bench (`cargo bench -p gex-bench`): times the same
//!   experiments at the `Test` preset, one group per figure. The harness
//!   is in [`timing`]; the workspace builds fully offline, so it does not
//!   depend on Criterion.
//!
//! Shared argument parsing for the binaries lives here: [`BenchArgs`]
//! walks argv exactly once and every consumer (preset selection, the
//! cycle cap, the self-timed runner, `perfstat`) reads from it. Every
//! binary accepts a positional preset (`test` / `bench` / `paper`) and
//! `--max-cycles N`, which caps simulated cycles so misconfigured runs
//! exit with the watchdog diagnostic instead of spinning forever.

use gex::workloads::Preset;
use gex::{RunBudget, SweepOptions};
use std::path::PathBuf;

pub mod perfstat;
pub mod timing;

/// Everything the harness binaries and the self-timed bench accept on the
/// command line, parsed from argv in a single pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// Non-flag arguments in order: a preset name for the harness
    /// binaries (after the figure ids, for `fig`), a substring filter for
    /// the self-timed bench.
    pub positional: Vec<String>,
    /// `--max-cycles N` / `--max-cycles=N`: simulated-cycle cap.
    pub max_cycles: Option<u64>,
    /// `--samples N` / `--samples=N`: timed runs per benchmark.
    pub samples: Option<usize>,
    /// `--out DIR` / `--out=DIR`: output directory (`perfstat`).
    pub out: Option<String>,
    /// `--threads N` / `--threads=N`: worker count for the threaded
    /// timing column (`perfstat`); 0 or absent means the ambient count
    /// (`GEX_THREADS` or the machine's parallelism). A comma list
    /// (`--threads 1,2,4,8`) sweeps several counts in one run; this field
    /// keeps the first entry and [`BenchArgs::threads_list`] the rest.
    pub threads: Option<usize>,
    /// Every worker count from `--threads` in order (one entry for the
    /// plain single-count form).
    pub threads_list: Vec<usize>,
    /// `--deadline N` / `--deadline=N`: per-point cycle budget for
    /// supervised figure sweeps (retried with escalation, then
    /// quarantined).
    pub deadline: Option<u64>,
    /// `--resume`: journal the campaign (default path per figure) and
    /// skip points an earlier run already completed.
    pub resume: bool,
    /// `--journal PATH` / `--journal=PATH`: campaign journal file
    /// (implies `--resume` semantics with an explicit path).
    pub journal: Option<String>,
    /// `--pagesize P` / `--pagesize=P`: page-size policy
    /// (`small` / `transparent` / `hugeonly`) applied as the process-wide
    /// default, like the `GEX_PAGE_SIZE` environment variable.
    pub pagesize: Option<String>,
}

impl BenchArgs {
    /// Parse the process arguments (excluding the binary name).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (the testable form of [`parse`]).
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--max-cycles" {
                out.max_cycles = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--max-cycles=") {
                out.max_cycles = v.parse().ok();
            } else if a == "--samples" {
                out.samples = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--samples=") {
                out.samples = v.parse().ok();
            } else if a == "--out" {
                out.out = it.next();
            } else if let Some(v) = a.strip_prefix("--out=") {
                out.out = Some(v.to_string());
            } else if a == "--threads" {
                if let Some(v) = it.next() {
                    out.set_threads_arg(&v);
                }
            } else if let Some(v) = a.strip_prefix("--threads=") {
                out.set_threads_arg(v);
            } else if a == "--deadline" {
                out.deadline = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--deadline=") {
                out.deadline = v.parse().ok();
            } else if a == "--resume" {
                out.resume = true;
            } else if a == "--journal" {
                out.journal = it.next();
            } else if let Some(v) = a.strip_prefix("--journal=") {
                out.journal = Some(v.to_string());
            } else if a == "--pagesize" {
                out.pagesize = it.next();
            } else if let Some(v) = a.strip_prefix("--pagesize=") {
                out.pagesize = Some(v.to_string());
            } else if !a.starts_with('-') {
                out.positional.push(a);
            }
            // Unknown flags (cargo's --bench/--test etc.) are ignored.
        }
        out
    }

    /// Record a `--threads` value: a single count or a comma list.
    /// Malformed entries are dropped (matching the lenient parse of the
    /// other numeric flags).
    fn set_threads_arg(&mut self, v: &str) {
        self.threads_list =
            v.split(',').filter_map(|t| t.trim().parse().ok()).collect();
        self.threads = self.threads_list.first().copied();
    }

    /// The preset named by the first positional argument; harness
    /// binaries default to `paper`.
    pub fn preset(&self) -> Preset {
        match self.positional.first().map(String::as_str) {
            Some("test") => Preset::Test,
            Some("bench") => Preset::Bench,
            _ => Preset::Paper,
        }
    }

    /// The self-timed bench's substring filter (its last positional, as
    /// `cargo bench -- <filter>` passes it).
    pub fn filter(&self) -> Option<&str> {
        self.positional.last().map(String::as_str)
    }

    /// Apply `--max-cycles` (if given) as the process-wide default cycle
    /// cap, so every `GpuConfig` the experiment drivers build inherits
    /// it. Call once at the top of each harness binary's `main`.
    pub fn apply_max_cycles(&self) {
        if let Some(c) = self.max_cycles {
            gex::sim::config::set_default_max_cycles(c);
        }
    }

    /// Apply `--pagesize` (if given and well-formed) as the process-wide
    /// default page-size policy; unknown tokens are reported and ignored
    /// so a typo degrades to the `Small` baseline instead of aborting.
    pub fn apply_page_size(&self) {
        if let Some(p) = &self.pagesize {
            match gex::PageSizePolicy::parse(p) {
                Some(policy) => gex::set_default_page_size(policy),
                None => eprintln!(
                    "warning: unknown --pagesize {p:?} (expected small/transparent/hugeonly)"
                ),
            }
        }
    }

    /// Supervision options for the sweep of campaign `name`:
    /// `--deadline` becomes the per-point budget, and `--journal PATH` /
    /// `--resume` (default path `gex-campaign-<name>.jsonl`) enable
    /// journal-backed resumption. Binaries that run several sweeps (e.g.
    /// `fig 12`, NVLink + PCIe) give each its own journal file with
    /// [`SweepOptions::panel`].
    pub fn sweep_options(&self, name: &str) -> SweepOptions {
        let mut opts = SweepOptions::default();
        if let Some(d) = self.deadline {
            opts.policy.budget = RunBudget::cycles(d);
        }
        opts.journal = match (&self.journal, self.resume) {
            (Some(p), _) => Some(PathBuf::from(p)),
            (None, true) => Some(PathBuf::from(format!("gex-campaign-{name}.jsonl"))),
            (None, false) => None,
        };
        opts
    }
}

/// SM count for harness runs: the paper's 16, unless `GEX_SMS` overrides.
pub fn sms_from_env() -> u32 {
    std::env::var("GEX_SMS").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_defaults_to_paper_under_test_harness() {
        // The test binary's argv has no recognized preset.
        let args = BenchArgs::parse();
        assert_eq!(args.preset(), Preset::Paper);
        assert!(args.max_cycles.is_none());
    }

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn one_pass_parse_covers_all_consumers() {
        let a = parse(&[
            "test",
            "--max-cycles",
            "5000",
            "--samples=3",
            "--out",
            "bench-out",
            "--threads",
            "4",
        ]);
        assert_eq!(a.preset(), Preset::Test);
        assert_eq!(a.max_cycles, Some(5000));
        assert_eq!(a.samples, Some(3));
        assert_eq!(a.out.as_deref(), Some("bench-out"));
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.positional, vec!["test"]);
        assert_eq!(parse(&["--threads=2"]).threads, Some(2));
        assert_eq!(parse(&[]).threads, None);
    }

    #[test]
    fn threads_accepts_a_comma_list() {
        let a = parse(&["--threads", "1,2,4,8"]);
        assert_eq!(a.threads, Some(1));
        assert_eq!(a.threads_list, vec![1, 2, 4, 8]);
        let single = parse(&["--threads=4"]);
        assert_eq!(single.threads, Some(4));
        assert_eq!(single.threads_list, vec![4]);
        // Malformed entries drop out rather than aborting the parse.
        let messy = parse(&["--threads", "2, x,8"]);
        assert_eq!(messy.threads_list, vec![2, 8]);
        assert!(parse(&[]).threads_list.is_empty());
    }

    #[test]
    fn flag_values_never_leak_into_positionals() {
        let a = parse(&["--max-cycles", "9", "--samples", "4", "fig10"]);
        assert_eq!(a.positional, vec!["fig10"]);
        assert_eq!(a.filter(), Some("fig10"));
        assert_eq!(a.preset(), Preset::Paper);
        assert_eq!(a.max_cycles, Some(9));
        assert_eq!(a.samples, Some(4));
    }

    #[test]
    fn unknown_flags_and_equals_forms_parse() {
        let a = parse(&["--bench", "--max-cycles=77", "bench"]);
        assert_eq!(a.max_cycles, Some(77));
        assert_eq!(a.preset(), Preset::Bench);
        let none = parse(&[]);
        assert_eq!(none.preset(), Preset::Paper);
        assert!(none.filter().is_none());
    }

    #[test]
    fn supervision_flags_build_sweep_options() {
        let a = parse(&["test", "--deadline", "5000", "--resume"]);
        let opts = a.sweep_options("fig10");
        assert_eq!(opts.policy.budget.deadline_cycles, Some(5000));
        assert_eq!(
            opts.journal.as_deref(),
            Some(std::path::Path::new("gex-campaign-fig10.jsonl"))
        );
        // No journaling flags → no journal; deadline still applies.
        let bare = parse(&["--deadline=9"]).sweep_options("fig11");
        assert_eq!(bare.policy.budget.deadline_cycles, Some(9));
        assert!(bare.journal.is_none());
    }

    #[test]
    fn explicit_journal_paths_and_panel_suffixes() {
        let a = parse(&["--journal", "camp.jsonl"]);
        assert_eq!(
            a.sweep_options("fig10").journal.as_deref(),
            Some(std::path::Path::new("camp.jsonl"))
        );
        assert_eq!(
            a.sweep_options("fig12").panel("nvlink").journal.as_deref(),
            Some(std::path::Path::new("camp-nvlink.jsonl")),
            "each panel of a multi-sweep binary gets its own journal file"
        );
        let defaulted = parse(&["--resume"]).sweep_options("fig12").panel("pcie");
        assert_eq!(
            defaulted.journal.as_deref(),
            Some(std::path::Path::new("gex-campaign-fig12-pcie.jsonl"))
        );
    }
}
