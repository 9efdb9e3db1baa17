//! # gex-bench — harness regenerating every table and figure
//!
//! * The `fig` binary (`cargo run -p gex-bench --release --bin fig --
//!   <id>[,<id>...] [preset] [flags]`, ids `10`-`14`, `lp`, `mt`,
//!   `scalability`, `table1`, `table2`): prints the paper's tables/series,
//!   at the `Paper` preset unless told otherwise.
//! * The `ablation` binary: the design-choice sweeps DESIGN.md calls out.
//! * `gex-served` / `gex-campaign`: the campaign daemon and its client.
//!
//! Host time is measured by the standalone `benchmark/` package (see its
//! README), not here.
//!
//! Shared argument parsing for `fig` and `ablation` lives here:
//! [`BenchArgs`] walks argv exactly once and rejects what it cannot
//! parse. Both accept a positional preset (`test` / `bench` / `paper`)
//! and `--max-cycles N`, which caps simulated cycles so misconfigured
//! runs exit with the watchdog diagnostic instead of spinning forever.

use gex::workloads::Preset;
use gex::{RunBudget, SweepOptions};
use std::path::PathBuf;

/// Everything `fig` and `ablation` accept on the command line, parsed
/// from argv in a single pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// Non-flag arguments in order: the figure ids (`fig` only), then a
    /// preset name.
    pub positional: Vec<String>,
    /// `--max-cycles N` / `--max-cycles=N`: simulated-cycle cap.
    pub max_cycles: Option<u64>,
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
    /// Parse the process arguments (excluding the binary name). A command
    /// line [`parse_from`] rejects is reported on stderr and the process
    /// exits 2 before anything runs.
    ///
    /// [`parse_from`]: BenchArgs::parse_from
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse an explicit argument list (the testable form of [`parse`]).
    /// An unknown `-flag`, a flag missing its value and a cycle count that
    /// is not a `u64` are errors: a cap that silently fails to apply lets
    /// the run it was meant to bound run unbounded.
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                out.positional.push(a);
                continue;
            }
            let (flag, inline) = match a.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (a.as_str(), None),
            };
            // `--flag=V`, else the next argument.
            let mut value = || {
                inline
                    .map(str::to_string)
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let cycles = |v: String| {
                v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a cycle count"))
            };
            match flag {
                "--resume" if inline.is_none() => out.resume = true,
                "--max-cycles" => out.max_cycles = Some(cycles(value()?)?),
                "--deadline" => out.deadline = Some(cycles(value()?)?),
                "--journal" => out.journal = Some(value()?),
                "--pagesize" => out.pagesize = Some(value()?),
                _ => return Err(format!("unknown flag {a:?}")),
            }
        }
        Ok(out)
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

    fn parse(args: &[&str]) -> BenchArgs {
        try_parse(args).expect("well-formed arguments")
    }

    fn try_parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn preset_defaults_to_paper_under_test_harness() {
        let args = parse(&[]);
        assert_eq!(args.preset(), Preset::Paper);
        assert!(args.max_cycles.is_none());
    }

    #[test]
    fn one_pass_parse_covers_all_consumers() {
        let a = parse(&["test", "--max-cycles", "5000", "--pagesize=transparent"]);
        assert_eq!(a.preset(), Preset::Test);
        assert_eq!(a.max_cycles, Some(5000));
        assert_eq!(a.pagesize.as_deref(), Some("transparent"));
        assert_eq!(a.positional, vec!["test"]);
    }

    #[test]
    fn flag_values_never_leak_into_positionals() {
        let a = parse(&["--max-cycles", "9", "--journal", "test", "fig10"]);
        assert_eq!(a.positional, vec!["fig10"]);
        assert_eq!(a.preset(), Preset::Paper);
        assert_eq!(a.max_cycles, Some(9));
        assert_eq!(a.journal.as_deref(), Some("test"));
    }

    #[test]
    fn unknown_flags_and_equals_forms_parse() {
        let a = parse(&["--max-cycles=77", "bench"]);
        assert_eq!(a.max_cycles, Some(77));
        assert_eq!(a.preset(), Preset::Bench);
        // Unknown flags, typos included, are errors naming the argument.
        for bad in ["--bench", "--max-cycle", "-x", "--resume=1", "--samples=3"] {
            let err = try_parse(&["test", bad, "5000"]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn unparsable_and_missing_values_are_errors() {
        for (args, names) in [
            (&["--max-cycles", "abc"][..], "--max-cycles"),
            (&["--max-cycles=abc"][..], "--max-cycles"),
            (&["--deadline", "1e6"][..], "--deadline"),
            (&["--deadline=-1"][..], "--deadline"),
            (&["test", "--max-cycles"][..], "--max-cycles"),
            (&["--journal"][..], "--journal"),
        ] {
            let err = try_parse(args).unwrap_err();
            assert!(err.contains(names), "{args:?}: {err}");
        }
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
