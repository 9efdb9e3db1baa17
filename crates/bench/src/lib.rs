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
//! parse, and [`BenchArgs::gpu_config`] builds the one simulated GPU
//! every figure of the run is passed. Both binaries accept a positional
//! preset (`test` / `bench` / `paper`), `GEX_SMS`, `--pagesize P` and
//! `--deadline N`, the one cycle bound: it budgets each point, and a point
//! that overruns it is quarantined instead of spinning on.

use gex::workloads::Preset;
use gex::{GpuConfig, PageSizePolicy, RunBudget, SweepOptions};
use std::path::PathBuf;

/// Everything `fig` and `ablation` accept on the command line, parsed
/// from argv in a single pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// The figure ids (`fig` only): its first positional argument, split
    /// on `,`.
    pub ids: Vec<String>,
    /// The next positional argument: `test`, `bench` or `paper` (the
    /// default).
    pub preset: Preset,
    /// `GEX_SMS`: SM count of the simulated GPU (else Table 1's 16).
    pub sms: Option<u32>,
    /// `--deadline N` / `--deadline=N`: per-point cycle budget for
    /// supervised figure sweeps (a point that overruns it is
    /// quarantined).
    pub deadline: Option<u64>,
    /// `--resume`: journal the campaign (default path per figure) and
    /// skip points an earlier run already completed.
    pub resume: bool,
    /// `--journal PATH` / `--journal=PATH`: campaign journal file
    /// (implies `--resume` semantics with an explicit path).
    pub journal: Option<String>,
    /// `--pagesize P` / `--pagesize=P`: page-size policy
    /// (`small` / `transparent` / `hugeonly`) of the simulated GPU.
    pub pagesize: Option<PageSizePolicy>,
}

impl BenchArgs {
    /// Parse the process arguments (excluding the binary name) and
    /// `GEX_SMS`; `ids` as for [`parse_from`]. A command line or SM count
    /// that does not parse is reported on stderr and the process exits 2
    /// before anything runs.
    ///
    /// [`parse_from`]: BenchArgs::parse_from
    pub fn parse(ids: &[&str]) -> Self {
        let sms = std::env::var("GEX_SMS").ok();
        Self::parse_from(std::env::args().skip(1), ids)
            .and_then(|args| Ok(BenchArgs { sms: parse_sms(sms.as_deref())?, ..args }))
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            })
    }

    /// Parse an explicit argument list (the testable form of [`parse`]).
    /// A binary that takes figure ids passes the valid ones as `ids`; its
    /// first positional argument is then a `,`-separated list of them.
    /// An unknown id, preset or `-flag`, a positional argument beyond the
    /// preset, a flag missing its value, a cycle count that is not a `u64`
    /// and an unknown page-size policy are errors: a cap that silently
    /// fails to apply lets the run it was meant to bound run unbounded,
    /// and a dropped preset or policy runs a machine nobody asked for.
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        ids: &[&str],
    ) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut positional = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                positional.push(a);
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
            let policy = |v: String| {
                PageSizePolicy::parse(&v)
                    .ok_or_else(|| format!("{flag}: {v:?} is not small, transparent or hugeonly"))
            };
            match flag {
                "--resume" if inline.is_none() => out.resume = true,
                "--deadline" => out.deadline = Some(cycles(value()?)?),
                "--journal" => out.journal = Some(value()?),
                "--pagesize" => out.pagesize = Some(policy(value()?)?),
                _ => return Err(format!("unknown flag {a:?}")),
            }
        }
        let mut positional = positional.into_iter();
        if !ids.is_empty() {
            let list = positional.next().unwrap_or_default();
            out.ids = list.split(',').map(str::to_string).collect();
            if let Some(unknown) = out.ids.iter().find(|id| !ids.contains(&id.as_str())) {
                return Err(format!("unknown id {unknown:?} (valid ids: {})", ids.join(", ")));
            }
        }
        if let Some(p) = positional.next() {
            out.preset = Preset::parse(&p)
                .ok_or_else(|| format!("unknown preset {p:?} (test, bench or paper)"))?;
        }
        if let Some(extra) = positional.next() {
            return Err(format!("unexpected argument {extra:?} after the preset"));
        }
        Ok(out)
    }

    /// The simulated GPU every figure of the run is passed: Table 1's
    /// machine with `GEX_SMS` and `--pagesize` applied when given.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::kepler_k20();
        if let Some(n) = self.sms {
            cfg = cfg.with_sms(n);
        }
        if let Some(policy) = self.pagesize {
            cfg = cfg.with_page_size(policy);
        }
        cfg
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

/// The SM count a `GEX_SMS` of `value` names: anything but a positive
/// integer is an error naming the variable.
fn parse_sms(value: Option<&str>) -> Result<Option<u32>, String> {
    let count = |v: &str| v.parse().ok().filter(|&n| n > 0);
    value
        .map(|v| count(v).ok_or_else(|| format!("GEX_SMS: {v:?} is not a positive SM count")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        try_parse(args).expect("well-formed arguments")
    }

    fn try_parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), &[])
    }

    const IDS: [&str; 2] = ["10", "table1"];

    fn try_parse_ids(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), &IDS)
    }

    #[test]
    fn preset_defaults_to_paper_under_test_harness() {
        let args = parse(&[]);
        assert_eq!(args.preset, Preset::Paper);
        assert!(args.deadline.is_none());
        assert_eq!(args.gpu_config(), GpuConfig::kepler_k20(), "no flags: the Table 1 machine");
    }

    #[test]
    fn one_pass_parse_covers_all_consumers() {
        let a = parse(&["test", "--deadline", "5000", "--pagesize=transparent"]);
        assert_eq!(a.preset, Preset::Test);
        assert_eq!(a.deadline, Some(5000));
        assert_eq!(a.pagesize, Some(PageSizePolicy::Transparent));
        let cfg = BenchArgs { sms: Some(4), ..a }.gpu_config();
        assert_eq!(
            cfg,
            GpuConfig::kepler_k20().with_sms(4).with_page_size(PageSizePolicy::Transparent),
            "the deadline budgets points; it is not part of the machine"
        );
    }

    #[test]
    fn flag_values_never_leak_into_positionals() {
        let a = try_parse_ids(&["--deadline", "9", "--journal", "test", "10,table1", "bench"])
            .unwrap();
        assert_eq!(a.ids, ["10", "table1"]);
        assert_eq!(a.preset, Preset::Bench);
        assert_eq!(a.deadline, Some(9));
        assert_eq!(a.journal.as_deref(), Some("test"));
    }

    #[test]
    fn unknown_flags_and_equals_forms_parse() {
        let a = parse(&["--deadline=77", "bench"]);
        assert_eq!(a.deadline, Some(77));
        assert_eq!(a.preset, Preset::Bench);
        // Unknown flags, typos included, are errors naming the argument.
        for bad in ["--bench", "--deadlin", "-x", "--resume=1", "--samples=3"] {
            let err = try_parse(&["test", bad, "5000"]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn unparsable_and_missing_values_are_errors() {
        for (args, names) in [
            (&["--deadline", "abc"][..], "--deadline"),
            (&["--deadline=abc"][..], "--deadline"),
            (&["--deadline", "1e6"][..], "--deadline"),
            (&["--deadline=-1"][..], "--deadline"),
            (&["test", "--deadline"][..], "--deadline"),
            (&["--journal"][..], "--journal"),
            (&["test", "--pagesize=giant"][..], "--pagesize"),
            (&["--pagesize"][..], "--pagesize"),
            (&["tset"][..], "\"tset\""),
            (&["Test"][..], "\"Test\""),
            (&["test", "extra"][..], "\"extra\""),
        ] {
            let err = try_parse(args).unwrap_err();
            assert!(err.contains(names), "{args:?}: {err}");
        }
        for (args, names) in [
            (&["10", "tset"][..], "\"tset\""),
            (&["table1", "test", "extra"][..], "\"extra\""),
            (&["10,15", "test"][..], "\"15\""),
            (&[][..], "unknown id \"\""),
        ] {
            let err = try_parse_ids(args).unwrap_err();
            assert!(err.contains(names), "{args:?}: {err}");
        }
        for sms in ["abc", "0", "-4", "", "2.5"] {
            let err = parse_sms(Some(sms)).unwrap_err();
            assert!(err.contains("GEX_SMS"), "{sms:?}: {err}");
        }
        assert_eq!(parse_sms(Some("4")), Ok(Some(4)));
        assert_eq!(parse_sms(None), Ok(None));
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
