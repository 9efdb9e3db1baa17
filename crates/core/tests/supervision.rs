//! Keystone tests for resilient sweep supervision.
//!
//! The contract under test: a campaign with injured points — panics,
//! budget overruns — still completes; the quarantine report names exactly
//! the injured points; every healthy point is byte-identical to an
//! undisturbed run; and a killed campaign resumed from its journal
//! reproduces byte-identical figures while re-simulating only the points
//! it is missing.

use gex::workloads::{suite, Preset};
use gex::{
    run_supervised, CampaignJournal, FailureKind, Gpu, GpuConfig, Interconnect, PageSizePolicy,
    PagingMode, Residency, RunBudget, Scheme, SimError, SupervisePolicy, SweepOptions, Workload,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

const SCHEMES: [Scheme; 4] =
    [Scheme::Baseline, Scheme::WdCommit, Scheme::WdLastCheck, Scheme::ReplayQueue];

/// The 16-point grid of the keystone test: four benchmarks x four
/// schemes, keyed exactly like the figure drivers.
fn grid(ws: &[Workload]) -> Vec<(String, (&Workload, Scheme))> {
    ws.iter()
        .flat_map(|w| SCHEMES.iter().map(move |&s| (format!("{}/{s:?}", w.name), (w, s))))
        .collect()
}

fn run_point(w: &Workload, s: Scheme, budget: &RunBudget) -> Result<u64, SimError> {
    Gpu::new(GpuConfig::kepler_k20().with_sms(2), s, PagingMode::AllResident)
        .budget(budget.clone())
        .try_run(&w.trace, &Residency::new())
        .map(|r| r.cycles)
}

fn journal_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gex-supervision-{name}-{}.jsonl", std::process::id()));
    p
}

#[test]
fn injured_sweep_completes_quarantining_exactly_the_injured_points() {
    let ws: Vec<Workload> = suite::parboil(Preset::Test).into_iter().take(4).collect();
    let points = grid(&ws);
    assert_eq!(points.len(), 16, "the keystone grid is 4 workloads x 4 schemes");
    let keys: Vec<String> = points.iter().map(|(k, _)| k.clone()).collect();
    let policy = SupervisePolicy::default();

    let clean = run_supervised(grid(&ws), &policy, None, |(w, s), b| run_point(w, *s, b));
    assert!(clean.quarantine.is_empty(), "{}", clean.quarantine);
    assert_eq!((clean.resumed, clean.simulated), (0, 16));

    // Injure four points: two panic inside the simulation closure, two
    // are forced onto a 64-cycle budget they cannot meet.
    let panicky = [keys[1].clone(), keys[7].clone()];
    let overrun = [keys[4].clone(), keys[10].clone()];
    let out = run_supervised(grid(&ws), &policy, None, |(w, s), b| {
        let key = format!("{}/{s:?}", w.name);
        if panicky.contains(&key) {
            panic!("injected panic at {key}");
        }
        let budget = if overrun.contains(&key) { RunBudget::cycles(64) } else { b.clone() };
        run_point(w, *s, &budget)
    });

    let injured = [&keys[1], &keys[4], &keys[7], &keys[10]];
    assert_eq!(
        out.quarantine.keys(),
        injured.map(String::as_str).to_vec(),
        "quarantine must name exactly the injured points, in sweep order"
    );
    for r in &out.quarantine.records {
        if panicky.contains(&r.key) {
            assert_eq!(r.kind, FailureKind::Panic);
            assert!(r.error.contains("injected panic"), "{}", r.error);
        } else {
            assert_eq!(r.kind, FailureKind::Deadline);
            assert!(r.error.contains("deadline"), "{}", r.error);
        }
    }
    assert_eq!(out.simulated, 12);
    for (i, (healthy, injured_run)) in clean.values.iter().zip(&out.values).enumerate() {
        if injured.contains(&&keys[i]) {
            assert_eq!(*injured_run, None, "{} must be quarantined", keys[i]);
        } else {
            assert_eq!(
                injured_run, healthy,
                "healthy point {} must be byte-identical to the undisturbed run",
                keys[i]
            );
        }
    }

    // The rendered report is self-contained: every injured key with its
    // failure class.
    let rendered = out.quarantine.to_string();
    for key in &injured {
        assert!(rendered.contains(key.as_str()), "{rendered}");
    }
    assert!(rendered.contains("[panic]") && rendered.contains("[deadline]"), "{rendered}");
}

/// The simulator is deterministic, so a re-run of an overrun would only
/// repeat it: the supervisor runs an overrunning point exactly once and
/// quarantines it as a deadline.
#[test]
fn an_overrunning_point_runs_once_and_quarantines_as_deadline() {
    let w = suite::by_name("lbm", Preset::Test).expect("known benchmark");
    let calls = AtomicU32::new(0);
    let out = run_supervised(
        vec![("lbm/overrun".to_string(), ())],
        &SupervisePolicy::default(),
        None,
        |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            run_point(&w, Scheme::Baseline, &RunBudget::cycles(64))
        },
    );
    assert_eq!(calls.load(Ordering::Relaxed), 1, "an overrun is simulated once");
    assert_eq!(out.values, vec![None]);
    assert_eq!((out.resumed, out.simulated), (0, 0));
    let r = &out.quarantine.records[0];
    assert_eq!(r.kind, FailureKind::Deadline);
    assert!(r.error.contains("cycle deadline of 64"), "{}", r.error);
}

#[test]
fn killed_campaign_resumes_byte_identically_simulating_only_missing_points() {
    let path = journal_path("resume");
    // A corrupt pre-existing file must be ignored and rebuilt, not
    // trusted and not fatal.
    std::fs::write(&path, "garbage left by some other tool\n").unwrap();

    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let opts =
        SweepOptions { journal: Some(path.clone()), ..SweepOptions::default() };
    let full = gex::experiments::fig10(Preset::Test, &cfg, &opts);
    assert!(full.quarantine.is_empty(), "{}", full.quarantine);
    assert_eq!(full.resumed, 0, "a corrupt journal must not resume anything");
    let total = full.simulated;
    assert!(total >= 16, "fig10's grid is at least 4 schemes x 4 workloads");
    let rendered = full.fig.to_string();

    // Emulate a kill halfway: keep the header and the first half of the
    // entries (record() flushes line-at-a-time, so a kill between points
    // leaves exactly a prefix of complete lines).
    let content = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 1 + total, "header plus one line per simulated point");
    let keep = 1 + total / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    std::fs::write(&path, truncated).unwrap();

    let resumed = gex::experiments::fig10(Preset::Test, &cfg, &opts);
    assert_eq!(resumed.resumed, total / 2, "journaled points are not re-simulated");
    assert_eq!(resumed.simulated, total - total / 2, "only the missing points run");
    assert!(resumed.quarantine.is_empty(), "{}", resumed.quarantine);
    assert_eq!(
        resumed.fig.to_string(),
        rendered,
        "the resumed figure must be byte-identical to the uninterrupted one"
    );

    // Fully journaled now: a third run answers everything from the file.
    let replayed = gex::experiments::fig10(Preset::Test, &cfg, &opts);
    assert_eq!((replayed.resumed, replayed.simulated), (total, 0));
    assert_eq!(replayed.fig.to_string(), rendered);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scalability_sweep_supervises_and_resumes_each_panel() {
    // The Section 5.5 driver is a composite campaign: per SM count it runs
    // a Figure 10 and a Figure 13 sweep, each with its own journal (files
    // are digest-keyed per campaign). The composite must aggregate
    // supervision counters across panels and resume them independently.
    let opts = SweepOptions {
        journal: Some(journal_path("scalability")),
        ..SweepOptions::default()
    };
    let cfg = GpuConfig::kepler_k20();
    let first = gex::experiments::scalability(Preset::Test, &cfg, &[2], &opts);
    assert!(first.quarantine.is_empty(), "{}", first.quarantine);
    assert_eq!(first.resumed, 0);
    assert!(
        first.simulated > 44,
        "fig10's 44-point grid plus fig13's points all simulate: {}",
        first.simulated
    );
    assert_eq!(first.fig.len(), 1, "one row per SM count");
    let row = &first.fig[0];
    assert_eq!(row.sms, 2);
    assert!(
        row.replay_queue > 0.3 && row.replay_queue <= 1.001,
        "replay-queue geomean out of range: {}",
        row.replay_queue
    );
    assert!(row.local_handling > 0.5, "local-handling geomean: {}", row.local_handling);

    // Both panels fully journaled: a re-run simulates nothing and
    // reproduces the row byte-identically.
    let second = gex::experiments::scalability(Preset::Test, &cfg, &[2], &opts);
    assert_eq!(
        (second.resumed, second.simulated),
        (first.simulated, 0),
        "every panel point must resume from its journal"
    );
    assert!(second.quarantine.is_empty(), "{}", second.quarantine);
    assert_eq!(second.fig[0].to_string(), row.to_string(), "resumed row must be byte-identical");

    for panel in ["2sm-fig10", "2sm-fig13"] {
        let _ = std::fs::remove_file(opts.panel(panel).journal.expect("journaled"));
    }
}

#[test]
fn a_stale_journal_from_a_different_grid_is_rebuilt_not_reused() {
    let path = journal_path("stale");
    let ws: Vec<Workload> = suite::parboil(Preset::Test).into_iter().take(2).collect();
    let policy = SupervisePolicy::default();
    let run = |(w, s): &(&Workload, Scheme), b: &RunBudget| run_point(w, *s, b);

    let d_old = gex::journal::digest("supervision-stale|sms=2");
    {
        let j = CampaignJournal::open(&path, d_old).unwrap();
        let out = run_supervised(grid(&ws), &policy, Some(&j), run);
        assert_eq!((out.resumed, out.simulated), (0, 8));
    }

    // Same path, different campaign identity (as when the grid or SM
    // count changes): the old entries must not leak into the new sweep.
    let d_new = gex::journal::digest("supervision-stale|sms=4");
    let j = CampaignJournal::open(&path, d_new).unwrap();
    assert_eq!(j.resumed_points(), 0, "a digest mismatch discards the journal");
    let out = run_supervised(grid(&ws), &policy, Some(&j), run);
    assert_eq!((out.resumed, out.simulated), (0, 8), "every point re-simulates");
    assert_eq!(j.len(), 8, "the rebuilt journal holds the new campaign's points");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_written_on_another_machine_is_not_resumed() {
    // The campaign digest covers every point's simulated GPU, so a journal
    // of Figure 14 on 2 MB pages must not answer the 4 KB figure.
    let path = journal_path("machine");
    let journaled = SweepOptions { journal: Some(path.clone()), ..SweepOptions::default() };
    let (preset, nvlink) = (Preset::Test, Interconnect::nvlink());
    let small = GpuConfig::kepler_k20().with_sms(2);
    let huge = small.clone().with_page_size(PageSizePolicy::HugeOnly);

    let first = gex::experiments::fig14(preset, &huge, nvlink, &journaled);
    assert!(first.quarantine.is_empty(), "{}", first.quarantine);
    assert!(first.simulated > 0);

    let second = gex::experiments::fig14(preset, &small, nvlink, &journaled);
    assert_eq!(second.resumed, 0, "a HugeOnly journal must not answer a 4 KB point");
    assert_eq!(second.simulated, first.simulated, "every point re-simulates");
    let fresh = gex::experiments::fig14(preset, &small, nvlink, &SweepOptions::default());
    assert_eq!(second.fig.to_string(), fresh.expect_healthy().to_string());
    let _ = std::fs::remove_file(&path);
}
