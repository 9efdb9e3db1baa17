//! Supervised figure campaign: panic isolation, deadlines, quarantine and
//! journal-backed resumption.
//!
//! Part 1 runs a Figure-10-style grid under the sweep supervisor with two
//! points deliberately injured (one panics, one is pinned to an
//! impossible cycle budget). The campaign completes anyway: healthy
//! points are untouched, the injured ones land in the quarantine report
//! written to `quarantine-report.txt`.
//!
//! Part 2 runs the real `fig10` campaign with a journal attached, then
//! runs it again to show resumption: the second pass answers every point
//! from the journal and re-simulates nothing, reproducing the same
//! figure bytes.
//!
//! ```text
//! cargo run --release -p gex --example supervised_campaign
//! ```

use gex::workloads::{suite, Preset};
use gex::{
    run_supervised, Gpu, GpuConfig, PagingMode, Residency, RunBudget, Scheme, SupervisePolicy,
    SweepOptions, Workload,
};

const SCHEMES: [Scheme; 4] =
    [Scheme::Baseline, Scheme::WdCommit, Scheme::WdLastCheck, Scheme::ReplayQueue];

fn run_point(w: &Workload, s: Scheme, budget: &RunBudget) -> Result<u64, gex::SimError> {
    Gpu::new(GpuConfig::kepler_k20().with_sms(2), s, PagingMode::AllResident)
        .budget(budget.clone())
        .try_run(&w.trace, &Residency::new())
        .map(|r| r.cycles)
}

fn main() {
    // ------------------------------------------------ Part 1: quarantine
    let ws: Vec<Workload> = suite::parboil(Preset::Test).into_iter().take(4).collect();
    let points: Vec<(String, (&Workload, Scheme))> = ws
        .iter()
        .flat_map(|w| SCHEMES.iter().map(move |&s| (format!("{}/{s:?}", w.name), (w, s))))
        .collect();
    let injured_panic = points[1].0.clone();
    let injured_slow = points[6].0.clone();
    println!("part 1: {} points, injuring {injured_panic} and {injured_slow}\n", points.len());

    // The injected panic is the whole point of the demo; keep its
    // backtrace off the terminal while the supervisor catches it.
    std::panic::set_hook(Box::new(|_| {}));
    let policy = SupervisePolicy::default();
    let out = run_supervised(points, &policy, None, |(w, s), budget| {
        let key = format!("{}/{s:?}", w.name);
        if key == injured_panic {
            panic!("injected panic for the demo");
        }
        let b = if key == injured_slow { RunBudget::cycles(64) } else { budget.clone() };
        run_point(w, *s, &b)
    });
    let _ = std::panic::take_hook();
    println!(
        "sweep finished: {} simulated, {} quarantined",
        out.simulated,
        out.quarantine.records.len()
    );
    // Stdout stays byte-identical across runs (the repo's determinism
    // probe): print every deterministic field and leave the wall-clock
    // `elapsed` to the report file.
    for r in &out.quarantine.records {
        println!("  {} [{}]: {}", r.key, r.kind, r.error);
    }
    std::fs::write("quarantine-report.txt", out.quarantine.to_string())
        .expect("write quarantine-report.txt");
    println!("wrote quarantine-report.txt\n");

    // ------------------------------------------------ Part 2: resumption
    let journal = std::env::temp_dir().join("gex-supervised-campaign.jsonl");
    let _ = std::fs::remove_file(&journal);
    let opts = SweepOptions { journal: Some(journal.clone()), ..SweepOptions::default() };
    let cfg = GpuConfig::kepler_k20().with_sms(2);

    println!("part 2: fig10 with a campaign journal at {}", journal.display());
    let first = gex::experiments::fig10(Preset::Test, &cfg, &opts);
    println!(
        "first pass:  {} simulated, {} resumed from journal",
        first.simulated, first.resumed
    );
    let second = gex::experiments::fig10(Preset::Test, &cfg, &opts);
    println!(
        "second pass: {} simulated, {} resumed from journal",
        second.simulated, second.resumed
    );
    assert_eq!(second.simulated, 0, "a complete journal answers every point");
    assert_eq!(
        first.fig.to_string(),
        second.fig.to_string(),
        "resumed figures are byte-identical"
    );
    println!("figures are byte-identical across the resume\n");
    print!("{}", second.fig);
    let _ = std::fs::remove_file(&journal);
}
