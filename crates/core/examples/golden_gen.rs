//! Regenerates the golden figure renders under `crates/core/tests/golden/`.
//!
//! The golden files pin the exact byte-level output of every figure
//! driver on the `Test` preset so scheduler or cache changes that drift
//! the simulation are caught by `cargo test` (see
//! `crates/core/tests/golden_figures.rs`). Run this only when a figure
//! change is *intentional*, then review the diff like any other code:
//!
//! ```sh
//! cargo run --release --example golden_gen
//! ```

use gex::workloads::{suite, Preset};
use gex::{cache, Gpu, GpuConfig, InjectionPlan, Interconnect, PagingMode, Residency, Scheme};
use std::fmt::Write as _;
use std::path::Path;

#[path = "../tests/golden/renders.rs"]
mod renders;

/// Every pinned figure render, by file name.
const FILES: [&str; 8] = [
    "fig10_test_4sm.txt",
    "fig11_test_4sm.txt",
    "fig12_nvlink_test_4sm.txt",
    "fig13_nvlink_test_4sm.txt",
    "fig14_nvlink_test_4sm.txt",
    "fig_lp_test_4sm.txt",
    "fig_mt_test_4sm.txt",
    "scalability_test_2_4sm.txt",
];

/// The schemes × paging × chaos grid pinned by
/// `tests/golden/page_size_small.txt`: full `Debug` report dumps proving
/// `PageSizePolicy::Small` reproduces the pre-large-page simulator
/// byte-for-byte (see `crates/core/tests/page_size_equivalence.rs`).
fn page_size_small_dump() -> String {
    const SCHEMES: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::WdCommit,
        Scheme::WdLastCheck,
        Scheme::ReplayQueue,
        Scheme::OperandLog { bytes: 16384 },
    ];
    let mut out = String::new();
    for name in ["histo", "bfs"] {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        for scheme in SCHEMES {
            for (leg, paging, seed) in [
                ("resident", PagingMode::AllResident, None),
                ("demand", PagingMode::demand(Interconnect::nvlink()), None),
                ("demand+chaos7", PagingMode::demand(Interconnect::nvlink()), Some(7u64)),
                ("demand+chaos42", PagingMode::demand(Interconnect::nvlink()), Some(42u64)),
            ] {
                let mut gpu = Gpu::new(GpuConfig::kepler_k20().with_sms(4), scheme, paging);
                if let Some(seed) = seed {
                    gpu = gpu.inject(InjectionPlan::chaos(seed));
                }
                let res = if matches!(paging, PagingMode::AllResident) {
                    Residency::new()
                } else {
                    w.demand_residency()
                };
                let report = cache::run_cached(&gpu, &w, &res).expect("golden point runs");
                writeln!(out, "== {name} {scheme:?} {leg} ==").unwrap();
                writeln!(out, "{report:?}").unwrap();
            }
        }
    }
    out
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create golden dir");

    for file in FILES {
        let text = renders::render(file);
        std::fs::write(dir.join(file), &text).unwrap_or_else(|e| panic!("write {file}: {e}"));
        print!("{text}");
    }
    std::fs::write(dir.join("page_size_small.txt"), page_size_small_dump())
        .expect("write page-size golden");
    println!("wrote {}", dir.display());
}
