//! Suite registries.

use crate::types::{Preset, Workload};

/// A workload's paper name and its builder.
type Entry = (&'static str, fn(Preset) -> Workload);

/// Every workload by its paper name, in figure order: the eleven
/// Parboil-like benchmarks, then the Figure 13 set.
const REGISTRY: [Entry; 16] = [
    ("bfs", crate::bfs::build),
    ("cutcp", crate::cutcp::build),
    ("histo", crate::histo::build),
    ("lbm", crate::lbm::build),
    ("mri-gridding", crate::mri_gridding::build),
    ("mri-q", crate::mri_q::build),
    ("sad", crate::sad::build),
    ("sgemm", crate::sgemm::build),
    ("spmv", crate::spmv::build),
    ("stencil", crate::stencil::build),
    ("tpacf", crate::tpacf::build),
    ("halloc-fixed", crate::halloc::fixed),
    ("halloc-prob", crate::halloc::prob),
    ("halloc-chain", crate::halloc::chain),
    ("halloc-stream", crate::halloc::stream),
    ("quad-tree", crate::quadtree::build),
];

/// How many leading [`REGISTRY`] entries are Parboil benchmarks.
const PARBOIL_LEN: usize = 11;

fn build_all(entries: &[Entry], preset: Preset) -> Vec<Workload> {
    entries.iter().map(|(_, build)| build(preset)).collect()
}

/// The eleven Parboil-like benchmarks, in the paper's figure order.
pub fn parboil(preset: Preset) -> Vec<Workload> {
    build_all(&REGISTRY[..PARBOIL_LEN], preset)
}

/// The Halloc-style allocator benchmarks plus the quad-tree sample — the
/// Figure 13 set.
pub fn halloc(preset: Preset) -> Vec<Workload> {
    build_all(&REGISTRY[PARBOIL_LEN..], preset)
}

/// Build one workload by its paper name, searching every suite. Only the
/// named workload is built.
pub fn by_name(name: &str, preset: Preset) -> Option<Workload> {
    REGISTRY.iter().find(|(key, _)| *key == name).map(|(_, build)| build(preset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_paper() {
        let ws = parboil(Preset::Test);
        assert_eq!(ws.len(), 11, "all Parboil benchmarks (Section 5.1)");
        let names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
        for expected in [
            "bfs", "cutcp", "histo", "lbm", "mri-gridding", "mri-q", "sad", "sgemm", "spmv",
            "stencil", "tpacf",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        let fig13 = halloc(Preset::Test);
        assert_eq!(fig13.len(), 5, "4 halloc benchmarks + quad-tree");
        // Every key names the workload its builder produces, and the table
        // order is the suites' order.
        let built: Vec<&str> = ws.iter().chain(&fig13).map(|w| w.name.as_str()).collect();
        let keys: Vec<&str> = REGISTRY.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, built);
        assert_eq!(by_name("quad-tree", Preset::Test).unwrap().name, "quad-tree");
        assert!(by_name("nope", Preset::Test).is_none());
    }

    #[test]
    fn every_workload_has_coverage_and_work() {
        for w in parboil(Preset::Test).into_iter().chain(halloc(Preset::Test)) {
            assert!(w.trace.dyn_instrs() > 200, "{} too small", w.name);
            assert!(!w.trace.blocks.is_empty(), "{}", w.name);
            // every touched page is covered by the demand residency
            use gex_mem::system::{FaultMode, MemSystem};
            use gex_mem::{MemConfig, PageState};
            let mut mem =
                MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
            w.demand_residency().apply(&mut mem, 0);
            for &page in w.trace.touched_pages() {
                assert_ne!(
                    mem.page_table.state(page),
                    PageState::Invalid,
                    "{}: page {page:#x} uncovered",
                    w.name
                );
            }
        }
    }
}
