//! The figure renders pinned by the `.txt` files beside this one, shared
//! by the `golden_figures` test and the `golden_gen` regenerator: every
//! figure driver at the `Test` preset on 4 SMs (NVLink panels, SM counts
//! 2 and 4 for the scalability sweep).

use gex::workloads::Preset;
use gex::{experiments, Interconnect, SweepOptions};

/// Render the figure pinned as `file`; panics on a quarantined point.
pub fn render(file: &str) -> String {
    let (preset, opts, nvlink) = (Preset::Test, SweepOptions::default(), Interconnect::nvlink());
    match file {
        "fig10_test_4sm.txt" => experiments::fig10(preset, 4, &opts).expect_healthy().to_string(),
        "fig11_test_4sm.txt" => experiments::fig11(preset, 4, &opts).expect_healthy().to_string(),
        "fig12_nvlink_test_4sm.txt" => {
            experiments::fig12(preset, 4, nvlink, &opts).expect_healthy().to_string()
        }
        "fig13_nvlink_test_4sm.txt" => {
            experiments::fig13(preset, 4, nvlink, &opts).expect_healthy().to_string()
        }
        "fig14_nvlink_test_4sm.txt" => {
            experiments::fig14(preset, 4, nvlink, &opts).expect_healthy().to_string()
        }
        "fig_lp_test_4sm.txt" => experiments::fig_lp(preset, 4, &opts).expect_healthy().to_string(),
        "fig_mt_test_4sm.txt" => experiments::fig_mt(preset, 4, &opts).expect_healthy().to_string(),
        "scalability_test_2_4sm.txt" => experiments::scalability(preset, &[2, 4], &opts)
            .expect_healthy()
            .iter()
            .map(|row| format!("{row}\n"))
            .collect(),
        other => panic!("no golden named {other}"),
    }
}
