//! Golden-figure regression tests.
//!
//! The reference renders under `tests/golden/` were produced by earlier
//! builds (`cargo run --release --example golden_gen`): fig10/fig11
//! before the result cache landed, fig_lp when large pages did, the rest
//! by the per-figure drivers that preceded the shared point runner.
//! Asserting byte-identity here means any scheduler, cache, or driver
//! change that drifts figure output — even by one cycle — fails
//! `cargo test` instead of silently corrupting the reproduction.

#[path = "golden/renders.rs"]
mod renders;

fn check(file: &str, golden: &str) {
    assert_eq!(
        renders::render(file),
        golden,
        "{file} drifted from the committed golden; if the change is intentional, \
         regenerate with `cargo run --release --example golden_gen`"
    );
}

#[test]
fn fig10_render_is_byte_identical_to_golden() {
    check("fig10_test_4sm.txt", include_str!("golden/fig10_test_4sm.txt"));
}

#[test]
fn fig11_render_is_byte_identical_to_golden() {
    check("fig11_test_4sm.txt", include_str!("golden/fig11_test_4sm.txt"));
}

#[test]
fn fig12_render_is_byte_identical_to_golden() {
    check("fig12_nvlink_test_4sm.txt", include_str!("golden/fig12_nvlink_test_4sm.txt"));
}

#[test]
fn fig13_render_is_byte_identical_to_golden() {
    check("fig13_nvlink_test_4sm.txt", include_str!("golden/fig13_nvlink_test_4sm.txt"));
}

#[test]
fn fig14_render_is_byte_identical_to_golden() {
    check("fig14_nvlink_test_4sm.txt", include_str!("golden/fig14_nvlink_test_4sm.txt"));
}

#[test]
fn fig_lp_render_is_byte_identical_to_golden() {
    check("fig_lp_test_4sm.txt", include_str!("golden/fig_lp_test_4sm.txt"));
}

#[test]
fn fig_mt_render_is_byte_identical_to_golden() {
    check("fig_mt_test_4sm.txt", include_str!("golden/fig_mt_test_4sm.txt"));
}

#[test]
fn scalability_render_is_byte_identical_to_golden() {
    check("scalability_test_2_4sm.txt", include_str!("golden/scalability_test_2_4sm.txt"));
}
