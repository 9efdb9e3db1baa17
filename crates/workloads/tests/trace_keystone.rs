//! Trace-identity keystone for the functional simulator.
//!
//! Every registry workload is built at a preset and its dynamic trace,
//! final memory-image digest and functional counters are folded into one
//! FNV-1a digest (the bytes of `format!("{:?}|{}|{:?}", trace,
//! image_digest, func)` per workload, in registry order). The digests are
//! pinned: any change to a trace byte, a memory byte, the heap break or a
//! counter moves them. A change that is meant to alter what the functional
//! simulator computes re-pins them and says why.
//!
//! The Bench leg takes about 16 s in release (2.5 s of builds, the rest
//! rendering ten million dynamic instructions for the digest) and is
//! ignored by default; run it with
//! `cargo test --release -p gex-workloads --test trace_keystone -- --include-ignored`.

use gex_workloads::suite;
use gex_workloads::types::{Preset, Workload};
use std::fmt::Write;

/// FNV-1a over everything written to it, so a `Debug` rendering is hashed
/// as it is produced instead of being collected into one string.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The combined digest of every registry workload at `preset`, and each
/// workload's own digest (printed on a mismatch to name the culprit).
fn digests(preset: Preset) -> (u64, Vec<(String, u64)>) {
    let mut all = Fnv(0xcbf2_9ce4_8422_2325);
    let mut each = Vec::new();
    let mut fold = |ws: Vec<Workload>| {
        for w in ws {
            let mut one = Fnv(0xcbf2_9ce4_8422_2325);
            for h in [&mut all, &mut one] {
                write!(h, "{:?}|{}|{:?}", w.trace, w.image_digest, w.func).unwrap();
            }
            each.push((w.name, one.0));
        }
    };
    // One suite at a time, so the Bench leg never holds all sixteen.
    fold(suite::parboil(preset));
    fold(suite::halloc(preset));
    (all.0, each)
}

fn check(preset: Preset, pinned: u64) {
    let (all, each) = digests(preset);
    assert_eq!(each.len(), 16, "every registry workload is covered");
    assert_eq!(all, pinned, "{preset:?} trace digest moved; per workload: {each:#x?}");
}

#[test]
fn test_preset_traces_are_pinned() {
    check(Preset::Test, 0xd5ed_d65f_91ee_8336);
}

#[test]
#[ignore = "about 16 s in release; CI runs it with --include-ignored"]
fn bench_preset_traces_are_pinned() {
    check(Preset::Bench, 0x8398_e6e2_a9b6_aaef);
}
