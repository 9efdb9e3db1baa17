//! Trace-identity keystone for the functional simulator.
//!
//! Every registry workload is built at a preset and its dynamic trace,
//! final memory-image digest and functional counters are folded into one
//! FNV-1a digest, in registry order. Per workload the bytes hashed are the
//! trace's *content* — name, blocks, launch geometry and touched pages —
//! then the image digest and the counters; a trace's memo fields are not
//! part of it, so adding or dropping a cache cannot move the digest. The
//! digests are pinned: any change to a trace byte, a memory byte, the heap
//! break or a counter moves them. A change that is meant to alter what the
//! functional simulator computes re-pins them and says why.
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
                let t = &w.trace;
                write!(
                    h,
                    "{}|{:?}|{}|{}|{}|{}|{:?}|{}|{:?}",
                    t.name,
                    t.blocks,
                    t.threads_per_block,
                    t.warps_per_block,
                    t.regs_per_thread,
                    t.shared_bytes,
                    t.touched_pages(),
                    w.image_digest,
                    w.func
                )
                .unwrap();
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
    check(Preset::Test, 0x5be2_45ca_fd3d_a5c2);
}

#[test]
#[ignore = "about 16 s in release; CI runs it with --include-ignored"]
fn bench_preset_traces_are_pinned() {
    check(Preset::Bench, 0xb59e_5cd2_18cd_968c);
}
