//! Halloc-style dynamic-allocation benchmarks (Section 5.4, Figure 13).
//!
//! The paper evaluates GPU-local fault handling with the benchmarks that
//! ship with the Halloc CUDA allocator: kernels whose threads `malloc`
//! device memory and immediately use it, so every touched heap page is a
//! first-touch fault. We provide four variants covering the allocator
//! benchmark space: fixed-size allocation, probabilistic sizes, linked
//! structures and a write-heavy streamer.

use crate::types::{BufferKind, BufferSpec, Preset, VaAlloc, Workload};
use gex_isa::asm::Asm;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};

fn blocks(preset: Preset) -> u32 {
    match preset {
        Preset::Test => 8,
        Preset::Bench => 32,
        Preset::Paper => 64,
    }
}

/// A short dependent-FMA spin standing in for the per-object work the
/// allocator benchmarks interleave with allocation.
fn compute_spin(a: &mut Asm, scratch: gex_isa::reg::Reg, iters: u64) {
    for _ in 0..iters {
        a.mad(scratch, scratch, 5u64, 3u64);
    }
}

fn finish(name: &str, a: Asm, nblocks: u32, ptr_out: u64, out_len: u64) -> Workload {
    let kernel = KernelBuilder::new(name, a.assemble().expect("halloc kernel assembles"))
        .grid(Dim3::x(nblocks))
        .block(Dim3::x(128))
        .regs_per_thread(16)
        .build()
        .expect("halloc kernel");
    Workload::build(
        name,
        &kernel,
        MemImage::new(),
        vec![BufferSpec { name: "ptrs", addr: ptr_out, len: out_len, kind: BufferKind::Output }],
    )
}

/// `halloc-fixed`: every thread allocates eight fixed 64-byte objects in a
/// loop, writing a header, reading it back and touching the tail of each —
/// a steady storm of first-touch heap faults.
pub fn fixed(preset: Preset) -> Workload {
    let nblocks = blocks(preset);
    let mut va = VaAlloc::new();
    let out_len = nblocks as u64 * 128 * 8;
    let ptr_out = va.alloc(out_len);

    let mut a = Asm::new();
    let (i, ptr, v, addr) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let (k, p) = (Reg(4), Pred(0));
    a.gtid(i);
    a.mov(k, 0u64);
    a.label("allocs");
    a.malloc(ptr, 64u64);
    a.st_global_u32(ptr, i, 0); // header = tid
    a.ld_global_u32(v, ptr, 0); // read back
    a.st_global_u32(ptr, v, 60); // touch the tail of the object
    compute_spin(&mut a, v, 320);
    a.add(k, k, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, k, 8u64);
    a.bra_if("allocs", p, true);
    a.shl_imm(addr, i, 3);
    a.add(addr, addr, ptr_out);
    a.st_global_u64(addr, ptr, 0);
    a.exit();
    finish("halloc-fixed", a, nblocks, ptr_out, out_len)
}

/// `halloc-prob`: allocation sizes vary per thread (16..128 bytes, a hash
/// of the thread id), matching the allocator's probabilistic benchmarks.
pub fn prob(preset: Preset) -> Workload {
    let nblocks = blocks(preset);
    let mut va = VaAlloc::new();
    let out_len = nblocks as u64 * 128 * 8;
    let ptr_out = va.alloc(out_len);

    let mut a = Asm::new();
    let (i, size, ptr, addr) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let (t, k, p) = (Reg(4), Reg(5), Pred(0));
    a.gtid(i);
    a.mov(k, 0u64);
    a.label("allocs");
    // size = 16 << (hash(i, k) & 3)
    a.mad(t, i, 2654435761u64, k);
    a.shr_imm(t, t, 13);
    a.and(t, t, 3u64);
    a.mov(size, 16u64);
    a.shl(size, size, t);
    a.malloc(ptr, size);
    a.st_global_u32(ptr, i, 0);
    // touch the last word of the variable-size object
    a.add(addr, ptr, size);
    a.st_global_u32(addr, i, -4);
    compute_spin(&mut a, t, 320);
    a.add(k, k, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, k, 8u64);
    a.bra_if("allocs", p, true);
    a.shl_imm(addr, i, 3);
    a.add(addr, addr, ptr_out);
    a.st_global_u64(addr, ptr, 0);
    a.exit();
    finish("halloc-prob", a, nblocks, ptr_out, out_len)
}

/// `halloc-chain`: every thread builds an eight-node linked list and then
/// traverses it with dependent loads.
pub fn chain(preset: Preset) -> Workload {
    let nblocks = blocks(preset);
    let mut va = VaAlloc::new();
    let out_len = nblocks as u64 * 128 * 8;
    let ptr_out = va.alloc(out_len);

    let mut a = Asm::new();
    let (i, head, prev, node) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let (k, addr, v, p) = (Reg(4), Reg(5), Reg(6), Pred(0));
    a.gtid(i);
    a.malloc(head, 32u64);
    a.st_global_u32(head, i, 8); // payload
    a.mov(prev, head);
    for _ in 0..7 {
        a.malloc(node, 32u64);
        a.st_global_u64(prev, node, 0); // prev->next = node
        a.st_global_u32(node, i, 8);
        a.mov(prev, node);
    }
    a.mov(v, 0u64);
    a.st_global_u64(prev, v, 0); // terminate
    // traverse
    a.mov(node, head);
    a.mov(k, 0u64);
    a.label("walk");
    a.ld_global_u32(v, node, 8);
    a.ld_global_u64(node, node, 0);
    a.add(k, k, 1u64);
    a.setp(p, CmpKind::Ne, CmpType::U64, node, 0u64);
    a.bra_if("walk", p, true);
    a.shl_imm(addr, i, 3);
    a.add(addr, addr, ptr_out);
    a.st_global_u64(addr, head, 0);
    a.exit();
    finish("halloc-chain", a, nblocks, ptr_out, out_len)
}

/// `halloc-stream`: each thread allocates four 256-byte buffers and writes
/// all of them — the write-heavy pattern that consumes heap pages fastest.
pub fn stream(preset: Preset) -> Workload {
    let nblocks = blocks(preset);
    let mut va = VaAlloc::new();
    let out_len = nblocks as u64 * 128 * 8;
    let ptr_out = va.alloc(out_len);

    let mut a = Asm::new();
    let (i, ptr, k, addr) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let (j, p, q) = (Reg(4), Pred(0), Pred(1));
    a.gtid(i);
    a.mov(j, 0u64);
    a.label("allocs");
    a.malloc(ptr, 256u64);
    a.mov(k, 0u64);
    a.label("fill");
    a.shl_imm(addr, k, 3);
    a.add(addr, addr, ptr);
    a.st_global_u64(addr, i, 0);
    a.add(k, k, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, k, 32u64);
    a.bra_if("fill", p, true);
    compute_spin(&mut a, k, 320);
    a.add(j, j, 1u64);
    a.setp(q, CmpKind::Lt, CmpType::U64, j, 4u64);
    a.bra_if("allocs", q, true);
    a.shl_imm(addr, i, 3);
    a.add(addr, addr, ptr_out);
    a.st_global_u64(addr, ptr, 0);
    a.exit();
    finish("halloc-stream", a, nblocks, ptr_out, out_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_allocate_heap() {
        for w in [fixed, prob, chain, stream].map(|build| build(Preset::Test)) {
            assert!(w.heap_bytes > 0, "{} must malloc", w.name);
            assert!(w.func.mallocs > 0, "{}", w.name);
            // heap pages are part of the trace's touched pages
            let heap_pages = w
                .trace
                .touched_pages()
                .iter()
                .filter(|&&p| p >= gex_isa::mem_image::HEAP_BASE)
                .count();
            assert!(heap_pages > 0, "{} must touch the heap", w.name);
        }
    }

    #[test]
    fn chain_has_dependent_loads() {
        let w = chain(Preset::Test);
        // traversal = 8 nodes per thread
        assert!(w.func.global_loads >= 8 * 4 * 8); // blocks x warps x nodes
    }

    #[test]
    fn prob_sizes_vary() {
        let w = prob(Preset::Test);
        // Different lanes allocate different sizes: heap usage is not a
        // multiple of a single size times threads.
        let threads = 8 * 128;
        assert_ne!(w.heap_bytes % (threads * 16), 0);
    }

    #[test]
    fn heap_residencies_cover_heap(){
        let w = stream(Preset::Test);
        let r = w.heap_lazy_residency();
        // the residency's lazy span covers all heap pages the trace touches
        use gex_mem::system::{FaultMode, MemSystem};
        use gex_mem::{MemConfig, PageState};
        let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
        r.apply(&mut mem);
        for &page in w.trace.touched_pages() {
            assert_ne!(mem.page_table.state(page), PageState::Invalid, "page {page:#x}");
        }
    }
}
