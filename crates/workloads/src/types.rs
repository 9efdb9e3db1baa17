//! Workload descriptors shared by every benchmark.

use gex_isa::func::{FuncSim, FuncStats};
use gex_isa::kernel::Kernel;
use gex_isa::mem_image::MemImage;
use gex_isa::trace::KernelTrace;
use gex_mem::REGION_BYTES;
use gex_sim::Residency;

/// Role of a buffer in the kernel, which decides its initial placement in
/// the paging experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferKind {
    /// CPU-initialized data the kernel reads: dirty in CPU memory under
    /// demand paging (migration faults).
    Input,
    /// Kernel-produced data the CPU reads afterwards: CPU-allocated but
    /// clean, or lazily backed in the output-page experiment (Figure 14).
    Output,
}

/// One named buffer of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSpec {
    /// Buffer name, for reporting.
    pub name: &'static str,
    /// Base virtual address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Role.
    pub kind: BufferKind,
}

/// Dataset scale of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Preset {
    /// Tiny, for unit tests.
    Test,
    /// Small enough for Criterion iterations, large enough to exercise the
    /// memory system.
    Bench,
    /// The figure-regeneration size used by the harness binaries.
    #[default]
    Paper,
}

impl Preset {
    /// Parse a lowercase preset token: `test`, `bench` or `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "test" => Some(Preset::Test),
            "bench" => Some(Preset::Bench),
            "paper" => Some(Preset::Paper),
            _ => None,
        }
    }
}

/// A fully built workload: functional trace, buffers, heap usage.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (the paper's label, e.g. `lbm`).
    pub name: String,
    /// The dynamic trace, ready for the timing simulator.
    pub trace: KernelTrace,
    /// Buffers the kernel touches.
    pub buffers: Vec<BufferSpec>,
    /// Device-heap bytes allocated by `malloc` during the run (0 if none).
    pub heap_bytes: u64,
    /// Functional-run counters (instruction mix sanity).
    pub func: FuncStats,
    /// Digest of the final memory image after the functional run: the
    /// architectural result of the kernel. Workload construction is
    /// deterministic, so rebuilding the same `(name, preset)` must
    /// reproduce this digest bit-for-bit — and the timing simulator never
    /// touches the image, so no scheduling or fault-injection chaos can
    /// perturb it. The differential-validation suite checks both.
    pub image_digest: u64,
}

impl Workload {
    /// Run `kernel` functionally against `image` and wrap the result.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is malformed — workload construction is
    /// infallible by design, so any error here is a bug in the workload.
    pub fn build(
        name: impl Into<String>,
        kernel: &Kernel,
        mut image: MemImage,
        buffers: Vec<BufferSpec>,
    ) -> Self {
        let heap_before = image.heap_brk();
        let run = FuncSim::new()
            .run(kernel, &mut image)
            .unwrap_or_else(|e| panic!("workload functional run failed: {e}"));
        Workload {
            name: name.into(),
            trace: run.trace,
            buffers,
            heap_bytes: image.heap_brk() - heap_before,
            func: run.stats,
            image_digest: image.digest(),
        }
    }

    fn heap_span(&self) -> Option<(u64, u64)> {
        if self.heap_bytes == 0 {
            return None;
        }
        let len = self.heap_bytes.div_ceil(REGION_BYTES) * REGION_BYTES;
        Some((gex_isa::mem_image::HEAP_BASE, len))
    }

    /// Figure 12 placement: inputs dirty in CPU memory (migration faults),
    /// outputs CPU-allocated but clean (allocation-only faults) — "all data
    /// is initially residing in the CPU memory" (Section 5.1).
    pub fn demand_residency(&self) -> Residency {
        let mut r = Residency::new();
        for b in &self.buffers {
            r = match b.kind {
                BufferKind::Input => r.cpu_dirty(b.addr, b.len),
                BufferKind::Output => r.cpu_clean(b.addr, b.len),
            };
        }
        if let Some((base, len)) = self.heap_span() {
            r = r.lazy(base, len);
        }
        r
    }

    /// Figure 14 placement: inputs dirty in CPU memory as in every
    /// demand-paging run (Section 5.1: "all data is initially residing in
    /// the CPU memory"), output pages unbacked so first touches fault and
    /// are eligible for GPU-local handling. Handling outputs locally
    /// relieves the CPU/link pipeline that migrations share — the paper's
    /// contention argument for why PCIe gains more.
    pub fn outputs_lazy_residency(&self) -> Residency {
        let mut r = Residency::new();
        for b in &self.buffers {
            r = match b.kind {
                BufferKind::Input => r.cpu_dirty(b.addr, b.len),
                BufferKind::Output => r.lazy(b.addr, b.len),
            };
        }
        if let Some((base, len)) = self.heap_span() {
            r = r.lazy(base, len);
        }
        r
    }

    /// Figure 13 placement: all buffers resident; only the device heap is
    /// lazily backed ("all the page faults are caused by accesses to
    /// unmapped pages", Section 5.4).
    pub fn heap_lazy_residency(&self) -> Residency {
        let mut r = Residency::new();
        for b in &self.buffers {
            r = r.resident(b.addr, b.len);
        }
        if let Some((base, len)) = self.heap_span() {
            r = r.lazy(base, len);
        }
        r
    }

    /// Bytes of input data (the migration volume under demand paging).
    pub fn input_bytes(&self) -> u64 {
        self.buffers.iter().filter(|b| b.kind == BufferKind::Input).map(|b| b.len).sum()
    }
}

/// Simple bump allocator for workload buffer addresses, region-aligned so
/// distinct buffers never share a 64 KB fault region.
#[derive(Debug)]
pub struct VaAlloc {
    next: u64,
}

impl VaAlloc {
    /// Start allocating at the conventional workload base address.
    pub fn new() -> Self {
        VaAlloc { next: 0x0100_0000 }
    }

    /// Reserve `len` bytes, aligned to the 64 KB fault region.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = self.next;
        self.next += len.div_ceil(REGION_BYTES) * REGION_BYTES;
        base
    }
}

impl Default for VaAlloc {
    fn default() -> Self {
        VaAlloc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_isa::asm::Asm;
    use gex_isa::kernel::{Dim3, KernelBuilder};
    use gex_isa::reg::Reg;
    use gex_mem::PageState;
    use gex_mem::system::{FaultMode, MemSystem};
    use gex_mem::MemConfig;

    fn tiny_workload() -> Workload {
        let mut va = VaAlloc::new();
        let input = va.alloc(4096);
        let output = va.alloc(4096);
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.shl_imm(Reg(1), Reg(0), 2);
        a.add(Reg(2), Reg(1), input);
        a.ld_global_u32(Reg(3), Reg(2), 0);
        a.add(Reg(2), Reg(1), output);
        a.st_global_u32(Reg(2), Reg(3), 0);
        a.exit();
        let k = KernelBuilder::new("tiny", a.assemble().unwrap())
            .grid(Dim3::x(1))
            .block(Dim3::x(32))
            .build()
            .unwrap();
        Workload::build(
            "tiny",
            &k,
            MemImage::new(),
            vec![
                BufferSpec { name: "in", addr: input, len: 4096, kind: BufferKind::Input },
                BufferSpec { name: "out", addr: output, len: 4096, kind: BufferKind::Output },
            ],
        )
    }

    #[test]
    fn va_alloc_region_aligned() {
        let mut va = VaAlloc::new();
        let a = va.alloc(100);
        let b = va.alloc(0x2_0001);
        let c = va.alloc(1);
        assert_eq!(a % REGION_BYTES, 0);
        assert_eq!(b, a + REGION_BYTES);
        assert_eq!(c, b + 3 * REGION_BYTES);
    }

    #[test]
    fn residencies_cover_all_touched_pages() {
        let w = tiny_workload();
        for (label, res) in [
            ("demand", w.demand_residency()),
            ("outputs_lazy", w.outputs_lazy_residency()),
            ("heap_lazy", w.heap_lazy_residency()),
        ] {
            let mut mem =
                MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
            res.apply(&mut mem);
            for &page in w.trace.touched_pages() {
                assert_ne!(
                    mem.page_table.state(page),
                    PageState::Invalid,
                    "{label}: page {page:#x} uncovered"
                );
            }
        }
    }

    #[test]
    fn demand_residency_classifies_by_kind() {
        let w = tiny_workload();
        let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
        w.demand_residency().apply(&mut mem);
        assert_eq!(mem.page_table.state(w.buffers[0].addr), PageState::CpuDirty);
        assert_eq!(mem.page_table.state(w.buffers[1].addr), PageState::CpuClean);
        assert_eq!(w.input_bytes(), 4096);
    }
}
