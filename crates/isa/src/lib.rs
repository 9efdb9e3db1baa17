//! # gex-isa — ISA and functional simulator for the gex GPU model
//!
//! This crate defines the instruction set executed by the simulated GPU of
//! the MICRO-50 2017 paper *"Efficient Exception Handling Support for
//! GPUs"* reproduction, together with an **execution-driven functional
//! simulator** that runs kernels written in that ISA and emits per-warp
//! dynamic instruction traces.
//!
//! The paper's evaluation consumes "dynamic instruction and memory traces
//! generated by an execution-driven functional simulator" (Section 5.1).
//! We reproduce that split: programs are written against a small SIMT
//! register-machine ISA (an NVIDIA-like ISA with a large unified register
//! file, predication, an explicitly managed divergence stack and
//! fused-multiply-add — the features the paper calls out), executed
//! functionally a warp at a time with per-thread results, and the resulting
//! [`trace::KernelTrace`] is what the cycle-level timing model in
//! `gex-sm`/`gex-sim` consumes.
//!
//! ## Quick tour
//!
//! ```
//! use gex_isa::asm::Asm;
//! use gex_isa::kernel::{Dim3, KernelBuilder};
//! use gex_isa::func::FuncSim;
//! use gex_isa::mem_image::MemImage;
//! use gex_isa::reg::Reg;
//!
//! // A kernel that doubles every element of a buffer of u32s.
//! let mut a = Asm::new();
//! let (tid, val, addr) = (Reg(0), Reg(1), Reg(2));
//! a.gtid(tid); // flattened global thread id
//! a.shl_imm(addr, tid, 2); // 4-byte elements
//! a.add_param(addr, addr, 0); // + base pointer (kernel param 0)
//! a.ld_global_u32(val, addr, 0);
//! a.shl_imm(val, val, 1); // * 2
//! a.st_global_u32(addr, val, 0);
//! a.exit();
//!
//! let kernel = KernelBuilder::new("double", a.assemble().unwrap())
//!     .grid(Dim3::x(1))
//!     .block(Dim3::x(64))
//!     .param(0x1000_0000)
//!     .build()
//!     .unwrap();
//!
//! let mut mem = MemImage::new();
//! for i in 0..64u64 {
//!     mem.write_u32(0x1000_0000 + i * 4, i as u32);
//! }
//! let run = FuncSim::new().run(&kernel, &mut mem).unwrap();
//! assert_eq!(mem.read_u32(0x1000_0000), 0);
//! assert_eq!(mem.read_u32(0x1000_0000 + 4 * 10), 20);
//! assert_eq!(run.trace.blocks.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod error;
pub mod func;
pub mod instr;
pub mod kernel;
pub mod mem_image;
pub mod op;
pub mod operand;
pub mod program;
pub mod reg;
pub mod trace;

pub use error::IsaError;

/// Number of threads in a warp; fixed at 32 like the baseline GPU.
pub const WARP_SIZE: usize = 32;

/// A full lane mask for one warp (all 32 lanes active).
pub const FULL_MASK: u32 = u32::MAX;

/// Size in bytes of a coalesced memory request (one cache line / sector).
pub const LINE_BYTES: u64 = 128;

/// Size in bytes of a GPU page (Section 5.1 assumes 4 KB pages).
pub const PAGE_BYTES: u64 = 4096;

/// Returns the cache-line address (aligned down) that `addr` falls in.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Returns the page address (aligned down) that `addr` falls in.
#[inline]
pub fn page_of(addr: u64) -> u64 {
    addr & !(PAGE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_align_down() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(127), 0);
        assert_eq!(line_of(128), 128);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 4096);
        assert_eq!(page_of(0x1_2345), 0x1_2000);
    }

    #[test]
    fn warp_constants_consistent() {
        assert_eq!(WARP_SIZE, 32);
        assert_eq!(FULL_MASK.count_ones() as usize, WARP_SIZE);
        assert_eq!(LINE_BYTES * 32, PAGE_BYTES); // 32 lines per page
    }
}
