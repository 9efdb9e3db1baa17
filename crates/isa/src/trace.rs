//! Dynamic (post-execution) instruction traces.
//!
//! The functional simulator resolves all control flow and memory addresses,
//! so each warp's trace is a *linear* sequence of [`DynInstr`]s. The timing
//! model replays this sequence through the SM pipeline; squashing a faulted
//! instruction and replaying it later simply re-visits the same trace entry,
//! exactly like the paper's replay of the architectural instruction.

use std::sync::{Arc, OnceLock};

use crate::op::{Opcode, Space, Unit};
use crate::reg::RegId;

/// How the timing model must treat a dynamic instruction beyond its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynKind {
    /// Ordinary instruction.
    Normal,
    /// Control-flow instruction (fetch is disabled from fetch to commit).
    Branch,
    /// Thread-block barrier: the warp stalls at issue until all warps of
    /// the block arrive.
    Barrier,
    /// Warp termination (all remaining lanes exited).
    Exit,
}

/// Memory behaviour of one dynamic warp instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRef {
    /// Address space accessed.
    pub space: Space,
    /// True for stores and atomics.
    pub is_store: bool,
    /// Unique 128-byte line addresses touched by the active lanes, i.e. the
    /// coalesced requests the access generates (paper Figure 5: "one memory
    /// request for each unique cache line accessed by the warp").
    /// Empty for shared-memory accesses and fully-predicated-off accesses.
    pub lines: Vec<u64>,
}

impl MemRef {
    /// Unique 4 KB pages covered by the coalesced requests.
    pub fn pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.lines.iter().map(|l| crate::page_of(*l)).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

/// One dynamic warp instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynInstr {
    /// Static PC this instance came from.
    pub pc: u32,
    /// Opcode (used for latency classes and operand-log sizing).
    pub op: Opcode,
    /// Backend unit servicing the instruction.
    pub unit: Unit,
    /// Destination scoreboard id, if the instruction writes a register.
    pub dst: Option<RegId>,
    /// Source scoreboard ids (deduplicated; includes guard/input predicates).
    pub srcs: [Option<RegId>; 4],
    /// Active lane mask at execution.
    pub active: u32,
    /// Memory behaviour, for loads/stores/atomics.
    pub mem: Option<MemRef>,
    /// Special handling class.
    pub kind: DynKind,
    /// True if executing this instruction raises an arithmetic exception
    /// (a division by zero on some active lane). The preemptible schemes
    /// extend to such exceptions exactly like page faults (Sections
    /// 3.1/3.2): squash, run the handler, replay.
    pub traps: bool,
}

impl DynInstr {
    /// Iterate over the present source ids.
    pub fn src_iter(&self) -> impl Iterator<Item = RegId> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// True if this is a global-memory access that can page fault.
    pub fn can_fault(&self) -> bool {
        matches!(&self.mem, Some(m) if m.space == Space::Global && !m.lines.is_empty())
    }

    /// Operand-log slots this instruction needs while in flight
    /// (Section 3.3: loads take one entry — the source address — while
    /// stores take two — source data and destination address).
    pub fn log_slots(&self) -> u32 {
        if !self.can_fault() {
            0
        } else if self.mem.as_ref().is_some_and(|m| m.is_store) {
            2
        } else {
            1
        }
    }
}

/// Trace of one thread block, flattened for the timing hot path.
///
/// All warps' dynamic instructions live in *one* contiguous array with a
/// fencepost table delimiting each warp's slice (warp `w` owns
/// `instrs[starts[w]..starts[w + 1]]`). The SM pipeline walks warps with
/// index-based cursors into this array every cycle, so the layout keeps
/// the walk on a single allocation instead of hopping nested `Vec`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTrace {
    /// Flattened block id within the grid.
    pub block_id: u32,
    /// Every warp's dynamic instructions, concatenated in warp order.
    instrs: Vec<DynInstr>,
    /// Fenceposts into `instrs`: `num_warps + 1` entries, first 0, last
    /// `instrs.len()`.
    starts: Vec<u32>,
}

impl BlockTrace {
    /// Flatten per-warp traces (warp 0 holds threads 0..32, etc., each
    /// in program order) into one contiguous block trace. The warp
    /// buffers are drained, not dropped, so a caller can reuse their
    /// capacity for the next block.
    pub fn new(block_id: u32, warps: &mut [Vec<DynInstr>]) -> Self {
        let total: usize = warps.iter().map(Vec::len).sum();
        let mut instrs = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(warps.len() + 1);
        starts.push(0u32);
        for w in warps {
            instrs.append(w);
            starts.push(instrs.len() as u32);
        }
        BlockTrace { block_id, instrs, starts }
    }

    /// Number of warps in the block.
    pub fn num_warps(&self) -> u32 {
        (self.starts.len() - 1) as u32
    }

    /// Warp `w`'s dynamic instructions in program order.
    #[inline]
    pub fn warp(&self, w: u32) -> &[DynInstr] {
        let lo = self.starts[w as usize] as usize;
        let hi = self.starts[w as usize + 1] as usize;
        &self.instrs[lo..hi]
    }

    /// Per-warp instruction slices, in warp order.
    pub fn warps(&self) -> impl ExactSizeIterator<Item = &[DynInstr]> + '_ {
        self.starts.windows(2).map(|w| &self.instrs[w[0] as usize..w[1] as usize])
    }

    /// The whole block's instructions as one flat slice (warp order).
    pub fn instrs(&self) -> &[DynInstr] {
        &self.instrs
    }

    /// A copy of this block with every global-memory line address offset
    /// by `offset` — multi-tenant runs rebase each tenant's trace into a
    /// private address window so concurrent kernels cannot alias.
    pub fn rebased(&self, offset: u64) -> BlockTrace {
        let mut instrs = self.instrs.clone();
        for i in &mut instrs {
            if let Some(m) = &mut i.mem {
                if m.space == Space::Global {
                    for l in &mut m.lines {
                        *l += offset;
                    }
                }
            }
        }
        BlockTrace { block_id: self.block_id, instrs, starts: self.starts.clone() }
    }

    /// Total dynamic instructions across the block's warps.
    pub fn dyn_instrs(&self) -> u64 {
        self.instrs.len() as u64
    }
}

/// Trace of a whole kernel launch.
///
/// Traces are immutable once built by the functional simulator. Each
/// block is wrapped in an `Arc` at construction, so cloning a trace and
/// filling a run's dispatch queues copy pointers, never instructions.
/// The touched-page set is memoized on first query (every timing run of
/// an all-resident launch asks for it).
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// Kernel name, for reporting.
    pub name: String,
    /// Per-block traces in block-id order.
    pub blocks: Vec<Arc<BlockTrace>>,
    /// Threads per block (flattened).
    pub threads_per_block: u32,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Registers per thread declared by the kernel (drives occupancy).
    pub regs_per_thread: u32,
    /// Shared memory bytes per block (drives occupancy).
    pub shared_bytes: u32,
    /// Memoized [`KernelTrace::touched_pages`] result (derived data, not
    /// part of the trace's identity).
    pages_cache: OnceLock<Vec<u64>>,
}

impl PartialEq for KernelTrace {
    fn eq(&self, other: &Self) -> bool {
        // The page cache is derived from the compared fields; ignore it.
        self.name == other.name
            && self.blocks == other.blocks
            && self.threads_per_block == other.threads_per_block
            && self.warps_per_block == other.warps_per_block
            && self.regs_per_thread == other.regs_per_thread
            && self.shared_bytes == other.shared_bytes
    }
}

impl Eq for KernelTrace {}

impl KernelTrace {
    /// A kernel trace over `blocks` with the given launch geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        blocks: Vec<BlockTrace>,
        threads_per_block: u32,
        warps_per_block: u32,
        regs_per_thread: u32,
        shared_bytes: u32,
    ) -> Self {
        let mut blocks: Vec<_> = blocks.into_iter().map(Arc::new).collect();
        // The collect reuses the `BlockTrace`-sized buffer, seven times
        // what the pointers need.
        blocks.shrink_to_fit();
        KernelTrace {
            name,
            blocks,
            threads_per_block,
            warps_per_block,
            regs_per_thread,
            shared_bytes,
            pages_cache: OnceLock::new(),
        }
    }

    /// Total dynamic instructions in the launch.
    pub fn dyn_instrs(&self) -> u64 {
        self.blocks.iter().map(|b| b.dyn_instrs()).sum()
    }

    /// Unique global-memory pages touched anywhere in the launch, computed
    /// once and cached (the trace is immutable after construction).
    pub fn touched_pages(&self) -> &[u64] {
        self.pages_cache.get_or_init(|| {
            let mut pages: Vec<u64> = self
                .blocks
                .iter()
                .flat_map(|b| b.instrs().iter())
                .filter_map(|i| i.mem.as_ref())
                .filter(|m| m.space == Space::Global)
                .flat_map(|m| m.lines.iter().map(|l| crate::page_of(*l)))
                .collect();
            pages.sort_unstable();
            pages.dedup();
            pages
        })
    }

    /// A copy of this launch with every global-memory address offset by
    /// `offset` (see [`BlockTrace::rebased`]). The copy owns its blocks
    /// and memoizes its own touched-page set.
    pub fn rebased(&self, offset: u64) -> KernelTrace {
        KernelTrace::new(
            self.name.clone(),
            self.blocks.iter().map(|b| b.rebased(offset)).collect(),
            self.threads_per_block,
            self.warps_per_block,
            self.regs_per_thread,
            self.shared_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Width;
    use crate::reg::{Reg, RegId};

    fn mk_mem(op: Opcode, lines: Vec<u64>, is_store: bool, space: Space) -> DynInstr {
        DynInstr {
            pc: 0,
            op,
            unit: Unit::LdSt,
            dst: Some(RegId::gpr(Reg(1))),
            srcs: [Some(RegId::gpr(Reg(2))), None, None, None],
            active: crate::FULL_MASK,
            mem: Some(MemRef { space, is_store, lines }),
            kind: DynKind::Normal,
            traps: false,
        }
    }

    #[test]
    fn pages_dedup_lines() {
        let d = mk_mem(
            Opcode::Ld(Space::Global, Width::B4),
            vec![0, 128, 4096, 4096 + 128],
            false,
            Space::Global,
        );
        assert_eq!(d.mem.as_ref().unwrap().pages(), vec![0, 4096]);
    }

    #[test]
    fn fault_and_log_slot_classification() {
        let ld = mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![0], false, Space::Global);
        assert!(ld.can_fault());
        assert_eq!(ld.log_slots(), 1);

        let st = mk_mem(Opcode::St(Space::Global, Width::B4), vec![0], true, Space::Global);
        assert_eq!(st.log_slots(), 2);

        let sh = mk_mem(Opcode::Ld(Space::Shared, Width::B4), vec![], false, Space::Shared);
        assert!(!sh.can_fault());
        assert_eq!(sh.log_slots(), 0);

        // A global access whose lanes are all predicated off generates no
        // requests and cannot fault.
        let off = mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![], false, Space::Global);
        assert!(!off.can_fault());
    }

    #[test]
    fn kernel_trace_aggregates() {
        let d = mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![8192], false, Space::Global);
        let kt = KernelTrace::new(
            "t".into(),
            vec![BlockTrace::new(0, &mut [vec![d]])],
            32,
            1,
            16,
            0,
        );
        assert_eq!(kt.dyn_instrs(), 1);
        assert_eq!(kt.touched_pages(), vec![8192]);
        // The second query returns the memoized slice.
        assert_eq!(kt.touched_pages().as_ptr(), kt.touched_pages().as_ptr());
    }

    fn two_block_trace() -> KernelTrace {
        let ld = |line| {
            mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![line], false, Space::Global)
        };
        let blocks =
            vec![BlockTrace::new(0, &mut [vec![ld(0)]]), BlockTrace::new(1, &mut [vec![ld(4096)]])];
        KernelTrace::new("t".into(), blocks, 32, 1, 16, 0)
    }

    #[test]
    fn cloning_a_trace_shares_every_block() {
        let kt = two_block_trace();
        let copy = kt.clone();
        assert_eq!(copy, kt);
        assert!(kt.blocks.iter().zip(&copy.blocks).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn rebasing_copies_every_block() {
        let kt = two_block_trace();
        let moved = kt.rebased(1 << 40);
        assert_eq!(moved.touched_pages(), vec![1 << 40, (1 << 40) + 4096]);
        assert!(kt.blocks.iter().zip(&moved.blocks).all(|(a, b)| !Arc::ptr_eq(a, b)));
        assert!(kt.blocks.iter().all(|b| Arc::strong_count(b) == 1));
    }

    #[test]
    fn block_trace_flattening_preserves_warp_slices() {
        let a = mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![0], false, Space::Global);
        let b = mk_mem(Opcode::St(Space::Global, Width::B4), vec![128], true, Space::Global);
        let c = mk_mem(Opcode::Ld(Space::Global, Width::B4), vec![4096], false, Space::Global);
        let mut warps = vec![vec![a.clone(), b.clone()], vec![], vec![c.clone()]];
        let bt = BlockTrace::new(7, &mut warps);
        assert!(warps.iter().all(Vec::is_empty), "the warp buffers are drained");
        assert_eq!(bt.block_id, 7);
        assert_eq!(bt.num_warps(), 3);
        assert_eq!(bt.dyn_instrs(), 3);
        assert_eq!(bt.warp(0), &[a.clone(), b.clone()][..]);
        assert_eq!(bt.warp(1), &[][..]);
        assert_eq!(bt.warp(2), &[c.clone()][..]);
        let collected: Vec<_> = bt.warps().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0], bt.warp(0));
        assert_eq!(collected[2], bt.warp(2));
        // The flat view is the concatenation in warp order.
        assert_eq!(bt.instrs(), &[a, b, c][..]);
    }
}
