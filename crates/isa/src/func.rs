//! Execution-driven functional simulator.
//!
//! [`FuncSim`] executes a [`Kernel`] against a [`MemImage`] in SIMT fashion
//! (32-lane warps with a PDOM divergence stack) and emits the per-warp
//! [`KernelTrace`] that the timing model consumes — mirroring the paper's
//! split between the execution-driven functional simulator and the
//! cycle-level timing simulator (Section 5.1).
//!
//! Execution is warp-wide: each warp instruction is fetched once, its
//! opcode matched once, and each source operand read once into a 32-lane
//! row (a register row, a broadcast immediate or parameter, or per-lane
//! special values) before a plain lane loop computes the result. The
//! block's register file is laid out structure-of-arrays
//! (`regs[r * threads_per_block + tid]`), so one register of a warp is
//! contiguous, and each warp keeps its predicates as lane masks. Memory
//! side effects (stores, atomics, `malloc`) still run lane by lane in
//! ascending lane order, so the last lane wins on a shared address and
//! atomics stay sequential. The trace fields of each static instruction
//! (destination, sources, unit) are decoded once per run.
//!
//! Warps of a block are interleaved at barrier boundaries, and blocks
//! execute in block-id order, so results are fully deterministic.

use crate::error::IsaError;
use crate::instr::Instruction;
use crate::kernel::Kernel;
use crate::mem_image::{load_le, store_le, MemImage};
use crate::op::{AtomKind, CmpKind, CmpType, Opcode, Space, Unit};
use crate::operand::Operand;
use crate::reg::{Reg, RegId, SpecialReg, NUM_PRED};
use crate::trace::{BlockTrace, DynInstr, DynKind, KernelTrace, MemRef};
use crate::{FULL_MASK, WARP_SIZE};
use std::ops::Range;

/// Sentinel "no reconvergence" PC for the base stack entry.
const NO_RECONV: u32 = u32::MAX;

/// One value per lane of a warp.
type Row = [u64; WARP_SIZE];

/// Aggregate counters from one functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Dynamic warp instructions executed.
    pub dyn_instrs: u64,
    /// Dynamic global loads.
    pub global_loads: u64,
    /// Dynamic global stores.
    pub global_stores: u64,
    /// Dynamic global atomics.
    pub atomics: u64,
    /// Dynamic shared-memory accesses.
    pub shared_accesses: u64,
    /// Barriers executed (warp-level).
    pub barriers: u64,
    /// `malloc` intrinsic executions (warp-level).
    pub mallocs: u64,
    /// Bytes allocated on the device heap.
    pub heap_bytes: u64,
    /// Warp instructions that raised an arithmetic exception
    /// (division by zero).
    pub arithmetic_exceptions: u64,
}

/// Result of a functional run: the dynamic trace plus counters.
#[derive(Debug, Clone)]
pub struct FuncRun {
    /// The dynamic trace, ready for the timing model.
    pub trace: KernelTrace,
    /// Aggregate counters.
    pub stats: FuncStats,
}

/// The functional simulator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FuncSim {
    max_dyn_per_warp: u64,
    max_stack_depth: usize,
}

impl Default for FuncSim {
    fn default() -> Self {
        FuncSim { max_dyn_per_warp: 4_000_000, max_stack_depth: 64 * 1024 }
    }
}

#[derive(Debug, Clone, Copy)]
struct StackEntry {
    pc: u32,
    rpc: u32,
    mask: u32,
}

/// The trace fields of one static instruction, decoded once per run.
struct Decoded {
    op: Opcode,
    unit: Unit,
    dst: Option<RegId>,
    srcs: [Option<RegId>; 4],
}

impl Decoded {
    fn of(ins: &Instruction) -> Self {
        let mut srcs = [None; 4];
        for (slot, id) in srcs.iter_mut().zip(ins.src_ids()) {
            *slot = Some(id);
        }
        Decoded { op: ins.op, unit: ins.op.unit(), dst: ins.dst_ids().first().copied(), srcs }
    }
}

/// Per-warp execution state.
struct WarpExec {
    stack: Vec<StackEntry>,
    exited: u32,
    /// Flattened tid of lane 0.
    base_tid: u32,
    /// Threads in the warp: 32, or fewer in a block's partial last warp.
    lanes: usize,
    /// Predicate registers as lane masks: bit `l` of `preds[p]` is `P<p>`
    /// of lane `l`.
    preds: [u32; NUM_PRED],
    dyn_count: u64,
    /// Set while executing an instruction that raises an arithmetic
    /// exception (division by zero on an active lane).
    trapped: bool,
}

enum WarpEvent {
    Barrier,
    Done,
}

/// The state of the block being executed, reused from block to block.
struct BlockCtx<'a> {
    kernel: &'a Kernel,
    /// Trace fields of every static instruction, indexed by PC.
    decoded: Vec<Decoded>,
    block_id: u32,
    /// Threads per block.
    tpb: usize,
    /// Block-wide register file in structure-of-arrays layout: register
    /// `r` of thread `t` is `regs[r * tpb + t]`, so one register of a warp
    /// is contiguous. Only the registers the program names are backed.
    regs: Vec<u64>,
    shared: Vec<u8>,
    /// Each warp's trace of the block so far. [`BlockTrace::new`] drains
    /// them at the end of the block and their capacity is reused.
    traces: Vec<Vec<DynInstr>>,
}

impl<'a> BlockCtx<'a> {
    fn new(kernel: &'a Kernel) -> Self {
        let tpb = kernel.threads_per_block() as usize;
        BlockCtx {
            kernel,
            decoded: kernel.program.iter().map(|(_, ins)| Decoded::of(ins)).collect(),
            block_id: 0,
            tpb,
            regs: vec![0; gprs_named(kernel) * tpb],
            shared: vec![0; kernel.shared_bytes as usize],
            traces: (0..kernel.warps_per_block()).map(|_| Vec::new()).collect(),
        }
    }

    /// Start block `block_id`: every register and shared byte reads 0.
    fn start(&mut self, block_id: u32) {
        self.block_id = block_id;
        self.regs.fill(0);
        self.shared.fill(0);
    }
}

impl FuncSim {
    /// A simulator with default limits (4 M dynamic instructions per warp,
    /// 64 K divergence-stack entries).
    pub fn new() -> Self {
        FuncSim::default()
    }

    /// Override the per-warp dynamic instruction limit (runaway-loop guard).
    pub fn max_dyn_per_warp(mut self, limit: u64) -> Self {
        self.max_dyn_per_warp = limit;
        self
    }

    /// Run `kernel` to completion against `mem`.
    ///
    /// # Errors
    ///
    /// Propagates any [`IsaError`] raised during execution: malformed
    /// instructions, out-of-range PCs, runaway loops, shared-memory
    /// overflows or heap exhaustion.
    pub fn run(&self, kernel: &Kernel, mem: &mut MemImage) -> Result<FuncRun, IsaError> {
        let mut ctx = BlockCtx::new(kernel);
        let mut stats = FuncStats::default();
        let mut blocks = Vec::with_capacity(kernel.total_blocks() as usize);
        for block_id in 0..kernel.total_blocks() {
            ctx.start(block_id);
            blocks.push(self.run_block(&mut ctx, mem, &mut stats)?);
        }
        Ok(FuncRun {
            trace: KernelTrace::new(
                kernel.name.clone(),
                blocks,
                kernel.threads_per_block(),
                kernel.warps_per_block(),
                kernel.regs_per_thread,
                kernel.shared_bytes,
            ),
            stats,
        })
    }

    fn run_block(
        &self,
        ctx: &mut BlockCtx<'_>,
        mem: &mut MemImage,
        stats: &mut FuncStats,
    ) -> Result<BlockTrace, IsaError> {
        let tpb = ctx.tpb as u32;
        let nwarps = ctx.kernel.warps_per_block();
        let mut warps: Vec<WarpExec> = (0..nwarps)
            .map(|w| {
                let base_tid = w * WARP_SIZE as u32;
                let lanes = (tpb - base_tid).min(WARP_SIZE as u32);
                let valid = if lanes == 32 { FULL_MASK } else { (1u32 << lanes) - 1 };
                WarpExec {
                    stack: vec![StackEntry { pc: 0, rpc: NO_RECONV, mask: valid }],
                    exited: 0,
                    base_tid,
                    lanes: lanes as usize,
                    preds: [0; NUM_PRED],
                    dyn_count: 0,
                    trapped: false,
                }
            })
            .collect();

        let mut live: Vec<bool> = vec![true; nwarps as usize];
        while live.iter().any(|&l| l) {
            for w in 0..nwarps as usize {
                if !live[w] {
                    continue;
                }
                match self.run_warp_until(&mut warps[w], ctx, mem, stats)? {
                    WarpEvent::Barrier => {}
                    WarpEvent::Done => live[w] = false,
                }
            }
            // Permissive barrier semantics: exited warps are discounted, so
            // a round either releases a barrier or retires warps.
        }

        Ok(BlockTrace::new(ctx.block_id, &mut ctx.traces))
    }

    /// Run one warp until it executes a barrier or finishes.
    fn run_warp_until(
        &self,
        warp: &mut WarpExec,
        ctx: &mut BlockCtx<'_>,
        mem: &mut MemImage,
        stats: &mut FuncStats,
    ) -> Result<WarpEvent, IsaError> {
        let kernel = ctx.kernel;
        let program = &kernel.program;
        loop {
            let Some(top) = warp.stack.last().copied() else {
                return Ok(WarpEvent::Done);
            };
            let effective = top.mask & !warp.exited;
            if effective == 0 || top.pc == top.rpc {
                warp.stack.pop();
                continue;
            }
            warp.dyn_count += 1;
            if warp.dyn_count > self.max_dyn_per_warp {
                return Err(IsaError::RunawayThread {
                    block: ctx.block_id,
                    thread: warp.base_tid,
                    limit: self.max_dyn_per_warp,
                });
            }
            let pc = top.pc;
            let ins =
                program.get(pc).ok_or(IsaError::PcOutOfRange { pc, len: program.len() })?;

            // Lanes whose guard predicate passes.
            let exec = warp.guard_mask(ins, effective);

            match ins.op {
                Opcode::Bra => {
                    self.exec_branch(ins, warp, effective, exec, pc)?;
                    ctx.push_trace(warp, pc, effective, None, DynKind::Branch, stats);
                }
                Opcode::Exit => {
                    warp.exited |= exec;
                    ctx.push_trace(warp, pc, effective, None, DynKind::Exit, stats);
                    warp.advance(pc);
                }
                Opcode::Bar => {
                    if ins.guard.is_some() {
                        return Err(IsaError::Malformed { pc, what: "guarded barrier" });
                    }
                    stats.barriers += 1;
                    ctx.push_trace(warp, pc, effective, None, DynKind::Barrier, stats);
                    warp.advance(pc);
                    return Ok(WarpEvent::Barrier);
                }
                _ => {
                    let mem_ref = exec_data(ins, warp, ctx, mem, exec, pc, stats)?;
                    ctx.push_trace(warp, pc, effective, mem_ref, DynKind::Normal, stats);
                    warp.advance(pc);
                }
            }
        }
    }

    fn exec_branch(
        &self,
        ins: &Instruction,
        warp: &mut WarpExec,
        effective: u32,
        taken: u32,
        pc: u32,
    ) -> Result<(), IsaError> {
        let target = ins.target.ok_or(IsaError::Malformed { pc, what: "branch without target" })?;
        let not_taken = effective & !taken;
        let top = warp.stack.last_mut().expect("non-empty stack in exec_branch");
        if taken == 0 {
            top.pc = pc + 1;
        } else if not_taken == 0 {
            top.pc = target;
        } else {
            let reconv = ins
                .reconv
                .ok_or(IsaError::Malformed { pc, what: "divergent branch without reconv" })?;
            let parent = *top;
            warp.stack.pop();
            warp.stack.push(StackEntry { pc: reconv, rpc: parent.rpc, mask: parent.mask });
            warp.stack.push(StackEntry { pc: pc + 1, rpc: reconv, mask: not_taken });
            warp.stack.push(StackEntry { pc: target, rpc: reconv, mask: taken });
            if warp.stack.len() > self.max_stack_depth {
                return Err(IsaError::Malformed { pc, what: "divergence stack overflow" });
            }
        }
        Ok(())
    }
}

impl WarpExec {
    fn advance(&mut self, pc: u32) {
        if let Some(top) = self.stack.last_mut() {
            debug_assert_eq!(top.pc, pc);
            top.pc = pc + 1;
        }
    }

    /// The lanes of `effective` whose guard predicate passes.
    fn guard_mask(&self, ins: &Instruction, effective: u32) -> u32 {
        match ins.guard {
            None => effective,
            Some((p, sense)) => {
                let set = self.preds[p.0 as usize];
                effective & if sense { set } else { !set }
            }
        }
    }
}

/// Execute a data (non-control) instruction on the guard-passing lanes
/// `exec` and return its memory behaviour.
///
/// Operands are read once per warp into rows. Pure computations run over
/// every lane and write back only the `exec` lanes; memory side effects
/// and `malloc` run lane by lane in ascending lane order.
fn exec_data(
    ins: &Instruction,
    warp: &mut WarpExec,
    ctx: &mut BlockCtx<'_>,
    mem: &mut MemImage,
    exec: u32,
    pc: u32,
    stats: &mut FuncStats,
) -> Result<Option<MemRef>, IsaError> {
    let required = |row: Option<Row>, what| row.ok_or(IsaError::Malformed { pc, what });
    match ins.op {
        Opcode::Ld(space, w) => {
            let mut lines = LineSet::new();
            if exec != 0 {
                let addrs = required(ctx.src(ins, 0, warp), "load without address")?;
                let mut vals = [0; WARP_SIZE];
                for lane in lanes(exec) {
                    let addr = addrs[lane].wrapping_add(ins.offset as u64);
                    vals[lane] = match space {
                        Space::Global => {
                            lines.insert(crate::line_of(addr));
                            mem.read(addr, w.bytes())
                        }
                        Space::Shared => ctx.shared_read(addr, w.bytes())?,
                    };
                }
                ctx.write_dst(ins, warp, exec, &vals);
            }
            match space {
                Space::Global => stats.global_loads += 1,
                Space::Shared => stats.shared_accesses += 1,
            }
            Ok(Some(MemRef { space, is_store: false, lines: lines.into_vec() }))
        }
        Opcode::St(space, w) => {
            let mut lines = LineSet::new();
            if exec != 0 {
                let addrs = required(ctx.src(ins, 0, warp), "store without address")?;
                let vals = required(ctx.src(ins, 1, warp), "store without value")?;
                for lane in lanes(exec) {
                    let addr = addrs[lane].wrapping_add(ins.offset as u64);
                    match space {
                        Space::Global => {
                            lines.insert(crate::line_of(addr));
                            mem.write(addr, w.bytes(), vals[lane]);
                        }
                        Space::Shared => ctx.shared_write(addr, w.bytes(), vals[lane])?,
                    }
                }
            }
            match space {
                Space::Global => stats.global_stores += 1,
                Space::Shared => stats.shared_accesses += 1,
            }
            Ok(Some(MemRef { space, is_store: true, lines: lines.into_vec() }))
        }
        Opcode::Atom(kind, w) => {
            let mut lines = LineSet::new();
            if exec != 0 {
                let addrs = required(ctx.src(ins, 0, warp), "atomic without address")?;
                let vals = required(ctx.src(ins, 1, warp), "atomic without value")?;
                let cmps = ctx.src_or_zero(ins, 2, warp);
                let mut olds = [0; WARP_SIZE];
                for lane in lanes(exec) {
                    let addr = addrs[lane].wrapping_add(ins.offset as u64);
                    let v = vals[lane];
                    lines.insert(crate::line_of(addr));
                    let old = mem.read(addr, w.bytes());
                    let new = match kind {
                        AtomKind::Add => old.wrapping_add(v),
                        AtomKind::Max => old.max(v),
                        AtomKind::Min => old.min(v),
                        AtomKind::Exch => v,
                        AtomKind::Cas => {
                            if old == cmps[lane] {
                                v
                            } else {
                                old
                            }
                        }
                    };
                    mem.write(addr, w.bytes(), new);
                    olds[lane] = old;
                }
                ctx.write_dst(ins, warp, exec, &olds);
            }
            stats.atomics += 1;
            Ok(Some(MemRef { space: Space::Global, is_store: true, lines: lines.into_vec() }))
        }
        Opcode::Malloc => {
            if exec != 0 {
                let sizes = required(ctx.src(ins, 0, warp), "malloc without size")?;
                let mut bases = [0; WARP_SIZE];
                for lane in lanes(exec) {
                    bases[lane] = mem.heap_alloc(sizes[lane]).ok_or(IsaError::HeapExhausted)?;
                    stats.heap_bytes += sizes[lane];
                }
                ctx.write_dst(ins, warp, exec, &bases);
            }
            stats.mallocs += 1;
            Ok(None)
        }
        Opcode::Setp(kind, ty) => {
            if exec != 0 {
                let p = ins.pdst.ok_or(IsaError::Malformed { pc, what: "setp without pdst" })?;
                let (a, b) = (ctx.src_or_zero(ins, 0, warp), ctx.src_or_zero(ins, 1, warp));
                let hits = compare_lanes(kind, ty, &a, &b);
                let set = &mut warp.preds[p.0 as usize];
                *set = (*set & !exec) | (hits & exec);
            }
            Ok(None)
        }
        Opcode::Sel => {
            let p = ins.psrc.ok_or(IsaError::Malformed { pc, what: "sel without psrc" })?;
            if exec != 0 {
                let (a, b) = (ctx.src_or_zero(ins, 0, warp), ctx.src_or_zero(ins, 1, warp));
                let set = warp.preds[p.0 as usize];
                let vals = std::array::from_fn(|l| if set & (1 << l) != 0 { a[l] } else { b[l] });
                ctx.write_dst(ins, warp, exec, &vals);
            }
            Ok(None)
        }
        Opcode::Nop => Ok(None),
        // Remaining opcodes are pure ALU.
        op => {
            if exec != 0 {
                let a = ctx.src_or_zero(ins, 0, warp);
                let b = ctx.src_or_zero(ins, 1, warp);
                let c = ctx.src_or_zero(ins, 2, warp);
                if matches!(op, Opcode::Div | Opcode::Rem) {
                    // Only an executing lane's zero divisor traps.
                    warp.trapped = lanes_where(|l| b[l] == 0) & exec != 0;
                }
                ctx.write_dst(ins, warp, exec, &alu_lanes(op, &a, &b, &c));
            }
            Ok(None)
        }
    }
}

impl BlockCtx<'_> {
    /// Append `warp`'s dynamic instance of the instruction at `pc` to its
    /// trace.
    fn push_trace(
        &mut self,
        warp: &mut WarpExec,
        pc: u32,
        active: u32,
        mem: Option<MemRef>,
        kind: DynKind,
        stats: &mut FuncStats,
    ) {
        stats.dyn_instrs += 1;
        let traps = std::mem::take(&mut warp.trapped);
        if traps {
            stats.arithmetic_exceptions += 1;
        }
        let fields = &self.decoded[pc as usize];
        self.traces[warp.base_tid as usize / WARP_SIZE].push(DynInstr {
            pc,
            op: fields.op,
            unit: fields.unit,
            dst: fields.dst,
            srcs: fields.srcs,
            active,
            mem,
            kind,
            traps,
        });
    }

    /// Operand `op` for every lane of `warp`; lanes past a partial warp's
    /// last thread read 0.
    fn row(&self, op: Operand, warp: &WarpExec) -> Row {
        let mut row = [0; WARP_SIZE];
        match op {
            Operand::Reg(r) => {
                row[..warp.lanes].copy_from_slice(&self.regs[self.lanes_of(r, warp)]);
            }
            Operand::Imm(v) => row = [v; WARP_SIZE],
            Operand::Param(i) => {
                row = [self.kernel.params.get(i as usize).copied().unwrap_or(0); WARP_SIZE];
            }
            Operand::Special(s) => {
                for (lane, v) in row[..warp.lanes].iter_mut().enumerate() {
                    *v = self.special_value(s, warp.base_tid + lane as u32);
                }
            }
        }
        row
    }

    /// Source `idx` of `ins` for every lane, if the instruction has one.
    fn src(&self, ins: &Instruction, idx: usize, warp: &WarpExec) -> Option<Row> {
        ins.srcs[idx].map(|op| self.row(op, warp))
    }

    /// Source `idx` of `ins` for every lane, reading 0 if it has none.
    fn src_or_zero(&self, ins: &Instruction, idx: usize, warp: &WarpExec) -> Row {
        self.src(ins, idx, warp).unwrap_or([0; WARP_SIZE])
    }

    /// Where register `r` of `warp`'s threads lives in the register file.
    fn lanes_of(&self, r: Reg, warp: &WarpExec) -> Range<usize> {
        let start = r.0 as usize * self.tpb + warp.base_tid as usize;
        start..start + warp.lanes
    }

    /// Write `vals` to the destination register of `ins`, if it has one,
    /// on the lanes of `mask`.
    fn write_dst(&mut self, ins: &Instruction, warp: &WarpExec, mask: u32, vals: &Row) {
        let Some(d) = ins.dst else { return };
        let range = self.lanes_of(d, warp);
        for (lane, slot) in self.regs[range].iter_mut().enumerate() {
            *slot = if mask & (1 << lane) != 0 { vals[lane] } else { *slot };
        }
    }

    /// The byte range `addr..addr + n` of shared memory, if it lies inside
    /// the block's partition.
    fn shared_range(&self, addr: u64, n: u64) -> Result<Range<usize>, IsaError> {
        let size = self.kernel.shared_bytes;
        match addr.checked_add(n) {
            Some(end) if end <= size as u64 => Ok(addr as usize..end as usize),
            _ => Err(IsaError::SharedOutOfBounds { offset: addr, size }),
        }
    }

    fn shared_read(&self, addr: u64, n: u64) -> Result<u64, IsaError> {
        let range = self.shared_range(addr, n)?;
        Ok(load_le(&self.shared, range.start, n))
    }

    fn shared_write(&mut self, addr: u64, n: u64, val: u64) -> Result<(), IsaError> {
        let range = self.shared_range(addr, n)?;
        store_le(&mut self.shared, range.start, n, val);
        Ok(())
    }

    fn special_value(&self, s: SpecialReg, tid: u32) -> u64 {
        let k = self.kernel;
        let (bx, by) = (k.block.x, k.block.y);
        let (gx, gy) = (k.grid.x, k.grid.y);
        let tx = tid % bx;
        let ty = (tid / bx) % by;
        let tz = tid / (bx * by);
        let cid = self.block_id;
        let cx = cid % gx;
        let cy = (cid / gx) % gy;
        let cz = cid / (gx * gy);
        match s {
            SpecialReg::TidX => tx as u64,
            SpecialReg::TidY => ty as u64,
            SpecialReg::TidZ => tz as u64,
            SpecialReg::CtaIdX => cx as u64,
            SpecialReg::CtaIdY => cy as u64,
            SpecialReg::CtaIdZ => cz as u64,
            SpecialReg::NTidX => k.block.x as u64,
            SpecialReg::NTidY => k.block.y as u64,
            SpecialReg::NTidZ => k.block.z as u64,
            SpecialReg::NCtaIdX => k.grid.x as u64,
            SpecialReg::NCtaIdY => k.grid.y as u64,
            SpecialReg::NCtaIdZ => k.grid.z as u64,
            SpecialReg::LaneId => (tid as usize % WARP_SIZE) as u64,
            SpecialReg::FlatTid => tid as u64,
            SpecialReg::FlatCtaId => cid as u64,
            SpecialReg::GlobalTid => cid as u64 * k.threads_per_block() as u64 + tid as u64,
        }
    }
}

/// One past the highest general-purpose register `kernel` reads or
/// writes: the rows the block register file needs.
fn gprs_named(kernel: &Kernel) -> usize {
    kernel
        .program
        .iter()
        .flat_map(|(_, ins)| {
            ins.dst.into_iter().chain(ins.srcs.iter().filter_map(|s| s.and_then(Operand::reg)))
        })
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Iterate over the set lane indices of a mask, in ascending order.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (lane < WARP_SIZE).then_some(lane)
    })
}

/// The mask of lanes `l` for which `pred(l)` holds.
fn lanes_where(pred: impl Fn(usize) -> bool) -> u32 {
    (0..WARP_SIZE).fold(0, |m, l| m | (pred(l) as u32) << l)
}

/// Small sorted-unique collector for coalesced line addresses.
struct LineSet(Vec<u64>);

impl LineSet {
    fn new() -> Self {
        LineSet(Vec::new())
    }

    fn insert(&mut self, line: u64) {
        if let Err(i) = self.0.binary_search(&line) {
            self.0.insert(i, line);
        }
    }

    fn into_vec(self) -> Vec<u64> {
        self.0
    }
}

fn f(a: u64) -> f32 {
    f32::from_bits(a as u32)
}

fn fb(v: f32) -> u64 {
    v.to_bits() as u64
}

/// The lanes where `a kind b` holds, comparing as `ty`: the kind and type
/// are matched once, then one plain loop runs over the lanes.
fn compare_lanes(kind: CmpKind, ty: CmpType, a: &Row, b: &Row) -> u32 {
    fn each<T: PartialOrd>(kind: CmpKind, a: &Row, b: &Row, conv: impl Fn(u64) -> T) -> u32 {
        let holds = |test: fn(&T, &T) -> bool| lanes_where(|l| test(&conv(a[l]), &conv(b[l])));
        match kind {
            CmpKind::Eq => holds(T::eq),
            CmpKind::Ne => holds(T::ne),
            CmpKind::Lt => holds(T::lt),
            CmpKind::Le => holds(T::le),
            CmpKind::Gt => holds(T::gt),
            CmpKind::Ge => holds(T::ge),
        }
    }
    match ty {
        CmpType::U64 => each(kind, a, b, |x| x),
        CmpType::S64 => each(kind, a, b, |x| x as i64),
        CmpType::F32 => each(kind, a, b, f),
    }
}

/// `op` on every lane: the opcode is matched once, then one plain loop
/// runs over the lanes.
fn alu_lanes(op: Opcode, a: &Row, b: &Row, c: &Row) -> Row {
    fn each(a: &Row, b: &Row, c: &Row, f: impl Fn(u64, u64, u64) -> u64) -> Row {
        std::array::from_fn(|l| f(a[l], b[l], c[l]))
    }
    match op {
        Opcode::Mov => *a,
        Opcode::Add => each(a, b, c, |x, y, _| x.wrapping_add(y)),
        Opcode::Sub => each(a, b, c, |x, y, _| x.wrapping_sub(y)),
        Opcode::Mul => each(a, b, c, |x, y, _| x.wrapping_mul(y)),
        Opcode::Mad => each(a, b, c, |x, y, z| x.wrapping_mul(y).wrapping_add(z)),
        Opcode::Min => each(a, b, c, |x, y, _| x.min(y)),
        Opcode::Max => each(a, b, c, |x, y, _| x.max(y)),
        Opcode::Shl => each(a, b, c, |x, y, _| x.wrapping_shl((y & 63) as u32)),
        Opcode::Shr => each(a, b, c, |x, y, _| x.wrapping_shr((y & 63) as u32)),
        Opcode::And => each(a, b, c, |x, y, _| x & y),
        Opcode::Or => each(a, b, c, |x, y, _| x | y),
        Opcode::Xor => each(a, b, c, |x, y, _| x ^ y),
        Opcode::Not => each(a, b, c, |x, _, _| !x),
        Opcode::Rem => each(a, b, c, |x, y, _| x.checked_rem(y).unwrap_or(0)),
        Opcode::Div => each(a, b, c, |x, y, _| x.checked_div(y).unwrap_or(u64::MAX)),
        Opcode::FAdd => each(a, b, c, |x, y, _| fb(f(x) + f(y))),
        Opcode::FSub => each(a, b, c, |x, y, _| fb(f(x) - f(y))),
        Opcode::FMul => each(a, b, c, |x, y, _| fb(f(x) * f(y))),
        Opcode::FFma => each(a, b, c, |x, y, z| fb(f(x).mul_add(f(y), f(z)))),
        Opcode::FMin => each(a, b, c, |x, y, _| fb(f(x).min(f(y)))),
        Opcode::FMax => each(a, b, c, |x, y, _| fb(f(x).max(f(y)))),
        Opcode::I2F => each(a, b, c, |x, _, _| fb(x as i64 as f32)),
        Opcode::F2I => each(a, b, c, |x, _, _| f(x) as i64 as u64),
        Opcode::FRcp => each(a, b, c, |x, _, _| fb(1.0 / f(x))),
        Opcode::FSqrt => each(a, b, c, |x, _, _| fb(f(x).sqrt())),
        Opcode::FRsqrt => each(a, b, c, |x, _, _| fb(1.0 / f(x).sqrt())),
        Opcode::FSin => each(a, b, c, |x, _, _| fb(f(x).sin())),
        Opcode::FCos => each(a, b, c, |x, _, _| fb(f(x).cos())),
        Opcode::FExp2 => each(a, b, c, |x, _, _| fb(f(x).exp2())),
        Opcode::FLog2 => each(a, b, c, |x, _, _| fb(f(x).log2())),
        _ => unreachable!("non-ALU opcode {op:?} routed to alu_lanes()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::Pred;
    use crate::kernel::{Dim3, KernelBuilder};
    use crate::op::Unit;
    use crate::reg::SpecialReg;

    fn launch(a: Asm, grid: u32, block: u32, params: Vec<u64>) -> (Kernel, MemImage) {
        let k = KernelBuilder::new("t", a.assemble().unwrap())
            .grid(Dim3::x(grid))
            .block(Dim3::x(block))
            .params(params)
            .build()
            .unwrap();
        (k, MemImage::new())
    }

    #[test]
    fn straight_line_alu() {
        let mut a = Asm::new();
        a.mov(Reg(0), 5u64);
        a.add(Reg(1), Reg(0), 7u64);
        a.mul(Reg(2), Reg(1), Reg(1));
        a.shl_imm(Reg(3), Reg(2), 2);
        // store result so we can observe it
        a.mov(Reg(4), 0x1000u64);
        a.st_global_u64(Reg(4), Reg(3), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 1, vec![]);
        FuncSim::new().run(&k, &mut mem).unwrap();
        assert_eq!(mem.read_u64(0x1000), (5 + 7) * (5 + 7) * 4);
    }

    #[test]
    fn per_lane_addresses_coalesce() {
        // each thread stores to base + 4*gtid: 32 lanes cover one 128B line
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.shl_imm(Reg(1), Reg(0), 2);
        a.add_param(Reg(1), Reg(1), 0);
        a.st_global_u32(Reg(1), Reg(0), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x2000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        let w = run.trace.blocks[0].warp(0);
        let st = w.iter().find(|i| i.mem.as_ref().is_some_and(|m| m.is_store)).unwrap();
        assert_eq!(st.mem.as_ref().unwrap().lines, vec![0x2000]);
        assert_eq!(mem.read_u32(0x2000 + 4 * 31), 31);
    }

    #[test]
    fn strided_access_generates_many_requests() {
        // stride of 128B: every lane hits its own line
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.shl_imm(Reg(1), Reg(0), 7);
        a.add_param(Reg(1), Reg(1), 0);
        a.ld_global_u32(Reg(2), Reg(1), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x4000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        let ld = run.trace.blocks[0]
            .warp(0)
            .iter()
            .find(|i| i.mem.as_ref().is_some_and(|m| !m.is_store))
            .unwrap();
        assert_eq!(ld.mem.as_ref().unwrap().lines.len(), 32);
    }

    #[test]
    fn divergent_if_else_covers_both_paths() {
        // even lanes write 1, odd lanes write 2
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.and(Reg(1), Reg(0), 1u64);
        a.setp(Pred(0), CmpKind::Eq, CmpType::U64, Reg(1), 0u64);
        a.if_begin(Pred(0), true);
        a.mov(Reg(2), 1u64);
        a.else_begin();
        a.mov(Reg(2), 2u64);
        a.if_end();
        a.shl_imm(Reg(3), Reg(0), 2);
        a.add_param(Reg(3), Reg(3), 0);
        a.st_global_u32(Reg(3), Reg(2), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x3000]);
        FuncSim::new().run(&k, &mut mem).unwrap();
        for i in 0..32u64 {
            assert_eq!(mem.read_u32(0x3000 + 4 * i), if i % 2 == 0 { 1 } else { 2 }, "lane {i}");
        }
    }

    #[test]
    fn divergent_loop_trip_counts() {
        // each thread loops (gtid % 4 + 1) times, accumulating
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.and(Reg(1), Reg(0), 3u64);
        a.add(Reg(1), Reg(1), 1u64); // trips
        a.mov(Reg(2), 0u64); // counter
        a.label("top");
        a.add(Reg(2), Reg(2), 1u64);
        a.setp(Pred(0), CmpKind::Lt, CmpType::U64, Reg(2), Reg(1));
        a.bra_if("top", Pred(0), true);
        a.shl_imm(Reg(3), Reg(0), 2);
        a.add_param(Reg(3), Reg(3), 0);
        a.st_global_u32(Reg(3), Reg(2), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x5000]);
        FuncSim::new().run(&k, &mut mem).unwrap();
        for i in 0..32u64 {
            assert_eq!(mem.read_u32(0x5000 + 4 * i), (i % 4 + 1) as u32, "lane {i}");
        }
    }

    #[test]
    fn barrier_orders_shared_memory_phases() {
        // warp 1 reads what warp 0 wrote, separated by a barrier
        let mut a = Asm::new();
        a.flat_tid(Reg(0));
        a.shl_imm(Reg(1), Reg(0), 2);
        a.st_shared_u32(Reg(1), Reg(0), 0); // shared[tid] = tid
        a.bar();
        // read neighbour from the other warp: (tid + 32) % 64
        a.add(Reg(2), Reg(0), 32u64);
        a.and(Reg(2), Reg(2), 63u64);
        a.shl_imm(Reg(3), Reg(2), 2);
        a.ld_shared_u32(Reg(4), Reg(3), 0);
        a.gtid(Reg(5));
        a.shl_imm(Reg(5), Reg(5), 2);
        a.add_param(Reg(5), Reg(5), 0);
        a.st_global_u32(Reg(5), Reg(4), 0);
        a.exit();
        let k = KernelBuilder::new("t", a.assemble().unwrap())
            .grid(Dim3::x(1))
            .block(Dim3::x(64))
            .shared_bytes(256)
            .param(0x6000)
            .build()
            .unwrap();
        let mut mem = MemImage::new();
        FuncSim::new().run(&k, &mut mem).unwrap();
        for i in 0..64u64 {
            assert_eq!(mem.read_u32(0x6000 + 4 * i), ((i + 32) % 64) as u32, "tid {i}");
        }
    }

    #[test]
    fn atomics_accumulate_across_blocks() {
        let mut a = Asm::new();
        a.mov_param(Reg(0), 0);
        a.mov(Reg(1), 1u64);
        a.atom_add_u32(Reg(2), Reg(0), Reg(1));
        a.exit();
        let (k, mut mem) = launch(a, 4, 64, vec![0x7000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0x7000), 256);
        assert_eq!(run.stats.atomics, 4 * 2); // 4 blocks x 2 warps
    }

    #[test]
    fn malloc_returns_distinct_chunks() {
        let mut a = Asm::new();
        a.malloc(Reg(0), 64u64);
        a.gtid(Reg(1));
        a.st_global_u32(Reg(0), Reg(1), 0); // touch the allocation
        a.shl_imm(Reg(2), Reg(1), 3);
        a.add_param(Reg(2), Reg(2), 0);
        a.st_global_u64(Reg(2), Reg(0), 0); // record the pointer
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x8000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        let mut ptrs: Vec<u64> = (0..32).map(|i| mem.read_u64(0x8000 + 8 * i)).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 32, "each lane gets its own allocation");
        assert!(ptrs[0] >= crate::mem_image::HEAP_BASE);
        assert_eq!(run.stats.mallocs, 1);
        assert_eq!(run.stats.heap_bytes, 64 * 32);
    }

    #[test]
    fn guard_disables_lanes_not_instruction() {
        // odd lanes skip the store via a sticky guard
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.and(Reg(1), Reg(0), 1u64);
        a.setp(Pred(0), CmpKind::Eq, CmpType::U64, Reg(1), 0u64);
        a.shl_imm(Reg(2), Reg(0), 2);
        a.add_param(Reg(2), Reg(2), 0);
        a.mov(Reg(3), 9u64);
        a.guard(Pred(0), true);
        a.st_global_u32(Reg(2), Reg(3), 0);
        a.unguard();
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0x9000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        for i in 0..32u64 {
            let expect = if i % 2 == 0 { 9 } else { 0 };
            assert_eq!(mem.read_u32(0x9000 + 4 * i), expect, "lane {i}");
        }
        // the store still appears once in the trace with the full mask active
        let st = run.trace.blocks[0]
            .warp(0)
            .iter()
            .find(|i| i.mem.as_ref().is_some_and(|m| m.is_store))
            .unwrap();
        assert_eq!(st.active, FULL_MASK);
        // only even lanes generated addresses: 16 lanes x 4B within one line
        assert_eq!(st.mem.as_ref().unwrap().lines.len(), 1);
    }

    #[test]
    fn runaway_loop_detected() {
        let mut a = Asm::new();
        a.label("x");
        a.bra("x");
        let (k, mut mem) = launch(a, 1, 32, vec![]);
        let err = FuncSim::new().max_dyn_per_warp(1000).run(&k, &mut mem).unwrap_err();
        assert!(matches!(err, IsaError::RunawayThread { .. }));
    }

    #[test]
    fn shared_oob_detected() {
        let mut a = Asm::new();
        a.mov(Reg(0), 1024u64);
        a.ld_shared_u32(Reg(1), Reg(0), 0);
        a.exit();
        let k = KernelBuilder::new("t", a.assemble().unwrap())
            .block(Dim3::x(32))
            .shared_bytes(64)
            .build()
            .unwrap();
        let mut mem = MemImage::new();
        let err = FuncSim::new().run(&k, &mut mem).unwrap_err();
        assert!(matches!(err, IsaError::SharedOutOfBounds { .. }));
    }

    #[test]
    fn partial_warp_masks_invalid_lanes() {
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.shl_imm(Reg(1), Reg(0), 2);
        a.add_param(Reg(1), Reg(1), 0);
        a.st_global_u32(Reg(1), Reg(0), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 40, vec![0xa000]); // 1 full + 1 partial warp
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        let w1 = run.trace.blocks[0].warp(1);
        assert_eq!(w1[0].active.count_ones(), 8);
        assert_eq!(mem.read_u32(0xa000 + 4 * 39), 39);
        assert_eq!(mem.read_u32(0xa000 + 4 * 40), 0);
    }

    #[test]
    fn trace_units_and_kinds() {
        let mut a = Asm::new();
        a.frsqrt(Reg(0), Reg(0));
        a.bar();
        a.exit();
        let k = KernelBuilder::new("t", a.assemble().unwrap()).block(Dim3::x(32)).build().unwrap();
        let mut mem = MemImage::new();
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        let instrs = run.trace.blocks[0].warp(0);
        assert_eq!(instrs[0].unit, Unit::Sfu);
        assert_eq!(instrs[1].kind, DynKind::Barrier);
        assert_eq!(instrs[2].kind, DynKind::Exit);
    }

    #[test]
    fn sfu_math_values() {
        let mut a = Asm::new();
        a.mov_f32(Reg(0), 4.0);
        a.fsqrt(Reg(1), Reg(0));
        a.frcp(Reg(2), Reg(1));
        a.mov(Reg(3), 0x100u64);
        a.st_global_u32(Reg(3), Reg(1), 0);
        a.st_global_u32(Reg(3), Reg(2), 4);
        a.exit();
        let (k, mut mem) = launch(a, 1, 1, vec![]);
        FuncSim::new().run(&k, &mut mem).unwrap();
        assert_eq!(mem.read_f32(0x100), 2.0);
        assert_eq!(mem.read_f32(0x104), 0.5);
    }

    #[test]
    fn partial_last_warp_stays_inside_the_block() {
        // 2 blocks of 40 threads: warp 1 of each block has 8 lanes. Every
        // thread computes through registers, a predicate and a select,
        // then stores one u64 at base + 8 * gtid.
        let mut a = Asm::new();
        a.gtid(Reg(0));
        a.mad(Reg(1), Reg(0), 3u64, 1u64);
        a.add(Reg(1), Reg(1), Reg(7)); // R7 is not yet written: reads 0
        a.and(Reg(2), Reg(0), 1u64);
        a.setp(Pred(0), CmpKind::Eq, CmpType::U64, Reg(2), 1u64);
        a.sel(Reg(3), Pred(0), Reg(1), 7u64);
        a.shl_imm(Reg(4), Reg(0), 3);
        a.add_param(Reg(4), Reg(4), 0);
        a.st_global_u64(Reg(4), Reg(3), 0);
        a.mov(Reg(7), 99u64); // must not leak into the next block
        a.exit();
        let (k, mut mem) = launch(a, 2, 40, vec![0xb000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        for g in 0..80u64 {
            let expect = if g % 2 == 1 { 3 * g + 1 } else { 7 };
            assert_eq!(mem.read_u64(0xb000 + 8 * g), expect, "gtid {g}");
        }
        assert_eq!(mem.read_u64(0xb000 + 8 * 80), 0, "nothing past the last thread");
        for block in &run.trace.blocks {
            assert_eq!(block.num_warps(), 2);
            assert!(block.warp(0).iter().all(|i| i.active == FULL_MASK));
            assert!(block.warp(1).iter().all(|i| i.active == 0xff));
        }
        assert_eq!(run.stats.global_stores, 4);
    }

    /// Lane 0 divides by zero, every other lane `l` divides 100 by `l`:
    /// a first region runs `div` on lanes `1..`, a second runs `rem` and
    /// `div` on lanes `0..second` (empty for 0), then every lane stores
    /// its quotient register.
    fn divergent_div(second: u64) -> (FuncRun, MemImage) {
        let mut a = Asm::new();
        a.flat_tid(Reg(0));
        a.mov(Reg(1), 100u64);
        a.setp(Pred(0), CmpKind::Lt, CmpType::U64, Reg(0), second);
        a.setp(Pred(1), CmpKind::Ne, CmpType::U64, Reg(0), 0u64);
        a.if_begin(Pred(1), true);
        a.div(Reg(2), Reg(1), Reg(0));
        a.if_end();
        a.if_begin(Pred(0), true);
        a.rem(Reg(3), Reg(1), Reg(0));
        a.div(Reg(2), Reg(1), Reg(0));
        a.if_end();
        a.shl_imm(Reg(4), Reg(0), 3);
        a.add_param(Reg(4), Reg(4), 0);
        a.st_global_u64(Reg(4), Reg(2), 0);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0xc000]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        (run, mem)
    }

    #[test]
    fn divide_by_zero_traps_only_on_an_active_lane() {
        // Lane 0's zero divisor is masked off by divergence: no trap.
        let (run, mem) = divergent_div(0);
        assert_eq!(run.stats.arithmetic_exceptions, 0);
        assert!(run.trace.blocks[0].warp(0).iter().all(|i| !i.traps));
        assert_eq!(mem.read_u64(0xc000 + 8 * 5), 20);
        assert_eq!(mem.read_u64(0xc000), 0, "lane 0 never divided");

        // Lane 0 is active in the second region: its rem and div trap,
        // the first region's div does not.
        let (run, mem) = divergent_div(3);
        assert_eq!(run.stats.arithmetic_exceptions, 2);
        let divs: Vec<(Opcode, bool)> = run.trace.blocks[0]
            .warp(0)
            .iter()
            .filter(|i| matches!(i.op, Opcode::Div | Opcode::Rem))
            .map(|i| (i.op, i.traps))
            .collect();
        assert_eq!(divs, vec![(Opcode::Div, false), (Opcode::Rem, true), (Opcode::Div, true)]);
        assert_eq!(mem.read_u64(0xc000), u64::MAX, "x / 0 reads all ones");
        assert_eq!(mem.read_u64(0xc000 + 8 * 2), 50);
    }

    #[test]
    fn lanes_storing_to_one_address_apply_in_lane_order() {
        // Every lane stores its id to one word (the last lane wins), odd
        // lanes store theirs to a second word through a guard (the last odd
        // lane wins), and every lane exchanges its id into a third word, so
        // each lane gets back the previous lane's id.
        let mut a = Asm::new();
        a.flat_tid(Reg(0));
        a.mov_param(Reg(1), 0);
        a.st_global_u32(Reg(1), Reg(0), 0);
        a.and(Reg(2), Reg(0), 1u64);
        a.setp(Pred(0), CmpKind::Eq, CmpType::U64, Reg(2), 1u64);
        a.guard(Pred(0), true);
        a.st_global_u32(Reg(1), Reg(0), 4);
        a.unguard();
        a.atom(AtomKind::Exch, crate::op::Width::B4, Reg(4), Reg(1), Reg(0), 8);
        a.shl_imm(Reg(5), Reg(0), 2);
        a.add(Reg(5), Reg(5), Reg(1));
        a.st_global_u32(Reg(5), Reg(4), 64);
        a.exit();
        let (k, mut mem) = launch(a, 1, 32, vec![0xd000]);
        mem.write_u32(0xd008, 1000);
        FuncSim::new().run(&k, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0xd000), 31, "the last lane's store wins");
        assert_eq!(mem.read_u32(0xd004), 31, "the last guarded-on lane's store wins");
        assert_eq!(mem.read_u32(0xd008), 31, "the last exchange wins");
        assert_eq!(mem.read_u32(0xd000 + 64), 1000, "lane 0 saw the initial value");
        for lane in 1..32u64 {
            assert_eq!(mem.read_u32(0xd000 + 64 + 4 * lane), lane as u32 - 1, "lane {lane}");
        }
    }

    #[test]
    fn special_operands_feed_alu_ops_per_lane() {
        // A 2-D block (8 x 8) in a 3-block grid: specials go straight into
        // ALU ops, without a `mov` first.
        let mut a = Asm::new();
        a.mad(Reg(0), SpecialReg::TidY, SpecialReg::NTidX, SpecialReg::TidX);
        a.mul(Reg(1), SpecialReg::CtaIdX, 1000u64);
        a.add(Reg(1), Reg(1), Reg(0));
        a.sub(Reg(2), SpecialReg::GlobalTid, SpecialReg::FlatTid);
        a.mad(Reg(1), Reg(1), 100u64, SpecialReg::LaneId);
        a.add(Reg(1), Reg(1), Reg(2));
        a.mul(Reg(4), SpecialReg::GlobalTid, 8u64);
        a.add_param(Reg(4), Reg(4), 0);
        a.st_global_u64(Reg(4), Reg(1), 0);
        a.exit();
        let k = KernelBuilder::new("t", a.assemble().unwrap())
            .grid(Dim3::x(3))
            .block(Dim3::xy(8, 8))
            .param(0xe000)
            .build()
            .unwrap();
        let mut mem = MemImage::new();
        FuncSim::new().run(&k, &mut mem).unwrap();
        for cta in 0..3u64 {
            for tid in 0..64u64 {
                let expect = (cta * 1000 + tid) * 100 + tid % 32 + cta * 64;
                assert_eq!(mem.read_u64(0xe000 + 8 * (cta * 64 + tid)), expect, "{cta}/{tid}");
            }
        }
    }

    #[test]
    fn page_straddling_u64_load_and_store() {
        // One thread stores a u64 across a page boundary, loads it back and
        // copies it into the middle of a page; a second load reads an
        // untouched straddling word as 0 and materializes nothing.
        let straddle = 3 * crate::PAGE_BYTES - 4;
        let mut a = Asm::new();
        a.mov(Reg(0), straddle);
        a.mov(Reg(1), 0x1122_3344_5566_7788u64);
        a.st_global_u64(Reg(0), Reg(1), 0);
        a.ld_global_u64(Reg(2), Reg(0), 0);
        a.ld_global_u64(Reg(3), Reg(0), 2 * crate::PAGE_BYTES as i64);
        a.mov(Reg(4), 0x10_0000u64);
        a.st_global_u64(Reg(4), Reg(2), 0);
        a.st_global_u64(Reg(4), Reg(3), 8);
        a.exit();
        let (k, mut mem) = launch(a, 1, 1, vec![]);
        let run = FuncSim::new().run(&k, &mut mem).unwrap();
        assert_eq!(mem.read_u64(0x10_0000), 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u32(straddle), 0x5566_7788);
        assert_eq!(mem.read_u32(straddle + 4), 0x1122_3344);
        assert_eq!(mem.read_u64(0x10_0008), 0);
        assert_eq!(
            mem.touched_pages(),
            vec![2 * crate::PAGE_BYTES, 3 * crate::PAGE_BYTES, 0x10_0000],
            "the untouched straddling load materialized nothing"
        );
        let st = run.trace.blocks[0].warp(0).iter().find(|i| i.pc == 2).unwrap();
        assert_eq!(st.mem.as_ref().unwrap().lines, vec![crate::line_of(straddle)]);
    }

    #[test]
    fn huge_malloc_is_heap_exhaustion() {
        let mut a = Asm::new();
        a.malloc(Reg(0), u64::MAX);
        a.exit();
        let (k, mut mem) = launch(a, 1, 1, vec![]);
        let err = FuncSim::new().run(&k, &mut mem).unwrap_err();
        assert_eq!(err, IsaError::HeapExhausted);
        assert_eq!(mem.heap_brk(), crate::mem_image::HEAP_BASE, "the break did not move");
    }

    #[test]
    fn wild_shared_address_is_out_of_bounds() {
        let mut a = Asm::new();
        a.mov(Reg(0), u64::MAX - 1);
        a.st_shared_u32(Reg(0), Reg(0), 0);
        a.exit();
        let k = KernelBuilder::new("t", a.assemble().unwrap())
            .block(Dim3::x(32))
            .shared_bytes(64)
            .build()
            .unwrap();
        let err = FuncSim::new().run(&k, &mut MemImage::new()).unwrap_err();
        assert_eq!(err, IsaError::SharedOutOfBounds { offset: u64::MAX - 1, size: 64 });
    }
}
