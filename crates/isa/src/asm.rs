//! A small assembler DSL for writing kernels.
//!
//! [`Asm`] provides one method per opcode plus labels, predicated branches
//! with automatic reconvergence points, and structured `if`/`else` blocks.
//! All value-producing methods accept anything convertible to
//! [`Operand`] (registers, integer immediates, special registers).
//!
//! ```
//! use gex_isa::asm::Asm;
//! use gex_isa::reg::{Pred, Reg};
//! use gex_isa::op::{CmpKind, CmpType};
//!
//! // for (i = gtid; i < 64; i += 32) sum += i;
//! let mut a = Asm::new();
//! let (i, sum) = (Reg(0), Reg(1));
//! a.gtid(i);
//! a.mov(sum, 0u64);
//! a.label("top");
//! a.add(sum, sum, i);
//! a.add(i, i, 32u64);
//! a.setp(Pred(0), CmpKind::Lt, CmpType::U64, i, 64u64);
//! a.bra_if("top", Pred(0), true);
//! a.exit();
//! let program = a.assemble().unwrap();
//! assert!(program.len() > 0);
//! ```

use crate::error::IsaError;
use crate::instr::Instruction;
use crate::op::{AtomKind, CmpKind, CmpType, Opcode, Space, Width};
use crate::operand::Operand;
use crate::program::Program;
use crate::reg::{Pred, Reg, SpecialReg};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Fixup {
    instr: usize,
    label: String,
    /// Also set the reconvergence PC using the auto rule (conditional
    /// branches only).
    auto_reconv: bool,
}

#[derive(Debug)]
struct IfCtx {
    /// Index of the conditional branch that skips the `then` body.
    skip_branch: usize,
    /// Index of the unconditional branch at the end of the `then` body
    /// (present once `else_begin` ran).
    end_branch: Option<usize>,
}

/// Incremental program builder. See the [module docs](self) for an example.
#[derive(Debug, Default)]
pub struct Asm {
    instrs: Vec<Instruction>,
    labels: HashMap<String, u32>,
    fixups: Vec<Fixup>,
    ifs: Vec<IfCtx>,
    sticky_guard: Option<(Pred, bool)>,
    next_auto_label: u32,
    error: Option<IsaError>,
}

impl Asm {
    /// A fresh, empty assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current PC (index of the next emitted instruction).
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn emit(&mut self, mut ins: Instruction) -> &mut Self {
        if ins.guard.is_none() {
            ins.guard = self.sticky_guard;
        }
        self.instrs.push(ins);
        self
    }

    fn alu(&mut self, op: Opcode, dst: Reg, srcs: &[Operand]) -> &mut Self {
        let mut ins = Instruction::new(op);
        ins.dst = Some(dst);
        for (i, s) in srcs.iter().enumerate() {
            ins.srcs[i] = Some(*s);
        }
        self.emit(ins)
    }

    // ---------------------------------------------------------------- guards

    /// Make every subsequently emitted instruction guarded by
    /// `@pred == sense` until [`Asm::unguard`] is called. Instructions that
    /// set their own guard (e.g. [`Asm::bra_if`]) are unaffected.
    pub fn guard(&mut self, pred: Pred, sense: bool) -> &mut Self {
        self.sticky_guard = Some((pred, sense));
        self
    }

    /// Clear the sticky guard installed by [`Asm::guard`].
    pub fn unguard(&mut self) -> &mut Self {
        self.sticky_guard = None;
        self
    }

    // --------------------------------------------------------- integer ALU

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Mov, dst, &[src.into()])
    }

    /// `dst = f32 immediate`
    pub fn mov_f32(&mut self, dst: Reg, v: f32) -> &mut Self {
        self.alu(Opcode::Mov, dst, &[Operand::imm_f32(v)])
    }

    /// `dst = param[i]` — kernel launch argument `i`.
    pub fn mov_param(&mut self, dst: Reg, i: u8) -> &mut Self {
        self.alu(Opcode::Mov, dst, &[Operand::Param(i)])
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Add, dst, &[a.into(), b.into()])
    }

    /// `dst = a + param[i]`
    pub fn add_param(&mut self, dst: Reg, a: Reg, i: u8) -> &mut Self {
        self.alu(Opcode::Add, dst, &[Operand::Reg(a), Operand::Param(i)])
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Sub, dst, &[a.into(), b.into()])
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Mul, dst, &[a.into(), b.into()])
    }

    /// `dst = a * b + c`
    pub fn mad(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.alu(Opcode::Mad, dst, &[a.into(), b.into(), c.into()])
    }

    /// `dst = min(a, b)` (unsigned)
    pub fn min(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Min, dst, &[a.into(), b.into()])
    }

    /// `dst = max(a, b)` (unsigned)
    pub fn max(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Max, dst, &[a.into(), b.into()])
    }

    /// `dst = a << b`
    pub fn shl(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Shl, dst, &[a.into(), b.into()])
    }

    /// `dst = a << imm`
    pub fn shl_imm(&mut self, dst: Reg, a: Reg, imm: u64) -> &mut Self {
        self.shl(dst, a, imm)
    }

    /// `dst = a >> b` (logical)
    pub fn shr(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Shr, dst, &[a.into(), b.into()])
    }

    /// `dst = a >> imm`
    pub fn shr_imm(&mut self, dst: Reg, a: Reg, imm: u64) -> &mut Self {
        self.shr(dst, a, imm)
    }

    /// `dst = a & b`
    pub fn and(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::And, dst, &[a.into(), b.into()])
    }

    /// `dst = a | b`
    pub fn or(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Or, dst, &[a.into(), b.into()])
    }

    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Xor, dst, &[a.into(), b.into()])
    }

    /// `dst = !a`
    pub fn not(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Not, dst, &[a.into()])
    }

    /// `dst = a % b` (unsigned)
    pub fn rem(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Rem, dst, &[a.into(), b.into()])
    }

    /// `dst = a / b` (unsigned)
    pub fn div(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::Div, dst, &[a.into(), b.into()])
    }

    // ------------------------------------------------------------- f32 ALU

    /// `dst = a + b` (f32)
    pub fn fadd(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FAdd, dst, &[a.into(), b.into()])
    }

    /// `dst = a - b` (f32)
    pub fn fsub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FSub, dst, &[a.into(), b.into()])
    }

    /// `dst = a * b` (f32)
    pub fn fmul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FMul, dst, &[a.into(), b.into()])
    }

    /// `dst = a * b + c` (fused, f32)
    pub fn ffma(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.alu(Opcode::FFma, dst, &[a.into(), b.into(), c.into()])
    }

    /// `dst = (f32)(i64)a`
    pub fn i2f(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::I2F, dst, &[a.into()])
    }

    /// `dst = (i64)(f32)a` (truncating)
    pub fn f2i(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::F2I, dst, &[a.into()])
    }

    // ----------------------------------------------------------------- SFU

    /// `dst = 1/a` (f32, SFU)
    pub fn frcp(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FRcp, dst, &[a.into()])
    }

    /// `dst = sqrt(a)` (f32, SFU)
    pub fn fsqrt(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FSqrt, dst, &[a.into()])
    }

    /// `dst = 1/sqrt(a)` (f32, SFU)
    pub fn frsqrt(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FRsqrt, dst, &[a.into()])
    }

    /// `dst = sin(a)` (f32, SFU)
    pub fn fsin(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FSin, dst, &[a.into()])
    }

    /// `dst = cos(a)` (f32, SFU)
    pub fn fcos(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FCos, dst, &[a.into()])
    }

    /// `dst = 2^a` (f32, SFU)
    pub fn fexp2(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.alu(Opcode::FExp2, dst, &[a.into()])
    }

    // ------------------------------------------------------------ specials

    /// `dst = special register`
    pub fn special(&mut self, dst: Reg, s: SpecialReg) -> &mut Self {
        self.alu(Opcode::Mov, dst, &[Operand::Special(s)])
    }

    /// `dst = flattened global thread id`
    pub fn gtid(&mut self, dst: Reg) -> &mut Self {
        self.special(dst, SpecialReg::GlobalTid)
    }

    /// `dst = flattened block-local thread id`
    pub fn flat_tid(&mut self, dst: Reg) -> &mut Self {
        self.special(dst, SpecialReg::FlatTid)
    }

    /// `dst = flattened block id`
    pub fn flat_ctaid(&mut self, dst: Reg) -> &mut Self {
        self.special(dst, SpecialReg::FlatCtaId)
    }

    // ----------------------------------------------------------- predicate

    /// `pdst = cmp(a, b)`
    pub fn setp(
        &mut self,
        pdst: Pred,
        kind: CmpKind,
        ty: CmpType,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Setp(kind, ty));
        ins.pdst = Some(pdst);
        ins.srcs[0] = Some(a.into());
        ins.srcs[1] = Some(b.into());
        self.emit(ins)
    }

    /// `dst = p ? a : b`
    pub fn sel(
        &mut self,
        dst: Reg,
        p: Pred,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Sel);
        ins.dst = Some(dst);
        ins.srcs[0] = Some(a.into());
        ins.srcs[1] = Some(b.into());
        ins.psrc = Some(p);
        self.emit(ins)
    }

    // -------------------------------------------------------------- memory

    fn mem_ld(&mut self, space: Space, w: Width, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Ld(space, w));
        ins.dst = Some(dst);
        ins.srcs[0] = Some(Operand::Reg(addr));
        ins.offset = off;
        self.emit(ins)
    }

    fn mem_st(&mut self, space: Space, w: Width, addr: Reg, val: Reg, off: i64) -> &mut Self {
        let mut ins = Instruction::new(Opcode::St(space, w));
        ins.srcs[0] = Some(Operand::Reg(addr));
        ins.srcs[1] = Some(Operand::Reg(val));
        ins.offset = off;
        self.emit(ins)
    }

    /// `dst = global_u32[addr + off]`
    pub fn ld_global_u32(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.mem_ld(Space::Global, Width::B4, dst, addr, off)
    }

    /// `dst = global_u64[addr + off]`
    pub fn ld_global_u64(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.mem_ld(Space::Global, Width::B8, dst, addr, off)
    }

    /// `global_u32[addr + off] = val`
    pub fn st_global_u32(&mut self, addr: Reg, val: Reg, off: i64) -> &mut Self {
        self.mem_st(Space::Global, Width::B4, addr, val, off)
    }

    /// `global_u64[addr + off] = val`
    pub fn st_global_u64(&mut self, addr: Reg, val: Reg, off: i64) -> &mut Self {
        self.mem_st(Space::Global, Width::B8, addr, val, off)
    }

    /// `dst = shared_u32[addr + off]` (addresses are offsets into the
    /// block's shared-memory partition)
    pub fn ld_shared_u32(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.mem_ld(Space::Shared, Width::B4, dst, addr, off)
    }

    /// `shared_u32[addr + off] = val`
    pub fn st_shared_u32(&mut self, addr: Reg, val: Reg, off: i64) -> &mut Self {
        self.mem_st(Space::Shared, Width::B4, addr, val, off)
    }

    /// `dst = old; global[addr + off] op= val` (global atomic)
    pub fn atom(
        &mut self,
        kind: AtomKind,
        w: Width,
        dst: Reg,
        addr: Reg,
        val: Reg,
        off: i64,
    ) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Atom(kind, w));
        ins.dst = Some(dst);
        ins.srcs[0] = Some(Operand::Reg(addr));
        ins.srcs[1] = Some(Operand::Reg(val));
        ins.offset = off;
        self.emit(ins)
    }

    /// `dst = old; global_u32[addr] += val`
    pub fn atom_add_u32(&mut self, dst: Reg, addr: Reg, val: Reg) -> &mut Self {
        self.atom(AtomKind::Add, Width::B4, dst, addr, val, 0)
    }

    /// `dst = malloc(size)` — device-side heap allocation (per active lane).
    pub fn malloc(&mut self, dst: Reg, size: impl Into<Operand>) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Malloc);
        ins.dst = Some(dst);
        ins.srcs[0] = Some(size.into());
        self.emit(ins)
    }

    // -------------------------------------------------------- control flow

    /// Define `name` at the current PC.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_string(), self.here()).is_some() && self.error.is_none() {
            self.error = Some(IsaError::DuplicateLabel(name.to_string()));
        }
        self
    }

    /// Unconditional branch to `name`.
    pub fn bra(&mut self, name: &str) -> &mut Self {
        let ins = Instruction::new(Opcode::Bra);
        self.fixups.push(Fixup { instr: self.instrs.len(), label: name.into(), auto_reconv: false });
        self.emit(ins)
    }

    /// Conditional branch: jump to `name` on lanes where `pred == sense`.
    ///
    /// The reconvergence PC is derived automatically: the target for forward
    /// branches (if-then shape) and the fall-through for backward branches
    /// (loop shape).
    pub fn bra_if(&mut self, name: &str, pred: Pred, sense: bool) -> &mut Self {
        let mut ins = Instruction::new(Opcode::Bra);
        ins.guard = Some((pred, sense));
        self.fixups.push(Fixup { instr: self.instrs.len(), label: name.into(), auto_reconv: true });
        // Bypass the sticky guard: this branch's own guard is the condition.
        self.instrs.push(ins);
        self
    }

    /// Thread block barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.emit(Instruction::new(Opcode::Bar))
    }

    /// Terminate the thread (all kernels must end every path with `exit`).
    pub fn exit(&mut self) -> &mut Self {
        self.emit(Instruction::new(Opcode::Exit))
    }

    /// No-operation.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instruction::new(Opcode::Nop))
    }

    // ------------------------------------------------- structured if/else

    /// Begin a structured `if` region: the following instructions execute
    /// only on lanes where `pred == sense`. Close with [`Asm::if_end`]
    /// (optionally with [`Asm::else_begin`] in between).
    pub fn if_begin(&mut self, pred: Pred, sense: bool) -> &mut Self {
        let label = format!("__if_{}", self.next_auto_label);
        self.next_auto_label += 1;
        let skip = self.instrs.len();
        self.bra_if(&label, pred, !sense);
        self.ifs.push(IfCtx { skip_branch: skip, end_branch: None });
        self
    }

    /// Begin the `else` arm of the innermost structured `if`.
    pub fn else_begin(&mut self) -> &mut Self {
        let Some(ctx) = self.ifs.last_mut() else {
            if self.error.is_none() {
                self.error = Some(IsaError::UnbalancedBlock("else without if"));
            }
            return self;
        };
        if ctx.end_branch.is_some() {
            if self.error.is_none() {
                self.error = Some(IsaError::UnbalancedBlock("double else"));
            }
            return self;
        }
        let end_label = format!("__endif_{}", self.next_auto_label);
        self.next_auto_label += 1;
        // Jump over the else body at the end of the then body.
        let end_branch = self.instrs.len();
        self.bra(&end_label);
        // The skip branch lands here, at the start of the else body.
        let skip = self.ifs.last().unwrap().skip_branch;
        let skip_label = self.fixups.iter().find(|f| f.instr == skip).unwrap().label.clone();
        let here = self.here();
        self.labels.insert(skip_label, here);
        self.ifs.last_mut().unwrap().end_branch = Some(end_branch);
        self
    }

    /// Close the innermost structured `if` region.
    pub fn if_end(&mut self) -> &mut Self {
        let Some(ctx) = self.ifs.pop() else {
            if self.error.is_none() {
                self.error = Some(IsaError::UnbalancedBlock("endif without if"));
            }
            return self;
        };
        let here = self.here();
        if let Some(end_branch) = ctx.end_branch {
            // if/else: the end-of-then branch lands here...
            let end_label = self.fixups.iter().find(|f| f.instr == end_branch).unwrap().label.clone();
            self.labels.insert(end_label, here);
            // ...and the skip branch must reconverge here too (not at the
            // else-body start it jumps to).
            let skip = ctx.skip_branch;
            if let Some(f) = self.fixups.iter_mut().find(|f| f.instr == skip) {
                f.auto_reconv = false;
            }
            self.instrs[ctx.skip_branch].reconv = Some(here);
        } else {
            // plain if: the skip branch lands here; auto reconv (== target)
            // is already correct.
            let skip = ctx.skip_branch;
            let skip_label = self.fixups.iter().find(|f| f.instr == skip).unwrap().label.clone();
            self.labels.insert(skip_label, here);
        }
        self
    }

    // ------------------------------------------------------------ assemble

    /// Resolve labels and produce the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while building: undefined/duplicate
    /// labels or unbalanced structured blocks.
    pub fn assemble(mut self) -> Result<Program, IsaError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !self.ifs.is_empty() {
            return Err(IsaError::UnbalancedBlock("if without endif"));
        }
        for f in &self.fixups {
            let Some(&target) = self.labels.get(&f.label) else {
                return Err(IsaError::UndefinedLabel(f.label.clone()));
            };
            let pc = f.instr as u32;
            let ins = &mut self.instrs[f.instr];
            ins.target = Some(target);
            if f.auto_reconv && ins.reconv.is_none() {
                // Forward branch: if-then shape, reconverge at the target.
                // Backward branch: loop shape, reconverge at fall-through.
                ins.reconv = Some(if target > pc { target } else { pc + 1 });
            }
        }
        Ok(Program::from_instructions(self.instrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        a.label("top");
        a.nop();
        a.bra_if("top", Pred(0), true); // backward at pc 1 -> target 0
        a.bra("end"); // forward at pc 2
        a.nop();
        a.label("end");
        a.exit();
        let p = a.assemble().unwrap();
        let back = p.get(1).unwrap();
        assert_eq!(back.target, Some(0));
        assert_eq!(back.reconv, Some(2)); // fall-through
        let fwd = p.get(2).unwrap();
        assert_eq!(fwd.target, Some(4));
        assert_eq!(fwd.reconv, None); // unconditional: no reconv needed
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new();
        a.bra("nowhere");
        assert_eq!(a.assemble().unwrap_err(), IsaError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Asm::new();
        a.label("x").nop().label("x");
        assert_eq!(a.assemble().unwrap_err(), IsaError::DuplicateLabel("x".into()));
    }

    #[test]
    fn structured_if_reconverges_at_end() {
        let mut a = Asm::new();
        a.if_begin(Pred(0), true); // pc 0: @!P0 bra endif
        a.nop(); // pc 1
        a.if_end();
        a.exit(); // pc 2
        let p = a.assemble().unwrap();
        let skip = p.get(0).unwrap();
        assert_eq!(skip.op, Opcode::Bra);
        assert_eq!(skip.guard, Some((Pred(0), false)));
        assert_eq!(skip.target, Some(2));
        assert_eq!(skip.reconv, Some(2));
    }

    #[test]
    fn structured_if_else_layout() {
        let mut a = Asm::new();
        a.if_begin(Pred(1), true); // pc 0 -> target 3 (else), reconv 4 (endif)
        a.nop(); // pc 1 (then)
        a.else_begin(); // pc 2: bra endif
        a.nop(); // pc 3 (else)
        a.if_end();
        a.exit(); // pc 4
        let p = a.assemble().unwrap();
        let skip = p.get(0).unwrap();
        assert_eq!(skip.target, Some(3));
        assert_eq!(skip.reconv, Some(4));
        let over = p.get(2).unwrap();
        assert_eq!(over.target, Some(4));
    }

    #[test]
    fn unbalanced_blocks_error() {
        let mut a = Asm::new();
        a.if_begin(Pred(0), true);
        assert!(matches!(a.assemble(), Err(IsaError::UnbalancedBlock(_))));

        let mut b = Asm::new();
        b.else_begin();
        assert!(matches!(b.assemble(), Err(IsaError::UnbalancedBlock(_))));
    }

    #[test]
    fn sticky_guard_applies_until_cleared() {
        let mut a = Asm::new();
        a.guard(Pred(2), false);
        a.nop();
        a.unguard();
        a.nop();
        let p = a.assemble().unwrap();
        assert_eq!(p.get(0).unwrap().guard, Some((Pred(2), false)));
        assert_eq!(p.get(1).unwrap().guard, None);
    }

    #[test]
    fn doc_example_assembles() {
        let mut a = Asm::new();
        let (i, sum) = (Reg(0), Reg(1));
        a.gtid(i);
        a.mov(sum, 0u64);
        a.label("top");
        a.add(sum, sum, i);
        a.add(i, i, 32u64);
        a.setp(Pred(0), CmpKind::Lt, CmpType::U64, i, 64u64);
        a.bra_if("top", Pred(0), true);
        a.exit();
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 7);
    }
}
