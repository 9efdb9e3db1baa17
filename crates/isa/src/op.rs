//! Opcodes, comparison kinds, atomic kinds and execution-unit classes.
//!
//! The opcode set mimics "modern GPU ISAs with all the distinguishing
//! features" the paper lists in Section 5.1: fused multiply-add,
//! approximate complex math (SFU) instructions, predication, explicit
//! divergence management and a split between shared (on-chip, untranslated)
//! and global (translated, faultable) memory pipelines.

use std::fmt;

/// Integer/float comparison performed by `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// Equal (bitwise over the operand type).
    Eq,
    /// Not equal.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// Operand interpretation for comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpType {
    /// Unsigned 64-bit integers.
    U64,
    /// Signed 64-bit integers.
    S64,
    /// IEEE-754 single precision (low 32 bits of the register).
    F32,
}

/// Read-modify-write operation of a global-memory atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// `old + v`
    Add,
    /// `max(old, v)`
    Max,
    /// `min(old, v)`
    Min,
    /// Exchange: the new value replaces the old unconditionally.
    Exch,
    /// Compare-and-swap: store `v` only if `old == cmp`.
    Cas,
}

/// Memory address space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Off-chip memory, translated through the TLBs; the only space whose
    /// accesses can page-fault (Section 2.1).
    Global,
    /// On-chip scratch-pad (CUDA `__shared__`); not subject to translation
    /// and therefore never faults.
    Shared,
}

/// Access width of a load/store in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// The access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// Instruction opcode.
///
/// Operands live in the containing [`Instruction`](crate::instr::Instruction);
/// the opcode selects the operation and, via [`Opcode::unit`], the backend
/// execution unit that services it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ---- integer ALU (math units) ----
    /// `dst = src0`
    Mov,
    /// `dst = src0 + src1` (wrapping u64)
    Add,
    /// `dst = src0 - src1`
    Sub,
    /// `dst = src0 * src1` (low 64 bits)
    Mul,
    /// `dst = src0 * src1 + src2` (integer multiply-add)
    Mad,
    /// `dst = min(src0, src1)` unsigned
    Min,
    /// `dst = max(src0, src1)` unsigned
    Max,
    /// `dst = src0 << (src1 & 63)`
    Shl,
    /// `dst = src0 >> (src1 & 63)` (logical)
    Shr,
    /// `dst = src0 & src1`
    And,
    /// `dst = src0 | src1`
    Or,
    /// `dst = src0 ^ src1`
    Xor,
    /// `dst = !src0`
    Not,
    /// `dst = src0 % src1` (unsigned; `src1 == 0` yields 0, like SASS)
    Rem,
    /// `dst = src0 / src1` (unsigned; `src1 == 0` yields all-ones)
    Div,

    // ---- f32 ALU (math units) ----
    /// `dst = src0 + src1` (f32)
    FAdd,
    /// `dst = src0 - src1` (f32)
    FSub,
    /// `dst = src0 * src1` (f32)
    FMul,
    /// `dst = src0 * src1 + src2` — the fused multiply-add the paper calls a
    /// distinguishing feature of modern GPU ISAs.
    FFma,
    /// `dst = min(src0, src1)` (f32)
    FMin,
    /// `dst = max(src0, src1)` (f32)
    FMax,
    /// `dst = f32(src0 as i64)` — integer to float conversion.
    I2F,
    /// `dst = src0 as i64` (truncating f32-to-int conversion).
    F2I,

    // ---- special function unit (approximate complex math) ----
    /// `dst = 1.0 / src0` (f32, SFU)
    FRcp,
    /// `dst = sqrt(src0)` (f32, SFU)
    FSqrt,
    /// `dst = 1.0 / sqrt(src0)` (f32, SFU)
    FRsqrt,
    /// `dst = sin(src0)` (f32, SFU)
    FSin,
    /// `dst = cos(src0)` (f32, SFU)
    FCos,
    /// `dst = 2^src0` (f32, SFU)
    FExp2,
    /// `dst = log2(src0)` (f32, SFU)
    FLog2,

    // ---- predicate ----
    /// Set predicate: `pdst = cmp(src0, src1)`.
    Setp(CmpKind, CmpType),
    /// Select: `dst = guard-pred ? src0 : src1` (reads predicate `psrc`).
    Sel,

    // ---- control flow (branch unit) ----
    /// Branch to `target`; divergence reconverges at the instruction's
    /// `reconv` PC. Predicated branches may diverge.
    Bra,
    /// Thread block barrier (`bar.sync`).
    Bar,
    /// Terminate the thread.
    Exit,
    /// No operation (still occupies an issue slot and a math unit).
    Nop,

    // ---- memory (ld/st pipeline) ----
    /// Load: `dst = [src0 + imm]` in `Space` with `Width`.
    Ld(Space, Width),
    /// Store: `[src0 + imm] = src1` in `Space` with `Width`.
    St(Space, Width),
    /// Global-memory atomic: `dst = old; [src0 + imm] op= src1`.
    /// `Cas` additionally reads `src2` as the compare value.
    Atom(AtomKind, Width),
    /// Device-side heap allocation intrinsic: `dst = malloc(src0 bytes)`.
    ///
    /// Functionally this is a deterministic bump allocation in the heap VA
    /// region; the backing physical pages are *not* mapped, so first touch
    /// faults — the scenario of the paper's use case 2 (Section 4.2/5.4).
    Malloc,
}

/// Backend execution unit classes of the baseline SM (Table 1:
/// "2 math, 1 special func, 1 ld/st, 1 branch").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Integer / f32 ALU pipelines (2 units).
    Math,
    /// Special function unit (1 unit).
    Sfu,
    /// Load/store pipeline: global (translated) and shared memory (1 unit).
    LdSt,
    /// Branch unit (1 unit); also services `bar` and `exit`.
    Branch,
}

impl Opcode {
    /// The backend unit that executes this opcode.
    pub fn unit(self) -> Unit {
        use Opcode::*;
        match self {
            Mov | Add | Sub | Mul | Mad | Min | Max | Shl | Shr | And | Or | Xor | Not | Rem
            | Div | FAdd | FSub | FMul | FFma | FMin | FMax | I2F | F2I | Setp(..) | Sel | Nop => {
                Unit::Math
            }
            FRcp | FSqrt | FRsqrt | FSin | FCos | FExp2 | FLog2 => Unit::Sfu,
            Bra | Bar | Exit => Unit::Branch,
            Ld(..) | St(..) | Atom(..) | Malloc => Unit::LdSt,
        }
    }

    /// True for control-flow opcodes; fetching one briefly disables the
    /// warp's fetch in the baseline pipeline (Section 2.1).
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Bra | Opcode::Bar | Opcode::Exit)
    }

    /// True for accesses to the global (translated) address space — the only
    /// instructions that can page-fault (Section 3).
    pub fn is_global_mem(self) -> bool {
        matches!(
            self,
            Opcode::Ld(Space::Global, _) | Opcode::St(Space::Global, _) | Opcode::Atom(..)
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self {
            Setp(k, t) => write!(f, "setp.{k:?}.{t:?}"),
            Ld(s, w) => write!(f, "ld.{s:?}.b{}", w.bytes() * 8),
            St(s, w) => write!(f, "st.{s:?}.b{}", w.bytes() * 8),
            Atom(k, w) => write!(f, "atom.{k:?}.b{}", w.bytes() * 8),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_match_table_1_partition() {
        assert_eq!(Opcode::FFma.unit(), Unit::Math);
        assert_eq!(Opcode::FRsqrt.unit(), Unit::Sfu);
        assert_eq!(Opcode::Ld(Space::Global, Width::B4).unit(), Unit::LdSt);
        assert_eq!(Opcode::Ld(Space::Shared, Width::B4).unit(), Unit::LdSt);
        assert_eq!(Opcode::Bra.unit(), Unit::Branch);
        assert_eq!(Opcode::Bar.unit(), Unit::Branch);
    }

    #[test]
    fn only_global_accesses_can_fault() {
        assert!(Opcode::Ld(Space::Global, Width::B8).is_global_mem());
        assert!(Opcode::St(Space::Global, Width::B4).is_global_mem());
        assert!(Opcode::Atom(AtomKind::Add, Width::B4).is_global_mem());
        assert!(!Opcode::Ld(Space::Shared, Width::B4).is_global_mem());
        assert!(!Opcode::St(Space::Shared, Width::B4).is_global_mem());
        assert!(!Opcode::FFma.is_global_mem());
        // malloc itself runs on the ld/st pipe but does not touch memory;
        // the *later* access to the returned pointer faults.
        assert!(!Opcode::Malloc.is_global_mem());
    }

    #[test]
    fn control_flow_classification() {
        assert!(Opcode::Bra.is_control());
        assert!(Opcode::Exit.is_control());
        assert!(!Opcode::Ld(Space::Global, Width::B4).is_control());
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn display_is_lowercase_ish() {
        assert_eq!(Opcode::FFma.to_string(), "ffma");
        assert_eq!(Opcode::Ld(Space::Global, Width::B4).to_string(), "ld.Global.b32");
    }
}
