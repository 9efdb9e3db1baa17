//! # gex-sm — the streaming multiprocessor pipeline
//!
//! A cycle-level model of the paper's baseline SM (Section 2.1: dual issue
//! from one or two warps, score-boarding without renaming, out-of-order
//! commit, a coalescing load/store pipeline) together with all five
//! exception designs the paper compares:
//!
//! | [`Scheme`] | Mechanism | Paper |
//! |---|---|---|
//! | `Baseline` | stall-on-fault, not preemptible | §2.2 |
//! | `WdCommit` | fetch disabled from global-memory fetch to commit | §3.1 |
//! | `WdLastCheck` | fetch re-enabled at the last TLB check | §3.1 |
//! | `ReplayQueue` | replay queue + delayed source release | §3.2 |
//! | `OperandLog` | logged source operands, baseline score-boarding | §3.3 |
//!
//! The SM is trace-driven: it consumes the per-warp dynamic instruction
//! streams produced by `gex-isa`'s functional simulator, and talks to the
//! `gex-mem` hierarchy for global-memory timing, faults and replays. Block
//! context switching (drain / save / restore, Section 4.1) is exposed via
//! [`Sm::begin_drain`](sm::Sm::begin_drain) /
//! [`Sm::take_block`](sm::Sm::take_block) /
//! [`Sm::restore_block`](sm::Sm::restore_block).

#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod error;
pub mod exec;
pub mod operand_log;
pub mod scheme;
pub mod scoreboard;
pub mod sm;
pub mod stats;

pub use budget::{BudgetExceeded, BudgetMeter, CancelToken, RunBudget};
pub use config::SmConfig;
pub use error::{SmError, SmStage};
pub use scheme::Scheme;
pub use sm::{
    FaultNotice, KernelSetup, ProbeEvent, ProbeStage, SavedBlock, Sm, WarpDiag, WarpState,
};
pub use stats::SmStats;
