//! # gex-sim — the whole-GPU simulator
//!
//! Glues the `gex-sm` SM pipelines and the `gex-mem` hierarchy into the
//! paper's full baseline system (Figure 1): a global thread-block
//! scheduler, a host interface to a serialized CPU fault handler, the
//! interconnect cost models (NVLink / PCIe 3.0), and the paper's two use
//! cases built on preemptible faults:
//!
//! * **Block switching on fault** (Section 4.1) — per-SM local schedulers
//!   that context-switch faulted blocks during page migrations
//!   ([`block_switch`]).
//! * **GPU-local fault handling** (Section 4.2) — first-touch faults
//!   resolved by handlers running on the faulting SMs ([`local_fault`]).
//!
//! Entry point: build a [`Gpu`] with a [`GpuConfig`], a
//! [`Scheme`](gex_sm::Scheme) and a [`PagingMode`], then [`Gpu::run`] a
//! kernel trace with its initial [`Residency`].

#![warn(missing_docs)]

pub mod block_switch;
pub mod config;
pub mod error;
pub mod gpu;
pub mod inject;
pub mod interconnect;
pub mod local_fault;
pub mod paging;
pub mod report;
pub mod residency;
pub mod tenant;

pub use block_switch::BlockSwitchConfig;
pub use config::{set_default_max_cycles, GpuConfig, PagingMode};
pub use gex_mem::{default_page_size, set_default_page_size, LpStats, PageSizePolicy};
pub use error::{DeadlineDiagnostic, SimError, WatchdogDiagnostic};
pub use gex_sm::{BudgetExceeded, CancelToken, RunBudget};
pub use gpu::Gpu;
pub use inject::{InjectionPlan, InjectionStats, Injector};
pub use interconnect::{Interconnect, CYCLES_PER_US};
pub use local_fault::LocalFaultConfig;
pub use report::{geomean, GpuRunReport};
pub use residency::Residency;
pub use tenant::{
    PartitionPolicy, SharedRunReport, TenantId, TenantRunReport,
    TenantWorkload, TENANT_SHIFT,
};
