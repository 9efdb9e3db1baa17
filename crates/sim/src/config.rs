//! Whole-GPU configuration and paging modes.

use crate::block_switch::BlockSwitchConfig;
use crate::interconnect::Interconnect;
use crate::local_fault::LocalFaultConfig;
use gex_mem::{Cycle, MemConfig, PageSizePolicy};
use gex_sm::SmConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide default for [`GpuConfig::max_cycles`]; 0 means unset.
/// Written once by harness binaries parsing `--max-cycles`, consulted by
/// [`GpuConfig::kepler_k20`]. Explicit builder calls always win.
static DEFAULT_MAX_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Built-in runaway guard when neither the CLI nor the builder sets one.
const MAX_CYCLES_FALLBACK: Cycle = 2_000_000_000;

/// Default forward-progress window: generous against the longest
/// legitimate stall (a PCIe fault round trip is ~25k cycles; block-switch
/// transfers are tens of thousands), tiny against the fallback cycle cap.
const WATCHDOG_FALLBACK: Cycle = 5_000_000;

/// Set the process-wide default cycle cap that freshly built
/// [`GpuConfig`]s inherit. Harness binaries call this once when the user
/// passes `--max-cycles N`; configs built before the call are unaffected.
pub fn set_default_max_cycles(c: Cycle) {
    DEFAULT_MAX_CYCLES.store(c, Ordering::Relaxed);
}

fn default_max_cycles() -> Cycle {
    match DEFAULT_MAX_CYCLES.load(Ordering::Relaxed) {
        0 => MAX_CYCLES_FALLBACK,
        c => c,
    }
}

/// Full GPU configuration: Table 1's SM and system sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// Memory system configuration (includes the SM count).
    pub mem: MemConfig,
    /// Abort the run (with a structured error) past this many cycles.
    pub max_cycles: Cycle,
    /// Abort the run when no warp commits, no fault resolves and no block
    /// dispatches for this many consecutive cycles (forward-progress
    /// watchdog).
    pub watchdog_cycles: Cycle,
}

impl GpuConfig {
    /// The paper's 16-SM Kepler-K20-like baseline.
    pub fn kepler_k20() -> Self {
        GpuConfig {
            sm: SmConfig::kepler_k20(),
            mem: MemConfig::kepler_k20(),
            max_cycles: default_max_cycles(),
            watchdog_cycles: WATCHDOG_FALLBACK,
        }
    }

    /// Same per-SM configuration with `n` SMs (Section 5.5 scalability).
    pub fn with_sms(mut self, n: u32) -> Self {
        self.mem.num_sms = n;
        self
    }

    /// Override the cycle cap.
    pub fn with_max_cycles(mut self, c: Cycle) -> Self {
        self.max_cycles = c;
        self
    }

    /// Override the forward-progress watchdog window.
    pub fn with_watchdog_cycles(mut self, c: Cycle) -> Self {
        self.watchdog_cycles = c;
        self
    }

    /// Override the page-size policy (`Small` = the 4 KB-only baseline,
    /// `Transparent` / `HugeOnly` = the 2 MB machinery).
    pub fn with_page_size(mut self, p: PageSizePolicy) -> Self {
        self.mem.page_size = p;
        self
    }

    /// Enable or disable the background coalescer under
    /// `PageSizePolicy::Transparent` (on by default; the equivalence
    /// keystone turns it off to prove degradation to `Small`).
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.mem.coalesce = on;
        self
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> u32 {
        self.mem.num_sms
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::kepler_k20()
    }
}

/// How memory is paged for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingMode {
    /// Everything the kernel touches is pre-mapped: the fault-free
    /// configuration of Figures 10/11 ("expert written program that uses
    /// explicit data management").
    AllResident,
    /// On-demand paging per the launch's [`Residency`], with faults
    /// serviced per the options below.
    ///
    /// [`Residency`]: crate::residency::Residency
    Demand {
        /// CPU-GPU interconnect cost model.
        interconnect: Interconnect,
        /// Switch faulted blocks for pending ones (use case 1).
        block_switch: Option<BlockSwitchConfig>,
        /// Handle first-touch faults on the GPU itself (use case 2).
        local_handling: Option<LocalFaultConfig>,
    },
}

impl PagingMode {
    /// Plain demand paging over `ic` with neither use case enabled.
    pub fn demand(ic: Interconnect) -> Self {
        PagingMode::Demand { interconnect: ic, block_switch: None, local_handling: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_16_sms() {
        let c = GpuConfig::kepler_k20();
        assert_eq!(c.num_sms(), 16);
        assert_eq!(c.with_sms(4).num_sms(), 4);
    }

    #[test]
    fn cycle_guards_default_and_override() {
        let c = GpuConfig::kepler_k20();
        assert_eq!(c.max_cycles, MAX_CYCLES_FALLBACK);
        assert_eq!(c.watchdog_cycles, WATCHDOG_FALLBACK);
        let c = c.with_max_cycles(123).with_watchdog_cycles(45);
        assert_eq!(c.max_cycles, 123);
        assert_eq!(c.watchdog_cycles, 45);
        // The watchdog window stays well under the cap by default, so a
        // wedged run reports diagnostics instead of timing out.
        const { assert!(WATCHDOG_FALLBACK < MAX_CYCLES_FALLBACK) };
    }

    #[test]
    fn demand_helper_disables_use_cases() {
        let PagingMode::Demand { block_switch, local_handling, .. } =
            PagingMode::demand(Interconnect::nvlink())
        else {
            panic!("expected demand mode");
        };
        assert!(block_switch.is_none());
        assert!(local_handling.is_none());
    }
}
