//! # gex-serve — a crash-safe, multi-tenant campaign server
//!
//! A long-running daemon that accepts simulation campaigns (grids of
//! `workload x scheme` points) over a line-oriented TCP protocol and runs
//! them on a fixed set of worker threads, one point per worker at a time,
//! under the full [`gex::supervise`] stack: panic isolation, one run per
//! point under its cycle budget, and per-point quarantine. A point's
//! result is applied as soon as it finishes, so one tenant's slow point
//! never holds back another tenant's fast one.
//!
//! On top of the batch supervisor it adds the properties a *shared*,
//! *long-lived* service needs:
//!
//! * **Admission control** — queue depth and live campaigns are bounded;
//!   a submit past either bound is load-shed with an explicit `shed`
//!   reply instead of being silently queued into unbounded memory.
//! * **Tenant fairness** — pending points are dispatched by credit-based
//!   weighted round-robin across tenants ([`tenant::TenantScheduler`]),
//!   so one tenant's thousand-point campaign cannot starve another's
//!   ten-point grid.
//! * **Per-tenant fault budgets** — a tenant whose points keep failing
//!   (panics, deadline overruns, fatal errors) has all of its campaigns
//!   quarantined: running points cancelled, queued points shed unrun, new
//!   submits rejected. Other tenants are unaffected.
//! * **Crash safety** — every accepted campaign is persisted (manifest +
//!   journal + quarantine sidecar) before it is acknowledged; a `kill -9`
//!   at any instant loses at most mid-flight points, and a restart with
//!   the same journal directory resumes every campaign, reproducing
//!   byte-identical results (the simulator is deterministic).
//!
//! ## In-process quickstart
//!
//! ```
//! use gex_serve::{server, Client, ClientConfig, CampaignSpec};
//! use gex::{Preset, Scheme};
//!
//! let handle = server::start(server::ServerConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string(),
//!                                  ClientConfig::default()).unwrap();
//! let spec = CampaignSpec::new(
//!     Preset::Test, 2,
//!     vec!["histo".to_string()],
//!     vec![Scheme::Baseline, Scheme::ReplayQueue],
//! );
//! client.submit("alice", "quick", &spec).unwrap();
//! let done = client.wait("alice", "quick",
//!                        std::time::Duration::from_millis(20)).unwrap();
//! assert_eq!(done.state, "done");
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use server::{start, ServerConfig, ServerHandle};
pub use wire::{CampaignSpec, Event, Inject, PointResult, Request, StatusReply};
