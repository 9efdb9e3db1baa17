//! The campaign server's wire protocol: JSON lines over TCP.
//!
//! Every message is one line holding one JSON object with string and
//! unsigned-integer fields only — the same minimal dialect the campaign
//! journal speaks, parsed with the same [`gex::journal`] field helpers
//! (this workspace builds offline; there is no serialization crate to
//! lean on). Requests carry an `"op"` field; replies carry `"ok":1` or
//! `"ok":0` plus an `"error"`. Campaign specs travel as one escaped
//! spec-line inside the submit request and are stored verbatim in the
//! on-disk [`gex::CampaignManifest`], so the bytes that admitted a
//! campaign are the bytes that resume it after a crash.
//!
//! ## Requests
//!
//! ```text
//! {"op":"submit","tenant":"alice","campaign":"fig10","spec":"<escaped spec line>"}
//! {"op":"status","tenant":"alice","campaign":"fig10"}
//! {"op":"results","tenant":"alice","campaign":"fig10"}
//! {"op":"watch","tenant":"alice","campaign":"fig10"}
//! {"op":"cancel","tenant":"alice","campaign":"fig10"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! The spec line (see [`CampaignSpec`]):
//!
//! ```text
//! {"preset":"Test","sms":2,"weight":1,"workloads":"histo,lbm","schemes":"Baseline,ReplayQueue:"}
//! ```
//!
//! `results` answers with a header, one line per point, and an `"end"`
//! marker; `watch` answers with `"ok":1` and then streams `"event"`
//! lines until the campaign reaches a terminal state.

use gex::journal::{field_str, field_u64, json_escape};
use gex::{PageSizePolicy, PartitionPolicy, Preset, Scheme};
use std::fmt;

/// Deterministic chaos hook for a campaign: what the server's point
/// runner does *instead of* simulating. This is the serving-layer sibling
/// of the simulator's `InjectionPlan` — a way to submit a deliberately
/// poisoned campaign (every point panics, or every point overruns its
/// deadline) and watch the isolation machinery contain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Every point panics at the job boundary.
    Panic,
    /// Every point reports a blown cycle deadline (and keeps blowing the
    /// escalated retries).
    Deadline,
}

impl Inject {
    fn token(self) -> &'static str {
        match self {
            Inject::Panic => "panic",
            Inject::Deadline => "deadline",
        }
    }

    fn parse(s: &str) -> Result<Inject, String> {
        match s {
            "panic" => Ok(Inject::Panic),
            "deadline" => Ok(Inject::Deadline),
            other => Err(format!("unknown inject mode {other:?} (panic|deadline)")),
        }
    }
}

/// What a client asks the server to simulate: the full cross product of
/// `workloads` x `schemes` at one preset and SM count, each point an
/// independent simulation. Deterministic by construction, so the same
/// spec always produces the same per-point cycle counts — the property
/// the crash/resume contract is built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Dataset scale.
    pub preset: Preset,
    /// SM count of the simulated GPU.
    pub sms: u32,
    /// Tenant scheduling weight carried with the campaign (relative share
    /// of the simulator pool under weighted round-robin).
    pub weight: u32,
    /// Benchmark names, in point order (`suite::by_name`).
    pub workloads: Vec<String>,
    /// Schemes, in point order.
    pub schemes: Vec<Scheme>,
    /// Optional fault-injection seed: points simulate under
    /// `InjectionPlan::light(seed)` — deterministic chaos, identical
    /// results for identical seeds.
    pub seed: Option<u64>,
    /// Optional poisoning of the whole campaign (test/chaos hook).
    pub inject: Option<Inject>,
    /// Optional GPU partitioning policy: when set, every point runs as a
    /// two-tenant shared-GPU simulation — the campaign's workload under
    /// this tenant's [`gex::TenantId`] next to the server's background
    /// neighbor — instead of owning the simulated GPU outright. In-run
    /// fault storms that get the tenant's stream quarantined charge the
    /// server-side tenant fault budget even though the point completes.
    pub partition: Option<PartitionPolicy>,
    /// Optional page-size policy for the simulated GPU's demand paging
    /// (`small` | `transparent` | `hugeonly`, see [`PageSizePolicy`]).
    /// `None` leaves the server's default (4 KB pages) in place — old
    /// spec lines parse and re-encode unchanged, so campaign digests
    /// (and therefore crash/resume identity) are unaffected.
    pub pagesize: Option<PageSizePolicy>,
    /// Ignored. Earlier builds let a spec pick an intra-run SM worker
    /// count; that engine is gone, but the spec line is stored verbatim
    /// in the manifest and folded into the campaign digest, so the key
    /// still parses and re-encodes byte-identically — a manifest written
    /// by such a build keeps its digest and resumes.
    pub sm_threads: Option<u32>,
}

fn preset_token(p: Preset) -> &'static str {
    match p {
        Preset::Test => "Test",
        Preset::Bench => "Bench",
        Preset::Paper => "Paper",
    }
}

fn parse_preset(s: &str) -> Result<Preset, String> {
    match s.to_ascii_lowercase().as_str() {
        "test" => Ok(Preset::Test),
        "bench" => Ok(Preset::Bench),
        "paper" => Ok(Preset::Paper),
        other => Err(format!("unknown preset {other:?} (test|bench|paper)")),
    }
}

/// Compact scheme token for spec lines: `Baseline`, `WdCommit`,
/// `WdLastCheck`, `ReplayQueue`, `OperandLog:<bytes>`.
pub fn scheme_token(s: Scheme) -> String {
    match s {
        Scheme::Baseline => "Baseline".to_string(),
        Scheme::WdCommit => "WdCommit".to_string(),
        Scheme::WdLastCheck => "WdLastCheck".to_string(),
        Scheme::ReplayQueue => "ReplayQueue".to_string(),
        Scheme::OperandLog { bytes } => format!("OperandLog:{bytes}"),
    }
}

/// Parse a [`scheme_token`].
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    match s {
        "Baseline" => Ok(Scheme::Baseline),
        "WdCommit" => Ok(Scheme::WdCommit),
        "WdLastCheck" => Ok(Scheme::WdLastCheck),
        "ReplayQueue" => Ok(Scheme::ReplayQueue),
        other => match other.strip_prefix("OperandLog:") {
            Some(bytes) => bytes
                .parse::<u32>()
                .map(|bytes| Scheme::OperandLog { bytes })
                .map_err(|_| format!("bad OperandLog size in {other:?}")),
            None => Err(format!(
                "unknown scheme {other:?} (Baseline|WdCommit|WdLastCheck|ReplayQueue|OperandLog:<bytes>)"
            )),
        },
    }
}

/// The spec's `u32` field `key`, `None` when absent. A value that does
/// not fit is an error naming the field, never a truncation: the wire is
/// outside input, and `sms` 2^32 + 2 must not be admitted as 2 SMs.
fn field_u32(line: &str, key: &str) -> Result<Option<u32>, String> {
    field_u64(line, key)
        .map(|n| u32::try_from(n).map_err(|_| format!("spec {key} = {n} does not fit 32 bits")))
        .transpose()
}

impl CampaignSpec {
    /// A minimal spec: weight 1, no chaos.
    pub fn new(preset: Preset, sms: u32, workloads: Vec<String>, schemes: Vec<Scheme>) -> Self {
        CampaignSpec {
            preset,
            sms,
            weight: 1,
            workloads,
            schemes,
            seed: None,
            inject: None,
            partition: None,
            pagesize: None,
            sm_threads: None,
        }
    }

    /// Canonical single-line encoding, stable across encode/parse round
    /// trips — the line is stored verbatim in the campaign manifest and
    /// folded into the campaign digest, so byte stability is part of the
    /// resume contract.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"preset\":\"{}\",\"sms\":{},\"weight\":{}",
            preset_token(self.preset),
            self.sms,
            self.weight
        );
        let _ = write!(s, ",\"workloads\":\"{}\"", json_escape(&self.workloads.join(",")));
        let tokens: Vec<String> = self.schemes.iter().map(|&x| scheme_token(x)).collect();
        let _ = write!(s, ",\"schemes\":\"{}\"", tokens.join(","));
        if let Some(seed) = self.seed {
            let _ = write!(s, ",\"seed\":{seed}");
        }
        if let Some(inject) = self.inject {
            let _ = write!(s, ",\"inject\":\"{}\"", inject.token());
        }
        if let Some(partition) = self.partition {
            let _ = write!(s, ",\"partition\":\"{}\"", partition.token());
        }
        if let Some(pagesize) = self.pagesize {
            let _ = write!(s, ",\"pagesize\":\"{}\"", pagesize.token());
        }
        if let Some(sm_threads) = self.sm_threads {
            let _ = write!(s, ",\"sm_threads\":{sm_threads}");
        }
        s.push('}');
        s
    }

    /// Parse an [`CampaignSpec::encode`]d spec line.
    pub fn parse(line: &str) -> Result<CampaignSpec, String> {
        let preset = parse_preset(&field_str(line, "preset").ok_or("spec missing preset")?)?;
        let sms = field_u32(line, "sms")?.ok_or("spec missing sms")?;
        let weight = field_u32(line, "weight")?.unwrap_or(1).max(1);
        let workloads: Vec<String> = field_str(line, "workloads")
            .ok_or("spec missing workloads")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let schemes = field_str(line, "schemes")
            .ok_or("spec missing schemes")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse_scheme)
            .collect::<Result<Vec<Scheme>, String>>()?;
        if workloads.is_empty() || schemes.is_empty() {
            return Err("spec needs at least one workload and one scheme".to_string());
        }
        let inject = match field_str(line, "inject") {
            Some(s) => Some(Inject::parse(&s)?),
            None => None,
        };
        let partition = match field_str(line, "partition") {
            Some(s) => Some(PartitionPolicy::parse(&s).ok_or_else(|| {
                format!("unknown partition policy {s:?} (shared|static|quarantine)")
            })?),
            None => None,
        };
        let pagesize = match field_str(line, "pagesize") {
            Some(s) => Some(PageSizePolicy::parse(&s).ok_or_else(|| {
                format!("unknown page-size policy {s:?} (small|transparent|hugeonly)")
            })?),
            None => None,
        };
        Ok(CampaignSpec {
            preset,
            sms,
            weight,
            workloads,
            schemes,
            seed: field_u64(line, "seed"),
            inject,
            partition,
            pagesize,
            sm_threads: field_u32(line, "sm_threads")?,
        })
    }

    /// Number of points in the campaign grid.
    pub fn points(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }

    /// The point keys, in grid order (workload-major, matching the figure
    /// drivers' `{workload}/{scheme:?}` convention).
    pub fn keys(&self) -> Vec<String> {
        self.workloads
            .iter()
            .flat_map(|w| self.schemes.iter().map(move |s| format!("{w}/{s:?}")))
            .collect()
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit a campaign (or re-attach to an identical one).
    Submit {
        /// Owning tenant.
        tenant: String,
        /// Campaign name, unique per tenant.
        campaign: String,
        /// The campaign grid.
        spec: CampaignSpec,
    },
    /// Progress counters for one campaign.
    Status {
        /// `tenant/campaign` owner.
        tenant: String,
        /// Campaign name.
        campaign: String,
    },
    /// Per-point results (cycles or quarantine diagnostics).
    Results {
        /// `tenant/campaign` owner.
        tenant: String,
        /// Campaign name.
        campaign: String,
    },
    /// Stream per-point progress and quarantine events until terminal.
    Watch {
        /// `tenant/campaign` owner.
        tenant: String,
        /// Campaign name.
        campaign: String,
    },
    /// Cancel a campaign: queued points are dropped, running points abort
    /// at their next budget check.
    Cancel {
        /// `tenant/campaign` owner.
        tenant: String,
        /// Campaign name.
        campaign: String,
    },
    /// Liveness probe.
    Ping,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl Request {
    /// Encode the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let pair = |op: &str, t: &str, c: &str| {
            format!(
                "{{\"op\":\"{op}\",\"tenant\":\"{}\",\"campaign\":\"{}\"}}",
                json_escape(t),
                json_escape(c)
            )
        };
        match self {
            Request::Submit { tenant, campaign, spec } => format!(
                "{{\"op\":\"submit\",\"tenant\":\"{}\",\"campaign\":\"{}\",\"spec\":\"{}\"}}",
                json_escape(tenant),
                json_escape(campaign),
                json_escape(&spec.encode())
            ),
            Request::Status { tenant, campaign } => pair("status", tenant, campaign),
            Request::Results { tenant, campaign } => pair("results", tenant, campaign),
            Request::Watch { tenant, campaign } => pair("watch", tenant, campaign),
            Request::Cancel { tenant, campaign } => pair("cancel", tenant, campaign),
            Request::Ping => "{\"op\":\"ping\"}".to_string(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        }
    }

    /// Parse one wire line into a request.
    pub fn parse(line: &str) -> Result<Request, String> {
        let op = field_str(line, "op").ok_or("request missing op")?;
        let tenant_campaign = || -> Result<(String, String), String> {
            let tenant = field_str(line, "tenant").ok_or("request missing tenant")?;
            let campaign = field_str(line, "campaign").ok_or("request missing campaign")?;
            if tenant.is_empty() || campaign.is_empty() || tenant.contains('/') {
                return Err("tenant and campaign must be non-empty; tenant may not contain '/'"
                    .to_string());
            }
            Ok((tenant, campaign))
        };
        match op.as_str() {
            "submit" => {
                let (tenant, campaign) = tenant_campaign()?;
                let spec_line = field_str(line, "spec").ok_or("submit missing spec")?;
                Ok(Request::Submit { tenant, campaign, spec: CampaignSpec::parse(&spec_line)? })
            }
            "status" => tenant_campaign().map(|(tenant, campaign)| Request::Status { tenant, campaign }),
            "results" => tenant_campaign().map(|(tenant, campaign)| Request::Results { tenant, campaign }),
            "watch" => tenant_campaign().map(|(tenant, campaign)| Request::Watch { tenant, campaign }),
            "cancel" => tenant_campaign().map(|(tenant, campaign)| Request::Cancel { tenant, campaign }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Campaign lifecycle states as they appear on the wire.
pub mod state {
    /// Admitted, no point dispatched yet.
    pub const QUEUED: &str = "queued";
    /// At least one point in flight or waiting.
    pub const RUNNING: &str = "running";
    /// Every point completed successfully.
    pub const DONE: &str = "done";
    /// Terminal with at least one quarantined or shed point.
    pub const QUARANTINED: &str = "quarantined";
    /// Cancelled by the client (or loaded from a cancel marker).
    pub const CANCELLED: &str = "cancelled";

    /// True for states that end a campaign (watch streams close on them).
    pub fn is_terminal(s: &str) -> bool {
        matches!(s, DONE | QUARANTINED | CANCELLED)
    }
}

/// Progress counters for one campaign, as reported by `status` (and as
/// the header of a `results` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReply {
    /// Campaign id (`tenant/campaign`).
    pub id: String,
    /// Lifecycle state (see [`state`]).
    pub state: String,
    /// Total points in the grid.
    pub points: u64,
    /// Points finished successfully.
    pub done: u64,
    /// Points quarantined (failed or shed).
    pub quarantined: u64,
    /// Points cancelled before/while running.
    pub cancelled: u64,
    /// Points answered from the journal at admission (crash resume).
    pub resumed: u64,
}

impl StatusReply {
    /// Encode as a reply line.
    pub fn encode(&self) -> String {
        format!(
            "{{\"ok\":1,\"campaign\":\"{}\",\"state\":\"{}\",\"points\":{},\"done\":{},\"quarantined\":{},\"cancelled\":{},\"resumed\":{}}}",
            json_escape(&self.id),
            self.state,
            self.points,
            self.done,
            self.quarantined,
            self.cancelled,
            self.resumed
        )
    }

    /// Parse a reply line into counters.
    pub fn parse(line: &str) -> Result<StatusReply, String> {
        if field_u64(line, "ok") != Some(1) {
            return Err(error_of(line));
        }
        Ok(StatusReply {
            id: field_str(line, "campaign").ok_or("reply missing campaign")?,
            state: field_str(line, "state").ok_or("reply missing state")?,
            points: field_u64(line, "points").ok_or("reply missing points")?,
            done: field_u64(line, "done").unwrap_or(0),
            quarantined: field_u64(line, "quarantined").unwrap_or(0),
            cancelled: field_u64(line, "cancelled").unwrap_or(0),
            resumed: field_u64(line, "resumed").unwrap_or(0),
        })
    }
}

/// The server's rendered error for a `"ok":0` reply line.
pub fn error_of(line: &str) -> String {
    field_str(line, "error").unwrap_or_else(|| format!("malformed reply: {line}"))
}

/// True when the reply line is a load-shed rejection (admission control
/// turned the campaign away; retry later or at lower volume).
pub fn is_shed(line: &str) -> bool {
    field_u64(line, "shed") == Some(1)
}

/// One point's outcome inside a `results` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointResult {
    /// Completed, with its deterministic cycle count.
    Done {
        /// Point key (`workload/Scheme`).
        key: String,
        /// Simulated cycles.
        cycles: u64,
    },
    /// Quarantined (or shed), with the failure class and rendered error.
    Quarantined {
        /// Point key.
        key: String,
        /// Failure class (`panic`, `deadline`, `fatal`, `shed`, ...).
        kind: String,
        /// Rendered error or panic payload.
        error: String,
    },
    /// Cancelled before completion.
    Cancelled {
        /// Point key.
        key: String,
    },
    /// Still pending or running (non-terminal campaigns only).
    Pending {
        /// Point key.
        key: String,
    },
}

impl PointResult {
    /// Encode as one stream line.
    pub fn encode(&self) -> String {
        match self {
            PointResult::Done { key, cycles } => {
                format!("{{\"key\":\"{}\",\"cycles\":{cycles}}}", json_escape(key))
            }
            PointResult::Quarantined { key, kind, error } => format!(
                "{{\"key\":\"{}\",\"kind\":\"{}\",\"error\":\"{}\"}}",
                json_escape(key),
                json_escape(kind),
                json_escape(error)
            ),
            PointResult::Cancelled { key } => {
                format!("{{\"key\":\"{}\",\"cancelled\":1}}", json_escape(key))
            }
            PointResult::Pending { key } => {
                format!("{{\"key\":\"{}\",\"pending\":1}}", json_escape(key))
            }
        }
    }

    /// Parse one stream line.
    pub fn parse(line: &str) -> Result<PointResult, String> {
        let key = field_str(line, "key").ok_or_else(|| format!("point line missing key: {line}"))?;
        if let Some(cycles) = field_u64(line, "cycles") {
            return Ok(PointResult::Done { key, cycles });
        }
        if field_u64(line, "cancelled") == Some(1) {
            return Ok(PointResult::Cancelled { key });
        }
        if field_u64(line, "pending") == Some(1) {
            return Ok(PointResult::Pending { key });
        }
        Ok(PointResult::Quarantined {
            kind: field_str(line, "kind").unwrap_or_else(|| "unknown".to_string()),
            error: field_str(line, "error").unwrap_or_default(),
            key,
        })
    }

    /// The point key, whatever the outcome.
    pub fn key(&self) -> &str {
        match self {
            PointResult::Done { key, .. }
            | PointResult::Quarantined { key, .. }
            | PointResult::Cancelled { key }
            | PointResult::Pending { key } => key,
        }
    }
}

/// One event on a `watch` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A point completed.
    Point {
        /// Point key.
        key: String,
        /// Simulated cycles.
        cycles: u64,
    },
    /// A point was quarantined or shed.
    Quarantine {
        /// Point key.
        key: String,
        /// Failure class.
        kind: String,
        /// Rendered error.
        error: String,
    },
    /// The campaign changed lifecycle state; terminal states end the
    /// stream.
    State {
        /// New state (see [`state`]).
        state: String,
    },
}

impl Event {
    /// Encode as one stream line.
    pub fn encode(&self) -> String {
        match self {
            Event::Point { key, cycles } => format!(
                "{{\"event\":\"point\",\"key\":\"{}\",\"cycles\":{cycles}}}",
                json_escape(key)
            ),
            Event::Quarantine { key, kind, error } => format!(
                "{{\"event\":\"quarantine\",\"key\":\"{}\",\"kind\":\"{}\",\"error\":\"{}\"}}",
                json_escape(key),
                json_escape(kind),
                json_escape(error)
            ),
            Event::State { state } => format!("{{\"event\":\"state\",\"state\":\"{state}\"}}"),
        }
    }

    /// Parse one stream line.
    pub fn parse(line: &str) -> Result<Event, String> {
        match field_str(line, "event").ok_or_else(|| format!("not an event line: {line}"))?.as_str()
        {
            "point" => Ok(Event::Point {
                key: field_str(line, "key").ok_or("point event missing key")?,
                cycles: field_u64(line, "cycles").ok_or("point event missing cycles")?,
            }),
            "quarantine" => Ok(Event::Quarantine {
                key: field_str(line, "key").ok_or("quarantine event missing key")?,
                kind: field_str(line, "kind").unwrap_or_else(|| "unknown".to_string()),
                error: field_str(line, "error").unwrap_or_default(),
            }),
            "state" => Ok(Event::State {
                state: field_str(line, "state").ok_or("state event missing state")?,
            }),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Point { key, cycles } => write!(f, "point {key} = {cycles} cycles"),
            Event::Quarantine { key, kind, error } => {
                write!(f, "quarantine {key} [{kind}]: {error}")
            }
            Event::State { state } => write!(f, "campaign is {state}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            preset: Preset::Test,
            sms: 2,
            weight: 3,
            workloads: vec!["histo".to_string(), "lbm".to_string()],
            schemes: vec![Scheme::Baseline, Scheme::OperandLog { bytes: 8192 }],
            seed: Some(7),
            inject: Some(Inject::Panic),
            partition: Some(PartitionPolicy::Quarantine),
            pagesize: Some(PageSizePolicy::Transparent),
            sm_threads: Some(2),
        }
    }

    #[test]
    fn spec_round_trips_through_its_encoding() {
        let s = spec();
        let line = s.encode();
        assert_eq!(CampaignSpec::parse(&line), Ok(s.clone()));
        // Byte-stable: encode(parse(encode(x))) == encode(x) is what the
        // manifest digest relies on.
        assert_eq!(CampaignSpec::parse(&line).unwrap().encode(), line);
        assert_eq!(s.points(), 4);
        assert_eq!(
            s.keys(),
            vec![
                "histo/Baseline",
                "histo/OperandLog { bytes: 8192 }",
                "lbm/Baseline",
                "lbm/OperandLog { bytes: 8192 }"
            ]
        );
    }

    #[test]
    fn optional_spec_fields_stay_absent_from_old_lines() {
        // A pre-partitioning spec line parses to `None`s and re-encodes
        // byte-identically — old manifests keep their digests.
        let line = "{\"preset\":\"Test\",\"sms\":2,\"weight\":1,\"workloads\":\"histo\",\"schemes\":\"Baseline\"}";
        let s = CampaignSpec::parse(line).unwrap();
        assert_eq!(s.seed, None);
        assert_eq!(s.inject, None);
        assert_eq!(s.partition, None);
        assert_eq!(s.pagesize, None);
        assert_eq!(s.sm_threads, None);
        assert_eq!(s.encode(), line);
        assert!(
            CampaignSpec::parse(&line.replace('}', ",\"partition\":\"exclusive\"}")).is_err(),
            "unknown partition tokens must be rejected"
        );
        assert!(
            CampaignSpec::parse(&line.replace('}', ",\"pagesize\":\"giant\"}")).is_err(),
            "unknown page-size tokens must be rejected"
        );
    }

    #[test]
    fn legacy_sm_threads_key_round_trips_verbatim() {
        // The line a previous build wrote into a manifest for a campaign
        // submitted with `sm_threads=2`: the value is ignored, but the
        // bytes (and so the campaign digest) must survive parse/encode.
        let line = "{\"preset\":\"Test\",\"sms\":4,\"weight\":1,\"workloads\":\"sad,spmv\",\"schemes\":\"WdLastCheck\",\"sm_threads\":2}";
        let s = CampaignSpec::parse(line).unwrap();
        assert_eq!(s.sm_threads, Some(2));
        assert_eq!(s.encode(), line);
    }

    #[test]
    fn out_of_range_spec_integers_are_errors_naming_the_field() {
        let line = "{\"preset\":\"Test\",\"sms\":2,\"weight\":1,\"workloads\":\"histo\",\"schemes\":\"Baseline\",\"sm_threads\":2}";
        assert!(CampaignSpec::parse(line).is_ok());
        // 2^32 + 2 truncates to a plausible 2, 2^32 to 0.
        for (field, narrow, wide) in [
            ("sms", "\"sms\":2", "\"sms\":4294967298"),
            ("weight", "\"weight\":1", "\"weight\":4294967296"),
            ("sm_threads", "\"sm_threads\":2", "\"sm_threads\":4294967298"),
        ] {
            let err = CampaignSpec::parse(&line.replace(narrow, wide)).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn scheme_tokens_cover_every_variant() {
        for s in [
            Scheme::Baseline,
            Scheme::WdCommit,
            Scheme::WdLastCheck,
            Scheme::ReplayQueue,
            Scheme::OperandLog { bytes: 16384 },
        ] {
            assert_eq!(parse_scheme(&scheme_token(s)), Ok(s));
        }
        assert!(parse_scheme("OperandLog:lots").is_err());
        assert!(parse_scheme("Magic").is_err());
    }

    #[test]
    fn requests_round_trip() {
        for r in [
            Request::Submit {
                tenant: "a\"b".to_string(),
                campaign: "c1".to_string(),
                spec: spec(),
            },
            Request::Status { tenant: "t".to_string(), campaign: "c".to_string() },
            Request::Results { tenant: "t".to_string(), campaign: "c".to_string() },
            Request::Watch { tenant: "t".to_string(), campaign: "c".to_string() },
            Request::Cancel { tenant: "t".to_string(), campaign: "c".to_string() },
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&r.encode()), Ok(r));
        }
        assert!(Request::parse("{\"op\":\"submit\"}").is_err());
        assert!(Request::parse("garbage").is_err());
        assert!(
            Request::parse("{\"op\":\"status\",\"tenant\":\"a/b\",\"campaign\":\"c\"}").is_err(),
            "tenant names may not contain the id separator"
        );
    }

    #[test]
    fn replies_events_and_points_round_trip() {
        let s = StatusReply {
            id: "t/c".to_string(),
            state: state::RUNNING.to_string(),
            points: 8,
            done: 3,
            quarantined: 1,
            cancelled: 0,
            resumed: 2,
        };
        assert_eq!(StatusReply::parse(&s.encode()), Ok(s));
        assert_eq!(
            StatusReply::parse("{\"ok\":0,\"error\":\"queue full\",\"shed\":1}"),
            Err("queue full".to_string())
        );
        assert!(is_shed("{\"ok\":0,\"error\":\"queue full\",\"shed\":1}"));
        assert!(!is_shed("{\"ok\":0,\"error\":\"unknown campaign\"}"));

        for p in [
            PointResult::Done { key: "histo/Baseline".to_string(), cycles: 42 },
            PointResult::Quarantined {
                key: "lbm/ReplayQueue".to_string(),
                kind: "panic".to_string(),
                error: "injected \"panic\"".to_string(),
            },
            PointResult::Cancelled { key: "k".to_string() },
            PointResult::Pending { key: "k".to_string() },
        ] {
            assert_eq!(PointResult::parse(&p.encode()), Ok(p));
        }

        for e in [
            Event::Point { key: "histo/Baseline".to_string(), cycles: 42 },
            Event::Quarantine {
                key: "k".to_string(),
                kind: "deadline".to_string(),
                error: "e".to_string(),
            },
            Event::State { state: state::DONE.to_string() },
        ] {
            assert_eq!(Event::parse(&e.encode()), Ok(e));
        }
    }

    #[test]
    fn terminal_states_are_exactly_the_three() {
        assert!(state::is_terminal(state::DONE));
        assert!(state::is_terminal(state::QUARANTINED));
        assert!(state::is_terminal(state::CANCELLED));
        assert!(!state::is_terminal(state::QUEUED));
        assert!(!state::is_terminal(state::RUNNING));
    }
}
