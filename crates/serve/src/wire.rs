//! The campaign server's wire protocol: JSON lines over TCP.
//!
//! Every message is one line holding one flat JSON object with string and
//! unsigned-integer members only — the dialect the campaign journal
//! speaks, written by the same [`Line`] and read by the same
//! [`Fields::parse`]. The accepted grammar is standard JSON in that
//! shape: any whitespace between tokens and every escape are accepted,
//! unknown keys are ignored, and duplicate keys, trailing bytes or any
//! other value type reject the line. Requests carry an `"op"` field;
//! replies carry `"ok":1` or `"ok":0` plus an `"error"`.
//! Campaign specs travel as one escaped spec-line inside the submit
//! request and are stored verbatim in the on-disk
//! [`gex::CampaignManifest`], so the bytes that admitted a campaign are
//! the bytes that resume it after a crash.
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
//! lines until the campaign reaches a terminal state. Every other reply
//! is a [`Reply`].

use gex::journal::{Fields, Line};
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
    /// Every point reports a blown cycle deadline at the bound its budget
    /// meters (the policy's deadline, else the budget's fallback).
    Deadline,
}

impl Inject {
    fn token(self) -> &'static str {
        match self {
            Inject::Panic => "panic",
            Inject::Deadline => "deadline",
        }
    }

    fn parse(s: &str) -> Option<Inject> {
        match s {
            "panic" => Some(Inject::Panic),
            "deadline" => Some(Inject::Deadline),
            _ => None,
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
    /// `None` means 4 KB pages — old spec lines parse and re-encode
    /// unchanged, so campaign digests (and therefore crash/resume
    /// identity) are unaffected.
    pub pagesize: Option<PageSizePolicy>,
}

fn preset_token(p: Preset) -> &'static str {
    match p {
        Preset::Test => "Test",
        Preset::Bench => "Bench",
        Preset::Paper => "Paper",
    }
}

fn parse_preset(s: &str) -> Result<Preset, String> {
    let token = s.to_ascii_lowercase();
    Preset::parse(&token).ok_or_else(|| format!("unknown preset {token:?} (test|bench|paper)"))
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

/// The optional token member `key`, read by `parse`; `choices` lists the
/// tokens it accepts.
fn token<T>(
    f: &Fields,
    key: &str,
    parse: fn(&str) -> Option<T>,
    choices: &str,
) -> Result<Option<T>, String> {
    let Some(s) = f.str(key) else { return Ok(None) };
    parse(s).map(Some).ok_or_else(|| format!("unknown {key} {s:?} ({choices})"))
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
        }
    }

    /// Canonical single-line encoding, stable across encode/parse round
    /// trips — the line is stored verbatim in the campaign manifest and
    /// folded into the campaign digest, so byte stability is part of the
    /// resume contract.
    pub fn encode(&self) -> String {
        let schemes: Vec<String> = self.schemes.iter().map(|&x| scheme_token(x)).collect();
        let mut line = Line::default()
            .str("preset", preset_token(self.preset))
            .u64("sms", self.sms.into())
            .u64("weight", self.weight.into())
            .str("workloads", &self.workloads.join(","))
            .str("schemes", &schemes.join(","));
        if let Some(seed) = self.seed {
            line = line.u64("seed", seed);
        }
        if let Some(inject) = self.inject {
            line = line.str("inject", inject.token());
        }
        if let Some(partition) = self.partition {
            line = line.str("partition", partition.token());
        }
        if let Some(pagesize) = self.pagesize {
            line = line.str("pagesize", pagesize.token());
        }
        line.end()
    }

    /// Parse an [`CampaignSpec::encode`]d spec line.
    pub fn parse(line: &str) -> Result<CampaignSpec, String> {
        let f = Fields::parse(line)?;
        // A value that does not fit is an error naming the field, never a
        // truncation: the wire is outside input, and `sms` 2^32 + 2 must
        // not be admitted as 2 SMs.
        let u32_of = |key: &str| -> Result<Option<u32>, String> {
            let Some(n) = f.u64(key) else { return Ok(None) };
            u32::try_from(n).map(Some).map_err(|_| format!("spec {key} = {n} does not fit 32 bits"))
        };
        let list = |key: &str| {
            let s = f.str(key).ok_or_else(|| format!("spec missing {key}"))?;
            Ok::<_, String>(s.split(',').filter(|s| !s.is_empty()))
        };
        let preset = parse_preset(f.str("preset").ok_or("spec missing preset")?)?;
        let sms = u32_of("sms")?.ok_or("spec missing sms")?;
        let weight = u32_of("weight")?.unwrap_or(1).max(1);
        let workloads: Vec<String> = list("workloads")?.map(str::to_string).collect();
        let schemes = list("schemes")?.map(parse_scheme).collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() || schemes.is_empty() {
            return Err("spec needs at least one workload and one scheme".to_string());
        }
        Ok(CampaignSpec {
            preset,
            sms,
            weight,
            workloads,
            schemes,
            seed: f.u64("seed"),
            inject: token(&f, "inject", Inject::parse, "panic|deadline")?,
            partition: token(&f, "partition", PartitionPolicy::parse, "shared|static|quarantine")?,
            pagesize: token(&f, "pagesize", PageSizePolicy::parse, "small|transparent|hugeonly")?,
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
        let op = |op| Line::default().str("op", op);
        let pair = |o, t: &str, c: &str| op(o).str("tenant", t).str("campaign", c);
        match self {
            Request::Submit { tenant, campaign, spec } => {
                pair("submit", tenant, campaign).str("spec", &spec.encode())
            }
            Request::Status { tenant, campaign } => pair("status", tenant, campaign),
            Request::Results { tenant, campaign } => pair("results", tenant, campaign),
            Request::Watch { tenant, campaign } => pair("watch", tenant, campaign),
            Request::Cancel { tenant, campaign } => pair("cancel", tenant, campaign),
            Request::Ping => op("ping"),
            Request::Shutdown => op("shutdown"),
        }
        .end()
    }

    /// Parse one wire line into a request.
    pub fn parse(line: &str) -> Result<Request, String> {
        let f = Fields::parse(line)?;
        let tenant_campaign = || -> Result<(String, String), String> {
            let tenant = f.str("tenant").ok_or("request missing tenant")?;
            let campaign = f.str("campaign").ok_or("request missing campaign")?;
            if tenant.is_empty() || campaign.is_empty() || tenant.contains('/') {
                return Err("tenant and campaign must be non-empty; tenant may not contain '/'"
                    .to_string());
            }
            Ok((tenant.to_string(), campaign.to_string()))
        };
        match f.str("op").ok_or("request missing op")? {
            "submit" => {
                let (tenant, campaign) = tenant_campaign()?;
                let spec = CampaignSpec::parse(f.str("spec").ok_or("submit missing spec")?)?;
                Ok(Request::Submit { tenant, campaign, spec })
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
        self.line().end()
    }

    /// Encode as the reply to a submit that re-attached to the live
    /// campaign of the same name and spec.
    pub fn encode_attached(&self) -> String {
        self.line().u64("attached", 1).end()
    }

    fn line(&self) -> Line {
        Line::default()
            .u64("ok", 1)
            .str("campaign", &self.id)
            .str("state", &self.state)
            .u64("points", self.points)
            .u64("done", self.done)
            .u64("quarantined", self.quarantined)
            .u64("cancelled", self.cancelled)
            .u64("resumed", self.resumed)
    }

    /// Parse a reply line into counters.
    pub fn parse(line: &str) -> Result<StatusReply, String> {
        let f = Fields::parse(line)?;
        if f.u64("ok") != Some(1) {
            return Err(f.str("error").unwrap_or("not a status reply").to_string());
        }
        Ok(StatusReply {
            id: f.str("campaign").ok_or("reply missing campaign")?.to_string(),
            state: f.str("state").ok_or("reply missing state")?.to_string(),
            points: f.u64("points").ok_or("reply missing points")?,
            done: f.u64("done").unwrap_or(0),
            quarantined: f.u64("quarantined").unwrap_or(0),
            cancelled: f.u64("cancelled").unwrap_or(0),
            resumed: f.u64("resumed").unwrap_or(0),
        })
    }
}

/// Every reply line that is neither a [`StatusReply`] nor a line of a
/// `results` or `watch` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The request was refused, for the rendered reason.
    Error(String),
    /// Admission control load-shed the request, for the rendered reason:
    /// valid back-pressure, to be retried later or at lower volume.
    Shed(String),
    /// Answers `ping`.
    Pong,
    /// Answers `shutdown`.
    Stopping,
    /// Answers `watch` for the campaign id; its event lines follow.
    Watching(String),
    /// Closes a `results` stream.
    End,
}

impl Reply {
    /// Encode as one reply line.
    pub fn encode(&self) -> String {
        let ok = |ok| Line::default().u64("ok", ok);
        match self {
            Reply::Error(e) => ok(0).str("error", e),
            Reply::Shed(e) => ok(0).u64("shed", 1).str("error", e),
            Reply::Pong => ok(1).u64("pong", 1),
            Reply::Stopping => ok(1).u64("stopping", 1),
            Reply::Watching(id) => ok(1).str("watching", id),
            Reply::End => Line::default().u64("end", 1),
        }
        .end()
    }

    /// Parse one reply line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let f = Fields::parse(line)?;
        let flag = |key: &str| f.u64(key) == Some(1);
        Ok(match (f.u64("ok"), f.str("error"), f.str("watching")) {
            (Some(0), Some(e), _) if flag("shed") => Reply::Shed(e.to_string()),
            (Some(0), Some(e), _) => Reply::Error(e.to_string()),
            (Some(1), _, _) if flag("pong") => Reply::Pong,
            (Some(1), _, _) if flag("stopping") => Reply::Stopping,
            (Some(1), _, Some(id)) => Reply::Watching(id.to_string()),
            (None, _, _) if flag("end") => Reply::End,
            _ => return Err(format!("unexpected reply: {line}")),
        })
    }
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
        let line = Line::default().str("key", self.key());
        match self {
            PointResult::Done { cycles, .. } => line.u64("cycles", *cycles),
            PointResult::Quarantined { kind, error, .. } => {
                line.str("kind", kind).str("error", error)
            }
            PointResult::Cancelled { .. } => line.u64("cancelled", 1),
            PointResult::Pending { .. } => line.u64("pending", 1),
        }
        .end()
    }

    /// Parse one stream line.
    pub fn parse(line: &str) -> Result<PointResult, String> {
        let f = Fields::parse(line)?;
        let key =
            f.str("key").ok_or_else(|| format!("point line missing key: {line}"))?.to_string();
        if let Some(cycles) = f.u64("cycles") {
            return Ok(PointResult::Done { key, cycles });
        }
        if f.u64("cancelled") == Some(1) {
            return Ok(PointResult::Cancelled { key });
        }
        if f.u64("pending") == Some(1) {
            return Ok(PointResult::Pending { key });
        }
        Ok(PointResult::Quarantined {
            kind: f.str("kind").unwrap_or("unknown").to_string(),
            error: f.str("error").unwrap_or_default().to_string(),
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
        let event = |event| Line::default().str("event", event);
        match self {
            Event::Point { key, cycles } => event("point").str("key", key).u64("cycles", *cycles),
            Event::Quarantine { key, kind, error } => {
                event("quarantine").str("key", key).str("kind", kind).str("error", error)
            }
            Event::State { state } => event("state").str("state", state),
        }
        .end()
    }

    /// Parse one stream line.
    pub fn parse(line: &str) -> Result<Event, String> {
        let f = Fields::parse(line)?;
        match f.str("event").ok_or_else(|| format!("not an event line: {line}"))? {
            "point" => Ok(Event::Point {
                key: f.str("key").ok_or("point event missing key")?.to_string(),
                cycles: f.u64("cycles").ok_or("point event missing cycles")?,
            }),
            "quarantine" => Ok(Event::Quarantine {
                key: f.str("key").ok_or("quarantine event missing key")?.to_string(),
                kind: f.str("kind").unwrap_or("unknown").to_string(),
                error: f.str("error").unwrap_or_default().to_string(),
            }),
            "state" => Ok(Event::State {
                state: f.str("state").ok_or("state event missing state")?.to_string(),
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
    fn out_of_range_spec_integers_are_errors_naming_the_field() {
        let line = "{\"preset\":\"Test\",\"sms\":2,\"weight\":1,\"workloads\":\"histo\",\"schemes\":\"Baseline\",\"sm_threads\":2}";
        assert!(CampaignSpec::parse(line).is_ok());
        // 2^32 + 2 truncates to a plausible 2, 2^32 to 0.
        for (field, narrow, wide) in [
            ("sms", "\"sms\":2", "\"sms\":4294967298"),
            ("weight", "\"weight\":1", "\"weight\":4294967296"),
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
        assert_eq!(
            Reply::parse("{\"ok\":0,\"error\":\"queue full\",\"shed\":1}"),
            Ok(Reply::Shed("queue full".to_string()))
        );
        assert_eq!(
            Reply::parse("{\"ok\":0,\"error\":\"unknown campaign\"}"),
            Ok(Reply::Error("unknown campaign".to_string()))
        );

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
    fn standard_json_spellings_are_read_and_broken_lines_refused() {
        let submit = Request::Submit {
            tenant: "t".to_string(),
            campaign: "c".to_string(),
            spec: CampaignSpec::new(
                Preset::Test,
                2,
                vec!["histo".to_string()],
                vec![Scheme::Baseline],
            ),
        };
        let status =
            Request::Status { tenant: "a\tb\nc".to_string(), campaign: "d/e\u{1f600}".to_string() };
        let sms_2x = submit.encode().replace(r#"\"sms\":2,"#, r#"\"sms\":2x,"#);
        let spaced = r#"{"op": "submit", "tenant": "t", "campaign": "c", "spec": "{\"preset\": \"Test\", \"sms\": 2, \"weight\": 1, \"workloads\": \"histo\", \"schemes\": \"Baseline\"}"}"#;
        for (line, want) in [
            (r#"{"op": "ping"}"#, Some(Request::Ping)),
            (spaced, Some(submit)),
            (r#"{"op":"status","tenant":"a\tb\nc","campaign":"d\/e\ud83d\ude00"}"#, Some(status)),
            (r#"garbage "op":"ping" trailing"#, None),
            (r#"{"op":"shutdown","op":"ping"}"#, None),
            (r#"{"op":"ping"}}"#, None),
            (&sms_2x, None),
        ] {
            assert_eq!(Request::parse(line).ok(), want, "{line}");
        }
    }

    /// Every encoder's bytes, literally: campaign digests, journals and
    /// manifests written by earlier builds keep resuming only while these
    /// stay put.
    #[test]
    fn every_encoder_writes_the_pinned_bytes() {
        let dir = std::env::temp_dir().join(format!("gex-wire-pins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let minimal =
            CampaignSpec::new(Preset::Test, 2, vec!["histo".to_string()], vec![Scheme::Baseline]);
        let digest = gex::journal::digest("alice/fig10|grid");
        let journal = dir.join("pins.jsonl");
        gex::CampaignJournal::open(&journal, digest)
            .unwrap()
            .record("sgemm/OperandLog { bytes: 8192 }", 1_234_567);
        let manifest = gex::CampaignManifest {
            id: "alice/fig10".to_string(),
            tenant: "alice".to_string(),
            digest,
            spec: minimal.encode(),
        }
        .save(&dir)
        .unwrap();
        let files = std::fs::read_to_string(&journal).unwrap()
            + &std::fs::read_to_string(manifest).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let (t, c) = ("al\"ice".to_string(), "fig\u{1}10".to_string());
        let status = StatusReply {
            id: "alice/fig10".to_string(),
            state: state::RUNNING.to_string(),
            points: 8,
            done: 3,
            quarantined: 1,
            cancelled: 0,
            resumed: 2,
        };
        let replies = [
            Reply::Error("unknown \"campaign\"".to_string()),
            Reply::Shed("campaign limit reached (64)".to_string()),
            Reply::Pong,
            Reply::Stopping,
            Reply::Watching("alice/fig10".to_string()),
            Reply::End,
        ];
        for r in &replies {
            assert_eq!(Reply::parse(&r.encode()).as_ref(), Ok(r));
        }
        let mut written: Vec<String> = [
            Request::Submit { tenant: t.clone(), campaign: c.clone(), spec: spec() },
            Request::Status { tenant: t.clone(), campaign: c.clone() },
            Request::Results { tenant: t.clone(), campaign: c.clone() },
            Request::Watch { tenant: t.clone(), campaign: c.clone() },
            Request::Cancel { tenant: t, campaign: c },
            Request::Ping,
            Request::Shutdown,
        ]
        .iter()
        .map(Request::encode)
        .collect();
        written.extend([spec().encode(), minimal.encode(), status.encode()]);
        written.push(status.encode_attached());
        written.extend(replies.iter().map(Reply::encode));
        let quarantined = |kind: &str, error: &str| PointResult::Quarantined {
            key: "lbm/ReplayQueue".to_string(),
            kind: kind.to_string(),
            error: error.to_string(),
        };
        written.extend(
            [
                PointResult::Done { key: "histo/Baseline".to_string(), cycles: 42 },
                quarantined("panic", "injected \"panic\"\n"),
                PointResult::Cancelled { key: "k".to_string() },
                PointResult::Pending { key: "k".to_string() },
            ]
            .iter()
            .map(PointResult::encode),
        );
        written.extend(
            [
                Event::Point { key: "histo/Baseline".to_string(), cycles: 42 },
                Event::Quarantine {
                    key: "k".to_string(),
                    kind: "deadline".to_string(),
                    error: "e".to_string(),
                },
                Event::State { state: state::DONE.to_string() },
            ]
            .iter()
            .map(Event::encode),
        );
        written.extend(files.lines().map(str::to_string));
        // The server's quarantine sidecar line.
        written.push(quarantined("shed", "tenant fault budget exhausted").encode());

        let pinned = [
            r#"{"op":"submit","tenant":"al\"ice","campaign":"fig\u000110","spec":"{\"preset\":\"Test\",\"sms\":2,\"weight\":3,\"workloads\":\"histo,lbm\",\"schemes\":\"Baseline,OperandLog:8192\",\"seed\":7,\"inject\":\"panic\",\"partition\":\"quarantine\",\"pagesize\":\"transparent\"}"}"#,
            r#"{"op":"status","tenant":"al\"ice","campaign":"fig\u000110"}"#,
            r#"{"op":"results","tenant":"al\"ice","campaign":"fig\u000110"}"#,
            r#"{"op":"watch","tenant":"al\"ice","campaign":"fig\u000110"}"#,
            r#"{"op":"cancel","tenant":"al\"ice","campaign":"fig\u000110"}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"preset":"Test","sms":2,"weight":3,"workloads":"histo,lbm","schemes":"Baseline,OperandLog:8192","seed":7,"inject":"panic","partition":"quarantine","pagesize":"transparent"}"#,
            r#"{"preset":"Test","sms":2,"weight":1,"workloads":"histo","schemes":"Baseline"}"#,
            r#"{"ok":1,"campaign":"alice/fig10","state":"running","points":8,"done":3,"quarantined":1,"cancelled":0,"resumed":2}"#,
            r#"{"ok":1,"campaign":"alice/fig10","state":"running","points":8,"done":3,"quarantined":1,"cancelled":0,"resumed":2,"attached":1}"#,
            r#"{"ok":0,"error":"unknown \"campaign\""}"#,
            r#"{"ok":0,"shed":1,"error":"campaign limit reached (64)"}"#,
            r#"{"ok":1,"pong":1}"#,
            r#"{"ok":1,"stopping":1}"#,
            r#"{"ok":1,"watching":"alice/fig10"}"#,
            r#"{"end":1}"#,
            r#"{"key":"histo/Baseline","cycles":42}"#,
            r#"{"key":"lbm/ReplayQueue","kind":"panic","error":"injected \"panic\"\u000a"}"#,
            r#"{"key":"k","cancelled":1}"#,
            r#"{"key":"k","pending":1}"#,
            r#"{"event":"point","key":"histo/Baseline","cycles":42}"#,
            r#"{"event":"quarantine","key":"k","kind":"deadline","error":"e"}"#,
            r#"{"event":"state","state":"done"}"#,
            r#"{"gex_campaign":1,"digest":"1f873141467229e9"}"#,
            r#"{"key":"sgemm/OperandLog { bytes: 8192 }","cycles":1234567}"#,
            r#"{"gex_manifest":1,"id":"alice/fig10","tenant":"alice","digest":"1f873141467229e9","spec":"{\"preset\":\"Test\",\"sms\":2,\"weight\":1,\"workloads\":\"histo\",\"schemes\":\"Baseline\"}"}"#,
            r#"{"key":"lbm/ReplayQueue","kind":"shed","error":"tenant fault budget exhausted"}"#,
        ];
        assert_eq!(written.len(), pinned.len());
        for (line, pin) in written.iter().zip(pinned) {
            assert_eq!(line, pin);
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
