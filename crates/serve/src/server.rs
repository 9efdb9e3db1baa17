//! The campaign daemon: admission, dispatch, quarantine, crash recovery.
//!
//! One listener thread accepts TCP connections and spawns a
//! line-protocol handler per client. [`ServerConfig::workers`] worker
//! threads each take one point at a time off the [`TenantScheduler`] and
//! run it through [`gex::run_supervised`] as a one-point grid, so every
//! supervision property of the batch drivers — panic isolation, one run
//! per point under its cycle budget, per-point quarantine — holds per point
//! here too, and a finished point is applied at once, whatever its
//! neighbours on the other workers are doing. All shared state sits
//! behind one mutex; simulation happens strictly outside it.
//!
//! ## Durability
//!
//! With a journal directory configured, admission writes a
//! [`CampaignManifest`] (atomic rename) *before* acknowledging the
//! submit, every finished point is flushed into the campaign's
//! [`CampaignJournal`] before the result is applied, quarantines append
//! to a `<digest>.q.jsonl` sidecar, and cancellation drops a
//! `<digest>.cancelled` marker. A `kill -9` at any instant therefore
//! loses at most points that were mid-simulation; a restart with the same
//! directory reloads every accepted campaign and re-simulates only the
//! missing points — the deterministic simulator makes the completed
//! figure byte-identical to an uninterrupted run.

use crate::tenant::{Job, TenantScheduler};
use crate::wire::{state, CampaignSpec, Event, Inject, PointResult, Reply, Request, StatusReply};
use gex::journal;
use gex::workloads::suite;
use gex::{
    run_supervised, BudgetExceeded, CampaignJournal, CampaignManifest, CancelToken,
    DeadlineDiagnostic, FailureKind, GpuConfig, InjectionPlan, Interconnect, JournalForm, Outcome,
    PagingMode, PartitionPolicy, PointSpec, QuarantineRecord, Residency, RunBudget, Sharing,
    SimError, SupervisePolicy, TenantId, TenantWorkload, Workload,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (the bound address is on
    /// the [`ServerHandle`]).
    pub addr: String,
    /// Durability root: manifests, journals, quarantine sidecars and
    /// cancel markers live here. `None` runs fully in memory (no crash
    /// recovery).
    pub journal_dir: Option<PathBuf>,
    /// Worker threads, each simulating one point at a time; `0` means
    /// [`gex_exec::threads`] (`GEX_THREADS`, else one per core).
    pub workers: usize,
    /// Admission bound: a submit whose grid would push the queued-point
    /// total past this is load-shed with an explicit `shed` reply.
    pub max_pending_points: usize,
    /// Admission bound on live campaigns: finished, quarantined and
    /// cancelled ones do not count.
    pub max_campaigns: usize,
    /// Per-point supervision policy (the cycle budget each point runs
    /// once under).
    pub policy: SupervisePolicy,
    /// Per-tenant fault budget: once a tenant has accumulated this many
    /// failed points (panics, deadline overruns, fatal errors — not
    /// cancellations) *or in-run fault storms (partitioned points whose
    /// stream got quarantined inside a shared simulation)*, all of that
    /// tenant's campaigns are quarantined: running points are cancelled,
    /// queued points are shed unrun, new submits are rejected. Other
    /// tenants are unaffected.
    pub tenant_fault_budget: u32,
    /// In-run fault budget for partitioned points (fresh 64 KB fault
    /// regions the tenant's stream may open inside one shared
    /// simulation). Exhausting it under the `quarantine` policy locks the
    /// stream out mid-run; the point still completes, but the storm
    /// charges [`ServerConfig::tenant_fault_budget`]. Generous by default
    /// so healthy workloads never trip it.
    pub stream_fault_budget: u32,
    /// Request-line deadline: a connection that has not completed a line
    /// this long after starting to read it (idle, wedged or trickling) is
    /// dropped so stuck clients can't pin handler threads forever.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            journal_dir: None,
            workers: 0,
            max_pending_points: 1024,
            max_campaigns: 64,
            policy: SupervisePolicy::default(),
            tenant_fault_budget: 4,
            stream_fault_budget: 64,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// A point's lifecycle inside a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PointState {
    /// Queued in the tenant scheduler (or waiting to be).
    Pending,
    /// Claimed by a worker and simulating.
    Running,
    /// Completed, holding the value its journal stores (see [`decode`]).
    Done(u64),
    /// Quarantined (`kind` is a [`FailureKind`] token, or `shed` for a
    /// point dropped unrun by its tenant's quarantine).
    Quarantined { kind: String, error: String },
    /// Cancelled before or during its run.
    Cancelled,
}

impl PointState {
    fn is_terminal(&self) -> bool {
        !matches!(self, PointState::Pending | PointState::Running)
    }
}

/// One tracked campaign.
struct Campaign {
    tenant: String,
    spec: CampaignSpec,
    keys: Vec<String>,
    /// Per-point workload/scheme resolution, index-aligned with `keys`.
    grid: Vec<(Arc<Workload>, gex::Scheme)>,
    /// The spec's partitioning policy with the background neighbor every
    /// point then shares the GPU with.
    sharing: Option<(PartitionPolicy, Arc<TenantWorkload>)>,
    points: Vec<PointState>,
    digest: u64,
    journal: Option<Arc<CampaignJournal>>,
    token: CancelToken,
    watchers: Vec<mpsc::Sender<Event>>,
    cancelled: bool,
    resumed: u64,
    /// The terminal state event has been emitted (idempotence guard).
    closed: bool,
}

impl Campaign {
    fn state(&self) -> &'static str {
        if self.cancelled {
            if self.points.iter().all(|p| p.is_terminal()) {
                return state::CANCELLED;
            }
            return state::RUNNING; // cancelled, draining running points
        }
        if self.points.iter().all(|p| p.is_terminal()) {
            if self.points.iter().any(|p| matches!(p, PointState::Quarantined { .. })) {
                return state::QUARANTINED;
            }
            return state::DONE;
        }
        if self.points.iter().any(|p| !matches!(p, PointState::Pending)) {
            return state::RUNNING;
        }
        state::QUEUED
    }

    fn status(&self, id: &str) -> StatusReply {
        let mut done = 0;
        let mut quarantined = 0;
        let mut cancelled = 0;
        for p in &self.points {
            match p {
                PointState::Done(_) => done += 1,
                PointState::Quarantined { .. } => quarantined += 1,
                PointState::Cancelled => cancelled += 1,
                _ => {}
            }
        }
        StatusReply {
            id: id.to_string(),
            state: self.state().to_string(),
            points: self.points.len() as u64,
            done,
            quarantined,
            cancelled,
            resumed: self.resumed,
        }
    }

    fn results(&self) -> Vec<PointResult> {
        self.keys
            .iter()
            .zip(&self.points)
            .map(|(key, p)| match p {
                PointState::Done(cycles) => {
                    PointResult::Done { key: key.clone(), cycles: decode(*cycles).cycles }
                }
                PointState::Quarantined { kind, error } => PointResult::Quarantined {
                    key: key.clone(),
                    kind: kind.clone(),
                    error: error.clone(),
                },
                PointState::Cancelled => PointResult::Cancelled { key: key.clone() },
                PointState::Pending | PointState::Running => {
                    PointResult::Pending { key: key.clone() }
                }
            })
            .collect()
    }

    /// Events replaying everything that already happened, for a watcher
    /// attaching mid-campaign.
    fn replay(&self) -> Vec<Event> {
        self.results()
            .into_iter()
            .filter_map(|r| match r {
                PointResult::Done { key, cycles } => Some(Event::Point { key, cycles }),
                PointResult::Quarantined { key, kind, error } => {
                    Some(Event::Quarantine { key, kind, error })
                }
                _ => None,
            })
            .collect()
    }
}

/// Mutable server state, behind the one lock.
struct State {
    campaigns: HashMap<String, Campaign>,
    sched: TenantScheduler,
    /// Failed points per tenant (for the tenant fault budget).
    tenant_faults: HashMap<String, u32>,
    /// Tenants whose fault budget is exhausted.
    quarantined_tenants: Vec<String>,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
}

/// Simulator identity of the server's background neighbor on partitioned
/// points. Client tenant names may not contain `/`, so this can never
/// collide with a real tenant.
const BACKGROUND_TENANT: &str = "serve/background";

/// Benchmark the background neighbor runs (a steady, moderately faulting
/// victim the tenant's stream has to coexist with).
const BACKGROUND_WORKLOAD: &str = "histo";

/// Decode a stored point value. Points journal their raw
/// [`Outcome::to_journal`] value — on partitioned points bit 63 carries
/// the in-run storm flag — so it survives crash/resume byte-for-byte
/// while clients only ever see plain cycles.
fn decode(stored: u64) -> Outcome {
    Outcome::from_journal(stored, JournalForm::Cycles)
}

/// What a worker needs to simulate one point, self-contained so it holds
/// no lock while the point runs.
struct Task {
    id: String,
    index: usize,
    workload: Arc<Workload>,
    scheme: gex::Scheme,
    /// The point's GPU: the spec's SM count and page-size policy (4 KB
    /// pages when it names none).
    config: GpuConfig,
    seed: Option<u64>,
    inject: Option<Inject>,
    /// Shared-GPU points: the spec's partitioning policy and the neighbor
    /// sharing the GPU; `None` keeps the classic exclusive simulation.
    sharing: Option<(PartitionPolicy, Arc<TenantWorkload>)>,
    /// Owning tenant — becomes the stream's simulator [`TenantId`] on
    /// partitioned points.
    tenant: String,
    /// In-run fault budget for the tenant's stream (fresh fault regions).
    stream_budget: u32,
    token: CancelToken,
    journal: Option<Arc<CampaignJournal>>,
    key: String,
}

fn cancelled_err() -> SimError {
    SimError::Deadline(Box::new(DeadlineDiagnostic {
        cycle: 0,
        cause: BudgetExceeded::Cancelled,
        completed_blocks: 0,
        total_blocks: 0,
        committed: 0,
    }))
}

/// Run one point: the chaos hooks first, then the real simulator under
/// the policy's budget with the campaign token attached. A classic point
/// owns the GPU with everything resident. A partitioned point runs the
/// campaign's workload as a demand-paging tenant stream — carrying the
/// submitting tenant's identity down into the simulator — next to the
/// server's background neighbor; a journaled value with bit 63 set
/// records that the stream blew its in-run fault budget and was
/// quarantined inside the run, so the charge survives crash/resume.
/// Completed points are journaled (flushed) *here*, before the result is
/// applied — the kill-window guarantee.
fn run_point(p: &Task, budget: &RunBudget) -> Result<u64, SimError> {
    if p.token.is_cancelled() {
        return Err(cancelled_err());
    }
    match p.inject {
        Some(Inject::Panic) => panic!("injected panic for point {}", p.key),
        Some(Inject::Deadline) => {
            let deadline = budget.start().deadline_cycles();
            return Err(SimError::Deadline(Box::new(DeadlineDiagnostic {
                cycle: deadline,
                cause: BudgetExceeded::Cycles { deadline },
                completed_blocks: 0,
                total_blocks: 1,
                committed: 0,
            })));
        }
        None => {}
    }
    let (paging, residency) = match p.sharing {
        Some(_) => (PagingMode::demand(Interconnect::nvlink()), p.workload.demand_residency()),
        None => (PagingMode::AllResident, Residency::new()),
    };
    let mut spec = PointSpec::new(&p.workload, p.scheme, p.config.clone(), paging, &residency);
    spec.inject = p.seed.map(InjectionPlan::light);
    spec.sharing = p.sharing.as_ref().map(|(policy, neighbor)| Sharing {
        policy: *policy,
        stream: TenantId::new(p.tenant.clone()),
        stream_fault_budget: Some(p.stream_budget),
        neighbor,
    });
    let stored = gex::run_point(&spec, &budget.clone().with_token(p.token.clone()))?
        .to_journal(JournalForm::Cycles);
    if let Some(j) = &p.journal {
        j.record(&p.key, stored);
    }
    Ok(stored)
}

/// A running server: bound address plus shutdown/join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: in-flight points finish and are journaled,
    /// queued points stay queued (and resume on the next start when a
    /// journal directory is configured).
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }

    /// Shut down and wait for the listener and the workers to exit.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Block until the server stops on its own — i.e. until a client
    /// sends the `shutdown` op. This is the daemon main loop.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Start a server with `cfg`: bind, recover any campaigns from the
/// journal directory, then spawn the workers and the listener thread.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let mut st = State {
        campaigns: HashMap::new(),
        sched: TenantScheduler::new(),
        tenant_faults: HashMap::new(),
        quarantined_tenants: Vec::new(),
    };
    if let Some(dir) = &cfg.journal_dir {
        recover(&mut st, dir, cfg.tenant_fault_budget);
    }
    let inner = Arc::new(Inner {
        cfg,
        state: Mutex::new(st),
        work: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });

    let workers = if inner.cfg.workers == 0 { gex_exec::threads() } else { inner.cfg.workers };
    let mut threads: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        })
        .collect();
    threads.push({
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || accept_loop(&inner, listener))
    });
    Ok(ServerHandle { addr, inner, threads })
}

// ---------------------------------------------------------- durability

fn qfile_path(dir: &std::path::Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.q.jsonl"))
}

fn cancel_marker_path(dir: &std::path::Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.cancelled"))
}

/// Append one quarantine record to the campaign's sidecar (flushed, like
/// journal records: a quarantined point must not re-run after a crash).
fn persist_quarantine(dir: Option<&PathBuf>, digest: u64, key: &str, kind: &str, error: &str) {
    let Some(dir) = dir else { return };
    let point =
        PointResult::Quarantined { key: key.into(), kind: kind.into(), error: error.into() };
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open(qfile_path(dir, digest))
    {
        let _ = writeln!(f, "{}", point.encode());
        let _ = f.flush();
    }
}

/// The campaign digest covers the id plus the canonical spec line, so a
/// name reused with a different grid gets different files (and a journal
/// digest mismatch instead of silent cross-contamination).
fn campaign_digest(id: &str, spec: &CampaignSpec) -> u64 {
    journal::digest(&format!("{id}|{}", spec.encode()))
}

/// Build a `Campaign` from its spec under `digest`, which names its files:
/// resolve the workload grid, open the journal (restoring completed
/// points), load quarantined points from the sidecar and the cancel
/// marker. Returns the campaign plus the indices still needing
/// simulation, or an error string for unknown workloads.
fn build_campaign(
    tenant: &str,
    digest: u64,
    spec: CampaignSpec,
    dir: Option<&PathBuf>,
) -> Result<(Campaign, Vec<usize>), String> {
    // Reject unschedulable GPU shapes up front with a clean wire error:
    // these would otherwise surface as panics (or typed SimErrors that
    // quarantine every point) deep inside a worker. Manifests only
    // persist after this validation passes, so `recover()` never sees a
    // spec these checks would refuse.
    if spec.sms == 0 {
        return Err("spec needs at least one SM".to_string());
    }
    if spec.partition.is_some() && spec.sms < 2 {
        return Err(format!(
            "partitioned campaigns share the GPU with the server's background \
             neighbor and need at least 2 SMs (got {})",
            spec.sms
        ));
    }
    let mut resolved: Vec<Arc<Workload>> = Vec::with_capacity(spec.workloads.len());
    for name in &spec.workloads {
        match suite::by_name(name, spec.preset) {
            Some(w) => resolved.push(Arc::new(w)),
            None => return Err(format!("unknown workload {name:?}")),
        }
    }
    let keys = spec.keys();
    let grid: Vec<(Arc<Workload>, gex::Scheme)> = resolved
        .iter()
        .flat_map(|w| spec.schemes.iter().map(move |s| (Arc::clone(w), *s)))
        .collect();
    let sharing = match spec.partition {
        Some(policy) => match suite::by_name(BACKGROUND_WORKLOAD, spec.preset) {
            Some(w) => Some((policy, Arc::new(gex::point::neighbor(BACKGROUND_TENANT, &w)))),
            None => return Err(format!("no background workload at preset {:?}", spec.preset)),
        },
        None => None,
    };
    let mut points = vec![PointState::Pending; keys.len()];

    let journal = match dir {
        Some(dir) => match CampaignJournal::open(&journal::journal_path(dir, digest), digest) {
            Ok(j) => Some(Arc::new(j)),
            Err(e) => return Err(format!("cannot open campaign journal: {e}")),
        },
        None => None,
    };
    let mut resumed = 0;
    if let Some(j) = &journal {
        let by_key: HashMap<String, u64> = j.entries().into_iter().collect();
        for (i, key) in keys.iter().enumerate() {
            if let Some(&cycles) = by_key.get(key) {
                points[i] = PointState::Done(cycles);
                resumed += 1;
            }
        }
    }
    let mut cancelled = false;
    if let Some(dir) = dir {
        if let Ok(content) = std::fs::read_to_string(qfile_path(dir, digest)) {
            for line in content.lines() {
                // A torn tail does not parse and is skipped.
                if let Ok(PointResult::Quarantined { key, kind, error }) = PointResult::parse(line)
                {
                    if let Some(i) = keys.iter().position(|k| *k == key) {
                        if !points[i].is_terminal() {
                            points[i] = PointState::Quarantined { kind, error };
                        }
                    }
                }
            }
        }
        if cancel_marker_path(dir, digest).exists() {
            cancelled = true;
            for p in &mut points {
                if !p.is_terminal() {
                    *p = PointState::Cancelled;
                }
            }
        }
    }
    let pending: Vec<usize> =
        (0..points.len()).filter(|&i| points[i] == PointState::Pending).collect();
    let mut campaign = Campaign {
        tenant: tenant.to_string(),
        spec,
        keys,
        grid,
        sharing,
        points,
        digest,
        journal,
        token: CancelToken::new(),
        watchers: Vec::new(),
        cancelled,
        resumed,
        closed: false,
    };
    // A campaign whose every point is already settled on disk has
    // nothing left to run: close it now.
    notify(&mut campaign, Vec::new());
    Ok((campaign, pending))
}

/// Reload every campaign in `dir` and requeue its unfinished points —
/// the restart half of the crash-safety contract. Each campaign keeps the
/// digest its manifest stores, which names its journal and sidecar: a
/// spec line written by an earlier build may carry keys this one ignores,
/// so re-encoding it need not give back the same digest.
fn recover(st: &mut State, dir: &PathBuf, tenant_fault_budget: u32) {
    for m in journal::list_manifests(dir) {
        let Ok(spec) = CampaignSpec::parse(&m.spec) else { continue };
        let Ok((campaign, pending)) = build_campaign(&m.tenant, m.digest, spec, Some(dir)) else {
            continue;
        };
        // Recount the tenant's real failures (shed/cancelled don't
        // count), so a tenant that was quarantined stays quarantined
        // across the restart. Completed points whose journaled value
        // carries the storm flag recharge too.
        let faults = campaign
            .points
            .iter()
            .filter(|p| match p {
                PointState::Quarantined { kind, .. } => kind != "shed" && kind != "cancelled",
                PointState::Done(v) => decode(*v).locked_out,
                _ => false,
            })
            .count() as u32;
        if faults > 0 {
            *st.tenant_faults.entry(m.tenant.clone()).or_insert(0) += faults;
        }
        for i in pending {
            st.sched.enqueue(
                &m.tenant,
                campaign.spec.weight,
                Job { campaign: m.id.clone(), index: i },
            );
        }
        st.campaigns.insert(m.id.clone(), campaign);
    }
    let exhausted: Vec<String> = st
        .tenant_faults
        .iter()
        .filter(|(_, &n)| n >= tenant_fault_budget)
        .map(|(t, _)| t.clone())
        .collect();
    for tenant in exhausted {
        quarantine_tenant(st, &tenant, None);
    }
}

// ------------------------------------------------------------- workers

/// Quarantine every campaign of `tenant`: cancel running points, shed
/// queued ones (persisted so they stay shed across restarts), reject the
/// tenant's future submits. Pushes any generated events to watchers.
fn quarantine_tenant(st: &mut State, tenant: &str, dir: Option<&PathBuf>) {
    if !st.quarantined_tenants.iter().any(|t| t == tenant) {
        st.quarantined_tenants.push(tenant.to_string());
    }
    for (id, c) in st.campaigns.iter_mut().filter(|(_, c)| c.tenant == tenant) {
        let dropped = st.sched.drop_campaign(id);
        c.token.cancel();
        let mut events = Vec::new();
        for job in dropped {
            if c.points[job.index] == PointState::Pending {
                let error = "tenant fault budget exhausted".to_string();
                c.points[job.index] =
                    PointState::Quarantined { kind: "shed".to_string(), error: error.clone() };
                persist_quarantine(dir, c.digest, &c.keys[job.index], "shed", &error);
                events.push(Event::Quarantine {
                    key: c.keys[job.index].clone(),
                    kind: "shed".to_string(),
                    error,
                });
            }
        }
        notify(c, events);
    }
}

/// Send `events` (plus a terminal state event, once, if due) to the
/// campaign's watchers, pruning disconnected ones.
fn notify(c: &mut Campaign, mut events: Vec<Event>) {
    let st = c.state();
    if state::is_terminal(st) && !c.closed {
        c.closed = true;
        // Every point is terminal, so nothing will be dispatched from
        // this campaign again: let go of its workload traces (megabytes
        // each) and its journal file, and keep only what `status` and
        // `results` answer from.
        c.grid = Vec::new();
        c.sharing = None;
        c.journal = None;
        events.push(Event::State { state: st.to_string() });
    }
    if !events.is_empty() {
        c.watchers.retain(|w| events.iter().all(|e| w.send(e.clone()).is_ok()));
    }
    if c.closed {
        c.watchers.clear();
    }
}

/// One worker: claim the next runnable point under the lock, simulate it
/// without the lock, fold its result back under the lock, repeat until
/// shutdown.
fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = next_task(&mut st, &inner.cfg) {
                    break task;
                }
                let (guard, _) = inner
                    .work
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
            }
        };

        // A one-point supervised grid takes the supervisor's serial path:
        // this thread, a `catch_unwind` around the point, one run under
        // the policy's budget. Fault budgets are per tenant, so
        // `apply_result` enforces them, not the supervisor.
        let (id, index) = (task.id.clone(), task.index);
        let mut outcome =
            run_supervised(vec![(task.key.clone(), task)], &inner.cfg.policy, None, run_point);
        let result = outcome.values[0].ok_or_else(|| outcome.quarantine.records.remove(0));

        let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        apply_result(&mut st, &inner.cfg, &id, index, result);
    }
}

/// Pop the next runnable job and claim it, or `None` once the queue is
/// empty. Jobs whose campaign was cancelled or whose tenant got
/// quarantined between enqueue and now are finalized inline instead of
/// simulated.
fn next_task(st: &mut State, cfg: &ServerConfig) -> Option<Task> {
    loop {
        let job = st.sched.dequeue()?;
        let Some(c) = st.campaigns.get_mut(&job.campaign) else { continue };
        if c.points[job.index] != PointState::Pending {
            continue;
        }
        if c.cancelled || c.token.is_cancelled() {
            c.points[job.index] = PointState::Cancelled;
            notify(c, Vec::new());
            continue;
        }
        c.points[job.index] = PointState::Running;
        return Some(Task {
            id: job.campaign,
            index: job.index,
            workload: Arc::clone(&c.grid[job.index].0),
            scheme: c.grid[job.index].1,
            config: GpuConfig::kepler_k20()
                .with_sms(c.spec.sms)
                .with_page_size(c.spec.pagesize.unwrap_or_default()),
            seed: c.spec.seed,
            inject: c.spec.inject,
            sharing: c.sharing.clone(),
            tenant: c.tenant.clone(),
            stream_budget: cfg.stream_fault_budget,
            token: c.token.clone(),
            journal: c.journal.as_ref().map(Arc::clone),
            key: c.keys[job.index].clone(),
        });
    }
}

/// Fold one point's supervised result back into campaign state: record a
/// completion, persist a quarantine, charge the tenant's fault budget,
/// and quarantine the tenant once it is spent.
fn apply_result(
    st: &mut State,
    cfg: &ServerConfig,
    id: &str,
    index: usize,
    result: Result<u64, QuarantineRecord>,
) {
    let Some(c) = st.campaigns.get_mut(id) else { return };
    let key = c.keys[index].clone();
    let mut events = Vec::new();
    // Failed points charge the tenant fault budget, and so do completed
    // partitioned points carrying the in-run storm flag in bit 63: the
    // tenant's stream blew its fault budget inside the shared run.
    let charged = match result {
        Ok(stored) => {
            c.points[index] = PointState::Done(stored);
            let point = decode(stored);
            events.push(Event::Point { key, cycles: point.cycles });
            point.locked_out
        }
        Err(r) if r.kind == FailureKind::Cancelled => {
            c.points[index] = PointState::Cancelled;
            false
        }
        Err(r) => {
            let kind = r.kind.to_string();
            c.points[index] =
                PointState::Quarantined { kind: kind.clone(), error: r.error.clone() };
            persist_quarantine(cfg.journal_dir.as_ref(), c.digest, &key, &kind, &r.error);
            events.push(Event::Quarantine { key, kind, error: r.error });
            true
        }
    };
    let tenant = c.tenant.clone();
    notify(c, events);
    if charged {
        let n = st.tenant_faults.entry(tenant.clone()).or_insert(0);
        *n += 1;
        if *n >= cfg.tenant_fault_budget && !st.quarantined_tenants.contains(&tenant) {
            quarantine_tenant(st, &tenant, cfg.journal_dir.as_ref());
        }
    }
}

// ---------------------------------------------------------- connections

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let _ = serve_connection(&inner, stream);
        });
    }
}

fn reply(out: &mut impl Write, reply: Reply) -> io::Result<()> {
    writeln!(out, "{}", reply.encode())
}

fn reply_err(out: &mut impl Write, msg: &str) -> io::Result<()> {
    reply(out, Reply::Error(msg.to_string()))
}

/// Longest request line a connection may send (a full spec line is under
/// 1 KB). Without a bound, a client streaming bytes with no newline grows
/// one buffer as fast as it can send until the line's deadline.
const MAX_LINE_BYTES: u64 = 64 * 1024;

/// A connection's read half under one deadline: each read waits only for
/// the time left, so a trickling client cannot stretch a line past it, and
/// fails once none is left (a zero timeout is an error).
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.at.saturating_duration_since(Instant::now())))?;
        self.stream.read(buf)
    }
}

fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    // Idle/stuck clients are disconnected rather than pinning this
    // thread: each request line must arrive within `idle_timeout` of
    // starting to read it (writes time out after it too), and a line
    // longer than `MAX_LINE_BYTES` is answered with an error and closed.
    let timeout = inner.cfg.idle_timeout;
    stream.set_write_timeout(Some(timeout))?;
    // Replies are written fragment by fragment; Nagle would hold each
    // trailing fragment for the client's delayed ACK.
    stream.set_nodelay(true)?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(Deadline { stream, at: Instant::now() });
    let mut buf = Vec::new();
    loop {
        buf.clear();
        reader.get_mut().at = Instant::now() + timeout;
        match (&mut reader).take(MAX_LINE_BYTES + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return Ok(()), // EOF, timeout or disconnect: drop the client
            Ok(_) => {}
        }
        if buf.ends_with(b"\n") {
            let crlf = buf.ends_with(b"\r\n");
            buf.truncate(buf.len() - 1 - usize::from(crlf));
        } else if buf.len() as u64 > MAX_LINE_BYTES {
            return reply_err(&mut out, "request line exceeds 64 KiB");
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return Ok(()); // not text: drop the client
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                reply_err(&mut out, &e)?;
                continue;
            }
        };
        match req {
            Request::Ping => reply(&mut out, Reply::Pong)?,
            Request::Shutdown => {
                reply(&mut out, Reply::Stopping)?;
                inner.shutdown.store(true, Ordering::SeqCst);
                inner.work.notify_all();
                // An accepted connection's local address IS the listen
                // address; a self-connect unblocks the accept loop.
                if let Ok(addr) = out.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
            Request::Submit { tenant, campaign, spec } => {
                handle_submit(inner, &mut out, &tenant, &campaign, spec)?
            }
            Request::Status { tenant, campaign } => {
                let st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                match st.campaigns.get(&format!("{tenant}/{campaign}")) {
                    Some(c) => {
                        writeln!(out, "{}", c.status(&format!("{tenant}/{campaign}")).encode())?
                    }
                    None => reply_err(&mut out, "unknown campaign")?,
                }
            }
            Request::Results { tenant, campaign } => {
                let id = format!("{tenant}/{campaign}");
                let lines = {
                    let st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                    st.campaigns.get(&id).map(|c| {
                        let mut ls = vec![c.status(&id).encode()];
                        ls.extend(c.results().iter().map(PointResult::encode));
                        ls.push(Reply::End.encode());
                        ls
                    })
                };
                match lines {
                    Some(ls) => {
                        for l in ls {
                            writeln!(out, "{l}")?;
                        }
                    }
                    None => reply_err(&mut out, "unknown campaign")?,
                }
            }
            Request::Watch { tenant, campaign } => {
                handle_watch(inner, &mut out, &format!("{tenant}/{campaign}"))?
            }
            Request::Cancel { tenant, campaign } => {
                handle_cancel(inner, &mut out, &format!("{tenant}/{campaign}"))?
            }
        }
        out.flush()?;
    }
}

fn handle_submit(
    inner: &Inner,
    out: &mut impl Write,
    tenant: &str,
    campaign: &str,
    spec: CampaignSpec,
) -> io::Result<()> {
    let id = format!("{tenant}/{campaign}");
    let digest = campaign_digest(&id, &spec);
    let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
    if st.quarantined_tenants.iter().any(|t| t == tenant) {
        return reply_err(out, "tenant quarantined: fault budget exhausted");
    }
    if let Some(existing) = st.campaigns.get(&id) {
        // Idempotent re-attach: the same spec resubmitted (a client that
        // crashed after submit, or one re-joining after a server restart)
        // binds to the live campaign instead of erroring.
        if existing.digest == digest {
            return writeln!(out, "{}", existing.status(&id).encode_attached());
        }
        return reply_err(out, "campaign name already in use with a different spec");
    }
    // Admission control: bounded campaign count and queue depth, with
    // explicit load-shed replies so clients can back off instead of
    // timing out against an overloaded server.
    if st.campaigns.values().filter(|c| !c.closed).count() >= inner.cfg.max_campaigns {
        let error = format!("campaign limit reached ({})", inner.cfg.max_campaigns);
        return reply(out, Reply::Shed(error));
    }
    if st.sched.pending() + spec.points() > inner.cfg.max_pending_points {
        let error = format!(
            "queue full: {} pending + {} requested > {}",
            st.sched.pending(),
            spec.points(),
            inner.cfg.max_pending_points
        );
        return reply(out, Reply::Shed(error));
    }
    // Durability order: manifest first (atomic), then acknowledge. A
    // crash after the ack can always rebuild the campaign.
    if let Some(dir) = &inner.cfg.journal_dir {
        let manifest = CampaignManifest {
            id: id.clone(),
            tenant: tenant.to_string(),
            digest,
            spec: spec.encode(),
        };
        if let Err(e) = manifest.save(dir) {
            return reply_err(out, &format!("cannot persist campaign manifest: {e}"));
        }
    }
    match build_campaign(tenant, digest, spec, inner.cfg.journal_dir.as_ref()) {
        Ok((c, pending)) => {
            for i in pending {
                st.sched.enqueue(tenant, c.spec.weight, Job { campaign: id.clone(), index: i });
            }
            let reply = c.status(&id).encode();
            st.campaigns.insert(id, c);
            inner.work.notify_all();
            writeln!(out, "{reply}")
        }
        Err(e) => {
            // Roll the manifest back so a rejected campaign doesn't
            // resurrect on restart.
            if let Some(dir) = &inner.cfg.journal_dir {
                let _ = std::fs::remove_file(journal::manifest_path(dir, digest));
            }
            reply_err(out, &e)
        }
    }
}

fn handle_cancel(inner: &Inner, out: &mut impl Write, id: &str) -> io::Result<()> {
    let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
    let st = &mut *st;
    let Some(c) = st.campaigns.get_mut(id) else {
        return reply_err(out, "unknown campaign");
    };
    // Cancelling a campaign that already reached a terminal state is an
    // idempotent no-op: a finished sweep must not be re-labelled
    // `cancelled` (nor gain a durable cancel marker) after the fact.
    if state::is_terminal(c.state()) {
        let reply = c.status(id).encode();
        return writeln!(out, "{reply}");
    }
    st.sched.drop_campaign(id);
    c.cancelled = true;
    // Running points stop at their next budget check; every point not
    // yet claimed by a worker is cancelled right here.
    c.token.cancel();
    for p in &mut c.points {
        if *p == PointState::Pending {
            *p = PointState::Cancelled;
        }
    }
    if let Some(dir) = &inner.cfg.journal_dir {
        let _ = std::fs::write(cancel_marker_path(dir, c.digest), b"cancelled\n");
    }
    notify(c, Vec::new());
    let reply = c.status(id).encode();
    writeln!(out, "{reply}")
}

fn handle_watch(inner: &Arc<Inner>, out: &mut impl Write, id: &str) -> io::Result<()> {
    let (tx, rx) = mpsc::channel::<Event>();
    let (replay, live) = {
        let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        let Some(c) = st.campaigns.get_mut(id) else {
            return reply_err(out, "unknown campaign");
        };
        let mut replay = c.replay();
        let s = c.state();
        let live = !state::is_terminal(s);
        if live {
            c.watchers.push(tx);
        } else {
            replay.push(Event::State { state: s.to_string() });
        }
        (replay, live)
    };
    reply(out, Reply::Watching(id.to_string()))?;
    for event in &replay {
        writeln!(out, "{}", event.encode())?;
    }
    out.flush()?;
    if !live {
        return Ok(());
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(event) => {
                let terminal = matches!(&event, Event::State { state: s } if state::is_terminal(s));
                writeln!(out, "{}", event.encode())?;
                out.flush()?;
                if terminal {
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}
