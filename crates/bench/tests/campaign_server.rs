//! The crash-safety keystone, end to end against the real daemon binary:
//! start `gex-served`, submit two concurrent campaigns from different
//! tenants (one healthy, one poisoned with a panicking injection plan),
//! `SIGKILL` the daemon mid-run, restart it on the same journal
//! directory, and assert that
//!
//! * the healthy campaign resumes and completes with results
//!   byte-identical to a serial in-process reference run,
//! * the poisoned campaign is quarantined with its tenant still locked
//!   out after the restart, and
//! * a partitioned (two-tenant shared-GPU) campaign resumes and reports
//!   cycles byte-identical to a direct shared simulation — the packed
//!   journal values decode the same on both sides of the kill.

use gex::workloads::suite;
use gex::{
    Gpu, GpuConfig, Interconnect, PageSizePolicy, PagingMode, PartitionPolicy, Preset, Scheme,
    TenantId, TenantWorkload,
};
use gex_serve::wire::Inject;
use gex_serve::{CampaignSpec, Client, ClientConfig, ClientError, PointResult};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: String,
}

/// Start the real `gex-served` binary on a free port and scrape the
/// bound address from its first stdout line.
fn start_daemon(journal_dir: &std::path::Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gex-served"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--journal-dir",
            journal_dir.to_str().unwrap(),
            "--batch",
            "1",
            "--fault-budget",
            "2",
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn gex-served");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("daemon banner");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_string();
    assert!(line.contains("listening"), "unexpected banner: {line}");
    Daemon { child, addr }
}

fn client(addr: &str) -> Client {
    Client::connect(
        addr,
        ClientConfig {
            connect_retries: 20,
            backoff: Duration::from_millis(25),
            timeout: Duration::from_secs(60),
        },
    )
    .expect("connect to daemon")
}

#[test]
fn sigkill_mid_campaign_resumes_byte_identically_and_keeps_quarantine() {
    let dir = std::env::temp_dir()
        .join(format!("gex-campaign-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let schemes = [Scheme::Baseline, Scheme::WdCommit, Scheme::ReplayQueue];
    let workloads = ["histo", "lbm", "sgemm", "spmv"];
    let healthy = CampaignSpec::new(
        Preset::Test,
        2,
        workloads.iter().map(|s| s.to_string()).collect(),
        schemes.to_vec(),
    );
    let mut poisoned = CampaignSpec::new(
        Preset::Test,
        2,
        vec!["histo".to_string()],
        schemes.to_vec(),
    );
    poisoned.inject = Some(Inject::Panic);
    // A third tenant shares the simulated GPU: every point runs as a
    // two-tenant shared simulation next to the server's background
    // neighbor under the quarantine policy.
    let mut shared = CampaignSpec::new(
        Preset::Test,
        2,
        vec!["histo".to_string()],
        vec![Scheme::Baseline, Scheme::ReplayQueue],
    );
    shared.partition = Some(PartitionPolicy::Quarantine);
    // A fourth campaign opts into transparent 2 MB large pages via the
    // spec's `pagesize` field; the policy must survive the journal and
    // the kill — resumed points re-simulate under the same paging setup.
    let mut paged = CampaignSpec::new(
        Preset::Test,
        2,
        vec!["lbm".to_string()],
        vec![Scheme::ReplayQueue],
    );
    paged.partition = Some(PartitionPolicy::Quarantine);
    paged.pagesize = Some(PageSizePolicy::Transparent);
    // A fifth campaign carries the spec's legacy `sm_threads` key. The
    // value is ignored, but it is part of the spec line and so of the
    // campaign digest: the restarted daemon must find the manifest and
    // journal it wrote under that digest.
    let mut threaded = CampaignSpec::new(
        Preset::Test,
        4,
        vec!["sad".to_string(), "spmv".to_string()],
        vec![Scheme::WdLastCheck],
    );
    threaded.sm_threads = Some(2);

    // Phase 1: submit all five campaigns, wait for partial progress,
    // SIGKILL.
    let first = start_daemon(&dir);
    {
        let mut c = client(&first.addr);
        let admitted = c.submit("alice", "big", &healthy).expect("admit healthy");
        assert_eq!(admitted.points, 12);
        c.submit("chaos", "bomb", &poisoned).expect("admit poisoned");
        c.submit("bob", "shared", &shared).expect("admit partitioned");
        c.submit("dana", "paged", &paged).expect("admit large-page campaign");
        c.submit("erin", "smt", &threaded).expect("admit sm-threads campaign");

        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "no progress before the kill window");
            let st = c.status("alice", "big").expect("status");
            if st.done >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let mut child = first.child;
    child.kill().expect("SIGKILL the daemon"); // Child::kill is SIGKILL on unix
    child.wait().expect("reap");

    // Phase 2: a fresh daemon on the same journal directory.
    let second = start_daemon(&dir);
    let mut c = client(&second.addr);

    // The healthy campaign resumed without any client re-submit and runs
    // to completion.
    let done = c
        .wait("alice", "big", Duration::from_millis(25))
        .expect("healthy campaign finishes after restart");
    assert_eq!(done.state, "done", "healthy campaign must complete: {done:?}");
    assert_eq!(done.done, 12);
    assert!(done.resumed >= 1, "restart must serve journaled points from disk");

    // Byte-identical to a serial in-process reference: the daemon adds
    // supervision, scheduling, a kill and a restart — never different
    // numbers.
    let (_, points) = c.results("alice", "big").expect("results");
    assert_eq!(points.len(), 12);
    for p in &points {
        let PointResult::Done { key, cycles } = p else {
            panic!("healthy campaign must have no failed points: {p:?}")
        };
        let (wname, sdbg) = key.split_once('/').unwrap();
        let scheme = *schemes.iter().find(|s| format!("{s:?}") == sdbg).unwrap();
        let w = suite::by_name(wname, Preset::Test).unwrap();
        let reference = gex::run_workload(&w, scheme, PagingMode::AllResident, 2);
        assert_eq!(
            reference.cycles, *cycles,
            "{key}: post-crash result must equal the serial reference"
        );
    }

    // The partitioned campaign resumed too, and its reported cycles —
    // packed with the storm flag in the journal, decoded on the wire —
    // equal a direct two-tenant shared simulation.
    let shared_done = c
        .wait("bob", "shared", Duration::from_millis(25))
        .expect("partitioned campaign finishes after restart");
    assert_eq!(shared_done.state, "done", "partitioned campaign: {shared_done:?}");
    assert_eq!(shared_done.done, 2);
    let (_, points) = c.results("bob", "shared").expect("shared results");
    let bg = suite::by_name("histo", Preset::Test).unwrap();
    for p in &points {
        let PointResult::Done { key, cycles } = p else {
            panic!("partitioned campaign must have no failed points: {p:?}")
        };
        let sdbg = key.split_once('/').unwrap().1;
        let scheme = *[Scheme::Baseline, Scheme::ReplayQueue]
            .iter()
            .find(|s| format!("{s:?}") == sdbg)
            .unwrap();
        let w = suite::by_name("histo", Preset::Test).unwrap();
        let tenants = [
            TenantWorkload::new(TenantId::new("bob"), w.trace.clone(), w.demand_residency())
                .fault_budget(64),
            TenantWorkload::new(
                TenantId::new("serve/background"),
                bg.trace.clone(),
                bg.demand_residency(),
            ),
        ];
        let reference = Gpu::new(
            GpuConfig::kepler_k20().with_sms(2),
            scheme,
            PagingMode::demand(Interconnect::nvlink()),
        )
        .try_run_multi(&tenants, PartitionPolicy::Quarantine)
        .expect("reference shared run");
        assert!(!reference.tenants[0].quarantined, "{key}: histo must not storm");
        assert_eq!(
            reference.tenants[0].cycles, *cycles,
            "{key}: post-crash shared result must equal the direct shared simulation"
        );
    }

    // The large-page campaign resumed with its page-size policy intact:
    // the reported cycles equal a direct shared simulation under
    // `PageSizePolicy::Transparent`.
    let paged_done = c
        .wait("dana", "paged", Duration::from_millis(25))
        .expect("large-page campaign finishes after restart");
    assert_eq!(paged_done.state, "done", "large-page campaign: {paged_done:?}");
    assert_eq!(paged_done.done, 1);
    let (_, points) = c.results("dana", "paged").expect("paged results");
    for p in &points {
        let PointResult::Done { key, cycles } = p else {
            panic!("large-page campaign must have no failed points: {p:?}")
        };
        let w = suite::by_name("lbm", Preset::Test).unwrap();
        let tenants = [
            TenantWorkload::new(TenantId::new("dana"), w.trace.clone(), w.demand_residency())
                .fault_budget(64),
            TenantWorkload::new(
                TenantId::new("serve/background"),
                bg.trace.clone(),
                bg.demand_residency(),
            ),
        ];
        let reference = Gpu::new(
            GpuConfig::kepler_k20().with_sms(2).with_page_size(PageSizePolicy::Transparent),
            Scheme::ReplayQueue,
            PagingMode::demand(Interconnect::nvlink()),
        )
        .try_run_multi(&tenants, PartitionPolicy::Quarantine)
        .expect("reference large-page shared run");
        assert!(!reference.tenants[0].quarantined, "{key}: lbm must not storm");
        assert_eq!(
            reference.tenants[0].cycles, *cycles,
            "{key}: post-crash large-page result must equal the direct simulation"
        );
    }

    // The sm_threads=2 campaign resumed under its digest and reports
    // cycles byte-identical to this process's reference: the key is
    // durable on the wire and has no effect on the simulation.
    let smt_done = c
        .wait("erin", "smt", Duration::from_millis(25))
        .expect("sm-threads campaign finishes after restart");
    assert_eq!(smt_done.state, "done", "sm-threads campaign: {smt_done:?}");
    assert_eq!(smt_done.done, 2);
    let (_, points) = c.results("erin", "smt").expect("smt results");
    for p in &points {
        let PointResult::Done { key, cycles } = p else {
            panic!("sm-threads campaign must have no failed points: {p:?}")
        };
        let wname = key.split_once('/').unwrap().0;
        let w = suite::by_name(wname, Preset::Test).unwrap();
        let reference = gex::run_workload(&w, Scheme::WdLastCheck, PagingMode::AllResident, 4);
        assert_eq!(
            reference.cycles, *cycles,
            "{key}: an sm_threads campaign must journal exactly the reference cycles"
        );
    }

    // The poisoned campaign is terminal-quarantined, and its tenant's
    // fault history survived the kill: new submits stay rejected.
    let bomb = c
        .wait("chaos", "bomb", Duration::from_millis(25))
        .expect("poisoned campaign reaches a terminal state");
    assert_eq!(bomb.state, "quarantined", "poisoned campaign: {bomb:?}");
    assert_eq!(bomb.done, 0, "no poisoned point may report success");
    assert_eq!(bomb.quarantined, 3);
    match c.submit("chaos", "retry", &healthy) {
        Err(ClientError::Rejected(m)) => {
            assert!(m.contains("quarantined"), "tenant lockout survives restart: {m}")
        }
        other => panic!("quarantined tenant must stay locked out, got {other:?}"),
    }

    // Graceful stop this time.
    c.shutdown().expect("shutdown op");
    let mut child = second.child;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "clean daemon exit, got {status}");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                let _ = child.kill();
                panic!("daemon did not stop after the shutdown op");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
