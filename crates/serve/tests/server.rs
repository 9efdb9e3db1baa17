//! Integration tests for the campaign server: full TCP round trips
//! against in-process server instances — admission, fairness-adjacent
//! scheduling behaviour, tenant quarantine isolation, cancellation, and
//! shutdown/restart resumption from the journal directory.

use gex::workloads::suite;
use gex::{PagingMode, Preset, Scheme};
use gex_serve::server::{self, ServerConfig};
use gex_serve::wire::Inject;
use gex_serve::{CampaignSpec, Client, ClientConfig, ClientError, Event, PointResult};
use std::time::Duration;

fn fast_client(addr: &std::net::SocketAddr) -> Client {
    Client::connect(
        &addr.to_string(),
        ClientConfig {
            connect_retries: 8,
            backoff: Duration::from_millis(20),
            timeout: Duration::from_secs(60),
        },
    )
    .expect("connect to in-process server")
}

fn spec(workloads: &[&str], schemes: &[Scheme]) -> CampaignSpec {
    CampaignSpec::new(
        Preset::Test,
        2,
        workloads.iter().map(|s| s.to_string()).collect(),
        schemes.to_vec(),
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("gex-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn healthy_campaign_matches_direct_simulation() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = fast_client(&handle.addr());
    c.ping().expect("server answers ping");

    let schemes = [Scheme::Baseline, Scheme::ReplayQueue];
    let s = spec(&["histo", "lbm"], &schemes);
    let admitted = c.submit("alice", "grid", &s).expect("admit");
    assert_eq!(admitted.points, 4);

    let done = c.wait("alice", "grid", Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    assert_eq!(done.done, 4);

    let (_, points) = c.results("alice", "grid").expect("results");
    assert_eq!(points.len(), 4);
    for p in &points {
        let PointResult::Done { key, cycles } = p else { panic!("unexpected outcome {p:?}") };
        let (wname, sdbg) = key.split_once('/').unwrap();
        let scheme = *schemes.iter().find(|s| format!("{s:?}") == sdbg).unwrap();
        let w = suite::by_name(wname, Preset::Test).unwrap();
        let direct = gex::run_workload(&w, scheme, PagingMode::AllResident, 2);
        assert_eq!(direct.cycles, *cycles, "{key}: server must reproduce the simulator exactly");
    }
    handle.join();
}

#[test]
fn request_lines_are_not_held_back_by_nagle() {
    // A loopback round trip is tens of microseconds. Without TCP_NODELAY
    // (or with a request split over two writes) every exchange waits out
    // the peer's delayed ACK, ~40 ms each: 50 pings take about 2 s.
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = fast_client(&handle.addr());
    c.ping().expect("server answers ping");
    let start = std::time::Instant::now();
    for _ in 0..50 {
        c.ping().expect("server answers ping");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(500), "50 pings took {elapsed:?}");
    handle.join();
}

#[test]
fn resubmitting_the_same_spec_attaches_instead_of_duplicating() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = fast_client(&handle.addr());
    let s = spec(&["histo"], &[Scheme::Baseline]);
    c.submit("t", "c", &s).expect("first admit");
    c.submit("t", "c", &s).expect("identical resubmit attaches");

    // Same name, different grid: a hard error, not silent replacement.
    let other = spec(&["lbm"], &[Scheme::Baseline]);
    match c.submit("t", "c", &other) {
        Err(ClientError::Rejected(m)) => assert!(m.contains("different spec"), "{m}"),
        other => panic!("conflicting spec must be rejected, got {other:?}"),
    }
    handle.join();
}

#[test]
fn admission_control_sheds_explicitly_past_the_queue_bound() {
    let handle = server::start(ServerConfig {
        max_pending_points: 3,
        // No dispatch drain during the test: batch of 1 and a grid big
        // enough that the queue stays over the bound.
        batch: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = fast_client(&handle.addr());

    let big = spec(&["histo", "lbm"], &[Scheme::Baseline, Scheme::WdCommit]);
    match c.submit("greedy", "too-big", &big) {
        Err(ClientError::Shed(m)) => {
            assert!(m.contains("queue full"), "shed reply names the reason: {m}")
        }
        other => panic!("a 4-point grid past a 3-point bound must shed, got {other:?}"),
    }
    // Shedding is not an error state: a smaller campaign is admitted.
    let small = spec(&["histo"], &[Scheme::Baseline]);
    c.submit("greedy", "small", &small).expect("within bounds");
    let done = c.wait("greedy", "small", Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    handle.join();
}

#[test]
fn campaign_count_bound_sheds_too() {
    let handle = server::start(ServerConfig { max_campaigns: 1, ..ServerConfig::default() })
        .unwrap();
    let mut c = fast_client(&handle.addr());
    c.submit("a", "one", &spec(&["histo"], &[Scheme::Baseline])).expect("first");
    match c.submit("a", "two", &spec(&["lbm"], &[Scheme::Baseline])) {
        Err(ClientError::Shed(m)) => assert!(m.contains("campaign limit"), "{m}"),
        other => panic!("second campaign must shed, got {other:?}"),
    }
    handle.join();
}

#[test]
fn a_poisoned_tenant_is_quarantined_while_the_healthy_one_completes() {
    // Serialize dispatch (batch 1) so the fault budget trips after
    // exactly two failed points and the rest shed deterministically.
    let handle = server::start(ServerConfig {
        batch: 1,
        tenant_fault_budget: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut evil = fast_client(&handle.addr());
    let mut good = fast_client(&handle.addr());

    let mut poisoned = spec(&["histo"], &[Scheme::Baseline, Scheme::WdCommit,
                                          Scheme::WdLastCheck, Scheme::ReplayQueue]);
    poisoned.inject = Some(Inject::Panic);
    let healthy = spec(&["lbm"], &[Scheme::Baseline, Scheme::ReplayQueue]);

    evil.submit("evil", "bomb", &poisoned).expect("admitted before any fault");
    good.submit("good", "grid", &healthy).expect("admit");

    let evil_final = evil.wait("evil", "bomb", Duration::from_millis(20)).expect("terminal");
    assert_eq!(evil_final.state, "quarantined");
    assert_eq!(evil_final.quarantined, 4, "every poisoned point ends quarantined or shed");

    let (_, points) = evil.results("evil", "bomb").expect("results");
    let kinds: Vec<String> = points
        .iter()
        .map(|p| match p {
            PointResult::Quarantined { kind, .. } => kind.clone(),
            other => panic!("unexpected outcome {other:?}"),
        })
        .collect();
    assert_eq!(
        kinds.iter().filter(|k| *k == "panic").count(),
        2,
        "exactly the fault budget's worth of points actually ran: {kinds:?}"
    );
    assert_eq!(
        kinds.iter().filter(|k| *k == "shed").count(),
        2,
        "the rest shed without consuming simulator time: {kinds:?}"
    );

    // The tenant is now persona non grata...
    match evil.submit("evil", "again", &healthy) {
        Err(ClientError::Rejected(m)) => assert!(m.contains("quarantined"), "{m}"),
        other => panic!("quarantined tenant must be rejected, got {other:?}"),
    }
    // ...while the healthy tenant is untouched and exact.
    let good_final = good.wait("good", "grid", Duration::from_millis(20)).expect("finish");
    assert_eq!(good_final.state, "done");
    assert_eq!(good_final.done, 2);
    handle.join();
}

/// A partitioned campaign runs every point as a two-tenant shared-GPU
/// simulation under the submitting tenant's identity. Points whose stream
/// storms (blows the in-run fault budget and gets quarantined inside the
/// run) still complete — but the storm charges the server-side tenant
/// fault budget, locking the tenant out.
#[test]
fn partitioned_points_share_the_gpu_and_in_run_storms_charge_the_tenant() {
    use gex::{Gpu, GpuConfig, Interconnect, PartitionPolicy, TenantId, TenantWorkload};
    let handle = server::start(ServerConfig {
        batch: 1,
        // `histo` opens ~3 fresh fault regions under the Test preset and
        // stays under the stream budget; `lbm` opens ~20 and storms.
        stream_fault_budget: 8,
        tenant_fault_budget: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = fast_client(&handle.addr());
    let mut s = spec(&["histo", "lbm"], &[Scheme::ReplayQueue]);
    s.partition = Some(PartitionPolicy::Quarantine);
    c.submit("alice", "shared", &s).expect("admit");
    let done = c.wait("alice", "shared", Duration::from_millis(20)).expect("finish");
    // The storm point *completes*: the campaign is done, not quarantined.
    assert_eq!(done.state, "done");
    assert_eq!(done.done, 2);

    // Every reported cycle count reproduces a direct shared simulation of
    // the tenant's stream next to the server's background neighbor.
    let (_, points) = c.results("alice", "shared").expect("results");
    let bg = suite::by_name("histo", Preset::Test).unwrap();
    for p in &points {
        let PointResult::Done { key, cycles } = p else { panic!("unexpected outcome {p:?}") };
        let wname = key.split_once('/').unwrap().0;
        let w = suite::by_name(wname, Preset::Test).unwrap();
        let tenants = [
            TenantWorkload::new(TenantId::new("alice"), w.trace.clone(), w.demand_residency())
                .fault_budget(8),
            TenantWorkload::new(
                TenantId::new("serve/background"),
                bg.trace.clone(),
                bg.demand_residency(),
            ),
        ];
        let rep = Gpu::new(
            GpuConfig::kepler_k20().with_sms(2),
            Scheme::ReplayQueue,
            PagingMode::demand(Interconnect::nvlink()),
        )
        .try_run_multi(&tenants, PartitionPolicy::Quarantine)
        .expect("shared run completes");
        assert_eq!(
            rep.tenants[0].cycles, *cycles,
            "{key}: server must reproduce the shared simulation exactly (and report \
             decoded cycles, not the packed journal value)"
        );
        assert_eq!(
            rep.tenants[0].quarantined,
            wname == "lbm",
            "{key}: exactly the lbm stream must storm"
        );
    }

    // The in-run storm consumed the tenant's whole fault budget even
    // though no point failed.
    match c.submit("alice", "again", &spec(&["histo"], &[Scheme::Baseline])) {
        Err(ClientError::Rejected(m)) => assert!(m.contains("quarantined"), "{m}"),
        other => panic!("a stormy tenant must be locked out, got {other:?}"),
    }
    // An unrelated tenant is unaffected.
    c.submit("bob", "fine", &spec(&["histo"], &[Scheme::Baseline])).expect("admit");
    assert_eq!(c.wait("bob", "fine", Duration::from_millis(20)).expect("finish").state, "done");
    handle.join();
}

/// Unschedulable GPU shapes — zero SMs, or a partitioned campaign on a
/// single-SM GPU (no room for the background neighbor) — are rejected at
/// admission with a clean wire error instead of panicking a simulator
/// worker, and the submitting tenant is *not* quarantined by the reject.
#[test]
fn unschedulable_specs_are_rejected_cleanly() {
    use gex::PartitionPolicy;
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = fast_client(&handle.addr());

    let mut zero = spec(&["histo"], &[Scheme::Baseline]);
    zero.sms = 0;
    match c.submit("t", "no-sms", &zero) {
        Err(ClientError::Rejected(m)) => assert!(m.contains("at least one SM"), "{m}"),
        other => panic!("a zero-SM spec must be rejected, got {other:?}"),
    }

    let mut tight = spec(&["histo"], &[Scheme::ReplayQueue]);
    tight.sms = 1;
    tight.partition = Some(PartitionPolicy::Quarantine);
    match c.submit("t", "too-tight", &tight) {
        Err(ClientError::Rejected(m)) => assert!(m.contains("at least 2 SMs"), "{m}"),
        other => panic!("a 1-SM partitioned spec must be rejected, got {other:?}"),
    }

    // An SM count past `u32` cannot be built as a `CampaignSpec`, so it
    // goes over a raw socket: it must be refused by name, not truncated
    // to the 2 SMs its low 32 bits spell and admitted.
    {
        use gex_serve::wire::Request;
        use std::io::{BufRead, BufReader, Write};
        let submit = Request::Submit {
            tenant: "t".to_string(),
            campaign: "wide-sms".to_string(),
            spec: spec(&["histo"], &[Scheme::Baseline]),
        }
        .encode();
        let wide = submit.replace("\\\"sms\\\":2,", "\\\"sms\\\":4294967298,");
        assert_ne!(wide, submit);
        let mut sock = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
        writeln!(sock, "{wide}").expect("send");
        let mut reply = String::new();
        BufReader::new(&sock).read_line(&mut reply).expect("reply");
        assert!(reply.contains("\"ok\":0") && reply.contains("sms"), "{reply}");
        assert!(c.status("t", "wide-sms").is_err(), "the campaign must not exist");
    }

    // The rejects were admission control, not failures: the same tenant
    // still submits and completes a healthy campaign.
    c.submit("t", "fine", &spec(&["histo"], &[Scheme::Baseline])).expect("admit");
    assert_eq!(c.wait("t", "fine", Duration::from_millis(20)).expect("finish").state, "done");
    handle.join();
}

/// A journal directory left by a build that still honoured the spec's
/// `sm_threads` key recovers under the same digest: the value is ignored,
/// but the key re-encodes verbatim, so the manifest still names the
/// journal that holds the finished point.
#[test]
fn manifest_carrying_sm_threads_recovers_under_the_same_digest() {
    use gex::journal::{self, CampaignJournal, CampaignManifest};
    let dir = temp_dir("legacy-sm-threads");
    let id = "erin/smt";
    let line = "{\"preset\":\"Test\",\"sms\":2,\"weight\":1,\"workloads\":\"histo,sad\",\"schemes\":\"WdLastCheck\",\"sm_threads\":2}";
    let digest = journal::digest(&format!("{id}|{line}"));
    CampaignManifest {
        id: id.to_string(),
        tenant: "erin".to_string(),
        digest,
        spec: line.to_string(),
    }
    .save(&dir)
    .expect("write the legacy manifest");
    // One point finished before the old daemon died. A sentinel no
    // simulation produces proves it is served from this journal.
    const SENTINEL: u64 = 7;
    CampaignJournal::open(&journal::journal_path(&dir, digest), digest)
        .expect("write the legacy journal")
        .record("histo/WdLastCheck", SENTINEL);

    let handle = server::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = fast_client(&handle.addr());
    let done = c.wait("erin", "smt", Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    assert_eq!((done.points, done.resumed), (2, 1), "{done:?}");
    let (_, points) = c.results("erin", "smt").expect("results");
    let sad = suite::by_name("sad", Preset::Test).unwrap();
    let direct = gex::run_workload(&sad, Scheme::WdLastCheck, PagingMode::AllResident, 2);
    assert_eq!(
        points,
        vec![
            PointResult::Done { key: "histo/WdLastCheck".to_string(), cycles: SENTINEL },
            PointResult::Done { key: "sad/WdLastCheck".to_string(), cycles: direct.cycles },
        ]
    );
    handle.join();
    assert_eq!(journal::list_manifests(&dir).len(), 1, "recovery must not fork the campaign");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_drops_queued_points_and_is_terminal() {
    let handle = server::start(ServerConfig { batch: 1, ..ServerConfig::default() }).unwrap();
    let mut c = fast_client(&handle.addr());
    let s = spec(&["histo", "lbm", "sgemm"], &[Scheme::Baseline, Scheme::WdCommit]);
    c.submit("t", "big", &s).expect("admit");
    let after = c.cancel("t", "big").expect("cancel");
    assert!(after.done + after.cancelled <= 6);
    let final_ = c.wait("t", "big", Duration::from_millis(20)).expect("drain");
    assert_eq!(final_.state, "cancelled");
    assert_eq!(final_.done + final_.cancelled, 6, "every point resolves");

    match c.cancel("t", "nonexistent") {
        Err(ClientError::Rejected(m)) => assert!(m.contains("unknown"), "{m}"),
        other => panic!("cancelling an unknown campaign must be rejected, got {other:?}"),
    }

    // Cancelling a campaign that already finished is an idempotent no-op:
    // the state stays `done`, not `cancelled`.
    let s2 = spec(&["histo"], &[Scheme::Baseline]);
    c.submit("t", "small", &s2).expect("admit small");
    let done = c.wait("t", "small", Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    let after = c.cancel("t", "small").expect("cancel finished campaign");
    assert_eq!(after.state, "done", "cancel must not re-label a finished campaign");
    assert_eq!(after.done, 1);
    handle.join();
}

#[test]
fn watch_replays_history_and_streams_to_terminal() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = fast_client(&handle.addr());
    let s = spec(&["histo"], &[Scheme::Baseline, Scheme::ReplayQueue]);
    c.submit("w", "obs", &s).expect("admit");
    c.wait("w", "obs", Duration::from_millis(20)).expect("finish first");

    // A watcher attaching after the fact still sees every point (replay)
    // and the terminal state.
    let mut watcher = fast_client(&handle.addr());
    let mut seen = Vec::new();
    let terminal = watcher
        .watch("w", "obs", |e| seen.push(e.clone()))
        .expect("watch terminal campaign");
    assert_eq!(terminal, "done");
    let point_keys: Vec<&str> = seen
        .iter()
        .filter_map(|e| match e {
            Event::Point { key, .. } => Some(key.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(point_keys, vec!["histo/Baseline", "histo/ReplayQueue"]);
    handle.join();
}

#[test]
fn shutdown_and_restart_resume_from_the_journal_byte_identically() {
    let dir = temp_dir("restart");
    let schemes = [Scheme::Baseline, Scheme::WdCommit, Scheme::ReplayQueue];
    let s = spec(&["histo", "lbm"], &schemes);

    // Phase 1: admit, let at least one point finish, stop the server.
    let first = server::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        batch: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    {
        let mut c = fast_client(&first.addr());
        c.submit("alice", "resume-me", &s).expect("admit");
        loop {
            let st = c.status("alice", "resume-me").expect("status");
            if st.done >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    first.join();

    // Phase 2: a fresh server on the same directory resumes the campaign
    // without any client action and completes it.
    let second = server::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = fast_client(&second.addr());
    let done = c.wait("alice", "resume-me", Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    assert_eq!(done.points, 6);
    assert!(done.resumed >= 1, "journaled points must be served from disk");

    // Byte-identical to direct simulation, resumed and fresh points alike.
    let (_, points) = c.results("alice", "resume-me").expect("results");
    for p in &points {
        let PointResult::Done { key, cycles } = p else { panic!("unexpected {p:?}") };
        let (wname, sdbg) = key.split_once('/').unwrap();
        let scheme = *schemes.iter().find(|s| format!("{s:?}") == sdbg).unwrap();
        let w = suite::by_name(wname, Preset::Test).unwrap();
        let direct = gex::run_workload(&w, scheme, PagingMode::AllResident, 2);
        assert_eq!(direct.cycles, *cycles, "{key} must survive the restart bit-for-bit");
    }

    // Cancellation is durable too: cancel an in-flight campaign, restart,
    // still cancelled — while the finished campaign stays `done` (cancel
    // after completion is a no-op and must not write a marker).
    // A distinct seed keeps these points out of the result cache (the
    // first campaign's identical points would otherwise answer
    // instantly, racing the cancel).
    let mut slow = s.clone();
    slow.seed = Some(7);
    c.submit("alice", "kill-me", &slow).expect("admit second campaign");
    let mid = c.cancel("alice", "kill-me").expect("cancel in flight");
    assert!(mid.done < 6, "cancel must land before the campaign finishes");
    let post = c.cancel("alice", "resume-me").expect("cancel post-completion is fine");
    assert_eq!(post.state, "done", "a finished campaign cannot be re-labelled");
    second.join();
    let third = server::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = fast_client(&third.addr());
    let st = c.status("alice", "kill-me").expect("status");
    assert_eq!(st.state, "cancelled", "the cancel marker survives restarts");
    let st = c.status("alice", "resume-me").expect("status");
    assert_eq!(st.state, "done", "no stray cancel marker on the finished campaign");
    third.join();
    let _ = std::fs::remove_dir_all(&dir);
}
