//! Two tenants sharing one campaign server, end to end in one process:
//!
//! * the server starts on a loopback port with a journal directory, so
//!   everything it accepts would survive a `kill -9`;
//! * tenant **alice** submits a Parboil grid and streams per-point
//!   progress events over a `watch` connection;
//! * tenant **bob** submits a larger grid at double weight, then changes
//!   his mind and cancels it mid-flight;
//! * alice's results are compared point-for-point against direct
//!   simulator runs — the server adds supervision and scheduling, never
//!   different numbers.
//!
//! ```text
//! cargo run --release --example campaign_server
//! ```

use gex::workloads::suite;
use gex::{GpuConfig, PagingMode, Preset, Scheme};
use gex_serve::{server, CampaignSpec, Client, ClientConfig, Event};
use std::time::Duration;

fn main() {
    let journal_dir = std::env::temp_dir().join(format!("gex-serve-example-{}", std::process::id()));
    let handle = server::start(server::ServerConfig {
        journal_dir: Some(journal_dir.clone()),
        ..server::ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr().to_string();
    println!("campaign server listening on {addr}");
    println!("journal directory: {}", journal_dir.display());

    let schemes = vec![Scheme::Baseline, Scheme::WdCommit, Scheme::ReplayQueue];
    let alice_spec = CampaignSpec::new(
        Preset::Test,
        2,
        vec!["histo".to_string(), "lbm".to_string()],
        schemes.clone(),
    );
    // Bench-preset points take a tenth of a second and more, so bob's
    // grid is still running when he cancels it.
    let mut bob_spec = CampaignSpec::new(
        Preset::Bench,
        2,
        vec!["sgemm".to_string(), "spmv".to_string(), "stencil".to_string()],
        schemes.clone(),
    );
    bob_spec.weight = 2; // bob paid for a double share of the pool

    // Client one: alice submits and watches her campaign to completion.
    let alice = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, ClientConfig::default()).expect("connect");
            let admitted = c.submit("alice", "parboil-mini", &alice_spec).expect("admit");
            println!("[alice] admitted: {} points", admitted.points);
            let terminal = c
                .watch("alice", "parboil-mini", |e| match e {
                    Event::Point { key, cycles } => println!("[alice]   {key} = {cycles} cycles"),
                    Event::Quarantine { key, kind, error } => {
                        println!("[alice]   {key} QUARANTINED [{kind}]: {error}")
                    }
                    Event::State { state } => println!("[alice] campaign is {state}"),
                })
                .expect("watch stream");
            assert_eq!(terminal, "done", "a healthy campaign finishes clean");
            c.results("alice", "parboil-mini").expect("results").1
        })
    };

    // Client two: bob submits at weight 2, waits for his first point,
    // then cancels — queued points drop immediately, running points stop
    // at their next budget check, and the cancellation is durable.
    let bob = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, ClientConfig::default()).expect("connect");
            let admitted = c.submit("bob", "big-sweep", &bob_spec).expect("admit");
            println!("[bob] admitted: {} points at weight 2", admitted.points);
            while c.status("bob", "big-sweep").expect("status").done == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            let after = c.cancel("bob", "big-sweep").expect("cancel");
            println!(
                "[bob] cancelled with {} done / {} cancelled of {} points",
                after.done, after.cancelled, after.points
            );
            let done = c.wait("bob", "big-sweep", Duration::from_millis(20)).expect("drain");
            assert_eq!(done.state, "cancelled");
            println!("[bob] campaign drained as {}", done.state);
        })
    };

    let alice_points = alice.join().expect("alice client");
    bob.join().expect("bob client");

    // The server's numbers are the simulator's numbers, point for point.
    println!("verifying alice's results against direct simulation...");
    let config = GpuConfig::kepler_k20().with_sms(2);
    for p in &alice_points {
        let gex_serve::PointResult::Done { key, cycles } = p else {
            panic!("alice's campaign should have no failed points, got {p:?}");
        };
        let (workload, scheme_dbg) = key.split_once('/').expect("key format");
        let scheme = *schemes.iter().find(|s| format!("{s:?}") == scheme_dbg).expect("scheme");
        let w = suite::by_name(workload, Preset::Test).expect("workload");
        let direct = gex::run_workload(&w, scheme, PagingMode::AllResident, &config);
        assert_eq!(direct.cycles, *cycles, "{key} must match a direct run");
    }
    println!("all {} of alice's points byte-identical to direct runs", alice_points.len());

    handle.join();
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!("server stopped; example complete");
}
