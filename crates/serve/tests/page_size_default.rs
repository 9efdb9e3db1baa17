//! A spec without `pagesize` means 4 KB pages, whatever the server
//! process's default page size is. Its own test binary: it changes the
//! process-wide default, which every other server test relies on.

use gex::{PageSizePolicy, PartitionPolicy, Preset, Scheme};
use gex_serve::server::{self, ServerConfig};
use gex_serve::{CampaignSpec, Client, ClientConfig, PointResult};
use std::time::Duration;

fn cycles(c: &mut Client, campaign: &str, spec: &CampaignSpec) -> u64 {
    c.submit("alice", campaign, spec).expect("admit");
    let done = c.wait("alice", campaign, Duration::from_millis(20)).expect("finish");
    assert_eq!(done.state, "done");
    let (_, points) = c.results("alice", campaign).expect("results");
    let [PointResult::Done { cycles, .. }] = points[..] else {
        panic!("expected one completed point, got {points:?}")
    };
    cycles
}

#[test]
fn a_spec_without_pagesize_ignores_the_process_default() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(
        &handle.addr().to_string(),
        ClientConfig {
            connect_retries: 8,
            backoff: Duration::from_millis(20),
            timeout: Duration::from_secs(60),
        },
    )
    .expect("connect to in-process server");
    // A partitioned point demand-pages, so its cycle count depends on the
    // page size it runs on.
    let mut spec =
        CampaignSpec::new(Preset::Test, 2, vec!["histo".to_string()], vec![Scheme::ReplayQueue]);
    spec.partition = Some(PartitionPolicy::Quarantine);
    assert_eq!(spec.pagesize, None);

    let small = cycles(&mut c, "before", &spec);
    gex::set_default_page_size(PageSizePolicy::HugeOnly);
    let after = cycles(&mut c, "after", &spec);
    assert_eq!(after, small, "the same spec must run on the same 4 KB pages");
    handle.join();
}
