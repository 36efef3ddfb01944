//! Regression: pipelined windows must not wait for the client's delayed
//! ACK.
//!
//! A window of 16 move-probe requests (64 moves each on a 64×8 §3.1
//! scenario) draws 16 responses of ~4 KB each. With Nagle's algorithm on
//! the server's accepted socket, the tail of such a window can sit in the
//! kernel until the client's delayed ACK fires, ~40 ms later: a third to
//! two thirds of the windows then take ~44 ms instead of about a
//! millisecond. The server sets `TCP_NODELAY` on every accepted stream,
//! as the client does.
//!
//! A fresh connection acknowledges its first segments at once (quick-ACK
//! mode), which hides the stall for a while, so the test warms the
//! connection up before it times anything. The share of windows that
//! stall also drifts over a connection's life, so the test times many
//! windows and bounds both their median and how many of them waited for
//! a delayed ACK.

use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia::serve::{EvalKind, EvalRequest, Service, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WINDOW: u64 = 16;
const WARMUP_WINDOWS: u64 = 64;
const TIMED_WINDOWS: usize = 256;
/// Linux's shortest delayed-ACK timeout: a window whose tail Nagle's
/// algorithm holds back cannot finish sooner.
const STALL: Duration = Duration::from_millis(40);
/// Timed windows allowed to reach [`STALL`] (1 in 32), for scheduler
/// noise on a loaded machine.
const STALLED_BAR: usize = TIMED_WINDOWS / 32;
/// Far above a healthy window in a release build (~1–2 ms on a 2-core
/// x86 box), far below a stalled one (~44 ms). An unoptimized build runs
/// the codec ~10× slower (~10 ms per healthy window on the same box), so
/// there the bar is the stall floor itself.
const MEDIAN_BAR: Duration = if cfg!(debug_assertions) {
    STALL
} else {
    Duration::from_millis(20)
};

#[test]
fn pipelined_windows_do_not_wait_for_delayed_acks() {
    let spec = WorkloadSpec {
        seed: 13_001,
        scenarios: 8,
        apps: 64,
        machines: 8,
        moves_per_request: 64,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // Compile every scenario once, so the timed windows are cache hits.
    let warm: Vec<EvalRequest> = pool
        .iter()
        .enumerate()
        .map(|(s, scenario)| EvalRequest {
            id: 1 << 40 | s as u64,
            scenario: Arc::clone(scenario),
            kind: EvalKind::Verdict,
        })
        .collect();
    client.call_pipelined(&warm).expect("warm the plan cache");

    let mut next = 0u64;
    let mut window = |client: &mut NetClient| -> Duration {
        let reqs: Vec<EvalRequest> = (next..next + WINDOW)
            .map(|i| moves_request(&spec, &pool, i))
            .collect();
        next += WINDOW;
        let started = Instant::now();
        let resps = client.call_pipelined(&reqs).expect("pipelined window");
        let took = started.elapsed();
        assert_eq!(resps.len() as u64, WINDOW);
        for resp in &resps {
            assert_eq!(resp.verdicts.len(), spec.moves_per_request);
        }
        took
    };

    for _ in 0..WARMUP_WINDOWS {
        window(&mut client);
    }
    let mut times: Vec<Duration> = (0..TIMED_WINDOWS).map(|_| window(&mut client)).collect();
    times.sort();
    let median = times[TIMED_WINDOWS / 2];
    let stalled = times.iter().filter(|t| **t >= STALL).count();
    let report = format!(
        "median window {median:?} (bar {MEDIAN_BAR:?}); {stalled} of {TIMED_WINDOWS} \
         windows took {STALL:?} or more (bar {STALLED_BAR})"
    );
    assert!(median < MEDIAN_BAR, "{report}");
    assert!(stalled <= STALLED_BAR, "{report}");

    drop(client);
    server.shutdown();
}
