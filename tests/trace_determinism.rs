//! End-to-end trace determinism over real TCP (PR 6 acceptance).
//!
//! Three contracts:
//!
//! 1. **Deterministic mode is bitwise-reproducible.** With `FEPIA_TRACE`
//!    in deterministic mode (trace on, wall clock off), a fixed-seed
//!    8-connection soak emits a span stream whose *sorted* lines are
//!    byte-identical across runs: trace ids are minted from request ids,
//!    every span field (stage, seq, shard, units, degraded, attempts) is a
//!    pure function of the request, and the scheduling-dependent fields
//!    (`t_us`, `us`, `cache`) are omitted. Only the interleaving may vary,
//!    which sorting removes.
//! 2. **Disabled tracing emits nothing.** With tracing off, the same soak
//!    produces zero `trace.span` events — the PR 5 event stream is
//!    untouched.
//! 3. **Stats polls work over TCP.** `NetClient::stats` returns live
//!    per-shard service counters and net-layer frame counters consistent
//!    with the traffic just driven.

use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::Service;
use std::sync::{Arc, Mutex};

/// Serializes the tests: the obs sink and trace toggles are process-wide.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

const CLIENTS: u64 = 8;
const REQUESTS: u64 = 400;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Drives `REQUESTS` fixed-seed requests through a TCP server with
/// `CLIENTS` connections and returns every event line the run emitted.
fn drive_soak(seed: u64) -> Vec<String> {
    let sink = Arc::new(fepia_obs::VecSink::new());
    let prev = fepia_obs::install_sink(sink.clone());
    fepia_obs::set_events_enabled(true);

    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(Default::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start TCP server");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let pool = &pool;
            let spec = &spec;
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, ClientConfig::default()).expect("client connects");
                let mut index = t;
                while index < REQUESTS {
                    let resp = client
                        .call(&request(spec, pool, index))
                        .expect("chaos-off soak call succeeds");
                    assert_eq!(resp.id, index);
                    index += CLIENTS;
                }
            });
        }
    });

    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server released its service handle")
        .shutdown();

    fepia_obs::set_events_enabled(false);
    if let Some(prev) = prev {
        fepia_obs::install_sink(prev);
    } else {
        fepia_obs::clear_sink();
    }
    sink.lines()
}

fn span_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.contains(r#""event":"trace.span""#))
        .cloned()
        .collect()
}

#[test]
fn deterministic_mode_spans_are_bitwise_reproducible() {
    let _guard = lock();
    fepia::chaos::clear();
    fepia_obs::set_trace_enabled(true);
    fepia_obs::set_trace_wall(false);

    let mut first = span_lines(&drive_soak(77));
    let mut second = span_lines(&drive_soak(77));

    fepia_obs::set_trace_enabled(false);

    // Chaos-off: every request emits exactly client.send, net.read,
    // queue.wait, worker.exec, net.write, client.recv — no retries, no
    // sheds.
    assert_eq!(
        first.len() as u64,
        6 * REQUESTS,
        "unexpected span count in run 1"
    );
    first.sort();
    second.sort();
    assert_eq!(
        first, second,
        "sorted deterministic-mode span streams must be byte-identical"
    );

    // Deterministic mode must omit every scheduling-dependent field.
    for line in &first {
        assert!(
            !line.contains(r#""t_us""#) && !line.contains(r#""us""#),
            "wall-clock field leaked into deterministic mode: {line}"
        );
        assert!(
            !line.contains(r#""cache""#),
            "cache outcome leaked into deterministic mode: {line}"
        );
    }
}

#[test]
fn disabled_tracing_emits_no_spans() {
    let _guard = lock();
    fepia::chaos::clear();
    fepia_obs::set_trace_enabled(false);

    let lines = drive_soak(78);
    let spans = span_lines(&lines);
    assert!(
        spans.is_empty(),
        "tracing disabled but {} trace.span events were emitted",
        spans.len()
    );
}

/// Under pipelining every outbound frame needs a unique correlation id:
/// stats polls must mint their header trace id from the same SplitMix64
/// sequence as eval requests ([`fepia_obs::TraceId::mint`]) when tracing
/// is on, and send 0 when it is off.
#[test]
fn stats_polls_mint_trace_ids_from_the_request_id() {
    use fepia::net::frame::{read_frame, write_frame, FrameType};
    use fepia::net::wire::{decode, encode, StatsReply};

    let _guard = lock();
    fepia::chaos::clear();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let mut traces = Vec::new();
        // Two connections (the client reconnects per-scenario below), one
        // stats poll each.
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().unwrap();
            let frame = read_frame(&mut conn).unwrap();
            assert_eq!(frame.frame_type, FrameType::StatsRequest);
            let id = decode::<u64>(&frame.payload).unwrap();
            traces.push((id, frame.trace));
            let reply = StatsReply {
                id,
                shards: Vec::new(),
                net: Default::default(),
            };
            write_frame(
                &mut conn,
                FrameType::StatsResponse,
                frame.trace,
                &encode(&reply),
            )
            .unwrap();
        }
        traces
    });

    // Poll 1: tracing on — the header must carry TraceId::mint(id).
    fepia_obs::set_trace_enabled(true);
    let mut client =
        NetClient::connect(addr, ClientConfig::default()).expect("client connects (traced)");
    let reply = client.stats(4_242).expect("traced stats poll");
    assert_eq!(reply.id, 4_242);
    drop(client);

    // Poll 2: tracing off — untraced frames carry 0.
    fepia_obs::set_trace_enabled(false);
    let mut client =
        NetClient::connect(addr, ClientConfig::default()).expect("client connects (untraced)");
    let reply = client.stats(4_243).expect("untraced stats poll");
    assert_eq!(reply.id, 4_243);
    drop(client);

    let traces = script.join().unwrap();
    assert_eq!(traces[0].0, 4_242);
    assert_eq!(
        traces[0].1,
        fepia_obs::TraceId::mint(4_242).0,
        "traced stats poll must mint its id from the SplitMix64 sequence"
    );
    assert_ne!(traces[0].1, 0, "minted trace id is never 0");
    assert_eq!(traces[1].0, 4_243);
    assert_eq!(traces[1].1, 0, "tracing off sends an untraced (0) header");
}

#[test]
fn stats_poll_returns_live_counters_over_tcp() {
    let _guard = lock();
    fepia::chaos::clear();
    fepia_obs::set_trace_enabled(false);

    let spec = WorkloadSpec::default();
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(Default::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start TCP server");
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("client connects");

    const N: u64 = 32;
    for i in 0..N {
        let resp = client.call(&request(&spec, &pool, i)).expect("eval call");
        assert_eq!(resp.id, i);
    }

    let reply = client.stats(9_001).expect("stats poll");
    assert_eq!(reply.id, 9_001);
    assert_eq!(reply.shards.len(), 4, "default service has 4 shards");

    let totals = reply.service_totals();
    assert_eq!(totals.submitted, N, "every eval was admitted");
    assert_eq!(totals.completed, N, "every eval was answered");
    assert_eq!(totals.shed_full + totals.shed_shutdown, 0);
    assert_eq!(
        totals.cache_hits + totals.cache_misses + totals.cache_coalesced,
        N,
        "every request took a cache decision"
    );

    // The net layer saw this connection and all N eval frames (the stats
    // request itself is counted too).
    assert_eq!(reply.net.connections, 1);
    assert!(reply.net.frames_read > N);
    assert!(reply.net.frames_written >= N);
    assert_eq!(reply.net.decode_errors, 0);
    assert_eq!(reply.net.overloaded + reply.net.invalid, 0);

    // A second poll observes monotone frame counters.
    let again = client.stats(9_002).expect("second stats poll");
    assert_eq!(again.id, 9_002);
    assert!(again.net.frames_read > reply.net.frames_read);

    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}
