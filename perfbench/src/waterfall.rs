//! The traced run: the workload's stream replayed through the layers in
//! turn (kernel, `Service` in-process, codec round trip plus `Service`,
//! TCP) with the same callers and call shape each time, so each layer's
//! increment over the one below reads directly. Spans are recorded in
//! memory around the calls into each layer and written out at the end.
//!
//! Where the workload's own stream bypasses a layer (`probe` has no
//! verdicts or curves, `analyze` no moves, `optimize` no eval requests; the
//! request workloads submit no jobs), that layer is timed on a small
//! calibration stream or job over the same seed's scenarios instead, and
//! the metric's note says so.

use crate::gen::{Inputs, Scale, Workload};
use crate::layers::{compile_pool, drive, Codec, InProcess, Kernel, Outcome, Plans, Stop};
use crate::report::{median, Metric};
use crate::run::{compare, front_digest, job_matches, spot_check, warm_up, window, RunResult};
use crate::spans::{totals, SpanLog, Totals};
use crate::stack::{job_table_config, run_job, Stack, OWN_IDS};
use fepia_net::NetStatsSnapshot;
use fepia_serve::{EvalRequest, JobHeuristic, JobSpec, JobTable, ShardStatsSnapshot};
use fepia_stats::rng_for;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const LAYERS: [&str; 4] = ["kernel", "serve", "wire", "tcp"];

/// One stream's replay through every layer.
struct Waterfall {
    /// Requests replayed per layer.
    n: u64,
    window: usize,
    /// Caller time per request at each layer, in microseconds.
    layer_us: [f64; 4],
    /// Caller time per request of the untraced TCP pass.
    untraced_tcp_us: f64,
    /// Span totals per layer pass.
    spans: [BTreeMap<&'static str, Totals>; 4],
    /// Service counters over the untraced TCP pass.
    svc_tcp: ShardStatsSnapshot,
    /// Service counters over the in-process pass.
    svc_serve: ShardStatsSnapshot,
    /// Server counters over the traced TCP pass.
    net_tcp: NetStatsSnapshot,
    attempted: u64,
    failed: u64,
    logs: Vec<(String, Vec<SpanLog>)>,
}

fn svc_delta(a: &ShardStatsSnapshot, b: &ShardStatsSnapshot) -> ShardStatsSnapshot {
    ShardStatsSnapshot {
        submitted: b.submitted - a.submitted,
        completed: b.completed - a.completed,
        shed_full: b.shed_full - a.shed_full,
        shed_shutdown: b.shed_shutdown - a.shed_shutdown,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_coalesced: b.cache_coalesced - a.cache_coalesced,
        worker_panics: b.worker_panics - a.worker_panics,
        busy_ns: b.busy_ns - a.busy_ns,
        deadline_expired: b.deadline_expired - a.deadline_expired,
        brownout_evals: b.brownout_evals - a.brownout_evals,
    }
}

/// Requests a pass answered (at least 1, as a divisor).
fn n_of(out: &Outcome) -> u64 {
    (out.attempted - out.failed).max(1)
}

fn net_errors(s: &NetStatsSnapshot) -> u64 {
    s.decode_errors + s.overloaded + s.invalid + s.chaos_drops + s.admission_shed
}

/// Replays `request` through the four layers: after `warm` seconds of
/// warm-up, TCP untraced (which fixes the stream length, at most `cap` requests or what
/// fits in `budget`) and traced back to back, then the kernel, the
/// `Service` in-process and the codec round trip.
#[allow(clippy::too_many_arguments)]
fn waterfall(
    label: &str,
    inputs: &Inputs,
    stack: &mut Stack,
    plans: &Plans,
    request: &(dyn Fn(u64) -> EvalRequest + Sync),
    window: usize,
    warm: f64,
    budget: Duration,
    cap: u64,
    errors: &mut Vec<String>,
) -> Waterfall {
    let callers = stack.clients.len();
    let cap = (cap / window as u64).max(1) * window as u64;
    let per_request = |out: &Outcome| out.rtt_sum_us / n_of(out) as f64;

    let (warm, clients) = warm_up(stack, request, window, warm);
    let svc0 = stack.service.stats().totals();
    let stop = Stop {
        deadline: Some(Instant::now() + budget),
        requests: Some(cap),
    };
    let (tcp0, clients) = drive(clients, request, window, stop, false);
    let svc1 = stack.service.stats().totals();
    let n = tcp0.attempted;
    let replay = Stop::after(n);
    let net0 = stack.server.stats();
    let (tcp, clients) = drive(clients, request, window, replay, true);
    let net1 = stack.server.stats();
    stack.clients = clients;

    let (kernel, _) = drive(
        (0..callers).map(|_| Kernel::new(plans)).collect(),
        request,
        window,
        replay,
        true,
    );
    let svc2 = stack.service.stats().totals();
    let (serve, _) = drive(
        (0..callers)
            .map(|_| InProcess {
                service: stack.service.clone(),
            })
            .collect(),
        request,
        window,
        replay,
        true,
    );
    let svc3 = stack.service.stats().totals();
    let (wire, _) = drive(
        (0..callers)
            .map(|_| Codec {
                service: stack.service.clone(),
            })
            .collect(),
        request,
        window,
        replay,
        true,
    );

    // The kernel pass is the in-process reference every other pass must
    // match answer for answer.
    let mut failed =
        warm.failed + tcp0.failed + kernel.failed + serve.failed + wire.failed + tcp.failed;
    for (out, what) in [
        (&tcp0, "untraced tcp"),
        (&serve, "serve"),
        (&wire, "wire"),
        (&tcp, "tcp"),
    ] {
        failed += compare(out, &kernel.digests, &format!("{label} {what}"), errors);
    }
    if inputs.workload == Workload::Probe && label == "own" {
        failed += spot_check(inputs, &tcp0, errors);
    }
    for out in [&warm, &tcp0, &kernel, &serve, &wire, &tcp] {
        errors.extend(out.errors.iter().cloned());
    }

    let passes = [kernel, serve, wire, tcp];
    let layer_us = [0, 1, 2, 3].map(|i| per_request(&passes[i]));
    let spans = [0, 1, 2, 3].map(|i| totals(&passes[i].logs));
    let attempted =
        warm.attempted + tcp0.attempted + passes.iter().map(|p| p.attempted).sum::<u64>();
    let logs = passes
        .into_iter()
        .zip(LAYERS)
        .map(|(p, layer)| (format!("{label}.{layer}"), p.logs))
        .collect();
    Waterfall {
        n,
        window,
        layer_us,
        untraced_tcp_us: per_request(&tcp0),
        spans,
        svc_tcp: svc_delta(&svc0, &svc1),
        svc_serve: svc_delta(&svc2, &svc3),
        net_tcp: NetStatsSnapshot {
            frames_read: net1.frames_read - net0.frames_read,
            frames_written: net1.frames_written - net0.frames_written,
            ..net1
        },
        attempted,
        failed,
        logs,
    }
}

impl Waterfall {
    /// Nanoseconds per unit inside the named kernel spans, if any ran.
    fn per_unit_ns(&self, names: &[&str]) -> Option<f64> {
        let (ns, units) = names
            .iter()
            .filter_map(|n| self.spans[0].get(n))
            .fold((0u64, 0u64), |(ns, u), t| (ns + t.ns, u + t.units));
        (units > 0).then(|| ns as f64 / units as f64)
    }

    /// Microseconds per span of `name` in the codec pass.
    fn wire_us(&self, name: &str) -> f64 {
        self.spans[2]
            .get(name)
            .map_or(0.0, |t| t.ns as f64 / t.count.max(1) as f64 / 1e3)
    }

    fn wire_bytes(&self, name: &str) -> f64 {
        self.spans[2]
            .get(name)
            .map_or(0.0, |t| t.units as f64 / t.count.max(1) as f64)
    }

    fn print(&self, label: &str) {
        println!(
            "waterfall {label}: {} requests per layer, window {}, caller time per request",
            self.n, self.window
        );
        let mut below = 0.0;
        for (layer, us) in LAYERS.iter().zip(self.layer_us) {
            println!(
                "  {layer:<7} {us:>12.3} us   increment {:>12.3} us",
                us - below
            );
            below = us;
        }
        for (layer, spans) in LAYERS.iter().zip(&self.spans) {
            for (name, t) in spans {
                println!(
                    "  span {layer}/{name:<16} count {:>7}  total {:>10.3} ms  self {:>10.3} ms  units {}",
                    t.count,
                    t.ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                    t.units
                );
            }
        }
    }
}

/// Job-layer measurements on one spec.
struct JobLayers {
    inproc_ms: Vec<f64>,
    one_thread_ms: f64,
    heuristic_ms: Vec<(&'static str, f64)>,
    evals: u64,
    candidates: u64,
    front_points: usize,
    front_ms: Vec<f64>,
    traced_front_ms: Vec<f64>,
    polls_per_job: f64,
    attempted: u64,
    failed: u64,
    log: SpanLog,
}

fn heuristic_name(h: &JobHeuristic) -> &'static str {
    match h {
        JobHeuristic::RobustGreedy => "greedy",
        JobHeuristic::Annealing { .. } => "annealing",
        JobHeuristic::Tabu { .. } => "tabu",
        JobHeuristic::Genetic { .. } => "genetic",
    }
}

/// Times the job path bottom-up: one candidate per heuristic, the job
/// in-process at 2 threads and at 1, then jobs over TCP untraced and
/// traced. TCP jobs run until `budget` passes, at least `min_jobs`.
fn job_layers(
    spec: &JobSpec,
    stack: &mut Stack,
    budget: Duration,
    min_jobs: usize,
    errors: &mut Vec<String>,
) -> Result<JobLayers, String> {
    let time_ms = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    let heuristic_ms = spec
        .heuristics
        .iter()
        .enumerate()
        .map(|(k, h)| {
            let built = h.build(spec.tau);
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    time_ms(&mut || {
                        std::hint::black_box(
                            built.map(&spec.etc, &mut rng_for(spec.seed, k as u64)),
                        );
                    })
                })
                .collect();
            (heuristic_name(h), median(&times))
        })
        .collect();

    let table = JobTable::new(job_table_config());
    let mut runs = Vec::new();
    let mut inproc_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        runs.push(
            table
                .run(spec.clone())
                .map_err(|e| format!("in-process job: {e}"))?,
        );
        inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let t0 = Instant::now();
    let one = table
        .run(JobSpec {
            threads: 1,
            ..spec.clone()
        })
        .map_err(|e| format!("one-thread job: {e}"))?;
    let one_thread_ms = t0.elapsed().as_secs_f64() * 1e3;
    let want = front_digest(&runs[0]);
    let mut failed = runs
        .iter()
        .chain([&one])
        .filter(|s| !job_matches(s, want))
        .count() as u64;
    if failed > 0 {
        errors.push(format!(
            "{failed} in-process jobs differ from the first front"
        ));
    }

    let client = &mut stack.clients[0].client;
    let mut log = SpanLog::new(Instant::now(), true);
    let mut tcp = |traced: bool, jobs: Option<usize>, log: &mut SpanLog| -> (Vec<f64>, u64) {
        let mut front_ms = Vec::new();
        let mut failed = 0;
        let deadline = Instant::now() + budget;
        let mut k = 0u64;
        while jobs.map_or(k < min_jobs as u64 || Instant::now() < deadline, |j| {
            k < j as u64
        }) {
            k += 1;
            let id = OWN_IDS + ((k + if traced { 1 << 16 } else { 0 }) << 20);
            let span = log.open("job", None, id);
            let t0 = Instant::now();
            let result = run_job(client, id, spec);
            front_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.close(span, 1);
            match result {
                Ok(s) if job_matches(&s, want) => {}
                Ok(s) => {
                    failed += 1;
                    errors.push(format!(
                        "tcp job {id}: state {:?}, front {:016x}",
                        s.state,
                        front_digest(&s)
                    ));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("tcp job {id}: {e}"));
                }
            }
        }
        (front_ms, failed)
    };
    let frames0 = stack.server.stats().frames_read;
    let mut quiet = SpanLog::new(Instant::now(), false);
    let (front_ms, f0) = tcp(false, None, &mut quiet);
    let frames1 = stack.server.stats().frames_read;
    let (traced_front_ms, f1) = tcp(true, Some(front_ms.len()), &mut log);
    failed += f0 + f1;
    let jobs = front_ms.len() as f64;
    Ok(JobLayers {
        inproc_ms,
        one_thread_ms,
        heuristic_ms,
        evals: runs[0].evals_done,
        candidates: runs[0].candidates_done,
        front_points: runs[0].front.len(),
        polls_per_job: (frames1 - frames0) as f64 / jobs - 1.0,
        attempted: 4 + 2 * front_ms.len() as u64,
        front_ms,
        traced_front_ms,
        failed,
        log,
    })
}

/// The traced run of one workload.
pub fn traced(
    inputs: &Inputs,
    stack: &mut Stack,
    scale: &Scale,
    seconds: f64,
    spans_path: &Path,
    provenance: &str,
) -> Result<RunResult, String> {
    let mut errors = Vec::new();
    let (plans, mut compile_us) = compile_pool(&inputs.pool)?;
    while compile_us.len() < 8 {
        compile_us.extend(compile_pool(&inputs.pool)?.1);
    }

    let own = match inputs.workload {
        Workload::Optimize => None,
        workload => {
            let request = |i| inputs.request(i);
            let w = waterfall(
                "own",
                inputs,
                stack,
                &plans,
                &request,
                window(workload),
                seconds / 4.0,
                Duration::from_secs_f64(seconds / 2.0),
                scale.trace_cap as u64,
                &mut errors,
            );
            w.print("own stream");
            Some(w)
        }
    };
    let calibration_request = |i| inputs.calibration_request(i);
    let calib = waterfall(
        "calibration",
        inputs,
        stack,
        &plans,
        &calibration_request,
        1,
        0.0,
        Duration::from_secs_f64(seconds),
        scale.calibration_requests as u64,
        &mut errors,
    );
    calib.print("calibration stream");
    let own_jobs = inputs.workload == Workload::Optimize;
    let (job_budget, min_jobs) = if own_jobs {
        (Duration::from_secs_f64(seconds / 4.0), 3)
    } else {
        (Duration::ZERO, 2)
    };
    let jobs = job_layers(&inputs.job, stack, job_budget, min_jobs, &mut errors)?;

    let mut m = Vec::new();
    let src = |own_stream: bool| {
        if own_stream {
            "own stream"
        } else {
            "calibration"
        }
    };
    // Kernel functions: the own stream where it calls them.
    for (name, spans) in [
        ("mapping.move_ns", &["kernel.moves"][..]),
        ("core.verdict_ns", &["kernel.verdict", "kernel.origins"][..]),
        ("core.curve_point_ns", &["kernel.curve"][..]),
    ] {
        let (value, from) = match own.as_ref().and_then(|w| w.per_unit_ns(spans)) {
            Some(v) => (v, true),
            None => (calib.per_unit_ns(spans).unwrap_or(0.0), false),
        };
        m.push(Metric::new(name, value, "ns").note(src(from)));
    }
    let jobs_src = src(own_jobs);
    for (name, ms) in &jobs.heuristic_ms {
        m.push(
            Metric::new(&format!("mapping.heuristic_ms.{name}"), *ms, "ms")
                .samples(3)
                .note(jobs_src),
        );
    }
    m.push(
        Metric::new("serve.compile_us", median(&compile_us), "us")
            .samples(compile_us.len())
            .note("Scenario::compile over the pool"),
    );

    // Request layers: the own stream, else the calibration stream.
    let w = own.as_ref().unwrap_or(&calib);
    let from = src(own.is_some());
    let svc = &w.svc_tcp;
    m.push(
        Metric::new("serve.cache_hit_rate", svc.cache_hit_rate(), "ratio")
            .samples(svc.completed as usize)
            .note(from),
    );
    m.push(Metric::new("serve.compiles", svc.cache_misses as f64, "count").note(from));
    let busy_us = w.svc_serve.busy_ns as f64 / w.svc_serve.completed.max(1) as f64 / 1e3;
    m.push(
        Metric::new("serve.call_us", w.layer_us[1], "us")
            .samples(w.n as usize)
            .note(from),
    );
    m.push(Metric::new("serve.increment_us", w.layer_us[1] - w.layer_us[0], "us").note(from));
    m.push(
        Metric::new("serve.busy_us", busy_us, "us")
            .samples(w.svc_serve.completed as usize)
            .note(from),
    );
    m.push(Metric::new("serve.wait_us", w.layer_us[1] - busy_us, "us").note(from));
    let final_svc = stack.service.stats().totals();
    m.push(Metric::new(
        "serve.shed",
        (final_svc.shed_full + final_svc.shed_shutdown) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.worker_panics",
        final_svc.worker_panics as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.brownout",
        final_svc.brownout_evals as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.deadline_expired",
        final_svc.deadline_expired as f64,
        "count",
    ));
    for (name, span) in [
        ("wire.enc_req_us", "wire.enc_req"),
        ("wire.dec_req_us", "wire.dec_req"),
        ("wire.enc_resp_us", "wire.enc_resp"),
        ("wire.dec_resp_us", "wire.dec_resp"),
    ] {
        m.push(
            Metric::new(name, w.wire_us(span), "us")
                .samples(w.n as usize)
                .note(from),
        );
    }
    m.push(Metric::new("wire.req_bytes", w.wire_bytes("wire.enc_req"), "bytes").note(from));
    m.push(Metric::new("wire.resp_bytes", w.wire_bytes("wire.enc_resp"), "bytes").note(from));
    m.push(Metric::new("wire.increment_us", w.layer_us[2] - w.layer_us[1], "us").note(from));
    m.push(Metric::new("net.increment_us", w.layer_us[3] - w.layer_us[2], "us").note(from));
    m.push(Metric::new("net.frames_read", w.net_tcp.frames_read as f64, "count").note(from));
    m.push(
        Metric::new(
            "net.frames_written",
            w.net_tcp.frames_written as f64,
            "count",
        )
        .note(from),
    );
    m.push(Metric::new(
        "net.max_pipeline_depth",
        w.net_tcp.max_pipeline_depth as f64,
        "count",
    ));
    m.push(Metric::new(
        "net.errors",
        net_errors(&stack.server.stats()) as f64,
        "count",
    ));
    let (retries, reconnects) = stack.clients.iter().fold((0, 0), |(r, c), t| {
        (r + t.client.retries(), c + t.client.reconnects())
    });
    m.push(Metric::new("client.retries", retries as f64, "count"));
    m.push(Metric::new("client.reconnects", reconnects as f64, "count"));

    // Job layers.
    let inproc = median(&jobs.inproc_ms);
    m.push(
        Metric::new("net.job_polls", jobs.polls_per_job, "count")
            .samples(jobs.front_ms.len())
            .note(jobs_src),
    );
    m.push(
        Metric::new(
            "net.job_increment_ms",
            median(&jobs.front_ms) - inproc,
            "ms",
        )
        .note(jobs_src),
    );
    m.push(
        Metric::new("job.inproc_ms", inproc, "ms")
            .samples(jobs.inproc_ms.len())
            .note(jobs_src),
    );
    m.push(Metric::new("job.evals", jobs.evals as f64, "count").note(jobs_src));
    m.push(Metric::new("job.candidates", jobs.candidates as f64, "count").note(jobs_src));
    m.push(Metric::new("job.front_points", jobs.front_points as f64, "count").note(jobs_src));
    m.push(
        Metric::new(
            "par.efficiency",
            jobs.one_thread_ms / (2.0 * inproc),
            "ratio",
        )
        .note(format!(
            "{:.3} ms at 1 thread vs {inproc:.3} ms at 2",
            jobs.one_thread_ms
        )),
    );
    let overhead = match &own {
        Some(w) => (w.layer_us[3] - w.untraced_tcp_us) / w.untraced_tcp_us * 100.0,
        None => {
            let (t, u) = (median(&jobs.traced_front_ms), median(&jobs.front_ms));
            (t - u) / u * 100.0
        }
    };
    m.push(Metric::new("trace.overhead_pct", overhead, "%").note("traced vs untraced TCP pass"));

    let mut logs: Vec<(String, Vec<SpanLog>)> = Vec::new();
    let mut attempted = calib.attempted + jobs.attempted;
    let mut failed = calib.failed + jobs.failed;
    if let Some(w) = own {
        attempted += w.attempted;
        failed += w.failed;
        logs.extend(w.logs);
    }
    logs.extend(calib.logs);
    logs.push(("jobs".to_string(), vec![jobs.log]));
    let views: Vec<(&str, &[SpanLog])> = logs
        .iter()
        .map(|(n, l)| (n.as_str(), l.as_slice()))
        .collect();
    crate::spans::write_jsonl(spans_path, provenance, &views)
        .map_err(|e| format!("write spans: {e}"))?;
    let spans: usize = logs
        .iter()
        .flat_map(|(_, l)| l)
        .map(|l| l.spans.len())
        .sum();
    println!("spans: {spans} written to {}", spans_path.display());
    Ok(RunResult {
        attempted,
        failed,
        metrics: m,
        errors,
    })
}
