//! The four layers a request stream can be replayed through, and the one
//! closed loop that replays a stream through any of them.
//!
//! Every layer answers the same [`Caller::call`]: one call is one window of
//! requests (1 for lock-step callers, 16 for pipelined `probe` windows), and
//! every caller waits for its answers before it sends the next window. The
//! layers are, from the bottom up: the kernel (`CompiledScenario`
//! functions), the `Service` in-process, the wire codec around the
//! `Service`, and TCP through `NetServer`. Each is timed from outside,
//! around calls into the layer's public functions.

use crate::spans::SpanLog;
use fepia_core::{EvalBudget, PlanVerdict, PlanWorkspace, ResiliencePolicy};
use fepia_net::{
    decode_request, decode_response, encode_request, encode_response, Frame, FrameType, NetClient,
};
use fepia_serve::workload::{combine_digests, response_digest};
use fepia_serve::{
    CompiledScenario, Disposition, EvalKind, EvalRequest, EvalResponse, Scenario, Service,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub trait Caller: Send {
    /// Answers one window of requests, in request order. Child spans go to
    /// `log` under `parent`.
    fn call(
        &mut self,
        reqs: &[EvalRequest],
        log: &mut SpanLog,
        parent: Option<usize>,
    ) -> Result<Vec<EvalResponse>, String>;
}

/// Compiled scenarios keyed by fingerprint.
pub type Plans = Arc<HashMap<u64, Arc<CompiledScenario>>>;

/// Compiles every scenario of `pool`, returning the plans and the compile
/// time of each in microseconds.
pub fn compile_pool(pool: &[Arc<Scenario>]) -> Result<(Plans, Vec<f64>), String> {
    let mut plans = HashMap::new();
    let mut compile_us = Vec::with_capacity(pool.len());
    for scenario in pool {
        let t0 = Instant::now();
        let compiled = scenario.compile().map_err(|e| format!("compile: {e}"))?;
        compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
        plans.insert(scenario.fingerprint(), Arc::new(compiled));
    }
    Ok((Arc::new(plans), compile_us))
}

/// What the service computes for `kind`, called directly: the same
/// functions, policy and (unlimited) budget its workers use.
pub fn kernel_eval(
    compiled: &CompiledScenario,
    kind: &EvalKind,
    ws: &mut PlanWorkspace,
    policy: &ResiliencePolicy,
) -> Vec<PlanVerdict> {
    match kind {
        EvalKind::Verdict => vec![compiled.verdict_at_origin(ws, policy)],
        EvalKind::Origins(origins) => compiled.verdicts_at(origins, ws, policy),
        EvalKind::Moves(moves) => compiled.move_verdicts(moves),
        EvalKind::Curve(spec) => {
            compiled
                .curve_verdicts(spec, ws, policy, EvalBudget::UNLIMITED)
                .0
        }
    }
}

/// Span name of the kernel function that serves `kind`.
pub fn kernel_span(kind: &EvalKind) -> &'static str {
    match kind {
        EvalKind::Verdict => "kernel.verdict",
        EvalKind::Origins(_) => "kernel.origins",
        EvalKind::Moves(_) => "kernel.moves",
        EvalKind::Curve(_) => "kernel.curve",
    }
}

/// The kernel layer: no queue, no cache, no codec.
pub struct Kernel {
    plans: Plans,
    ws: PlanWorkspace,
    policy: ResiliencePolicy,
}

impl Kernel {
    pub fn new(plans: &Plans) -> Kernel {
        Kernel {
            plans: Arc::clone(plans),
            ws: PlanWorkspace::new(),
            policy: ResiliencePolicy::default(),
        }
    }
}

impl Caller for Kernel {
    fn call(
        &mut self,
        reqs: &[EvalRequest],
        log: &mut SpanLog,
        parent: Option<usize>,
    ) -> Result<Vec<EvalResponse>, String> {
        reqs.iter()
            .map(|req| {
                let compiled = self
                    .plans
                    .get(&req.scenario.fingerprint())
                    .ok_or_else(|| format!("request {} names an uncompiled scenario", req.id))?;
                let span = log.open(kernel_span(&req.kind), parent, req.id);
                let verdicts = kernel_eval(compiled, &req.kind, &mut self.ws, &self.policy);
                log.close(span, verdicts.len() as u64);
                Ok(response(req.id, verdicts))
            })
            .collect()
    }
}

/// The `Service` in-process: lock-step callers use `call_blocking`;
/// windows submit every request before waiting, as a pipelined connection
/// does.
pub struct InProcess {
    pub service: Arc<Service>,
}

impl Caller for InProcess {
    fn call(
        &mut self,
        reqs: &[EvalRequest],
        _log: &mut SpanLog,
        _parent: Option<usize>,
    ) -> Result<Vec<EvalResponse>, String> {
        serve(&self.service, reqs.to_vec())
    }
}

fn serve(service: &Service, reqs: Vec<EvalRequest>) -> Result<Vec<EvalResponse>, String> {
    if reqs.len() == 1 {
        let req = reqs.into_iter().next().expect("one request");
        return service
            .call_blocking(req)
            .map(|r| vec![r])
            .map_err(|e| e.to_string());
    }
    let tickets = reqs
        .into_iter()
        .map(|req| service.submit_blocking(req))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    tickets
        .into_iter()
        .map(|t| t.wait().map_err(|e| e.to_string()))
        .collect()
}

/// The wire codec around the `Service`: every request is framed, encoded
/// and decoded as the client and event loop do, and so is every response.
pub struct Codec {
    pub service: Arc<Service>,
}

impl Caller for Codec {
    fn call(
        &mut self,
        reqs: &[EvalRequest],
        log: &mut SpanLog,
        parent: Option<usize>,
    ) -> Result<Vec<EvalResponse>, String> {
        let mut decoded = Vec::with_capacity(reqs.len());
        for req in reqs {
            let span = log.open("wire.enc_req", parent, req.id);
            let bytes = Frame::with_trace(FrameType::Request, 0, encode_request(req)).encode();
            log.close(span, bytes.len() as u64);
            let span = log.open("wire.dec_req", parent, req.id);
            let back = Frame::decode(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|f| decode_request(&f.payload).map_err(|e| e.to_string()))
                .and_then(|p| p.into_request());
            log.close(span, bytes.len() as u64);
            decoded.push(back?);
        }
        let span = log.open("serve.call", parent, reqs[0].id);
        let answers = serve(&self.service, decoded);
        log.close(span, reqs.len() as u64);
        answers?
            .into_iter()
            .map(|resp| {
                let span = log.open("wire.enc_resp", parent, resp.id);
                let bytes = Frame::new(FrameType::Response, encode_response(&resp)).encode();
                log.close(span, bytes.len() as u64);
                let span = log.open("wire.dec_resp", parent, resp.id);
                let back = Frame::decode(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|f| decode_response(&f.payload).map_err(|e| e.to_string()));
                log.close(span, bytes.len() as u64);
                back
            })
            .collect()
    }
}

/// TCP through `NetServer`: `call` for lock-step callers, `call_pipelined`
/// for windows.
pub struct Tcp {
    pub client: NetClient,
}

impl Caller for Tcp {
    fn call(
        &mut self,
        reqs: &[EvalRequest],
        _log: &mut SpanLog,
        _parent: Option<usize>,
    ) -> Result<Vec<EvalResponse>, String> {
        let answers = if reqs.len() == 1 {
            self.client.call(&reqs[0]).map(|r| vec![r])
        } else {
            self.client.call_pipelined(reqs)
        };
        answers.map_err(|e| e.to_string())
    }
}

/// A response as the service would build it around `verdicts`.
pub fn response(id: u64, verdicts: Vec<PlanVerdict>) -> EvalResponse {
    EvalResponse {
        id,
        shard: 0,
        cache: None,
        verdicts,
        attempts: 1,
        disposition: Disposition::Full,
        curve: None,
    }
}

/// When a replay stops: at a deadline, after a request count, or at
/// whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    pub deadline: Option<Instant>,
    pub requests: Option<u64>,
}

impl Stop {
    pub fn at(deadline: Instant) -> Stop {
        Stop {
            deadline: Some(deadline),
            requests: None,
        }
    }

    pub fn after(requests: u64) -> Stop {
        Stop {
            deadline: None,
            requests: Some(requests),
        }
    }
}

/// Response digests summed (wrapping, like `combine_digests`) into buckets
/// by request id: memory stays fixed however many requests a run sends, so
/// the benchmark's own bookkeeping cannot move `rss_peak_mb`, and a wrong
/// answer still shows as a bucket that differs from the reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digests(pub Vec<u64>);

/// Buckets of [`Digests`].
const DIGEST_BUCKETS: u64 = 4096;

impl Default for Digests {
    fn default() -> Digests {
        Digests(vec![0; DIGEST_BUCKETS as usize])
    }
}

impl Digests {
    pub fn add(&mut self, id: u64, digest: u64) {
        let b = &mut self.0[(id % DIGEST_BUCKETS) as usize];
        *b = b.wrapping_add(digest);
    }

    fn merge(&mut self, other: &Digests) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = a.wrapping_add(*b);
        }
    }

    /// The order-independent aggregate over every answer.
    pub fn total(&self) -> u64 {
        combine_digests(self.0.iter().copied())
    }

    /// Buckets that differ: at least one wrong answer each.
    pub fn differing(&self, other: &Digests) -> u64 {
        self.0.iter().zip(&other.0).filter(|(a, b)| a != b).count() as u64
    }
}

/// A uniform sample of at most `cap` call durations (reservoir sampling with
/// a fixed-seed generator), so percentile memory is fixed too.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    pub samples: Vec<f64>,
}

/// Call durations each caller keeps.
const RESERVOIR: usize = 1 << 15;

impl Reservoir {
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            state: 0x2545_f491_4f6c_dd1d,
            samples: Vec::with_capacity(cap),
        }
    }

    pub fn add(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
            return;
        }
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let j = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = x;
        }
    }
}

/// Everything one replay observed.
#[derive(Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose call failed or was refused.
    pub failed: u64,
    /// Successful calls.
    pub calls: u64,
    /// Sum of all successful call durations, in microseconds.
    pub rtt_sum_us: f64,
    /// A uniform sample of the successful call durations, in microseconds.
    pub rtt_us: Vec<f64>,
    /// Verdicts returned.
    pub verdicts: u64,
    /// Wall time from the first call to the last answer, in seconds.
    pub wall_s: f64,
    /// Digests of every answer.
    pub digests: Digests,
    /// `(request id, metric_hi bits of verdict 0)` of the first request of
    /// each of a caller's first [`SPOT_WINDOWS`] windows, for the `probe`
    /// spot check.
    pub spot: Vec<(u64, u64)>,
    /// The first few call errors.
    pub errors: Vec<String>,
    /// One span log per caller.
    pub logs: Vec<SpanLog>,
}

/// Windows per caller whose first answer the `probe` spot check recomputes.
const SPOT_WINDOWS: usize = 2048;

/// Replays requests `0, 1, 2, …` (from `request`) through `callers`, one
/// thread per caller, each taking the next window of `window` requests
/// from a shared counter and waiting for its answers: a closed loop.
/// Windows are handed out whole, so the requests sent are exactly
/// `0..attempted`. Returns the callers for the next replay.
pub fn drive<C: Caller>(
    callers: Vec<C>,
    request: &(dyn Fn(u64) -> EvalRequest + Sync),
    window: usize,
    stop: Stop,
    traced: bool,
) -> (Outcome, Vec<C>) {
    let next = AtomicU64::new(0);
    let origin = Instant::now();
    let window = window as u64;
    let (parts, callers): (Vec<Outcome>, Vec<C>) = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|mut caller| {
                let next = &next;
                scope.spawn(move || {
                    let mut part = Outcome::default();
                    let mut rtt = Reservoir::new(RESERVOIR);
                    let mut log = SpanLog::new(origin, traced);
                    loop {
                        if stop.deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let first = next.fetch_add(1, Ordering::Relaxed) * window;
                        if stop.requests.is_some_and(|n| first + window > n) {
                            break;
                        }
                        let reqs: Vec<EvalRequest> = (first..first + window).map(request).collect();
                        let span = log.open("call", None, first);
                        let t0 = Instant::now();
                        let answers = caller.call(&reqs, &mut log, span.id());
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        log.close(span, window);
                        part.attempted += window;
                        match answers {
                            Ok(answers) if answers.len() == reqs.len() => {
                                part.calls += 1;
                                part.rtt_sum_us += us;
                                rtt.add(us);
                                if part.spot.len() < SPOT_WINDOWS {
                                    part.spot.push((
                                        answers[0].id,
                                        answers[0]
                                            .verdicts
                                            .first()
                                            .map_or(0, |v| v.metric_hi.to_bits()),
                                    ));
                                }
                                for a in &answers {
                                    part.verdicts += a.verdicts.len() as u64;
                                    part.digests.add(a.id, response_digest(a));
                                }
                            }
                            Ok(answers) => {
                                part.failed += window;
                                part.errors.push(format!(
                                    "window at {first}: {} answers for {} requests",
                                    answers.len(),
                                    reqs.len()
                                ));
                            }
                            Err(e) => {
                                part.failed += window;
                                part.errors.push(format!("window at {first}: {e}"));
                            }
                        }
                    }
                    part.logs.push(log);
                    part.rtt_us = rtt.samples;
                    (part, caller)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .unzip()
    });
    let mut out = Outcome {
        wall_s: origin.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for p in parts {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.calls += p.calls;
        out.rtt_sum_us += p.rtt_sum_us;
        out.rtt_us.extend(p.rtt_us);
        out.verdicts += p.verdicts;
        out.digests.merge(&p.digests);
        out.spot.extend(p.spot);
        out.errors.extend(p.errors.into_iter().take(4));
        out.logs.extend(p.logs);
    }
    out.spot.sort_unstable();
    (out, callers)
}
