//! Blocking TCP client with reconnect and deterministic backoff.
//!
//! [`NetClient::call`] is the whole API: encode the request, write the
//! frame, read one frame back, decode. Failures are classified:
//!
//! * transport / framing trouble (io errors, torn frames, protocol
//!   violations) → drop the socket, **reconnect**, resend. Safe because
//!   responses are pure functions of requests — a retried request yields
//!   the same (bitwise) answer.
//! * typed [`WireError::Overloaded`] → keep the connection, **back off**
//!   (deterministic exponential: `base · 2^n`, capped), resend.
//! * typed [`WireError::Invalid`] → permanent; returned immediately,
//!   never retried.
//!
//! After [`ClientConfig::max_attempts`] failures the last error is
//! returned wrapped in [`NetError::RetriesExhausted`] so callers see both
//! the budget and the terminal cause.
//!
//! Every socket carries [`ClientConfig::io_timeout`] read/write timeouts
//! from the moment it connects, so a stalled server (accepts, then goes
//! silent) surfaces as a timed-out [`NetError::Io`] on the regular
//! reconnect path instead of blocking the caller forever.
//! [`NetClient::call_with_deadline`] adds end-to-end deadline enforcement:
//! the *remaining* budget travels in the request (shrinking across
//! attempts), bounds each read, and expires as a typed
//! [`NetError::DeadlineExceeded`].

use crate::frame::{encode_into, read_frame, write_frame, DecodeError, FrameReadError, FrameType};
use crate::wire::{
    decode, encode, encode_request, JobReply, RequestPayload, StatsReply, SubmitJobPayload, Wire,
    WireError,
};
use fepia_obs::trace::{self, stage};
use fepia_obs::TraceId;
use fepia_serve::{EvalRequest, EvalResponse, JobSnapshot, JobSpec, ShedReason};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Retry budget and backoff shape.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Total attempts per [`NetClient::call`] (first try included).
    pub max_attempts: u32,
    /// Backoff before retry `n` (0-based) is `base · 2^n`, capped at
    /// [`ClientConfig::backoff_cap`]. Deterministic — no jitter — so
    /// fixed-seed tests reproduce identical schedules.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Socket read/write timeout applied to every connection, whether or
    /// not the call carries a deadline — the floor that keeps a stalled
    /// server from hanging a client forever. A timed-out operation surfaces
    /// as [`NetError::Io`] and takes the normal reconnect path.
    /// `Duration::ZERO` disables (blocking reads, the pre-deadline
    /// behavior).
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Any way a call can fail.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a frame/payload.
    Decode(DecodeError),
    /// Typed server refusal: the target shard shed the request.
    Overloaded {
        /// Shard that refused.
        shard: u64,
        /// Why it refused.
        reason: ShedReason,
    },
    /// Typed server refusal: the request can never be served as sent.
    Invalid(String),
    /// The server violated the protocol (wrong frame type or id echo).
    Protocol(String),
    /// The retry budget ran out; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts consumed (== configured `max_attempts`).
        attempts: u32,
        /// The terminal cause.
        last: Box<NetError>,
    },
    /// The end-to-end deadline passed client-side before an answer
    /// arrived ([`NetClient::call_with_deadline`]).
    DeadlineExceeded {
        /// The deadline the call was given.
        deadline: Duration,
        /// Attempts started before the budget ran out.
        attempts: u32,
        /// The most recent attempt's error, if any attempt completed.
        last: Option<Box<NetError>>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Decode(e) => write!(f, "decode: {e}"),
            NetError::Overloaded { shard, reason } => write!(
                f,
                "overloaded: shard {shard} ({})",
                match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::ShuttingDown => "shutting down",
                }
            ),
            NetError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            NetError::DeadlineExceeded {
                deadline,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "deadline of {deadline:?} exceeded after {attempts} attempts"
                )?;
                if let Some(last) = last {
                    write!(f, "; last error: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Applies the configured socket timeouts (ZERO = fully blocking).
fn apply_io_timeouts(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    let t = (!timeout.is_zero()).then_some(timeout);
    stream.set_read_timeout(t)?;
    stream.set_write_timeout(t)
}

/// A blocking client for one server address. Not thread-safe (`&mut self`
/// calls); use one client per thread, as the soak tests do.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    reconnects: u64,
    retries: u64,
}

impl NetClient {
    /// Connects eagerly so configuration errors surface immediately.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        apply_io_timeouts(&stream, config.io_timeout).map_err(NetError::Io)?;
        Ok(NetClient {
            addr,
            config,
            stream: Some(stream),
            reconnects: 0,
            retries: 0,
        })
    }

    /// Times this client reconnected (transport-level recoveries).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Retries performed across all calls (any cause).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn stream(&mut self) -> Result<&mut TcpStream, NetError> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(NetError::Io)?;
            s.set_nodelay(true).map_err(NetError::Io)?;
            apply_io_timeouts(&s, self.config.io_timeout).map_err(NetError::Io)?;
            self.stream = Some(s);
            self.reconnects += 1;
            if fepia_obs::enabled() {
                fepia_obs::global().counter("net.client.reconnects").inc();
            }
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// One attempt: write the request frame, read one frame, classify it.
    /// `read_budget` tightens this attempt's read timeout below the
    /// configured `io_timeout` (deadline calls pass their remaining
    /// budget); `None` restores the configured floor.
    fn attempt(
        &mut self,
        bytes: &[u8],
        id: u64,
        trace: u64,
        read_budget: Option<Duration>,
    ) -> Result<EvalResponse, NetError> {
        let traced = trace != 0 && trace::trace_enabled();
        let io_timeout = self.config.io_timeout;
        let stream = self.stream()?;
        let read_timeout = match read_budget {
            Some(budget) if !io_timeout.is_zero() => Some(budget.min(io_timeout)),
            Some(budget) => Some(budget),
            None if io_timeout.is_zero() => None,
            None => Some(io_timeout),
        };
        // `set_read_timeout(Some(ZERO))` is an invalid argument; callers
        // guard a non-zero remaining budget before attempting.
        stream
            .set_read_timeout(read_timeout.filter(|t| !t.is_zero()))
            .map_err(NetError::Io)?;
        let send_started = Instant::now();
        write_frame(stream, FrameType::Request, trace, bytes).map_err(NetError::Io)?;
        if traced {
            trace::with_wall(
                trace::span_event(TraceId(trace), stage::CLIENT_SEND, id),
                send_started,
            )
            .emit();
        }
        read_reply(stream, |echo| echo == id)
    }

    /// Runs `attempt` under the retry budget: `Invalid` is returned at
    /// once, `Overloaded` backs off on the same connection, anything else
    /// reconnects first. `spans` emits the `client.retry` / `client.recv`
    /// spans for request `id` under `trace`.
    fn retried<T>(
        &mut self,
        id: u64,
        trace: u64,
        spans: bool,
        mut attempt: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let call_started = Instant::now();
        let mut last: Option<NetError> = None;
        for n in 0..self.config.max_attempts {
            if n > 0 {
                self.retries += 1;
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.client.retries").inc();
                }
                if spans {
                    trace::with_wall(
                        trace::span_event(TraceId(trace), stage::CLIENT_RETRY, id),
                        call_started,
                    )
                    .field("attempt", u64::from(n))
                    .field(
                        "cause",
                        match last.as_ref().expect("retry implies a prior error") {
                            NetError::Io(_) => "io",
                            NetError::Decode(_) => "decode",
                            NetError::Overloaded { .. } => "overloaded",
                            NetError::Protocol(_) => "protocol",
                            NetError::Invalid(_)
                            | NetError::RetriesExhausted { .. }
                            | NetError::DeadlineExceeded { .. } => "terminal",
                        },
                    )
                    .emit();
                }
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (n - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap));
            }
            match attempt(self) {
                Ok(reply) => {
                    if spans {
                        trace::with_wall(
                            trace::span_event(TraceId(trace), stage::CLIENT_RECV, id),
                            call_started,
                        )
                        .emit();
                    }
                    return Ok(reply);
                }
                Err(NetError::Invalid(msg)) => return Err(NetError::Invalid(msg)),
                Err(e @ NetError::Overloaded { .. }) => {
                    // The connection is fine; the service shed the request.
                    last = Some(e);
                }
                Err(e) => {
                    // Transport or framing trouble: the stream state is
                    // unknown, so reconnect before the next attempt.
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        Err(NetError::RetriesExhausted {
            attempts: self.config.max_attempts,
            last: Box::new(last.expect("max_attempts >= 1 guarantees an error")),
        })
    }

    /// Evaluates one request, retrying per the config. See the module docs
    /// for the retry / reconnect / give-up classification.
    ///
    /// Tracing: when [`fepia_obs::trace_enabled`], the client mints the
    /// request's [`TraceId`] here (deterministically, from the request id),
    /// sends it in the frame header, and emits `client.send` /
    /// `client.retry` / `client.recv` spans.
    pub fn call(&mut self, req: &EvalRequest) -> Result<EvalResponse, NetError> {
        let bytes = encode_request(req);
        let traced = trace::trace_enabled();
        let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
        self.retried(req.id, trace_id, traced, |c| {
            c.attempt(&bytes, req.id, trace_id, None)
        })
    }

    /// Evaluates one request under an **end-to-end deadline**. The
    /// remaining budget — deadline minus time already burned — is:
    ///
    /// * sent to the server in the request (wire v3 `deadline_us`), so the
    ///   service can drop the request at dequeue or brown out the
    ///   evaluation instead of computing an answer nobody is waiting for;
    /// * applied as this attempt's socket read timeout (never looser than
    ///   [`ClientConfig::io_timeout`]);
    /// * shrunk across retries: each attempt re-encodes the request with
    ///   whatever budget is left, so a retry after a 40 ms stall asks for
    ///   strictly less server time than the original.
    ///
    /// Retries follow the same classification as [`NetClient::call`], with
    /// two additions: a retry is only hedged when the kind is idempotent
    /// ([`fepia_serve::EvalKind::is_idempotent`] — every current kind is a
    /// pure function of the request), and when the budget runs out the
    /// typed [`NetError::DeadlineExceeded`] carries the attempt count and
    /// last transport error. A response whose disposition is
    /// `DeadlineExceeded` (the server dropped it at dequeue) is returned
    /// as-is — typed data, not an error.
    pub fn call_with_deadline(
        &mut self,
        req: &EvalRequest,
        deadline: Duration,
    ) -> Result<EvalResponse, NetError> {
        let traced = trace::trace_enabled();
        let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
        let call_started = Instant::now();
        let mut last: Option<NetError> = None;
        let mut attempts = 0u32;
        for n in 0..self.config.max_attempts {
            let Some(remaining) = deadline
                .checked_sub(call_started.elapsed())
                .filter(|r| !r.is_zero())
            else {
                break;
            };
            if n > 0 {
                if !req.kind.is_idempotent() {
                    // A non-idempotent kind must not be hedged: the first
                    // attempt may have been applied server-side.
                    return Err(last.take().expect("retry implies a prior error"));
                }
                self.retries += 1;
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.client.retries").inc();
                }
                if traced {
                    trace::with_wall(
                        trace::span_event(TraceId(trace_id), stage::CLIENT_RETRY, req.id),
                        call_started,
                    )
                    .field("attempt", u64::from(n))
                    .field("cause", "deadline-retry")
                    .emit();
                }
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (n - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap).min(remaining));
            }
            // Re-check after the backoff sleep also consumed budget.
            let Some(remaining) = deadline
                .checked_sub(call_started.elapsed())
                .filter(|r| !r.is_zero())
            else {
                break;
            };
            attempts += 1;
            let deadline_us = remaining.as_micros().min(u64::MAX as u128) as u64;
            let bytes = encode(&RequestPayload::new(req, deadline_us.max(1)));
            match self.attempt(&bytes, req.id, trace_id, Some(remaining)) {
                Ok(resp) => {
                    if traced {
                        trace::with_wall(
                            trace::span_event(TraceId(trace_id), stage::CLIENT_RECV, req.id),
                            call_started,
                        )
                        .emit();
                    }
                    return Ok(resp);
                }
                Err(NetError::Invalid(msg)) => return Err(NetError::Invalid(msg)),
                Err(e @ NetError::Overloaded { .. }) => {
                    last = Some(e);
                }
                Err(e) => {
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        if fepia_obs::enabled() {
            fepia_obs::global().counter("deadline.client_expired").inc();
        }
        Err(NetError::DeadlineExceeded {
            deadline,
            attempts,
            last: last.map(Box::new),
        })
    }

    /// Evaluates a batch of requests **pipelined on one connection**: all
    /// frames are encoded into a single buffer and written in one burst,
    /// then responses are collected as the server produces them — in any
    /// order, matched back to their request by the id echo. Returns the
    /// responses in request order.
    ///
    /// Requirements on the batch: ids must be unique (they are the
    /// correlation keys). One attempt, no retry: on any failure the
    /// connection is dropped and the typed error returned — the caller
    /// decides whether re-running the whole batch is worth it (safe,
    /// since responses are pure functions of requests). A typed per-
    /// request refusal (`Overloaded` / `Invalid` error frame) fails the
    /// batch with that error.
    pub fn call_pipelined(&mut self, reqs: &[EvalRequest]) -> Result<Vec<EvalResponse>, NetError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let traced = trace::trace_enabled();
        let send_started = Instant::now();
        let mut batch = Vec::new();
        let mut index_of = std::collections::HashMap::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            if index_of.insert(req.id, i).is_some() {
                return Err(NetError::Protocol(format!(
                    "pipelined batch reuses id {} (ids are correlation keys)",
                    req.id
                )));
            }
            let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
            encode_into(
                &mut batch,
                FrameType::Request,
                trace_id,
                &encode_request(req),
            );
        }
        let stream = self.stream()?;
        if let Err(e) = stream.write_all(&batch).and_then(|()| stream.flush()) {
            self.stream = None;
            return Err(NetError::Io(e));
        }
        if traced {
            for req in reqs {
                trace::with_wall(
                    trace::span_event(TraceId(TraceId::mint(req.id).0), stage::CLIENT_SEND, req.id),
                    send_started,
                )
                .emit();
            }
        }
        let mut slots: Vec<Option<EvalResponse>> = (0..reqs.len()).map(|_| None).collect();
        let mut filled = 0usize;
        while filled < reqs.len() {
            let stream = self.stream.as_mut().expect("stream present while reading");
            let resp: EvalResponse = match read_reply(stream, |echo| index_of.contains_key(&echo)) {
                Ok(resp) => resp,
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            };
            let i = index_of[&resp.id];
            if slots[i].is_some() {
                self.stream = None;
                return Err(NetError::Protocol(format!(
                    "duplicate response for id {}",
                    resp.id
                )));
            }
            if traced {
                trace::with_wall(
                    trace::span_event(
                        TraceId(TraceId::mint(resp.id).0),
                        stage::CLIENT_RECV,
                        resp.id,
                    ),
                    send_started,
                )
                .emit();
            }
            slots[i] = Some(resp);
            filled += 1;
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect())
    }

    /// One round trip for a job operation or stats poll: write the frame,
    /// read the one reply frame back.
    fn roundtrip<T: Reply>(
        &mut self,
        frame_type: FrameType,
        bytes: &[u8],
        id: u64,
        trace: u64,
    ) -> Result<T, NetError> {
        let stream = self.stream()?;
        write_frame(stream, frame_type, trace, bytes).map_err(NetError::Io)?;
        read_reply(stream, |echo| echo == id)
    }

    /// A one-attempt operation: on transport or framing trouble the stream
    /// state is unknown, so the next call reconnects.
    fn once<T>(&mut self, result: Result<T, NetError>) -> Result<T, NetError> {
        if matches!(
            result,
            Err(NetError::Io(_) | NetError::Decode(_) | NetError::Protocol(_))
        ) {
            self.stream = None;
        }
        result
    }

    /// An idempotent operation on `job` (status poll, cancel) with the
    /// same retry / reconnect / backoff classification as
    /// [`NetClient::call`].
    fn job_call_retried(
        &mut self,
        frame_type: FrameType,
        id: u64,
        job: u64,
    ) -> Result<JobSnapshot, NetError> {
        let (bytes, trace) = (encode(&(id, job)), trace_id(id));
        self.retried(id, trace, false, |c| {
            c.roundtrip::<JobReply>(frame_type, &bytes, id, trace)
        })
        .map(|reply| reply.snapshot)
    }

    /// Submits an optimizer job and returns its first snapshot (carrying
    /// the server-assigned job id in [`JobSnapshot::job`]).
    ///
    /// **One attempt, no retry**: a submit is not idempotent — a retry
    /// after a transport failure could admit the job twice. On a transport
    /// error the caller does not know whether the job was admitted; since
    /// fronts are pure functions of the spec, resubmitting costs capacity
    /// but never correctness. Typed `Overloaded` (the job table is at its
    /// admission bound) and `Invalid` (the spec can never run) come back
    /// unretried as well — the caller owns the admission policy.
    pub fn submit_job(&mut self, id: u64, spec: &JobSpec) -> Result<JobSnapshot, NetError> {
        let bytes = encode(&SubmitJobPayload::new(id, spec));
        let result = self.roundtrip::<JobReply>(FrameType::SubmitJob, &bytes, id, trace_id(id));
        self.once(result).map(|reply| reply.snapshot)
    }

    /// Polls a job's best-so-far snapshot. Idempotent: retried with
    /// reconnect and backoff like [`NetClient::call`].
    pub fn job_status(&mut self, id: u64, job: u64) -> Result<JobSnapshot, NetError> {
        self.job_call_retried(FrameType::JobStatus, id, job)
    }

    /// Requests cancellation and returns the resulting snapshot (already
    /// typed `Cancelled` unless the job had finished first). Idempotent:
    /// retried with reconnect and backoff.
    pub fn cancel_job(&mut self, id: u64, job: u64) -> Result<JobSnapshot, NetError> {
        self.job_call_retried(FrameType::CancelJob, id, job)
    }

    /// Polls every `interval` until the job reaches a terminal state,
    /// returning the final snapshot. Poll `n` uses request id
    /// `base_id + n` so every frame keeps a unique correlation id.
    pub fn wait_job(
        &mut self,
        base_id: u64,
        job: u64,
        interval: Duration,
    ) -> Result<JobSnapshot, NetError> {
        let mut n = 0u64;
        loop {
            let snapshot = self.job_status(base_id.wrapping_add(n), job)?;
            if snapshot.state.is_terminal() {
                return Ok(snapshot);
            }
            n += 1;
            std::thread::sleep(interval);
        }
    }

    /// Polls the server's live counters ([`StatsReply`]): per-shard service
    /// stats plus the net layer's frame counters. One attempt, no retry —
    /// a stats poll is cheap to reissue and the caller usually wants
    /// *current* numbers, not a delayed echo.
    pub fn stats(&mut self, id: u64) -> Result<StatsReply, NetError> {
        let result = self.roundtrip(FrameType::StatsRequest, &encode(&id), id, trace_id(id));
        self.once(result)
    }
}

/// The trace id a frame for request `id` carries: minted from the same
/// SplitMix64 sequence for every frame kind, so each outbound frame keeps
/// a unique correlation id under pipelining (0 only when tracing is off).
fn trace_id(id: u64) -> u64 {
    if trace::trace_enabled() {
        TraceId::mint(id).0
    } else {
        0
    }
}

/// A reply payload and the frame type that carries it.
trait Reply: Wire {
    const FRAME: FrameType;
    /// The request id the reply echoes.
    fn echo(&self) -> u64;
}

impl Reply for EvalResponse {
    const FRAME: FrameType = FrameType::Response;
    fn echo(&self) -> u64 {
        self.id
    }
}

impl Reply for JobReply {
    const FRAME: FrameType = FrameType::JobResult;
    fn echo(&self) -> u64 {
        self.id
    }
}

impl Reply for StatsReply {
    const FRAME: FrameType = FrameType::StatsResponse;
    fn echo(&self) -> u64 {
        self.id
    }
}

/// Reads one reply frame. A `T::FRAME` frame decodes to `T`; an `Error`
/// frame maps to its typed [`NetError`]. Either must echo an id `ours`
/// accepts (an error frame may also echo 0: the server could not read the
/// id); anything else is a protocol violation.
fn read_reply<T: Reply>(stream: &mut TcpStream, ours: impl Fn(u64) -> bool) -> Result<T, NetError> {
    let frame = read_frame(stream).map_err(|e| match e {
        FrameReadError::Io(e) => NetError::Io(e),
        FrameReadError::Closed => NetError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "server closed the connection",
        )),
        FrameReadError::Decode(e) => NetError::Decode(e),
    })?;
    if frame.frame_type == T::FRAME {
        let reply: T = decode(&frame.payload).map_err(NetError::Decode)?;
        if !ours(reply.echo()) {
            return Err(NetError::Protocol(format!(
                "{:?} frame echoes id {}, which no request here carries",
                T::FRAME,
                reply.echo()
            )));
        }
        return Ok(reply);
    }
    if frame.frame_type != FrameType::Error {
        return Err(NetError::Protocol(format!(
            "server sent a {:?} frame where a {:?} was expected",
            frame.frame_type,
            T::FRAME
        )));
    }
    let (echo, err) = decode::<(u64, WireError)>(&frame.payload).map_err(NetError::Decode)?;
    if echo != 0 && !ours(echo) {
        return Err(NetError::Protocol(format!(
            "error frame echoes id {echo}, which no request here carries"
        )));
    }
    Err(match err {
        WireError::Overloaded { shard, reason } => NetError::Overloaded { shard, reason },
        WireError::Invalid(msg) => NetError::Invalid(msg),
    })
}
