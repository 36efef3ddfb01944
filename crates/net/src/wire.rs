//! Payload encodings for every frame kind, built from one symmetric
//! [`Wire`] trait.
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a decoded response is **bitwise**
//! identical to the one the server computed — including NaN payloads and
//! signed zeros. Collections are a `u64` count followed by the elements;
//! every count is checked against the bytes actually remaining — at
//! [`Wire::MIN_LEN`] bytes per element — *before* any allocation, so a
//! hostile length field cannot balloon memory. Options are a `0`/`1` tag
//! byte then the value; enums are a tag byte then the variant's fields.
//!
//! Each frame payload is a composition of `Wire` types, encoded by
//! [`encode`] and decoded by [`decode`] (which also rejects trailing
//! bytes):
//!
//! | frame | payload |
//! |---|---|
//! | `Request` | [`RequestPayload`]: id, relative deadline in µs (`0` = none), the scenario by value (ETC matrix, assignment, τ, [`RadiusOptions`]), the [`EvalKind`] |
//! | `Response` | [`EvalResponse`]: every per-feature [`RadiusVerdict`], the [`Disposition`], and for curves the [`CurveMeta`] |
//! | `Error` | `(u64, WireError)`: the echoed id and a typed refusal |
//! | `StatsRequest` | `u64`: the poll id |
//! | `StatsResponse` | [`StatsReply`] |
//! | `SubmitJob` | [`SubmitJobPayload`] |
//! | `JobStatus`, `CancelJob` | `(u64, u64)`: request id, job id |
//! | `JobResult` | [`JobReply`] |
//!
//! Validation is two-phase. Decoding is structural: truncation, bad tags
//! and implausible lengths are typed [`DecodeError`]s, never panics
//! (fuzzed at the workspace root). [`RequestPayload::into_request`] and
//! [`SubmitJobPayload::into_spec`] are the semantic step that turns a
//! well-formed frame into a servable request; the server runs admission
//! control between the two.
//!
//! Adding a frame kind: give the payload type a `Wire` impl (the
//! `wire_struct!` / `wire_enum!` / `wire_tags!` macros below cover plain
//! structs, tagged enums and unit-enum tag tables), add the
//! [`crate::frame::FrameType`] byte, and route it in the server's
//! `handle_frame`.

use crate::frame::DecodeError;
use crate::server::NetStatsSnapshot;
use fepia_core::{
    Bound, DegradeReason, FailReason, PlanVerdict, RadiusMethod, RadiusOptions, RadiusResult,
    RadiusVerdict, VerdictKind,
};
use fepia_etc::EtcMatrix;
use fepia_mapping::{FrontPoint, Mapping};
use fepia_optim::root1d::RootOptions;
use fepia_optim::{Norm, SolverOptions, VecN};
use fepia_serve::{
    CacheOutcome, CurveGrid, CurveMeta, CurveSpec, Disposition, EvalKind, EvalRequest,
    EvalResponse, JobHeuristic, JobSnapshot, JobSpec, JobState, Scenario, ShardStatsSnapshot,
    ShedReason,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The trait and its two entry points
// ---------------------------------------------------------------------------

/// A type with one canonical byte encoding. Decoding is total: any input
/// yields the value or a typed [`DecodeError`], never a panic, and
/// re-encoding a decoded value reproduces its bytes exactly.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to. Bounds
    /// collection counts before any allocation.
    const MIN_LEN: usize;
    /// Appends the encoding of `self`.
    fn encode(&self, w: &mut PayloadWriter);
    /// Reads one value from the front of `r`.
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes one frame payload.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    value.encode(&mut w);
    w.finish()
}

/// Decodes one frame payload, failing with
/// [`DecodeError::TrailingBytes`] unless it is consumed exactly.
pub fn decode<T: Wire>(payload: &[u8]) -> Result<T, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Byte-level writer/reader
// ---------------------------------------------------------------------------

/// Append-only byte writer.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty writer.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked reader over a payload slice.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a collection count and rejects it — before any allocation —
    /// unless `count * min_elem_bytes` could still fit in the bytes left.
    fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let len = u64::decode(self)?;
        let limit = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > limit {
            return Err(DecodeError::BadLength { what, len, limit });
        }
        Ok(len as usize)
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Generic impls
// ---------------------------------------------------------------------------

// Every `encode`/`decode` below is `#[inline]`: without the hint the
// nested decoders of a response stay out-of-line calls and
// `decode_response` runs about 2× slower than hand-inlined code.

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn encode(&self, w: &mut PayloadWriter) {
                w.put(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

wire_int!(u8, u32, u64);

/// `usize` travels as a `u64`.
impl Wire for usize {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        (*self as u64).encode(w);
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::decode(r)? as usize)
    }
}

/// `f64` travels as its IEEE-754 bit pattern.
impl Wire for f64 {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.to_bits().encode(w);
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for String {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.len().encode(w);
        w.put(self.as_bytes());
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        let len = r.count("string", 1)?;
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| DecodeError::BadUtf8 { what: "string" })
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            None => 0u8.encode(w),
            Some(v) => {
                1u8.encode(w);
                v.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(bad_tag("option", tag)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.len().encode(w);
        self.iter().for_each(|v| v.encode(w));
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        let len = r.count(std::any::type_name::<T>(), T::MIN_LEN)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Same bytes as the component `Vec<f64>`.
impl Wire for VecN {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.dim().encode(w);
        self.iter().for_each(|x| x.encode(w));
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        Vec::decode(r).map(VecN::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

fn bad_tag(what: &'static str, tag: u8) -> DecodeError {
    DecodeError::BadTag {
        what,
        tag: tag as u64,
    }
}

/// The smallest of `lens` (a tagged enum's cheapest variant).
const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// A struct encoded as its fields in the listed order. The list must name
/// every field (the struct literal in `decode` does not compile otherwise).
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $ft:ty),+ $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$ft as Wire>::MIN_LEN)+;
            #[inline]
            fn encode(&self, w: &mut PayloadWriter) {
                $(self.$field.encode(w);)+
            }
            #[inline]
            fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
                Ok($ty { $($field: <$ft>::decode(r)?),+ })
            }
        }
    };
}

/// An enum encoded as a tag byte, then the variant's fields in order.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $var:ident
            $(( $($tf:ident: $tt:ty),+ ))?
            $({ $($sf:ident: $st:ty),+ })?),+ $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_LEN: usize =
                1 + min_of(&[$(0 $($(+ <$tt as Wire>::MIN_LEN)+)? $($(+ <$st as Wire>::MIN_LEN)+)?),+]);
            #[inline]
            fn encode(&self, w: &mut PayloadWriter) {
                match self {
                    $($ty::$var $(( $($tf),+ ))? $({ $($sf),+ })? => {
                        ($tag as u8).encode(w);
                        $($($tf.encode(w);)+)?
                        $($($sf.encode(w);)+)?
                    })+
                }
            }
            #[inline]
            fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
                Ok(match u8::decode(r)? {
                    $($tag => $ty::$var
                        $(( $(<$tt>::decode(r)?),+ ))?
                        $({ $($sf: <$st>::decode(r)?),+ })?,)+
                    tag => return Err(bad_tag($what, tag)),
                })
            }
        }
    };
}

/// A field-less value encoded as one tag byte: the variant↔byte table.
macro_rules! wire_tags {
    ($ty:ty, $what:literal {
        $($tag:literal => $v:ident $(::$vs:ident)* $(($($inner:ident)::+))?),+ $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 1;
            #[inline]
            fn encode(&self, w: &mut PayloadWriter) {
                let tag: u8 = match self {
                    $($v $(::$vs)* $(($($inner)::+))? => $tag),+
                };
                tag.encode(w);
            }
            #[inline]
            fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
                match u8::decode(r)? {
                    $($tag => Ok($v $(::$vs)* $(($($inner)::+))?),)+
                    tag => Err(bad_tag($what, tag)),
                }
            }
        }
    };
}

wire_tags!(bool, "bool" { 0 => false, 1 => true });

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// An ETC matrix as it travels: `apps`, `machines`, then the row-major
/// cells, not yet checked for shape or values. Shared by evaluation
/// requests and job submissions.
#[derive(Clone, Debug)]
pub(crate) struct EtcCells {
    apps: usize,
    machines: usize,
    values: Vec<f64>,
}

impl EtcCells {
    fn of(etc: &EtcMatrix) -> EtcCells {
        EtcCells {
            apps: etc.apps(),
            machines: etc.machines(),
            values: etc.values().to_vec(),
        }
    }

    /// Semantic validation: a non-empty matrix of positive finite cells.
    fn into_matrix(self) -> Result<EtcMatrix, String> {
        if self.apps == 0 || self.machines == 0 {
            return Err(format!(
                "empty ETC matrix ({}x{})",
                self.apps, self.machines
            ));
        }
        let rows = self.values.chunks(self.machines).map(<[f64]>::to_vec);
        EtcMatrix::try_from_rows(rows.collect()).map_err(|e| e.to_string())
    }
}

impl Wire for EtcCells {
    const MIN_LEN: usize = 16;
    #[inline]
    fn encode(&self, w: &mut PayloadWriter) {
        self.apps.encode(w);
        self.machines.encode(w);
        self.values.iter().for_each(|v| v.encode(w));
    }
    /// The cell count is `apps · machines` (saturating), bounded like any
    /// other collection count before allocation.
    #[inline]
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        let apps = usize::decode(r)?;
        let machines = usize::decode(r)?;
        let cells = apps.saturating_mul(machines) as u64;
        let limit = (r.remaining() / 8) as u64;
        if cells > limit {
            return Err(DecodeError::BadLength {
                what: "ETC matrix",
                len: cells,
                limit,
            });
        }
        let mut values = Vec::with_capacity(cells as usize);
        for _ in 0..cells {
            values.push(f64::decode(r)?);
        }
        Ok(EtcCells {
            apps,
            machines,
            values,
        })
    }
}

wire_enum!(Norm, "Norm" {
    1 => L1,
    2 => L2,
    3 => LInf,
    4 => WeightedL2(weights: Vec<f64>),
});

wire_struct!(RootOptions {
    x_tol: f64,
    f_tol: f64,
    max_iter: usize
});

wire_struct!(SolverOptions {
    tol: f64,
    max_outer: usize,
    t_max_factor: f64,
    fd_step: f64,
    seed_jitter: f64,
    root: RootOptions,
});

wire_struct!(RadiusOptions {
    norm: Norm,
    solver: SolverOptions
});

wire_enum!(CurveGrid, "CurveGrid" {
    1 => Explicit(levels: Vec<f64>),
    2 => Adaptive { tau_lo: f64, tau_hi: f64, max_depth: u32, rho_resolution: f64 },
});

wire_struct!(CurveSpec { grid: CurveGrid });

wire_enum!(EvalKind, "EvalKind" {
    1 => Verdict,
    2 => Origins(origins: Vec<VecN>),
    3 => Moves(moves: Vec<(usize, usize)>),
    4 => Curve(spec: CurveSpec),
});

/// A structurally valid request payload, not yet semantically validated.
/// [`RequestPayload::into_request`] performs the semantic checks (positive
/// finite ETC entries, in-range assignment, τ ≥ 1) that separate a
/// *well-formed* frame from a *servable* request.
#[derive(Clone, Debug)]
pub struct RequestPayload {
    /// Client-chosen request id, echoed in every reply.
    pub id: u64,
    /// Relative deadline in microseconds from server admission; `0` means
    /// none. Read by the server *before* [`RequestPayload::into_request`]
    /// so expired requests can be dropped without evaluation.
    pub deadline_us: u64,
    etc: EtcCells,
    mapping_machines: usize,
    assignment: Vec<usize>,
    tau: f64,
    opts: RadiusOptions,
    kind: EvalKind,
}

wire_struct!(RequestPayload {
    id: u64,
    deadline_us: u64,
    etc: EtcCells,
    mapping_machines: usize,
    assignment: Vec<usize>,
    tau: f64,
    opts: RadiusOptions,
    kind: EvalKind,
});

impl RequestPayload {
    /// The payload carrying `req` with a relative deadline of
    /// `deadline_us` microseconds (`0` = none).
    pub fn new(req: &EvalRequest, deadline_us: u64) -> RequestPayload {
        let s = &req.scenario;
        RequestPayload {
            id: req.id,
            deadline_us,
            etc: EtcCells::of(s.etc()),
            mapping_machines: s.mapping().machines(),
            assignment: s.mapping().assignment().to_vec(),
            tau: s.tau(),
            opts: s.opts().clone(),
            kind: req.kind.clone(),
        }
    }

    /// Semantic validation: builds the [`EvalRequest`] or explains why the
    /// payload can never be served (the server answers with a permanent
    /// [`WireError::Invalid`]). Never panics, whatever the field values.
    pub fn into_request(self) -> Result<EvalRequest, String> {
        // Empty kind bodies are well-formed frames but can never be served:
        // answering them with zero verdicts would be indistinguishable from
        // a served-but-empty response, so they are rejected typed here (and
        // again at service validation for in-process callers).
        match &self.kind {
            EvalKind::Origins(os) if os.is_empty() => {
                return Err("origins request carries no origins".into());
            }
            EvalKind::Moves(ms) if ms.is_empty() => {
                return Err("moves request carries no moves".into());
            }
            EvalKind::Curve(spec) => {
                if let Some(msg) = spec.validate() {
                    return Err(msg);
                }
            }
            _ => {}
        }
        let etc = self.etc.into_matrix()?;
        if self.mapping_machines == 0 {
            return Err("mapping declares zero machines".into());
        }
        if self.assignment.is_empty() {
            return Err("empty assignment".into());
        }
        if let Some(&bad) = self
            .assignment
            .iter()
            .find(|&&j| j >= self.mapping_machines)
        {
            return Err(format!(
                "assignment entry {bad} out of range for {} machines",
                self.mapping_machines
            ));
        }
        let mapping = Mapping::new(self.assignment, self.mapping_machines);
        let scenario = Scenario::new(Arc::new(etc), mapping, self.tau, self.opts)
            .map_err(|e| e.to_string())?;
        Ok(EvalRequest {
            id: self.id,
            scenario: Arc::new(scenario),
            kind: self.kind,
        })
    }
}

/// Encodes a full request with no deadline: id, scenario by value,
/// evaluation kind.
pub fn encode_request(req: &EvalRequest) -> Vec<u8> {
    encode(&RequestPayload::new(req, 0))
}

/// Decodes a request payload. Structural errors (truncation, bad tags,
/// implausible lengths) are [`DecodeError`]s; semantic errors are deferred
/// to [`RequestPayload::into_request`].
pub fn decode_request(payload: &[u8]) -> Result<RequestPayload, DecodeError> {
    decode(payload)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

wire_tags!(Option<CacheOutcome>, "CacheOutcome" {
    0 => None,
    1 => Some(CacheOutcome::Hit),
    2 => Some(CacheOutcome::Compiled),
    3 => Some(CacheOutcome::Coalesced),
});

wire_tags!(Disposition, "Disposition" {
    0 => Disposition::Full,
    1 => Disposition::Brownout,
    2 => Disposition::DeadlineExceeded,
});

wire_tags!(VerdictKind, "VerdictKind" {
    1 => VerdictKind::Exact,
    2 => VerdictKind::Bounded,
    3 => VerdictKind::Infeasible,
    4 => VerdictKind::Failed,
});

wire_tags!(Option<Bound>, "Bound" {
    0 => None,
    1 => Some(Bound::Min),
    2 => Some(Bound::Max),
});

wire_tags!(RadiusMethod, "RadiusMethod" {
    1 => RadiusMethod::Analytic,
    2 => RadiusMethod::Numeric,
    3 => RadiusMethod::Unbounded,
});

wire_tags!(DegradeReason, "DegradeReason" {
    1 => DegradeReason::IterationCap,
    2 => DegradeReason::BudgetExhausted,
});

wire_struct!(RadiusResult {
    radius: f64,
    boundary_point: Option<VecN>,
    bound: Option<Bound>,
    violated: bool,
    method: RadiusMethod,
    iterations: usize,
    f_evals: u64,
});

wire_enum!(FailReason, "FailReason" {
    1 => NonFiniteInput { index: usize },
    2 => NonFiniteImpact,
    3 => DimensionMismatch { got: usize, expected: usize },
    4 => Solver(msg: String),
    5 => Panic(msg: String),
});

wire_enum!(RadiusVerdict, "RadiusVerdict" {
    1 => Exact(result: RadiusResult),
    2 => Bounded { lo: f64, hi: f64, reason: DegradeReason, restarts: usize },
    3 => Infeasible,
    4 => Failed(reason: FailReason),
});

wire_struct!(PlanVerdict {
    metric_lo: f64,
    metric_hi: f64,
    binding: Option<usize>,
    kind: VerdictKind,
    radii: Vec<RadiusVerdict>,
});

wire_struct!(CurveMeta { taus: Vec<f64>, monotone: bool });

wire_struct!(EvalResponse {
    id: u64,
    shard: usize,
    attempts: u32,
    cache: Option<CacheOutcome>,
    disposition: Disposition,
    verdicts: Vec<PlanVerdict>,
    curve: Option<CurveMeta>,
});

/// Encodes a full response, bit-for-bit: every `f64` travels as its IEEE
/// bit pattern.
pub fn encode_response(resp: &EvalResponse) -> Vec<u8> {
    encode(resp)
}

/// Decodes a response payload into the same [`EvalResponse`] an in-process
/// caller would have received (bit-for-bit `f64` fields).
pub fn decode_response(payload: &[u8]) -> Result<EvalResponse, DecodeError> {
    decode(payload)
}

// ---------------------------------------------------------------------------
// Stats polling
// ---------------------------------------------------------------------------

/// A live counter snapshot served over TCP: per-shard service counters
/// plus the server's own frame counters, correlated to the poll by id.
/// Lets operators watch a running server without reading JSONL post-mortem.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// The poll id, echoed.
    pub id: u64,
    /// One snapshot per shard, in shard order
    /// (see [`fepia_serve::ServiceStats`]).
    pub shards: Vec<ShardStatsSnapshot>,
    /// The TCP server's frame counters.
    pub net: NetStatsSnapshot,
}

impl StatsReply {
    /// Sum of the per-shard counters.
    pub fn service_totals(&self) -> ShardStatsSnapshot {
        fepia_serve::ServiceStats {
            shards: self.shards.clone(),
        }
        .totals()
    }
}

wire_struct!(ShardStatsSnapshot {
    submitted: u64,
    completed: u64,
    shed_full: u64,
    shed_shutdown: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_coalesced: u64,
    worker_panics: u64,
    busy_ns: u64,
    deadline_expired: u64,
    brownout_evals: u64,
});

wire_struct!(NetStatsSnapshot {
    connections: u64,
    frames_read: u64,
    frames_written: u64,
    decode_errors: u64,
    overloaded: u64,
    invalid: u64,
    chaos_drops: u64,
    max_pipeline_depth: u64,
    admission_brownout: u64,
    admission_shed: u64,
});

wire_struct!(StatsReply {
    id: u64,
    shards: Vec<ShardStatsSnapshot>,
    net: NetStatsSnapshot,
});

// ---------------------------------------------------------------------------
// Optimizer jobs
// ---------------------------------------------------------------------------

wire_enum!(JobHeuristic, "JobHeuristic" {
    1 => Annealing { iterations: u32, initial_temperature: f64, cooling: f64 },
    2 => Tabu { iterations: u32, tabu_len: u32 },
    3 => Genetic { population: u32, generations: u32, mutation_rate: f64 },
    4 => RobustGreedy,
});

/// A structurally valid job submission, not yet semantically validated —
/// the job-layer analogue of [`RequestPayload`].
/// [`SubmitJobPayload::into_spec`] performs the semantic checks
/// (`JobSpec::validate`) that separate a well-formed frame from an
/// admissible job.
#[derive(Clone, Debug)]
pub struct SubmitJobPayload {
    /// Client-chosen request id, echoed in the [`JobReply`].
    pub id: u64,
    etc: EtcCells,
    tau: f64,
    seed: u64,
    population: u32,
    batches: u32,
    threads: u32,
    heuristics: Vec<JobHeuristic>,
}

wire_struct!(SubmitJobPayload {
    id: u64,
    etc: EtcCells,
    tau: f64,
    seed: u64,
    population: u32,
    batches: u32,
    threads: u32,
    heuristics: Vec<JobHeuristic>,
});

impl SubmitJobPayload {
    /// The payload submitting `spec` under request id `id`.
    pub fn new(id: u64, spec: &JobSpec) -> SubmitJobPayload {
        SubmitJobPayload {
            id,
            etc: EtcCells::of(&spec.etc),
            tau: spec.tau,
            seed: spec.seed,
            population: spec.population,
            batches: spec.batches,
            threads: spec.threads,
            heuristics: spec.heuristics.clone(),
        }
    }

    /// Semantic validation: builds the [`JobSpec`] or explains why the
    /// payload can never be admitted (the server answers with a permanent
    /// [`WireError::Invalid`]). Never panics, whatever the field values.
    pub fn into_spec(self) -> Result<JobSpec, String> {
        let spec = JobSpec {
            etc: Arc::new(self.etc.into_matrix()?),
            tau: self.tau,
            seed: self.seed,
            population: self.population,
            batches: self.batches,
            heuristics: self.heuristics,
            threads: self.threads,
        };
        match spec.validate() {
            Some(msg) => Err(msg),
            None => Ok(spec),
        }
    }
}

/// The server's one answer shape for every job operation (submit, poll,
/// cancel): the request id plus the job's current [`JobSnapshot`]. Every
/// `f64` in the front travels as its IEEE bit pattern, so a polled front
/// is **bitwise** identical to the one the job table holds.
#[derive(Clone, Debug)]
pub struct JobReply {
    /// The request id, echoed.
    pub id: u64,
    /// The job's snapshot at reply time.
    pub snapshot: JobSnapshot,
}

wire_tags!(JobState, "JobState" {
    1 => JobState::Running,
    2 => JobState::Done,
    3 => JobState::Cancelled,
    4 => JobState::Failed,
});

wire_struct!(FrontPoint {
    index: u64,
    makespan: f64,
    metric: f64,
    heuristic: String,
    assignment: Vec<usize>,
});

wire_struct!(JobSnapshot {
    job: u64,
    state: JobState,
    error: Option<String>,
    batches_done: u32,
    batches_total: u32,
    candidates_done: u64,
    candidates_total: u64,
    evals_done: u64,
    evals_total: u64,
    front: Vec<FrontPoint>,
});

wire_struct!(JobReply {
    id: u64,
    snapshot: JobSnapshot
});

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed server-side refusal, correlated to the request by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The target shard shed the request; retry later (the client's
    /// backoff loop does). Mirrors [`fepia_serve::Overloaded`].
    Overloaded {
        /// Shard that refused.
        shard: u64,
        /// Why it refused.
        reason: ShedReason,
    },
    /// The request can never be served as sent (malformed payload fields
    /// or out-of-range indices); resubmitting it unchanged cannot succeed.
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overloaded { shard, reason } => write!(
                f,
                "shard {shard} shed the request: {}",
                match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::ShuttingDown => "shutting down",
                }
            ),
            WireError::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

wire_tags!(ShedReason, "ShedReason" {
    1 => ShedReason::QueueFull,
    2 => ShedReason::ShuttingDown,
});

wire_enum!(WireError, "WireError" {
    1 => Overloaded { shard: u64, reason: ShedReason },
    2 => Invalid(msg: String),
});

#[cfg(test)]
mod tests {
    use super::*;
    use fepia_serve::workload::{request, scenario_pool, WorkloadSpec};

    const KIND_ORIGINS: u8 = 2;

    fn sample_requests() -> Vec<EvalRequest> {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        (0..20).map(|i| request(&spec, &pool, i)).collect()
    }

    #[test]
    fn request_roundtrip_reconstructs_scenario_bitwise() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).unwrap().into_request().unwrap();
            assert_eq!(decoded.id, req.id);
            assert!(decoded.scenario.same_as(&req.scenario));
            assert_eq!(
                decoded.scenario.fingerprint(),
                req.scenario.fingerprint(),
                "fingerprints must survive the wire"
            );
            match (&decoded.kind, &req.kind) {
                (EvalKind::Verdict, EvalKind::Verdict) => {}
                (EvalKind::Moves(a), EvalKind::Moves(b)) => assert_eq!(a, b),
                (EvalKind::Origins(a), EvalKind::Origins(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.dim(), y.dim());
                        for i in 0..x.dim() {
                            assert_eq!(x[i].to_bits(), y[i].to_bits());
                        }
                    }
                }
                other => panic!("kind drifted over the wire: {other:?}"),
            }
        }
    }

    #[test]
    fn weighted_norm_and_options_roundtrip() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let base = &pool[0];
        let opts = RadiusOptions {
            norm: Norm::WeightedL2(vec![0.5, 2.0, 1.25]),
            solver: SolverOptions {
                tol: 3e-7,
                max_outer: 17,
                ..SolverOptions::default()
            },
        };
        let scenario = Scenario::new(
            Arc::clone(base.etc()),
            base.mapping().clone(),
            1.31,
            opts.clone(),
        )
        .unwrap();
        let req = EvalRequest {
            id: 7,
            scenario: Arc::new(scenario),
            kind: EvalKind::Verdict,
        };
        let decoded = decode_request(&encode_request(&req))
            .unwrap()
            .into_request()
            .unwrap();
        assert_eq!(decoded.scenario.opts(), &opts);
        assert_eq!(decoded.scenario.tau().to_bits(), 1.31f64.to_bits());
    }

    #[test]
    fn semantic_garbage_is_invalid_not_panic() {
        // Well-formed frames whose *contents* are unservable must surface
        // as Err from into_request, not as panics.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let good = EvalRequest {
            id: 1,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Verdict,
        };
        let bytes = encode_request(&good);
        let mut payload = decode_request(&bytes).unwrap();
        payload.tau = f64::NAN;
        assert!(payload.clone().into_request().is_err());
        payload.tau = 1.2;
        payload.assignment[0] = usize::MAX;
        assert!(payload.clone().into_request().is_err());
        payload.assignment[0] = 0;
        payload.etc.values[0] = -3.0;
        assert!(payload.into_request().is_err());
    }

    #[test]
    fn response_roundtrip_is_bitwise() {
        let resp = EvalResponse {
            id: 99,
            shard: 3,
            cache: Some(CacheOutcome::Coalesced),
            attempts: 2,
            disposition: Disposition::Brownout,
            verdicts: vec![
                PlanVerdict {
                    radii: vec![
                        RadiusVerdict::Exact(RadiusResult {
                            radius: 1.5,
                            boundary_point: Some(VecN::new(vec![1.0, -0.0, f64::NAN])),
                            bound: Some(Bound::Max),
                            violated: false,
                            method: RadiusMethod::Analytic,
                            iterations: 0,
                            f_evals: 1,
                        }),
                        RadiusVerdict::Bounded {
                            lo: 0.25,
                            hi: f64::INFINITY,
                            reason: DegradeReason::BudgetExhausted,
                            restarts: 4,
                        },
                        RadiusVerdict::Infeasible,
                        RadiusVerdict::Failed(FailReason::Panic("chaos: injected".into())),
                    ],
                    metric_lo: 0.0,
                    metric_hi: 1.5,
                    binding: Some(0),
                    kind: VerdictKind::Failed,
                },
                PlanVerdict {
                    radii: vec![],
                    metric_lo: f64::INFINITY,
                    metric_hi: f64::INFINITY,
                    binding: None,
                    kind: VerdictKind::Exact,
                },
            ],
            curve: None,
        };
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).unwrap();
        // Re-encoding the decoded response must reproduce the bytes exactly:
        // the encoding is canonical, so byte equality IS bitwise equality.
        assert_eq!(encode_response(&decoded), bytes);
        assert_eq!(decoded.id, resp.id);
        assert_eq!(decoded.disposition, Disposition::Brownout);
        assert_eq!(decoded.verdicts.len(), 2);
        assert!(decoded.verdicts[0].radii.len() == 4);
    }

    #[test]
    fn curve_request_roundtrips_both_grid_kinds() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let grids = [
            CurveGrid::Explicit(vec![1.05, 1.2, 1.4, 2.0]),
            CurveGrid::Adaptive {
                tau_lo: 1.01,
                tau_hi: 1.75,
                max_depth: 5,
                rho_resolution: 1e-4,
            },
        ];
        for grid in grids {
            let req = EvalRequest {
                id: 12,
                scenario: Arc::clone(&pool[0]),
                kind: EvalKind::Curve(CurveSpec { grid: grid.clone() }),
            };
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).unwrap().into_request().unwrap();
            match &decoded.kind {
                EvalKind::Curve(s) => assert_eq!(s.grid, grid),
                other => panic!("curve kind drifted over the wire: {other:?}"),
            }
            // Canonical: re-encoding the decoded request reproduces the bytes.
            assert_eq!(encode_request(&decoded), bytes);
        }
    }

    #[test]
    fn curve_response_meta_roundtrips_bitwise() {
        let resp = EvalResponse {
            id: 13,
            shard: 1,
            cache: Some(CacheOutcome::Hit),
            attempts: 1,
            disposition: Disposition::Full,
            verdicts: vec![PlanVerdict {
                radii: vec![],
                metric_lo: 2.5,
                metric_hi: 2.5,
                binding: Some(1),
                kind: VerdictKind::Exact,
            }],
            curve: Some(CurveMeta {
                taus: vec![1.05, 1.2, f64::INFINITY],
                monotone: true,
            }),
        };
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).unwrap();
        assert_eq!(encode_response(&decoded), bytes);
        assert_eq!(decoded.curve, resp.curve);

        // A hostile tau count fails typed before allocation: the count sits
        // right after the curve presence byte (second-to-last 9 bytes are
        // count, last is the monotone flag).
        let mut m = bytes.clone();
        let count_pos = m.len() - 1 - 3 * 8 - 8;
        m[count_pos..count_pos + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_response(&m),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_kind_bodies_are_invalid_not_empty_responses() {
        // A well-formed frame carrying zero origins / zero moves / a bad
        // curve spec must surface as Err from into_request, never as a
        // servable request that would produce an empty verdict list.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        for kind in [
            EvalKind::Origins(vec![]),
            EvalKind::Moves(vec![]),
            EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![]),
            }),
            EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![1.4, 1.2]),
            }),
        ] {
            let req = EvalRequest {
                id: 3,
                scenario: Arc::clone(&pool[0]),
                kind,
            };
            let payload = decode_request(&encode_request(&req)).unwrap();
            assert!(payload.into_request().is_err());
        }
    }

    #[test]
    fn request_deadline_roundtrips() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let req = EvalRequest {
            id: 5,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Verdict,
        };
        let bytes = encode(&RequestPayload::new(&req, 2_500));
        let payload = decode_request(&bytes).unwrap();
        assert_eq!(payload.deadline_us, 2_500);
        // The no-deadline encoder is exactly deadline 0.
        assert_eq!(encode_request(&req), encode(&RequestPayload::new(&req, 0)));
        assert_eq!(
            decode_request(&encode_request(&req)).unwrap().deadline_us,
            0
        );
    }

    #[test]
    fn error_roundtrip() {
        for err in [
            WireError::Overloaded {
                shard: 2,
                reason: ShedReason::QueueFull,
            },
            WireError::Overloaded {
                shard: 0,
                reason: ShedReason::ShuttingDown,
            },
            WireError::Invalid("move 3 out of range".into()),
        ] {
            let bytes = encode(&(41u64, err.clone()));
            assert_eq!(decode::<(u64, WireError)>(&bytes).unwrap(), (41, err));
        }
    }

    #[test]
    fn stats_roundtrip_and_hostile_count() {
        let reply = StatsReply {
            id: 31,
            shards: vec![
                ShardStatsSnapshot {
                    submitted: 10,
                    completed: 9,
                    shed_full: 1,
                    shed_shutdown: 0,
                    cache_hits: 7,
                    cache_misses: 2,
                    cache_coalesced: 1,
                    worker_panics: 3,
                    busy_ns: 123_456_789,
                    deadline_expired: 6,
                    brownout_evals: 4,
                },
                ShardStatsSnapshot::default(),
            ],
            net: NetStatsSnapshot {
                connections: 4,
                frames_read: 100,
                frames_written: 99,
                decode_errors: 1,
                overloaded: 2,
                invalid: 0,
                chaos_drops: 5,
                max_pipeline_depth: 17,
                admission_brownout: 8,
                admission_shed: 3,
            },
        };
        let bytes = encode(&reply);
        assert_eq!(decode::<StatsReply>(&bytes).unwrap(), reply);
        assert_eq!(decode::<u64>(&encode(&31u64)).unwrap(), 31);

        // A hostile shard count fails typed before any allocation.
        let mut m = bytes.clone();
        m[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode::<StatsReply>(&m),
            Err(DecodeError::BadLength { .. })
        ));
        // Truncation anywhere is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode::<StatsReply>(&bytes[..cut]).is_err());
        }
    }

    fn sample_job_spec() -> JobSpec {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        JobSpec {
            etc: Arc::clone(pool[0].etc()),
            tau: 1.2,
            seed: 42,
            population: 16,
            batches: 4,
            heuristics: vec![
                JobHeuristic::RobustGreedy,
                JobHeuristic::Annealing {
                    iterations: 200,
                    initial_temperature: 0.1,
                    cooling: 0.995,
                },
                JobHeuristic::Tabu {
                    iterations: 5,
                    tabu_len: 16,
                },
                JobHeuristic::Genetic {
                    population: 8,
                    generations: 3,
                    mutation_rate: 0.05,
                },
            ],
            threads: 2,
        }
    }

    #[test]
    fn submit_job_roundtrips_bitwise() {
        let spec = sample_job_spec();
        let bytes = encode(&SubmitJobPayload::new(9, &spec));
        let payload = decode::<SubmitJobPayload>(&bytes).unwrap();
        assert_eq!(payload.id, 9);
        let decoded = payload.into_spec().unwrap();
        assert_eq!(decoded.heuristics, spec.heuristics);
        assert_eq!(decoded.seed, spec.seed);
        assert_eq!(decoded.population, spec.population);
        assert_eq!(decoded.batches, spec.batches);
        assert_eq!(decoded.threads, spec.threads);
        assert_eq!(decoded.tau.to_bits(), spec.tau.to_bits());
        // Canonical: re-encoding the decoded spec reproduces the bytes, so
        // the ETC survived bit-for-bit.
        assert_eq!(encode(&SubmitJobPayload::new(9, &decoded)), bytes);
    }

    #[test]
    fn submit_job_semantic_garbage_is_err_not_panic() {
        let spec = sample_job_spec();
        let bytes = encode(&SubmitJobPayload::new(1, &spec));
        // τ below 1 is a well-formed frame but an inadmissible job.
        let mut bad = spec.clone();
        bad.tau = 0.5;
        let payload = decode::<SubmitJobPayload>(&encode(&SubmitJobPayload::new(1, &bad))).unwrap();
        assert!(payload.into_spec().is_err());
        // batches > population likewise.
        let mut bad = spec.clone();
        bad.batches = bad.population + 1;
        let payload = decode::<SubmitJobPayload>(&encode(&SubmitJobPayload::new(1, &bad))).unwrap();
        assert!(payload.into_spec().is_err());
        // Truncation anywhere is typed.
        for cut in 0..bytes.len() {
            assert!(decode::<SubmitJobPayload>(&bytes[..cut]).is_err());
        }
        // An unknown heuristic tag is typed.
        let mut spec_one = spec.clone();
        spec_one.heuristics = vec![JobHeuristic::RobustGreedy];
        let mut m = encode(&SubmitJobPayload::new(1, &spec_one));
        let last = m.len() - 1;
        m[last] = 99;
        assert!(matches!(
            decode::<SubmitJobPayload>(&m),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn job_poll_and_cancel_roundtrip() {
        assert_eq!(
            decode::<(u64, u64)>(&encode(&(3u64, 17u64))).unwrap(),
            (3, 17)
        );
        assert_eq!(
            decode::<(u64, u64)>(&encode(&(4u64, 18u64))).unwrap(),
            (4, 18)
        );
        assert!(decode::<(u64, u64)>(&encode(&(3u64, 17u64))[..9]).is_err());
    }

    #[test]
    fn job_reply_roundtrips_bitwise_and_rejects_hostile_counts() {
        let reply = JobReply {
            id: 77,
            snapshot: JobSnapshot {
                job: 5,
                state: JobState::Running,
                error: None,
                batches_done: 2,
                batches_total: 4,
                candidates_done: 8,
                candidates_total: 16,
                evals_done: 1234,
                evals_total: 5000,
                front: vec![
                    FrontPoint {
                        index: 3,
                        makespan: 10.5,
                        metric: f64::NAN,
                        heuristic: "annealing".into(),
                        assignment: vec![0, 1, 2, 1],
                    },
                    FrontPoint {
                        index: 7,
                        makespan: 12.0,
                        metric: 2.5,
                        heuristic: "robust_greedy".into(),
                        assignment: vec![2, 2, 0, 1],
                    },
                ],
            },
        };
        let bytes = encode(&reply);
        let decoded = decode::<JobReply>(&bytes).unwrap();
        // Canonical encoding: byte equality IS bitwise equality (covers
        // the NaN metric above).
        assert_eq!(encode(&decoded), bytes);
        assert_eq!(decoded.id, 77);
        assert_eq!(decoded.snapshot.state, JobState::Running);
        assert_eq!(decoded.snapshot.front.len(), 2);

        // A Failed reply carries its error string.
        let failed = JobReply {
            id: 1,
            snapshot: JobSnapshot {
                state: JobState::Failed,
                error: Some("candidate 3 panicked".into()),
                front: Vec::new(),
                ..reply.snapshot.clone()
            },
        };
        let decoded = decode::<JobReply>(&encode(&failed)).unwrap();
        assert_eq!(
            decoded.snapshot.error.as_deref(),
            Some("candidate 3 panicked")
        );

        // Hostile front count fails typed before allocation: the count is
        // the 8 bytes right before the first point.
        let mut m = bytes.clone();
        let first_point = m.len()
            - 2 * (8 + 8 + 8)
            - (8 + "annealing".len())
            - (8 + "robust_greedy".len())
            - 2 * (8 + 4 * 8);
        m[first_point - 8..first_point].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode::<JobReply>(&m),
            Err(DecodeError::BadLength { .. })
        ));
        // Truncation anywhere is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode::<JobReply>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // A request payload claiming 2^60 origins must fail fast with a
        // typed error, not attempt the allocation.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let req = EvalRequest {
            id: 1,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Origins(vec![VecN::zeros(20)]),
        };
        let mut bytes = encode_request(&req);
        // The origins count sits right after the kind tag; find the tag.
        let tag_pos = bytes.len() - (8 + 8 + 20 * 8) - 1;
        assert_eq!(bytes[tag_pos], KIND_ORIGINS);
        bytes[tag_pos + 1..tag_pos + 9].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }
}
