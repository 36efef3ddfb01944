//! Golden vectors for the `fepia-net` payload codec.
//!
//! One canonical payload per frame kind, built by hand from fixed values,
//! is encoded and pinned by its exact length and FNV-1a hash. The pins
//! hold the wire format still: any change to field order, tag values,
//! integer widths or `f64` bit transport changes a hash here, whatever
//! the codec's internal structure. One whole frame, header included, is
//! pinned the same way, so the version byte and the header checksum are
//! held still too. A deliberate format change must bump
//! [`fepia::net::VERSION`] and re-pin every vector.

use fepia::core::{
    Bound, DegradeReason, FailReason, PlanVerdict, RadiusMethod, RadiusOptions, RadiusResult,
    RadiusVerdict, VerdictKind,
};
use fepia::etc::EtcMatrix;
use fepia::mapping::{FrontPoint, Mapping};
use fepia::net::frame::{Frame, FrameType};
use fepia::net::wire::{
    encode, encode_request, encode_response, JobReply, RequestPayload, StatsReply,
    SubmitJobPayload, WireError,
};
use fepia::net::NetStatsSnapshot;
use fepia::optim::{Norm, SolverOptions, VecN};
use fepia::serve::{
    CacheOutcome, CurveGrid, CurveMeta, CurveSpec, Disposition, EvalKind, EvalRequest,
    EvalResponse, JobHeuristic, JobSnapshot, JobSpec, JobState, Scenario, ShardStatsSnapshot,
    ShedReason,
};
use std::sync::Arc;

/// FNV-1a 64 over raw bytes: the pin hash of this file, independent of
/// the frame checksum it helps pin.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A 3-application × 2-machine ETC with exactly representable and
/// non-representable entries alike.
fn etc() -> Arc<EtcMatrix> {
    Arc::new(
        EtcMatrix::try_from_rows(vec![vec![1.5, 2.25], vec![0.1, 7.0], vec![3.0, 1.0 / 3.0]])
            .unwrap(),
    )
}

fn scenario(opts: RadiusOptions) -> Arc<Scenario> {
    Arc::new(Scenario::new(etc(), Mapping::new(vec![0, 1, 1], 2), 1.2, opts).unwrap())
}

fn request(id: u64, kind: EvalKind) -> EvalRequest {
    EvalRequest {
        id,
        scenario: scenario(RadiusOptions::default()),
        kind,
    }
}

fn weighted_request() -> EvalRequest {
    let opts = RadiusOptions {
        norm: Norm::WeightedL2(vec![0.5, 2.0, 1.25]),
        solver: SolverOptions {
            tol: 3e-7,
            max_outer: 17,
            ..SolverOptions::default()
        },
    };
    EvalRequest {
        id: 6,
        scenario: scenario(opts),
        kind: EvalKind::Verdict,
    }
}

fn response() -> EvalResponse {
    let radii = vec![
        RadiusVerdict::Exact(RadiusResult {
            radius: 1.5,
            boundary_point: Some(VecN::new(vec![1.0, -0.0, f64::NAN])),
            bound: Some(Bound::Max),
            violated: false,
            method: RadiusMethod::Analytic,
            iterations: 0,
            f_evals: 1,
        }),
        RadiusVerdict::Exact(RadiusResult {
            radius: 0.0,
            boundary_point: None,
            bound: None,
            violated: true,
            method: RadiusMethod::Unbounded,
            iterations: 9,
            f_evals: 40,
        }),
        RadiusVerdict::Exact(RadiusResult {
            radius: 2.0,
            boundary_point: None,
            bound: Some(Bound::Min),
            violated: false,
            method: RadiusMethod::Numeric,
            iterations: 3,
            f_evals: 12,
        }),
        RadiusVerdict::Bounded {
            lo: 0.25,
            hi: f64::INFINITY,
            reason: DegradeReason::BudgetExhausted,
            restarts: 4,
        },
        RadiusVerdict::Bounded {
            lo: 0.5,
            hi: 0.75,
            reason: DegradeReason::IterationCap,
            restarts: 0,
        },
        RadiusVerdict::Infeasible,
        RadiusVerdict::Failed(FailReason::NonFiniteInput { index: 2 }),
        RadiusVerdict::Failed(FailReason::NonFiniteImpact),
        RadiusVerdict::Failed(FailReason::DimensionMismatch {
            got: 3,
            expected: 4,
        }),
        RadiusVerdict::Failed(FailReason::Solver("no bracket".into())),
        RadiusVerdict::Failed(FailReason::Panic("chaos: injected".into())),
    ];
    EvalResponse {
        id: 99,
        shard: 3,
        cache: Some(CacheOutcome::Coalesced),
        attempts: 2,
        disposition: Disposition::Brownout,
        verdicts: vec![
            PlanVerdict {
                radii,
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
                kind: VerdictKind::Bounded,
            },
        ],
        curve: Some(CurveMeta {
            taus: vec![1.05, 1.2, f64::INFINITY],
            monotone: true,
        }),
    }
}

fn stats_reply() -> StatsReply {
    StatsReply {
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
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        etc: etc(),
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

fn job_reply() -> JobReply {
    JobReply {
        id: 77,
        snapshot: JobSnapshot {
            job: 5,
            state: JobState::Failed,
            error: Some("candidate 3 panicked".into()),
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
                    assignment: vec![0, 1, 1],
                },
                FrontPoint {
                    index: 7,
                    makespan: 12.0,
                    metric: 2.5,
                    heuristic: "robust_greedy".into(),
                    assignment: vec![1, 1, 0],
                },
            ],
        },
    }
}

/// Every canonical payload, named, in frame-kind order.
fn payloads() -> Vec<(&'static str, Vec<u8>)> {
    let curve = |id, grid| request(id, EvalKind::Curve(CurveSpec { grid }));
    vec![
        (
            "request verdict",
            encode_request(&request(1, EvalKind::Verdict)),
        ),
        (
            "request origins",
            encode_request(&request(
                2,
                EvalKind::Origins(vec![
                    VecN::new(vec![1.5, 0.1, 1.0 / 3.0]),
                    VecN::new(vec![-0.0, f64::NAN, 8.0]),
                ]),
            )),
        ),
        (
            "request moves",
            encode_request(&request(3, EvalKind::Moves(vec![(0, 1), (2, 0)]))),
        ),
        (
            "request curve explicit",
            encode_request(&curve(4, CurveGrid::Explicit(vec![1.05, 1.2, 1.4, 2.0]))),
        ),
        (
            "request curve adaptive",
            encode_request(&curve(
                5,
                CurveGrid::Adaptive {
                    tau_lo: 1.01,
                    tau_hi: 1.75,
                    max_depth: 5,
                    rho_resolution: 1e-4,
                },
            )),
        ),
        (
            "request deadline weighted",
            encode(&RequestPayload::new(&weighted_request(), 2_500)),
        ),
        ("response", encode_response(&response())),
        (
            "error overloaded",
            encode(&(
                41u64,
                WireError::Overloaded {
                    shard: 2,
                    reason: ShedReason::ShuttingDown,
                },
            )),
        ),
        (
            "error invalid",
            encode(&(42u64, WireError::Invalid("move 3 out of range".into()))),
        ),
        ("stats request", encode(&31u64)),
        ("stats reply", encode(&stats_reply())),
        ("submit job", encode(&SubmitJobPayload::new(9, &job_spec()))),
        ("job poll", encode(&(3u64, 17u64))),
        ("job cancel", encode(&(4u64, 18u64))),
        ("job reply", encode(&job_reply())),
    ]
}

/// `(name, length, FNV-1a)` of every canonical payload.
const PINS: &[(&str, usize, u64)] = &[
    ("request verdict", 194, 0xa1529f9139714987),
    ("request origins", 266, 0xa8669a22a966d9d4),
    ("request moves", 234, 0x5584edb913f3733a),
    ("request curve explicit", 235, 0xcd8bdf76c0963def),
    ("request curve adaptive", 223, 0x92a19976415734b8),
    ("request deadline weighted", 226, 0x9a183d011473f3c4),
    ("response", 371, 0xcc042996e5f60a1d),
    ("error overloaded", 18, 0x19d348c25cffd575),
    ("error invalid", 36, 0x7302f3dbe5942cfc),
    ("stats request", 8, 0x335a4bf00dbb4e7a),
    ("stats reply", 272, 0xe78849743410454c),
    ("submit job", 156, 0xa49a151f96872d1d),
    ("job poll", 16, 0xe5c56d1b2df868d7),
    ("job cancel", 16, 0x79c9c73bd97e39b3),
    ("job reply", 244, 0x1075a31d868e0a87),
];

#[test]
fn every_frame_kind_encodes_to_its_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> = payloads()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a(bytes)))
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, 0x{hash:016x}),\n"))
        .collect();
    assert_eq!(got, PINS, "encoded payloads drifted; now:\n{listing}");
}

/// `(length, FNV-1a)` of the canonical response payload framed as a
/// traced `Response`: header (magic, version, type, reserved, length,
/// checksum, trace id) plus payload.
const FRAME_PIN: (usize, u64) = (399, 0x24a1ce78408f8342);

#[test]
fn a_whole_frame_encodes_to_its_pinned_bytes() {
    let bytes = Frame::with_trace(
        FrameType::Response,
        0x0123_4567_89ab_cdef,
        encode_response(&response()),
    )
    .encode();
    let got = (bytes.len(), fnv1a(&bytes));
    assert_eq!(
        got, FRAME_PIN,
        "encoded frame drifted; now: ({}, 0x{:016x})",
        got.0, got.1
    );
}
