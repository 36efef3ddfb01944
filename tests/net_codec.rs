//! Fuzz coverage for the `fepia-net` codec (PR 5 acceptance).
//!
//! The wire protocol's contract is *total decoding*: whatever bytes arrive
//! — truncated, bit-flipped, or pure noise — the decoder returns a typed
//! [`DecodeError`] or a well-formed value. It must never panic, and it
//! must never silently misparse: the checksum makes any payload mutation
//! detectable, so a mutated frame either fails typed or (when only the
//! frame-type byte was rewritten to another valid type) still carries the
//! original payload bytes verbatim.
//!
//! Three layers are fuzzed: raw frames ([`Frame::decode`]), the streaming
//! reader ([`read_frame`] over a cursor), and the payload codecs
//! (structural decode + semantic validation, which may reject but may not
//! panic). One generic harness ([`check_codec`]) holds every frame
//! payload type to the same [`Wire`] contract.

use fepia::net::frame::DecodeError;
use fepia::net::frame::{read_frame, Frame, FrameReadError, FrameType};
use fepia::net::wire::{
    decode, decode_request, decode_response, encode, encode_request, encode_response, JobReply,
    PayloadWriter, RequestPayload, StatsReply, SubmitJobPayload, Wire, WireError,
};
use fepia::net::NetStatsSnapshot;
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::{
    CurveGrid, CurveSpec, Disposition, EvalKind, EvalRequest, EvalResponse, JobHeuristic,
    JobSnapshot, JobSpec, JobState, Service, ShardStatsSnapshot, ShedReason,
};
use proptest::prelude::*;
use std::fmt::Debug;
use std::io::Cursor;
use std::sync::Arc;

/// A deterministic pool of valid encoded request payloads to mutate
/// (built once; proptest calls the accessor per case).
fn valid_request_payloads() -> &'static Vec<Vec<u8>> {
    static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        (0..8)
            .map(|i| encode_request(&request(&spec, &pool, i)))
            .collect()
    })
}

/// A valid encoded response payload (real service output, so the verdict
/// variants that actually occur in production are covered).
fn valid_response_payload() -> &'static Vec<u8> {
    static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let service = Service::start(Default::default());
        let resp = service
            .call_blocking(request(&spec, &pool, 3))
            .expect("clean service answers");
        service.shutdown();
        encode_response(&resp)
    })
}

/// Valid encoded `Curve` request payloads, one per grid mode, to mutate.
fn valid_curve_request_payloads() -> &'static Vec<Vec<u8>> {
    static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let pool = scenario_pool(&WorkloadSpec::default());
        curve_requests(&pool).iter().map(encode_request).collect()
    })
}

/// One explicit-grid and one adaptive-grid curve request over the pool.
fn curve_requests(pool: &[Arc<fepia::serve::Scenario>]) -> Vec<EvalRequest> {
    vec![
        EvalRequest {
            id: 41,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![1.0, 1.1, 1.25, 1.5, 2.0]),
            }),
        },
        EvalRequest {
            id: 42,
            scenario: Arc::clone(&pool[1]),
            kind: EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Adaptive {
                    tau_lo: 1.0,
                    tau_hi: 2.5,
                    max_depth: 4,
                    rho_resolution: 1e-3,
                },
            }),
        },
    ]
}

/// A valid encoded `Curve` response (real service output, so the trailing
/// curve-meta section is populated).
fn valid_curve_response_payload() -> &'static Vec<u8> {
    static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let pool = scenario_pool(&WorkloadSpec::default());
        let service = Service::start(Default::default());
        let resp = service
            .call_blocking(curve_requests(&pool).remove(0))
            .expect("clean service answers curves");
        service.shutdown();
        assert!(resp.curve.is_some(), "curve responses carry meta");
        encode_response(&resp)
    })
}

proptest! {
    /// Any byte vector fed to `Frame::decode` yields Ok or a typed error —
    /// never a panic. (Payload validity is the wire layer's business.)
    #[test]
    fn frame_decode_is_total_on_noise(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        let _ = Frame::decode(&bytes); // must simply not panic
    }

    /// Same property through the streaming reader: a cursor over noise
    /// produces a typed `FrameReadError`, never a panic, and mid-frame
    /// truncation is reported as a decode error rather than `Closed`.
    #[test]
    fn read_frame_is_total_on_noise(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        match read_frame(&mut Cursor::new(&bytes)) {
            Ok(_) | Err(FrameReadError::Decode(_)) | Err(FrameReadError::Io(_)) => {}
            Err(FrameReadError::Closed) => prop_assert!(bytes.is_empty(),
                "Closed is reserved for clean EOF before the first byte"),
        }
    }

    /// Single-byte mutation of a valid frame: decode either fails typed or
    /// returns a frame whose payload is byte-identical to the original
    /// (only a frame-type rewrite can survive the checksum).
    #[test]
    fn mutated_frames_never_misparse(
        (which, pos_seed, xor) in (0usize..8, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let mut bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        // A typed rejection is the desired outcome; the survivable
        // mutations are a frame-type rewrite at offset 5 and the
        // unchecksummed trace-id bytes at 20..28 — both must leave the
        // payload byte-identical (they change routing/attribution, never
        // data).
        if let Ok(frame) = Frame::decode(&bytes) {
            prop_assert_eq!(&frame.payload, payload,
                "mutation at byte {} misparsed the payload", pos);
            prop_assert!(pos == 5 || (20..28).contains(&pos),
                "mutation at byte {} unexpectedly survived", pos);
        }
    }

    /// Truncating a valid frame at any interior cut yields a typed error
    /// from both the slice decoder and the streaming reader.
    #[test]
    fn truncated_frames_fail_typed(
        (which, cut_seed) in (0usize..8, 0usize..4096)
    ) {
        let payloads = valid_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let cut = 1 + cut_seed % (bytes.len() - 1); // 1..len: strictly partial
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        match read_frame(&mut Cursor::new(&bytes[..cut])) {
            Err(FrameReadError::Decode(_)) | Err(FrameReadError::Io(_)) => {}
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// The request payload codec is total under mutation: structural decode
    /// returns Ok or a typed error, and when it returns Ok the semantic
    /// validation (`into_request`) returns Ok or Err — neither panics,
    /// whatever floats/indices the mutation produced.
    #[test]
    fn mutated_request_payloads_never_panic(
        (which, pos_seed, xor) in (0usize..8, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_request_payloads();
        let mut payload = payloads[which % payloads.len()].clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        if let Ok(decoded) = decode_request(&payload) {
            let _ = decoded.into_request(); // Ok or Err(String), never panic
        }
    }

    /// Response and error payload codecs are likewise total on mutation
    /// and on raw noise.
    #[test]
    fn mutated_response_and_error_payloads_never_panic(
        (pos_seed, xor, noise) in
            (0usize..4096, 1u8..=255, prop::collection::vec(0u8..=255, 0..128usize))
    ) {
        let mut payload = valid_response_payload().clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        let _ = decode_response(&payload);
        let _ = decode_response(&noise);
        let _ = decode::<(u64, WireError)>(&noise);
    }

    /// `Curve` frames obey the same misparse contract as every other
    /// kind: a single-byte mutation is either rejected typed or survives
    /// only at the unchecksummed offsets with the payload intact.
    #[test]
    fn mutated_curve_frames_never_misparse(
        (which, pos_seed, xor) in (0usize..2, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_curve_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let mut bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        if let Ok(frame) = Frame::decode(&bytes) {
            prop_assert_eq!(&frame.payload, payload,
                "mutation at byte {} misparsed the curve payload", pos);
            prop_assert!(pos == 5 || (20..28).contains(&pos),
                "mutation at byte {} unexpectedly survived", pos);
        }
    }

    /// Curve request decoding is total under byte mutation: grid tags,
    /// level counts and IEEE bits can all be corrupted; the decoder and
    /// the semantic validation return typed results, never panic, and
    /// never over-allocate on a hostile level count.
    #[test]
    fn mutated_curve_request_payloads_never_panic(
        (which, pos_seed, xor) in (0usize..2, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_curve_request_payloads();
        let mut payload = payloads[which % payloads.len()].clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        if let Ok(decoded) = decode_request(&payload) {
            let _ = decoded.into_request(); // Ok or Err(String), never panic
        }
    }

    /// Curve response decoding (the trailing per-point τ array and
    /// monotone flag) is likewise total on mutation and raw noise, and
    /// every truncation of the real payload fails typed.
    #[test]
    fn mutated_curve_response_payloads_never_panic(
        (pos_seed, xor, cut_seed) in (0usize..4096, 1u8..=255, 0usize..4096)
    ) {
        let mut payload = valid_curve_response_payload().clone();
        let cut = cut_seed % payload.len();
        prop_assert!(decode_response(&payload[..cut]).is_err(),
            "truncation at {} must fail typed", cut);
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        let _ = decode_response(&payload); // Ok or typed error, never panic
    }
}

/// A hostile length claim on the per-point τ array — the count field
/// rewritten to promise ~10^18 levels — must be rejected by the
/// pre-allocation guard before any allocation, not trusted.
#[test]
fn hostile_curve_point_count_fails_typed() {
    let payload = valid_curve_response_payload();
    // Trailing section layout: ... count:u64, τ×8 each, monotone:u8.
    let taus = 5; // curve_requests()[0] explicit grid length
    let count_pos = payload.len() - 1 - taus * 8 - 8;
    let mut hostile = payload.clone();
    hostile[count_pos..count_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(
        decode_response(&hostile).is_err(),
        "a 2^64 point-count claim must fail typed, not allocate"
    );
}

// ---------------------------------------------------------------------------
// One generic harness for every frame payload type
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny deterministic byte source for the noise inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The [`Wire`] contract for one payload type `T`, over `samples`:
///
/// * round trip: every sample decodes and re-encodes to its exact bytes
///   (byte equality of a canonical encoding is bitwise equality);
/// * `smallest` encodes to exactly `T::MIN_LEN` bytes, and no sample to
///   fewer;
/// * totality: every single-byte mutation of every sample, and a fixed
///   stream of noise, decodes to a typed error or to a value whose
///   re-encoding is exactly the input (never a panic, never a misparse);
/// * truncation: every strict prefix fails with `Truncated` or
///   `BadLength`;
/// * hostile counts: a count field at `(sample, offset)` rewritten to
///   claim 2^60 elements fails with `BadLength` before any allocation.
fn check_codec<T: Wire + Debug>(samples: &[T], smallest: &T, hostile: &[(usize, usize)]) {
    let name = std::any::type_name::<T>();
    assert_eq!(encode(smallest).len(), T::MIN_LEN, "{name}: MIN_LEN");
    let canonical = |bytes: &[u8], what: &str| {
        if let Ok(value) = decode::<T>(bytes) {
            assert_eq!(encode(&value), bytes, "{name}: {what} misparsed");
        }
    };
    for (i, sample) in samples.iter().enumerate() {
        let bytes = encode(sample);
        assert!(
            bytes.len() >= T::MIN_LEN,
            "{name}: sample {i} below MIN_LEN"
        );
        let decoded = decode::<T>(&bytes).unwrap_or_else(|e| panic!("{name}: sample {i}: {e}"));
        assert_eq!(encode(&decoded), bytes, "{name}: sample {i} round trip");
        for pos in 0..bytes.len() {
            for xor in [0x01, 0x80, 0xff] {
                let mut m = bytes.clone();
                m[pos] ^= xor;
                canonical(&m, &format!("sample {i} byte {pos} ^ {xor:#x}"));
            }
        }
        for cut in 0..bytes.len() {
            match decode::<T>(&bytes[..cut]) {
                Err(DecodeError::Truncated { .. } | DecodeError::BadLength { .. }) => {}
                other => panic!("{name}: sample {i} cut at {cut} gave {other:?}"),
            }
        }
    }
    let mut state = 2003;
    for n in 0..512 {
        let noise: Vec<u8> = (0..n % 160).map(|_| splitmix(&mut state) as u8).collect();
        canonical(&noise, "noise");
    }
    for &(i, offset) in hostile {
        let mut m = encode(&samples[i]);
        m[offset..offset + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(
            matches!(decode::<T>(&m), Err(DecodeError::BadLength { .. })),
            "{name}: hostile count at sample {i} offset {offset}"
        );
    }
}

/// Concatenated encodings: hand-built payloads for types whose fields
/// are not public.
fn concat(parts: &[&dyn Fn(&mut PayloadWriter)]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    parts.iter().for_each(|part| part(&mut w));
    w.finish()
}

#[test]
fn request_payloads_obey_the_wire_contract() {
    let pool = scenario_pool(&WorkloadSpec::default());
    let mut samples: Vec<RequestPayload> = valid_request_payloads()
        .iter()
        .chain(valid_curve_request_payloads())
        .map(|bytes| decode_request(bytes).unwrap())
        .collect();
    let moves = EvalRequest {
        id: 7,
        scenario: Arc::clone(&pool[2]),
        kind: EvalKind::Moves(vec![(0, 1), (3, 2)]),
    };
    samples.push(RequestPayload::new(&moves, 2_500));
    // id, deadline, 0×0 ETC, zero machines, empty assignment, τ, L1 norm
    // with default solver options, Verdict.
    let smallest = decode::<RequestPayload>(&concat(&[
        &|w| (0u64, 0u64).encode(w),
        &|w| (0usize, 0usize).encode(w),
        &|w| (0usize, Vec::<usize>::new()).encode(w),
        &|w| 1.0f64.encode(w),
        &|w| {
            fepia::core::RadiusOptions {
                norm: fepia::optim::Norm::L1,
                ..Default::default()
            }
            .encode(w)
        },
        &|w| EvalKind::Verdict.encode(w),
    ]))
    .unwrap();
    // The ETC `apps` field: apps × machines cells are bounded like a count.
    check_codec(&samples, &smallest, &[(0, 16), (samples.len() - 1, 16)]);
}

#[test]
fn response_payloads_obey_the_wire_contract() {
    let samples = vec![
        decode_response(valid_response_payload()).unwrap(),
        decode_response(valid_curve_response_payload()).unwrap(),
    ];
    let smallest = EvalResponse {
        id: 0,
        shard: 0,
        cache: None,
        attempts: 0,
        disposition: Disposition::Full,
        verdicts: vec![],
        curve: None,
    };
    // The verdict count follows id, shard, attempts, cache and disposition.
    check_codec(&samples, &smallest, &[(0, 22), (1, 22)]);
}

#[test]
fn error_payloads_obey_the_wire_contract() {
    let samples = vec![
        (
            3u64,
            WireError::Overloaded {
                shard: 1,
                reason: ShedReason::QueueFull,
            },
        ),
        (
            0,
            WireError::Overloaded {
                shard: 0,
                reason: ShedReason::ShuttingDown,
            },
        ),
        (
            9,
            WireError::Invalid("bad Request payload: truncated".into()),
        ),
    ];
    // The message length follows the id and the variant tag.
    check_codec(&samples, &(0, WireError::Invalid(String::new())), &[(2, 9)]);
}

#[test]
fn stats_payloads_obey_the_wire_contract() {
    check_codec(&[31u64, u64::MAX], &0, &[]);
    let busy = ShardStatsSnapshot {
        submitted: 10,
        completed: 9,
        cache_hits: 7,
        busy_ns: 123_456_789,
        ..Default::default()
    };
    let net = NetStatsSnapshot {
        connections: 4,
        frames_read: 100,
        max_pipeline_depth: 17,
        ..Default::default()
    };
    let samples = vec![
        StatsReply {
            id: 31,
            shards: vec![busy, ShardStatsSnapshot::default()],
            net,
        },
        StatsReply {
            id: 32,
            shards: vec![],
            net,
        },
    ];
    let smallest = StatsReply {
        id: 0,
        shards: vec![],
        net: NetStatsSnapshot::default(),
    };
    // The shard count follows the id.
    check_codec(&samples, &smallest, &[(0, 8), (1, 8)]);
}

fn job_spec(heuristics: Vec<JobHeuristic>) -> JobSpec {
    let pool = scenario_pool(&WorkloadSpec::default());
    JobSpec {
        etc: Arc::clone(pool[0].etc()),
        tau: 1.2,
        seed: 42,
        population: 16,
        batches: 4,
        heuristics,
        threads: 2,
    }
}

#[test]
fn job_payloads_obey_the_wire_contract() {
    let samples = vec![
        SubmitJobPayload::new(9, &job_spec(vec![JobHeuristic::RobustGreedy])),
        SubmitJobPayload::new(
            10,
            &job_spec(vec![
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
            ]),
        ),
    ];
    // id, 0×0 ETC, τ, seed, population/batches/threads, no heuristics.
    let smallest = decode::<SubmitJobPayload>(&concat(&[
        &|w| (0u64, (0usize, 0usize)).encode(w),
        &|w| (1.0f64, 0u64).encode(w),
        &|w| ((0u32, 0u32), (0u32, Vec::<JobHeuristic>::new())).encode(w),
    ]))
    .unwrap();
    // The ETC `apps` field follows the id.
    check_codec(&samples, &smallest, &[(0, 8), (1, 8)]);

    check_codec(&[(3u64, 17u64), (u64::MAX, 0)], &(0, 0), &[]);

    let snapshot = JobSnapshot {
        job: 5,
        state: JobState::Running,
        error: None,
        batches_done: 2,
        batches_total: 4,
        candidates_done: 8,
        candidates_total: 16,
        evals_done: 1234,
        evals_total: 5000,
        front: vec![fepia::mapping::FrontPoint {
            index: 3,
            makespan: 10.5,
            metric: f64::NAN,
            heuristic: "annealing".into(),
            assignment: vec![0, 1, 2, 1],
        }],
    };
    let failed = JobSnapshot {
        state: JobState::Failed,
        error: Some("candidate 3 panicked".into()),
        ..snapshot.clone()
    };
    let samples = vec![
        JobReply { id: 77, snapshot },
        JobReply {
            id: 78,
            snapshot: failed,
        },
    ];
    let smallest = JobReply {
        id: 0,
        snapshot: JobSnapshot {
            job: 0,
            state: JobState::Cancelled,
            error: None,
            batches_done: 0,
            batches_total: 0,
            candidates_done: 0,
            candidates_total: 0,
            evals_done: 0,
            evals_total: 0,
            front: vec![],
        },
    };
    // With no error string, the front count follows id, job, state, the
    // error option tag and the six progress counters.
    check_codec(&samples, &smallest, &[(0, 58)]);
}

/// Collection element types bound their counts by `MIN_LEN` too, so they
/// are held to the same contract as the frame payloads that carry them.
#[test]
fn element_types_obey_the_wire_contract() {
    use fepia::core::{
        DegradeReason, FailReason, PlanVerdict, RadiusMethod, RadiusResult, RadiusVerdict,
        VerdictKind,
    };
    use fepia::optim::VecN;

    let radii = vec![
        RadiusVerdict::Exact(RadiusResult {
            radius: 1.5,
            boundary_point: Some(VecN::new(vec![1.0, -0.0, f64::NAN])),
            bound: None,
            violated: true,
            method: RadiusMethod::Numeric,
            iterations: 7,
            f_evals: 30,
        }),
        RadiusVerdict::Bounded {
            lo: 0.25,
            hi: f64::INFINITY,
            reason: DegradeReason::IterationCap,
            restarts: 2,
        },
        RadiusVerdict::Failed(FailReason::Solver("no bracket".into())),
        RadiusVerdict::Failed(FailReason::DimensionMismatch {
            got: 2,
            expected: 3,
        }),
    ];
    // Each sample's first count: the boundary point's length after the
    // radius and option tag, the message length after the two tags.
    check_codec(&radii, &RadiusVerdict::Infeasible, &[(0, 10), (2, 2)]);

    let verdict = PlanVerdict {
        radii,
        metric_lo: 0.25,
        metric_hi: 1.5,
        binding: Some(1),
        kind: VerdictKind::Bounded,
    };
    let smallest = PlanVerdict {
        radii: vec![],
        metric_lo: 0.0,
        metric_hi: 0.0,
        binding: None,
        kind: VerdictKind::Exact,
    };
    // The radius count follows both bounds, the binding and the kind.
    check_codec(&[verdict], &smallest, &[(0, 26)]);

    check_codec(
        &[VecN::new(vec![1.0, f64::NAN])],
        &VecN::new(vec![]),
        &[(0, 0)],
    );
    check_codec(&[(3usize, 1usize)], &(0, 0), &[]);
    check_codec(
        &[ShardStatsSnapshot {
            submitted: 3,
            ..Default::default()
        }],
        &ShardStatsSnapshot::default(),
        &[],
    );
    check_codec(
        &[JobHeuristic::Tabu {
            iterations: 5,
            tabu_len: 16,
        }],
        &JobHeuristic::RobustGreedy,
        &[],
    );
    let point = fepia::mapping::FrontPoint {
        index: 3,
        makespan: 10.5,
        metric: 2.5,
        heuristic: "tabu".into(),
        assignment: vec![0, 1],
    };
    let smallest = fepia::mapping::FrontPoint {
        heuristic: String::new(),
        assignment: vec![],
        ..point.clone()
    };
    // The heuristic name's length follows index, makespan and metric.
    check_codec(&[point], &smallest, &[(0, 24)]);
}
