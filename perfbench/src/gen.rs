//! Seeded inputs for the three workloads.
//!
//! Every input is a pure function of the command-line seed: scenario `s` of
//! a pool comes from `fepia_serve::workload::scenario_pool`, and request `i`
//! of a stream from `rng_for(stream_seed, i)`. Any caller can therefore
//! regenerate request `i`, which is what lets the reference replay and every
//! layer of the traced waterfall see exactly the stream the timed run sent.

use fepia_core::RadiusOptions;
use fepia_etc::{generate_cvb, EtcParams};
use fepia_mapping::Mapping;
use fepia_optim::VecN;
use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia_serve::{
    default_portfolio, CurveGrid, CurveSpec, EvalKind, EvalRequest, JobSpec, Scenario,
};
use fepia_stats::rng_for;
use rand::Rng;
use std::sync::Arc;

/// Applications per scenario (the canonical §3.1 shape).
pub const APPS: usize = 64;
/// Machines per scenario.
pub const MACHINES: usize = 8;
/// Single-app moves per `probe` request.
pub const MOVES_PER_REQUEST: usize = 64;
/// Requests per pipelined `probe` window.
pub const PROBE_WINDOW: usize = 16;
/// Perturbed origins per `Origins` request.
pub const ORIGINS_PER_REQUEST: usize = 4;
/// Levels of an explicit ρ(τ) curve request: τ = 1, 1 + 1/32, …, 2.
pub const CURVE_LEVELS: usize = 33;
/// τ of the optimizer job.
pub const JOB_TAU: f64 = 1.2;

/// Streams draw from a seed apart from the pool's, so request indices can
/// never collide with the pool's `rng_for` indices.
const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined single-app move probes over a pool that fits the cache.
    Probe,
    /// Lock-step curve / verdict / origins queries over a pool 4× the cache.
    Analyze,
    /// Optimizer jobs, one at a time, waited for by polling.
    Optimize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Probe, Workload::Analyze, Workload::Optimize];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Probe => "probe",
            Workload::Analyze => "analyze",
            Workload::Optimize => "optimize",
        }
    }
}

/// Sizes that the self-check shrinks; the measured runs use [`Scale::FULL`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Scenarios in the `probe` pool (all fit in the plan cache).
    pub probe_scenarios: usize,
    /// Scenarios in the `analyze` pool.
    pub analyze_scenarios: usize,
    /// Plan-cache capacity per shard (2 shards).
    pub cache_capacity: usize,
    /// `default_portfolio` iteration knob of the optimizer job.
    pub job_iters: u32,
    /// Candidates per optimizer job.
    pub job_population: u32,
    /// Batches per optimizer job.
    pub job_batches: u32,
    /// Requests the traced replay sends at most per stream.
    pub trace_cap: usize,
    /// Requests in the calibration stream of the traced run.
    pub calibration_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        probe_scenarios: 8,
        analyze_scenarios: 256,
        cache_capacity: 32,
        job_iters: 20_000,
        job_population: 64,
        job_batches: 8,
        trace_cap: 4096,
        calibration_requests: 256,
    };

    /// Same code paths at a size that runs in well under a second.
    pub const SMALL: Scale = Scale {
        probe_scenarios: 8,
        analyze_scenarios: 16,
        cache_capacity: 2,
        job_iters: 400,
        job_population: 8,
        job_batches: 2,
        trace_cap: 128,
        calibration_requests: 16,
    };
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub workload: Workload,
    /// The scenario pool requests draw from (`optimize`: the job's ETC under
    /// one random mapping, used by the calibration stream).
    pub pool: Vec<Arc<Scenario>>,
    /// The optimizer job every `optimize` submission sends; the other
    /// workloads use it for the job-layer calibration.
    pub job: JobSpec,
    stream: WorkloadSpec,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
        let scenarios = match workload {
            Workload::Probe => scale.probe_scenarios,
            Workload::Analyze => scale.analyze_scenarios,
            Workload::Optimize => 1,
        };
        let pool_spec = WorkloadSpec {
            seed,
            scenarios,
            apps: APPS,
            machines: MACHINES,
            moves_per_request: MOVES_PER_REQUEST,
            origins_per_request: ORIGINS_PER_REQUEST,
        };
        let job = job_spec(seed, scale);
        let pool = match workload {
            Workload::Optimize => vec![Arc::new(
                Scenario::new(
                    Arc::clone(&job.etc),
                    Mapping::random(&mut rng_for(seed, 4_000_000), APPS, MACHINES),
                    JOB_TAU,
                    RadiusOptions::default(),
                )
                .expect("a CVB ETC with a complete mapping is a valid scenario"),
            )],
            _ => scenario_pool(&pool_spec),
        };
        Inputs {
            workload,
            pool,
            job,
            stream: WorkloadSpec {
                seed: seed ^ STREAM_SALT,
                ..pool_spec
            },
        }
    }

    /// Request `index` of the workload's own stream (`optimize` has none).
    pub fn request(&self, index: u64) -> EvalRequest {
        match self.workload {
            Workload::Probe => moves_request(&self.stream, &self.pool, index),
            Workload::Analyze => self.analyze_request(index),
            Workload::Optimize => unreachable!("the optimize workload sends jobs, not requests"),
        }
    }

    /// About 60% 33-level curves, 30% single verdicts, 10% origin sets.
    fn analyze_request(&self, index: u64) -> EvalRequest {
        let mut rng = rng_for(self.stream.seed, index);
        let scenario = Arc::clone(&self.pool[rng.gen_range(0..self.pool.len())]);
        let kind = match rng.gen_range(0..10u32) {
            0..=5 => curve_kind(),
            6..=8 => EvalKind::Verdict,
            _ => origins_kind(&scenario, &mut rng),
        };
        EvalRequest {
            id: index,
            scenario,
            kind,
        }
    }

    /// Request `index` of the calibration stream: the four request kinds in
    /// rotation over the pool, so a traced run can time the layers its own
    /// stream bypasses on the same scenarios.
    pub fn calibration_request(&self, index: u64) -> EvalRequest {
        let mut rng = rng_for(self.stream.seed ^ 0xca11, index);
        let scenario = Arc::clone(&self.pool[index as usize % self.pool.len()]);
        let kind = match index % 4 {
            0 => moves_kind(&scenario, &mut rng),
            1 => EvalKind::Verdict,
            2 => curve_kind(),
            _ => origins_kind(&scenario, &mut rng),
        };
        EvalRequest {
            id: index,
            scenario,
            kind,
        }
    }
}

/// The fixed-seed optimizer job: `default_portfolio` on a 64×8 CVB ETC.
fn job_spec(seed: u64, scale: &Scale) -> JobSpec {
    let params = EtcParams {
        apps: APPS,
        machines: MACHINES,
        ..EtcParams::paper_section_4_2()
    };
    JobSpec {
        etc: Arc::new(generate_cvb(&mut rng_for(seed, 3_000_000), &params)),
        tau: JOB_TAU,
        seed,
        population: scale.job_population,
        batches: scale.job_batches,
        heuristics: default_portfolio(scale.job_iters),
        threads: 0,
    }
}

fn curve_kind() -> EvalKind {
    let last = (CURVE_LEVELS - 1) as f64;
    EvalKind::Curve(CurveSpec {
        grid: CurveGrid::Explicit((0..CURVE_LEVELS).map(|k| 1.0 + k as f64 / last).collect()),
    })
}

fn moves_kind(scenario: &Scenario, rng: &mut impl Rng) -> EvalKind {
    EvalKind::Moves(
        (0..MOVES_PER_REQUEST)
            .map(|_| {
                (
                    rng.gen_range(0..scenario.mapping().apps()),
                    rng.gen_range(0..scenario.mapping().machines()),
                )
            })
            .collect(),
    )
}

/// Multiplicative jitter in [0.9, 1.1) around `C_orig`.
fn origins_kind(scenario: &Scenario, rng: &mut impl Rng) -> EvalKind {
    let base = scenario.mapping().assigned_times(scenario.etc());
    EvalKind::Origins(
        (0..ORIGINS_PER_REQUEST)
            .map(|_| {
                VecN::new(
                    base.iter()
                        .map(|&c| c * (0.9 + 0.2 * rng.gen::<f64>()))
                        .collect(),
                )
            })
            .collect(),
    )
}
