//! The system under test: a `Service` and a `NetServer` on loopback, with
//! the workload's client connections, started and warmed the way a user
//! would before sending real traffic.

use crate::gen::{Inputs, Scale, Workload};
use crate::layers::Tcp;
use fepia_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia_serve::{EvalKind, EvalRequest, JobTableConfig, Service, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of the request workloads (one per client thread).
pub const CONNECTIONS: usize = 2;
/// Worker threads of every optimizer job.
pub const JOB_THREADS: usize = 2;
/// `wait_job` poll interval.
pub const POLL: Duration = Duration::from_millis(1);
/// Request ids at and above this are the benchmark's own (warm-up, jobs),
/// far from the stream's ids.
pub const OWN_IDS: u64 = 1 << 40;

pub struct Stack {
    pub service: Arc<Service>,
    pub server: NetServer,
    pub clients: Vec<Tcp>,
}

/// Fixed, not derived from the machine: 2 shards of 1 worker each.
pub fn service_config(scale: &Scale) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        workers_per_shard: 1,
        cache_capacity: scale.cache_capacity,
        ..ServiceConfig::default()
    }
}

pub fn job_table_config() -> JobTableConfig {
    JobTableConfig {
        threads: JOB_THREADS,
        ..JobTableConfig::default()
    }
}

impl Stack {
    /// Starts the service and server, connects, and warms every scenario
    /// of the pool once (`optimize`: runs the job once).
    pub fn start(inputs: &Inputs, scale: &Scale) -> Result<Stack, String> {
        let service = Arc::new(Service::start(service_config(scale)));
        let server = NetServer::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                jobs: job_table_config(),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("start server: {e}"))?;
        let connections = match inputs.workload {
            Workload::Optimize => 1,
            _ => CONNECTIONS,
        };
        let mut clients = (0..connections)
            .map(|_| {
                NetClient::connect(server.local_addr(), ClientConfig::default())
                    .map(|client| Tcp { client })
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        match inputs.workload {
            Workload::Optimize => {
                run_job(&mut clients[0].client, OWN_IDS, &inputs.job)?;
            }
            _ => {
                for (s, scenario) in inputs.pool.iter().enumerate() {
                    let req = EvalRequest {
                        id: OWN_IDS + s as u64,
                        scenario: Arc::clone(scenario),
                        kind: EvalKind::Verdict,
                    };
                    let resp = clients[s % connections]
                        .client
                        .call(&req)
                        .map_err(|e| format!("warm scenario {s}: {e}"))?;
                    if resp.verdicts.len() != 1 {
                        return Err(format!(
                            "warm scenario {s}: {} verdicts",
                            resp.verdicts.len()
                        ));
                    }
                }
            }
        }
        Ok(Stack {
            service,
            server,
            clients,
        })
    }

    /// Closes the connections, drains the server, then the service.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
        drop(self.service);
    }
}

/// Submits `spec` and polls it to its terminal snapshot, as a user waiting
/// for a front does. Frame ids start at `id`.
pub fn run_job(
    client: &mut NetClient,
    id: u64,
    spec: &fepia_serve::JobSpec,
) -> Result<fepia_serve::JobSnapshot, String> {
    let first = client
        .submit_job(id, spec)
        .map_err(|e| format!("submit job: {e}"))?;
    client
        .wait_job(id + 1, first.job, POLL)
        .map_err(|e| format!("wait job: {e}"))
}

/// Sets the stack up `reps` times from the seed, keeping the last one.
/// Each set-up is timed from generating the inputs to the end of warm-up;
/// the previous stack is torn down, untimed, before the next starts.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    reps: usize,
) -> Result<(Inputs, Stack, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(Inputs, Stack)> = None;
    for _ in 0..reps.max(1) {
        if let Some((_, old)) = kept.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed, scale);
        let stack = Stack::start(&inputs, scale)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((inputs, stack));
    }
    let (inputs, stack) = kept.expect("at least one set-up ran");
    Ok((inputs, stack, times))
}
