//! A robustness-guided optimizer job over TCP: the §3.1 system searched
//! for its makespan × robustness Pareto front.
//!
//! Starts the evaluation service behind a `fepia-net` server, submits a
//! seeded four-heuristic population as one `SubmitJob` frame,
//! streams best-so-far progress with `JobStatus` polls while the job
//! runs, and prints the final front: every point a mapping with its
//! makespan and its Eq. 7 robustness metric (the smallest Eq. 6 radius
//! over all machines — how much simultaneous ETC error the allocation
//! tolerates before the makespan leaves τ times its estimate).
//!
//! The front is deterministic: candidate `k` is a pure function of
//! `(seed, k)`, so rerunning this example reproduces every bit.
//!
//! Run with: `cargo run --release --example optimize_roundtrip`

use fepia::etc::EtcMatrix;
use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::{default_portfolio, JobSpec, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // The §3.1 system: 6 applications on 2 machines, τ = 1.2 (the
    // makespan may grow 20% before the allocation is violated).
    let etc = Arc::new(EtcMatrix::from_rows(vec![
        vec![10.0, 20.0],
        vec![15.0, 10.0],
        vec![12.0, 24.0],
        vec![30.0, 18.0],
        vec![9.0, 9.0],
        vec![22.0, 11.0],
    ]));
    let spec = JobSpec {
        etc: Arc::clone(&etc),
        tau: 1.2,
        seed: 2003,
        population: 64,
        batches: 16,
        heuristics: default_portfolio(2_000),
        threads: 0,
    };

    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral localhost port");
    println!("server listening on {}", server.local_addr());

    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // Submit: one frame carries the ETC, the tolerance, the seed, and
    // the heuristic portfolio; the reply is the job's first snapshot.
    let submitted = client.submit_job(1, &spec).expect("submit over TCP");
    println!(
        "submitted job {} ({} candidates in {} batches, {} heuristics)",
        submitted.job,
        submitted.candidates_total,
        submitted.batches_total,
        spec.heuristics.len()
    );

    // Stream progress: each poll returns the best-so-far front.
    let mut poll_id = 100u64;
    let final_snap = loop {
        let snap = client
            .job_status(poll_id, submitted.job)
            .expect("poll over TCP");
        poll_id += 1;
        println!(
            "  progress: batch {}/{}, {}/{} candidates, {} delta-evals, front {} points",
            snap.batches_done,
            snap.batches_total,
            snap.candidates_done,
            snap.candidates_total,
            snap.evals_done,
            snap.front.len()
        );
        if snap.state.is_terminal() {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    println!(
        "\njob {} finished: {:?}, {} delta evaluations",
        final_snap.job, final_snap.state, final_snap.evals_done
    );
    println!("makespan × robustness Pareto front (makespan-ascending):");
    println!(
        "  {:>10}  {:>12}  {:>14}  heuristic / assignment",
        "makespan", "metric ρ", "candidate"
    );
    for p in &final_snap.front {
        println!(
            "  {:>10.4}  {:>12.6}  {:>14}  {} {:?}",
            p.makespan, p.metric, p.index, p.heuristic, p.assignment
        );
    }
    println!(
        "\nevery point trades estimated makespan against the Eq. 7 metric: a\n\
         larger ρ means more simultaneous ETC estimation error is provably\n\
         tolerated before the makespan exceeds τ = {} times its estimate",
        1.2
    );

    server.shutdown();
}
