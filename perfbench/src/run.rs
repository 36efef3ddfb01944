//! The untraced end-to-end run, and the correctness checks every run makes
//! against an in-process reference computed outside the timed section.

use crate::gen::{Inputs, Workload, PROBE_WINDOW};
use crate::layers::{compile_pool, drive, Digests, Kernel, Outcome, Plans, Stop};
use crate::report::{beyond, median, quantile, rss_peak_mb, Metric};
use crate::stack::{job_table_config, run_job, Stack, OWN_IDS};
use fepia_mapping::{makespan_robustness, ParetoFront};
use fepia_serve::{EvalKind, JobSnapshot, JobState, JobTable};
use std::time::{Duration, Instant};

/// A call this slow waited on a delayed acknowledgement (about 40 ms on
/// Linux) rather than on work.
const STALL_US: f64 = 30_000.0;

/// What a run reports: its metrics and how many operations failed.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why operations failed, for the log.
    pub errors: Vec<String>,
}

/// Pipelined window of the workload's callers (1 = lock-step).
pub fn window(workload: Workload) -> usize {
    match workload {
        Workload::Probe => PROBE_WINDOW,
        _ => 1,
    }
}

/// In-process reference digests for requests `0..n` of `request`.
pub fn reference(
    plans: &Plans,
    request: &(dyn Fn(u64) -> fepia_serve::EvalRequest + Sync),
    n: u64,
    corrupt_reference: bool,
) -> Digests {
    let (out, _) = drive(
        vec![Kernel::new(plans), Kernel::new(plans)],
        request,
        1,
        Stop::after(n),
        false,
    );
    let mut digests = out.digests;
    if corrupt_reference {
        digests.0[0] ^= 1;
    }
    digests
}

/// Wrong answers (digest buckets that differ from the reference; each holds
/// at least one), noted with both aggregates. A replay with failed calls
/// lacks their answers, so its buckets cannot be compared: the failures
/// already fail the run.
pub fn compare(got: &Outcome, want: &Digests, what: &str, errors: &mut Vec<String>) -> u64 {
    if got.failed > 0 {
        errors.push(format!(
            "{what}: answers not compared with the reference, {} requests failed",
            got.failed
        ));
        return 0;
    }
    let wrong = got.digests.differing(want);
    if wrong > 0 {
        errors.push(format!(
            "{what}: answers differ from the in-process reference in {wrong} digest buckets (aggregate {:016x} vs {:016x})",
            got.digests.total(),
            want.total()
        ));
    }
    wrong
}

/// Checks each window's first move against a full `makespan_robustness`
/// recompute on the moved mapping, bitwise. Returns the failures.
pub fn spot_check(inputs: &Inputs, got: &Outcome, errors: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for &(id, bits) in &got.spot {
        let req = inputs.request(id);
        let EvalKind::Moves(moves) = &req.kind else {
            continue;
        };
        let (app, dst) = moves[0];
        let mut moved = req.scenario.mapping().clone();
        moved.reassign(app, dst);
        let want = makespan_robustness(&moved, req.scenario.etc(), req.scenario.tau())
            .map(|r| r.metric.to_bits());
        if want != Ok(bits) {
            failed += 1;
            errors.push(format!(
                "spot check of request {id}: metric bits {bits:016x}, want {want:?}"
            ));
        }
    }
    failed
}

pub fn front_digest(snapshot: &JobSnapshot) -> u64 {
    ParetoFront::from_points(snapshot.front.clone()).digest()
}

/// Whether a job snapshot is the finished reference front.
pub fn job_matches(snapshot: &JobSnapshot, want: u64) -> bool {
    snapshot.state == JobState::Done
        && snapshot.evals_done == snapshot.evals_total
        && front_digest(snapshot) == want
}

/// The end-to-end run: a closed loop over TCP for `seconds`, then the
/// reference replay and checks. `corrupt_reference` flips a bit of the
/// reference, which must then fail the run.
pub fn end_to_end(
    inputs: &Inputs,
    stack: &mut Stack,
    seconds: f64,
    setup_s: &[f64],
    corrupt_reference: bool,
) -> Result<RunResult, String> {
    let mut metrics = vec![Metric::new("setup_s", median(setup_s), "s")
        .samples(setup_s.len())
        .note("median set-up: generate, start, connect, warm")];
    let mut errors = Vec::new();
    let (attempted, failed) = match inputs.workload {
        Workload::Optimize => {
            let (attempted, failed) = optimize(
                inputs,
                stack,
                seconds,
                corrupt_reference,
                &mut metrics,
                &mut errors,
            )?;
            (attempted, failed)
        }
        workload => {
            let request = |i| inputs.request(i);
            let (warm, clients) = warm_up(stack, &request, window(workload), seconds / 4.0);
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let (out, clients) = drive(
                clients,
                &request,
                window(workload),
                Stop::at(deadline),
                false,
            );
            stack.clients = clients;
            errors.extend(warm.errors.iter().cloned());
            let (plans, _) = compile_pool(&inputs.pool)?;
            let want = reference(&plans, &request, out.attempted, corrupt_reference);
            let mut failed = warm.failed + out.failed + compare(&out, &want, "tcp", &mut errors);
            if workload == Workload::Probe {
                failed += spot_check(inputs, &out, &mut errors);
            }
            errors.extend(out.errors.iter().cloned());
            let call = if workload == Workload::Probe {
                "16-request window"
            } else {
                "request"
            };
            metrics.push(
                Metric::new("evals_per_s", out.verdicts as f64 / out.wall_s, "1/s")
                    .samples(out.verdicts as usize)
                    .note(format!("verdicts over {:.3} s", out.wall_s)),
            );
            push_rtt(&mut metrics, &out.rtt_us, out.calls, call);
            let stalled = out.rtt_us.iter().filter(|&&us| us >= STALL_US).count();
            metrics.push(
                Metric::new(
                    "stalled_share",
                    stalled as f64 / out.rtt_us.len().max(1) as f64,
                    "ratio",
                )
                .samples(out.calls as usize)
                .note(format!("calls of {} ms or more", STALL_US / 1e3)),
            );
            (warm.attempted + out.attempted, failed)
        }
    };
    metrics.push(Metric::new("rss_peak_mb", rss_peak_mb(), "MB").note("VmHWM of this process"));
    metrics.push(
        Metric::new(
            "fail_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        )
        .samples(attempted as usize)
        .note(format!("{failed} of {attempted} operations")),
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// Runs the workload's own traffic, untimed, for `seconds`: connections leave their start-up state (Linux acknowledges the
/// first segments of a connection at once, which hides the delayed-ACK
/// stall for a while) and the plan cache reaches its steady state. The
/// answers are checked for transport failures only.
pub fn warm_up(
    stack: &mut Stack,
    request: &(dyn Fn(u64) -> fepia_serve::EvalRequest + Sync),
    window: usize,
    seconds: f64,
) -> (Outcome, Vec<crate::layers::Tcp>) {
    let clients = std::mem::take(&mut stack.clients);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    drive(clients, request, window, Stop::at(deadline), false)
}

/// Percentiles of `sample`, a uniform sample of `calls` call durations.
fn push_rtt(metrics: &mut Vec<Metric>, sample: &[f64], calls: u64, call: &str) {
    let sampled = if sample.len() as u64 == calls {
        String::new()
    } else {
        format!(", from a uniform sample of {}", sample.len())
    };
    metrics.push(
        Metric::new("rtt_p50_us", median(sample), "us")
            .samples(calls as usize)
            .note(format!("one call = one {call}{sampled}")),
    );
    metrics.push(
        Metric::new("rtt_p90_us", quantile(sample, 0.9), "us")
            .samples(calls as usize)
            .note(format!(
                "{} sampled calls beyond{sampled}",
                beyond(sample, 0.9)
            )),
    );
}

/// Jobs one after another over one connection until `seconds` pass. The
/// reference front comes from `JobTable::run` on the same spec, before the
/// timed section.
fn optimize(
    inputs: &Inputs,
    stack: &mut Stack,
    seconds: f64,
    corrupt_reference: bool,
    metrics: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let reference = JobTable::new(job_table_config())
        .run(inputs.job.clone())
        .map_err(|e| format!("reference job: {e}"))?;
    let want = front_digest(&reference) ^ u64::from(corrupt_reference);
    let client = &mut stack.clients[0].client;
    let (mut attempted, mut failed, mut evals) = (0u64, 0u64, 0u64);
    let mut front_us = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        attempted += 1;
        let t0 = Instant::now();
        let result = run_job(client, OWN_IDS + (attempted << 20), &inputs.job);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(snap) if job_matches(&snap, want) => {
                front_us.push(us);
                evals += snap.evals_done;
            }
            Ok(snap) => {
                failed += 1;
                errors.push(format!(
                    "job {attempted}: state {:?}, {} of {} evals, front digest {:016x} vs reference {want:016x}",
                    snap.state,
                    snap.evals_done,
                    snap.evals_total,
                    front_digest(&snap)
                ));
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("job {attempted}: {e}"));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    metrics.push(
        Metric::new("evals_per_s", evals as f64 / wall, "1/s")
            .samples(front_us.len())
            .note(format!("delta evaluations over {wall:.3} s")),
    );
    push_rtt(
        metrics,
        &front_us,
        front_us.len() as u64,
        "job, submit_job to terminal snapshot",
    );
    metrics.push(
        Metric::new("front_ms", median(&front_us) / 1e3, "ms")
            .samples(front_us.len())
            .note("median submit_job to terminal snapshot"),
    );
    Ok((attempted, failed))
}
