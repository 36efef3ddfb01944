//! The fepia benchmark: three workloads on the canonical 64 apps × 8
//! machines scenario, driven through the real `NetServer` + `Service` over
//! loopback TCP.
//!
//! ```text
//! perfbench --workload probe|analyze|optimize [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-check
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs the traced layer waterfall and prints the per-layer
//! metrics. Either way every answer is checked against an in-process
//! reference, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every answer was right. See README.md for why each workload exists.

mod gen;
mod layers;
mod report;
mod run;
mod spans;
mod stack;
mod waterfall;

use gen::{Scale, Workload};
use report::{print_metrics, provenance, result_json, Metric};
use run::{end_to_end, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 2003;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Reported with `--trace 0`, in this order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// Reported with `--trace 1`, in this order.
const PER_LAYER: [(&str, &str); 40] = [
    ("mapping.move_ns", "ns"),
    ("mapping.heuristic_ms.greedy", "ms"),
    ("mapping.heuristic_ms.annealing", "ms"),
    ("mapping.heuristic_ms.tabu", "ms"),
    ("mapping.heuristic_ms.genetic", "ms"),
    ("core.verdict_ns", "ns"),
    ("core.curve_point_ns", "ns"),
    ("serve.compile_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.compiles", "count"),
    ("serve.call_us", "us"),
    ("serve.increment_us", "us"),
    ("serve.busy_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.shed", "count"),
    ("serve.worker_panics", "count"),
    ("serve.brownout", "count"),
    ("serve.deadline_expired", "count"),
    ("wire.enc_req_us", "us"),
    ("wire.dec_req_us", "us"),
    ("wire.enc_resp_us", "us"),
    ("wire.dec_resp_us", "us"),
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes", "bytes"),
    ("wire.increment_us", "us"),
    ("net.increment_us", "us"),
    ("net.frames_read", "count"),
    ("net.frames_written", "count"),
    ("net.max_pipeline_depth", "count"),
    ("net.errors", "count"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("net.job_polls", "count"),
    ("net.job_increment_ms", "ms"),
    ("job.inproc_ms", "ms"),
    ("job.evals", "count"),
    ("job.candidates", "count"),
    ("job.front_points", "count"),
    ("par.efficiency", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Variables that put the program on other code paths (fault injection,
/// event export, tracing); a run under any of them measures something else.
const FORBIDDEN_ENV: [&str; 3] = ["FEPIA_CHAOS", "FEPIA_OBS", "FEPIA_TRACE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Where, with what and on which inputs the run measures.
    fn provenance(&self) -> String {
        format!(
            "{} workload={} seed={} seconds={} trace={}",
            provenance(),
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace)
        )
    }
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--self-check") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", workload.name()))
}

/// Sets up, runs and checks one workload. Set-up is repeated for the
/// end-to-end run so `setup_s` is a median. `corrupt_reference` damages
/// the reference the answers are checked against (self-check only).
fn execute(
    args: &Args,
    scale: &Scale,
    corrupt_reference: bool,
    setup_reps: usize,
) -> Result<RunResult, String> {
    let reps = if args.trace { 1 } else { setup_reps };
    let (inputs, mut stack, setup_s) = stack::set_up(args.workload, args.seed, scale, reps)?;
    let result = if args.trace {
        waterfall::traced(
            &inputs,
            &mut stack,
            scale,
            args.seconds,
            &spans_path(args.workload, args.seed),
            &args.provenance(),
        )
    } else {
        end_to_end(
            &inputs,
            &mut stack,
            args.seconds,
            &setup_s,
            corrupt_reference,
        )
    };
    stack.shutdown();
    result
}

/// The reported metrics in contract order, or the names that are missing.
fn select(result: &RunResult, names: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|(name, unit)| {
            result
                .metrics
                .iter()
                .find(|m| m.name == *name && m.unit == *unit)
                .cloned()
                .ok_or_else(|| format!("metric {name} ({unit}) was not measured"))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return self_check(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload probe|analyze|optimize [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to time a run while {var} is set: it changes the code paths measured");
        return ExitCode::from(2);
    }
    println!("provenance {}", args.provenance());
    let result = match execute(&args, &Scale::FULL, false, SETUP_REPS) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    print_metrics(&result.metrics);
    for e in result.errors.iter().take(10) {
        println!("error: {e}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match select(&result, names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let correct = result.failed == 0;
    println!(
        "{}",
        result_json(correct, result.attempted, result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at small scale through the same code, end-to-end and
/// traced: every contract metric must come out with its unit and the
/// answers must check; a corrupted reference digest must fail the run.
fn check_all() -> Result<(), String> {
    if let Ok(text) =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
    {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            if !text.contains(&entry) {
                return Err(format!("BENCHMARK.json does not list {name} in {unit}"));
            }
        }
        let listed = text.matches("\"unit\":").count();
        if listed != END_TO_END.len() + PER_LAYER.len() {
            return Err(format!(
                "BENCHMARK.json lists {listed} metrics, the benchmark reports {}",
                END_TO_END.len() + PER_LAYER.len()
            ));
        }
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.4,
                trace,
            };
            let what = format!("{} trace={}", workload.name(), u8::from(trace));
            let result = execute(&args, &Scale::SMALL, false, 2)?;
            if result.failed > 0 || result.attempted == 0 {
                return Err(format!(
                    "{what}: {} of {} failed: {:?}",
                    result.failed, result.attempted, result.errors
                ));
            }
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let metrics = select(&result, names).map_err(|e| format!("{what}: {e}"))?;
            let line = result_json(true, result.attempted, 0, &metrics);
            for (name, unit) in names {
                let key = format!("\"{name}\": {{\"value\": ");
                let entry = line
                    .find(&key)
                    .and_then(|i| line[i..].find('}').map(|j| &line[i..i + j]));
                if !entry.is_some_and(|e| e.ends_with(&format!("\"unit\": \"{unit}\""))) {
                    return Err(format!("{what}: {name} does not print with unit {unit}"));
                }
            }
            println!("self-check {what}: ok, {} operations", result.attempted);
        }
        let args = Args {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.2,
            trace: false,
        };
        // A benchmark whose check cannot fail proves nothing.
        let result = execute(&args, &Scale::SMALL, true, 1)?;
        if result.failed == 0 {
            return Err(format!(
                "{}: a corrupted reference digest went unnoticed",
                workload.name()
            ));
        }
        println!(
            "self-check {} corrupted reference: caught, {} failed",
            workload.name(),
            result.failed
        );
    }
    Ok(())
}

fn self_check() -> ExitCode {
    match check_all() {
        Ok(()) => {
            println!("self-check passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("self-check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_check_passes() {
        super::check_all().expect("self-check");
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = [
            "--workload",
            "analyze",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = super::parse(&args).unwrap().unwrap();
        assert_eq!(parsed.workload, super::Workload::Analyze);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(super::parse(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(super::parse(&["--self-check".to_string()])
            .unwrap()
            .is_none());
    }
}
