//! End-to-end benchmark of the HFAST reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hfbench/Cargo.toml -- \
//!     --workload <paper_grid|netsim_static|netsim_dynamic|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. With `--trace 0` the last line
//! of standard output is one JSON object carrying the end-to-end metrics
//! (`setup_s`, `throughput_per_s`, `latency_ms`, `peak_rss_mb`); with
//! `--trace 1` it carries the per-layer metrics of a separate traced run,
//! preceded by a per-span table (count, busy and self time) and followed
//! on disk by the span log as JSONL under `hfbench/out/`. Every output
//! check runs in both modes; a failed check makes the run exit non-zero.
//!
//! `--setup-only` runs a workload's set-up, prints the CPU seconds the
//! process spent from its start to the set-up's end and exits; untraced
//! runs start themselves this way to take more cold set-up samples.

mod grid;
mod layers;
mod measure;
mod netsim;
mod reference;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use measure::Usage;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper_grid", "netsim_static", "netsim_dynamic", "serve_mix"];

/// Every end-to-end metric an untraced run reports.
const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "latency_ms", "peak_rss_mb"];

/// Cold set-ups per untraced run: the run's own and the rest in child
/// processes of the same binary; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations whose output check failed.
    pub failed: u64,
    /// Output checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Metrics by name: (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// The four end-to-end metrics every untraced run reports.
pub struct EndToEnd {
    /// This process's set-up: CPU seconds from process start to the end
    /// of set-up, see [`setup_cpu_s`].
    pub setup_s: f64,
    /// Units of work per second.
    pub throughput_per_s: f64,
    /// Time of one operation, ms.
    pub latency_ms: f64,
}

impl EndToEnd {
    pub fn record(self, out: &mut Outcome) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric("throughput_per_s", self.throughput_per_s, "1/s");
        out.metric("latency_ms", self.latency_ms, "ms");
        out.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
    }
}

/// What one operation hands back to [`drive`].
pub struct Op<S> {
    /// Units of work it did (the numerator of `throughput_per_s`).
    pub work: u64,
    /// Whether every output check of the operation passed.
    pub ok: bool,
    /// Wall seconds of each part of the operation (a replay, a grid
    /// cell), in the same order in every operation; see [`timed`].
    pub parts: Vec<f64>,
    /// Figures the traced run reports per operation.
    pub stats: S,
}

/// CPU seconds (user plus system, every thread) this process has spent
/// since it started: a workload's set-up time once its set-up is done.
/// Set-up runs several threads on `paper_grid` and `serve_mix`, and in
/// wall time the same set-up of one seed read anywhere from 0.04 to
/// 0.13 s on `serve_mix` as the host took the virtual CPUs away; CPU time
/// counts the set-up's own work, which is what moving work into set-up
/// changes.
pub fn setup_cpu_s() -> f64 {
    Usage::now().cpu_s()
}

/// Runs `f` and appends its wall time in seconds to `parts`.
pub fn timed<T>(parts: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    parts.push(t.elapsed().as_secs_f64());
    r
}

/// Drives a workload's operations once set-up is done: one untimed
/// warm-up operation, then either the timed phase, which records the
/// end-to-end metrics (untraced run), or untraced and traced operations
/// in turn for `args.seconds`, so the tracing overhead is measured on the
/// same machine state (traced run). `op` gets the tracer to record its
/// layer spans into; `aside(id)` runs after each traced operation `id`,
/// outside the timed operations. Returns the traced operations' stats.
///
/// The timed phase reports the fastest pass: each part's fastest time
/// over the phase, summed over the parts of one operation
/// (`latency_ms`), and the work of one operation over that time
/// (`throughput_per_s`). These workloads keep one virtual CPU busy, and
/// its speed swings by up to half, in CPU time as in wall time, for
/// seconds to minutes at a time as the host's load changes, so the median
/// operation of a run depends on how long the slow periods lasted; each
/// part's fastest time is the program's own cost, which every run reaches.
#[allow(clippy::too_many_arguments)]
pub fn drive<S>(
    args: &Args,
    tracer: &Tracer,
    out: &mut Outcome,
    setup_s: f64,
    root: &'static str,
    check_name: &str,
    mut op: impl FnMut(&Tracer) -> Op<S>,
    mut aside: impl FnMut(u64),
) -> Vec<S> {
    let plain = Tracer::new(false);
    let mut all_ok = op(&plain).ok;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    if !args.trace {
        let (mut fastest, mut work, mut ops) = (Vec::<f64>::new(), 0u64, 0u64);
        while start.elapsed() < budget {
            let done = op(&plain);
            if fastest.is_empty() {
                fastest = done.parts.clone();
            }
            assert_eq!(done.parts.len(), fastest.len(), "same parts every op");
            for (f, p) in fastest.iter_mut().zip(&done.parts) {
                *f = f.min(*p);
            }
            work += done.work;
            ops += 1;
            out.attempted += 1;
            out.failed += u64::from(!done.ok);
            all_ok &= done.ok;
        }
        out.check(check_name, all_ok, "");
        let pass_s: f64 = fastest.iter().sum();
        EndToEnd {
            setup_s,
            throughput_per_s: work as f64 / ops as f64 / pass_s,
            latency_ms: pass_s * 1e3,
        }
        .record(out);
        return Vec::new();
    }
    let (mut plain_times, mut traced_times, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let mut id = 0u64;
    while start.elapsed() < budget || traced_times.is_empty() {
        let t = Instant::now();
        let untraced = op(&plain);
        plain_times.push(t.elapsed().as_secs_f64());
        id += 1;
        let t = Instant::now();
        let traced = tracer.op(root, id, || op(tracer));
        traced_times.push(t.elapsed().as_secs_f64());
        aside(id);
        out.attempted += 2;
        out.failed += u64::from(!untraced.ok) + u64::from(!traced.ok);
        all_ok &= untraced.ok && traced.ok;
        stats.push(traced.stats);
    }
    out.check(check_name, all_ok, "");
    layers::record_overhead(out, tracer, root, &plain_times, &traced_times, true);
    stats
}

/// The median of this run's own set-up and `SETUP_REPS - 1` more, each
/// made by a child process of this binary, so every sample is a cold
/// set-up counted from process start. The children run one at a time after
/// the timed phase and are waited for; their memory is not this
/// process's, so `peak_rss_mb` does not see it.
fn cold_setup_median(args: &Args, own_s: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = vec![own_s];
    for _ in 1..SETUP_REPS {
        let child = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-only")
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let seconds = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok());
        match seconds {
            Some(s) if child.status.success() => times.push(s),
            _ => {
                return Err(format!(
                    "set-up child exited with {}: {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr).trim()
                ))
            }
        }
    }
    Ok(measure::median(&times))
}

fn render_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                measure::json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Observability and tracing stay off and every netsim replay takes
    // the sequential loop, whatever the calling environment sets.
    for var in [
        "HFAST_OBS",
        "HFAST_OBS_RING",
        "HFAST_TRACE",
        "HFAST_THREADS",
    ] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let seconds = match args.workload.as_str() {
            "paper_grid" => grid::cold_setup(),
            "netsim_static" | "netsim_dynamic" => netsim::cold_setup(&args),
            "serve_mix" => serve::cold_setup(),
            _ => unreachable!("validated in parse_args"),
        };
        println!("{}", measure::json_number(seconds));
        return ExitCode::SUCCESS;
    }
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    layers::run_traced(&args.workload, &args, &tracer, &mut out);
    if args.trace {
        println!("-- spans: {} --", args.workload);
        print!("{}", tracer.span_table());
        layers::fill_from_owners(&args, &mut out);
        match tracer.write_jsonl(&args.workload, args.seed) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => out.check("trace.jsonl_written", false, e.to_string()),
        }
    } else if let Some(&(own_s, unit)) = out.metrics.get("setup_s") {
        match cold_setup_median(&args, own_s) {
            Ok(s) => out.metric("setup_s", s, unit),
            Err(e) => out.check("setup_s.cold_setups", false, e),
        }
    }
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|&(m, _)| m).collect()
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<&str> = expected
        .into_iter()
        .filter(|m| !out.metrics.contains_key(*m))
        .collect();
    out.check(
        "every_metric_reported",
        missing.is_empty(),
        missing.join(" "),
    );
    for (name, ok, detail) in &out.checks {
        println!(
            "check {:<4} {name}{}",
            if *ok { "PASS" } else { "FAIL" },
            if detail.is_empty() {
                String::new()
            } else {
                format!(" ({detail})")
            }
        );
    }
    println!(
        "{} operations attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", render_json(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
