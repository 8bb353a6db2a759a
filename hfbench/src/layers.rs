//! Per-layer metrics of the traced mode: which workload measures each
//! one, the tracing overhead and coverage figures, and the owner runs
//! that fill in the layers a workload does not drive.
//!
//! Every traced run prints every per-layer metric, and a metric means the
//! same measurement whichever workload prints it: it always comes from
//! the traced mode of the workload that owns it, at that workload's full
//! scale and with the run's seed. A workload reports the metrics it owns
//! from its own traced phase; the others come from a short traced run of
//! their owner in the same process (`OWNER_RUN_SECONDS`, at least one
//! untraced and one traced operation). Only `trace.*` belongs to the
//! workload being run.

use crate::measure::median;
use crate::trace::Tracer;
use crate::{grid, netsim, serve, Args, Outcome, WORKLOADS};

/// Marks the metrics every workload measures on itself.
const SELF: &str = "self";

/// Every per-layer metric a traced run reports, in `BENCHMARK.json`
/// order, with the workload that measures it.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("hfast-mpi.spawn_ms", "paper_grid"),
    ("hfast-mpi.kernel_ms", "paper_grid"),
    ("hfast-mpi.cpu_user_s", "paper_grid"),
    ("hfast-mpi.cpu_sys_s", "paper_grid"),
    ("hfast-mpi.ctx_switches", "paper_grid"),
    ("hfast-mpi.calls", "paper_grid"),
    ("hfast-mpi.bytes", "paper_grid"),
    ("hfast-ipm.hook_ms", "paper_grid"),
    ("hfast-ipm.comm_graph_ms", "paper_grid"),
    ("hfast-topology.tdc_sweep_ms", "paper_grid"),
    ("hfast-topology.edges", "paper_grid"),
    ("hfast-topology.miss_tdc_sweep_ms", "serve_mix"),
    ("hfast-core.provision_ms", "paper_grid"),
    ("hfast-core.cost_ms", "paper_grid"),
    ("hfast-core.fabric_provision_ms", "netsim_static"),
    ("hfast-netsim.run_ms", "netsim_static"),
    ("hfast-netsim.loop_ms", "netsim_static"),
    ("hfast-netsim.outside_loop_ms", "netsim_static"),
    ("hfast-netsim.events", "netsim_static"),
    ("hfast-netsim.events_per_s", "netsim_static"),
    ("hfast-netsim.route_cache_entries", "netsim_static"),
    ("hfast-netsim.fault_run_ms", "netsim_dynamic"),
    ("hfast-netsim.fault_events", "netsim_dynamic"),
    ("hfast-netsim.retries", "netsim_dynamic"),
    ("hfast-netsim.credit_run_ms", "netsim_dynamic"),
    ("hfast-netsim.credit_events", "netsim_dynamic"),
    ("hfast-serve.rtt_p50_ms", "serve_mix"),
    ("hfast-serve.rtt_p99_ms", "serve_mix"),
    ("hfast-serve.server_p50_ms", "serve_mix"),
    ("hfast-serve.frame_us", "serve_mix"),
    ("hfast-serve.decode_us", "serve_mix"),
    ("hfast-serve.encode_us", "serve_mix"),
    ("hfast-serve.cache_lookup_us", "serve_mix"),
    ("hfast-serve.handler_ms", "serve_mix"),
    ("hfast-serve.cache_hit_ratio", "serve_mix"),
    ("hfast-serve.miss_time_share", "serve_mix"),
    ("hfast-serve.busy", "serve_mix"),
    ("trace.overhead", SELF),
    ("trace.coverage", SELF),
];

/// How long an owner run's alternating phase lasts.
const OWNER_RUN_SECONDS: f64 = 0.5;

/// Whether `workload` measures `metric` (`workload_run` being the
/// workload the process was started for).
fn owns(metric: &str, workload: &str, workload_run: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|&(m, o)| m == metric && (o == workload || (o == SELF && workload == workload_run)))
}

/// Records the tracing overhead (median traced over median untraced
/// operation time) and the share of traced operation time the layer spans
/// cover; with `require`, every single operation must be 95% covered.
pub fn record_overhead(
    out: &mut Outcome,
    tracer: &Tracer,
    root: &str,
    plain: &[f64],
    traced: &[f64],
    require: bool,
) {
    out.metric("trace.overhead", median(traced) / median(plain), "ratio");
    let cover = tracer.coverage(root);
    let (covered, total) = cover
        .iter()
        .fold((0u64, 0u64), |(c, t), &(ci, ti)| (c + ci, t + ti));
    out.metric(
        "trace.coverage",
        covered as f64 / total.max(1) as f64,
        "share",
    );
    if require {
        let lowest = cover
            .iter()
            .map(|&(c, t)| c as f64 / t.max(1) as f64)
            .fold(f64::INFINITY, f64::min);
        out.check(
            format!("{root}.layer_spans_cover_95pct_of_each_op"),
            lowest >= 0.95,
            format!("lowest {lowest:.4}"),
        );
    }
}

/// Runs a workload's traced mode into `tracer` and `out`.
pub fn run_traced(workload: &str, args: &Args, tracer: &Tracer, out: &mut Outcome) {
    match workload {
        "paper_grid" => grid::run(args, tracer, out),
        "netsim_static" => netsim::run_static(args, tracer, out),
        "netsim_dynamic" => netsim::run_dynamic(args, tracer, out),
        "serve_mix" => serve::run(args, tracer, out),
        _ => unreachable!("known workload"),
    }
}

/// Keeps in `out` only the metrics `args.workload` owns, then runs every
/// other workload that owns a per-layer metric briefly in traced mode and
/// takes the metrics it owns.
pub fn fill_from_owners(args: &Args, out: &mut Outcome) {
    out.metrics
        .retain(|m, _| owns(m, &args.workload, &args.workload));
    for workload in WORKLOADS.iter().filter(|w| **w != args.workload) {
        if !PER_LAYER.iter().any(|&(_, o)| o == *workload) {
            continue;
        }
        let tracer = Tracer::new(true);
        let mut run = Outcome::default();
        let owner_args = Args {
            workload: workload.to_string(),
            seconds: OWNER_RUN_SECONDS,
            ..args.clone()
        };
        run_traced(workload, &owner_args, &tracer, &mut run);
        for (name, value) in run.metrics {
            if owns(&name, workload, &args.workload) {
                out.metrics.insert(name, value);
            }
        }
        for (name, ok, detail) in run.checks {
            out.check(format!("owner {workload}: {name}"), ok, detail);
        }
        out.check(
            format!("owner {workload}: operations"),
            run.failed == 0 && run.attempted > 0,
            format!("{} attempted, {} failed", run.attempted, run.failed),
        );
        println!("-- owner run: {workload} (layer metrics it measures) --");
        print!("{}", tracer.span_table());
    }
}
