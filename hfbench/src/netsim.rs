//! `netsim_static` and `netsim_dynamic`: seeded uniform-random traces
//! replayed over the 8×8×8 torus, a 512-node fat tree of 16-port
//! switches, and an HFAST fabric provisioned (paper heuristic, 16-port
//! blocks, 2 KiB cutoff) for the comm graph of its own trace.
//!
//! - `netsim_static`: warm, fault-free `Ideal`-mode replays of 20k-flow
//!   traces, one per fabric. One operation is one pass over the three
//!   replays.
//! - `netsim_dynamic`: 4k-flow traces under a seeded link-failure plan
//!   with the default `RetryPolicy` (all three fabrics), under
//!   `CongestionMode::Credit` (torus and fat tree), plus one credit-mode
//!   incast scenario on the fat tree. One operation is one pass over the
//!   six replays. The traces are smaller than `netsim_static`'s so that
//!   every replay is short: with 20k flows the faulted and credit replays
//!   took 25–140 ms each, and their fastest times moved by 20–30% between
//!   runs of one seed (see `drive` for why the fastest time is taken).

use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast_netsim::congestion::DEFAULT_CREDITS;
use hfast_netsim::traffic::{uniform_random, SplitMix64};
use hfast_netsim::{
    transit_links, CreditConfig, Fabric, FatTreeFabric, FaultPlan, Flow, HfastFabric, PathCache,
    RetryPolicy, Scenario, ScenarioKind, SimOutput, Simulation, TorusFabric,
};
use hfast_topology::{CommGraph, BDP_CUTOFF};

use crate::measure::median;
use crate::reference::{ideal_fifo, store_and_forward_floor, CutThroughFloor};
use crate::trace::Tracer;
use crate::{drive, setup_cpu_s, timed, Args, Op, Outcome};

/// Nodes of every fabric, the torus's shape and the flows per trace of
/// each workload.
const NODES: usize = 512;
const TORUS: (usize, usize, usize) = (8, 8, 8);
const STATIC_FLOWS: usize = 20_000;
const DYNAMIC_FLOWS: usize = 4_000;
const FLOW_BYTES: u64 = 4096;
const SPREAD_NS: u64 = 1_000_000;
/// Link failures per fault plan, their window and their downtime.
const FAULTS: usize = 12;
const FAULT_WINDOW: (u64, u64) = (0, 1_000_000);
const DOWNTIME_NS: u64 = 200_000;

/// One fabric with its trace, warm route cache and fault plan.
struct Replay {
    fabric: Box<dyn Fabric>,
    trace: Vec<Flow>,
    bytes: u64,
    cache: PathCache,
    plan: FaultPlan,
    /// Whether the credit loop replays this fabric.
    credit: bool,
}

/// Everything both netsim workloads build before timing.
struct Inputs {
    replays: Vec<Replay>,
    incast: Vec<Flow>,
}

fn trace_graph(nodes: usize, trace: &[Flow]) -> CommGraph {
    let mut g = CommGraph::new(nodes);
    for f in trace {
        g.add_message(f.src, f.dst, f.bytes);
    }
    g
}

/// Set-up: generate the traces, build and provision the fabrics, build
/// the fault plans and prime each fabric's cold route cache.
fn setup(seed: u64, flows: usize, tracer: &Tracer) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let mut traces: Vec<Vec<Flow>> = (0..3)
        .map(|_| uniform_random(NODES, flows, FLOW_BYTES, SPREAD_NS, rng.next_u64()))
        .collect();
    let plan_seed = rng.next_u64();
    let incast = Scenario::preset(ScenarioKind::Incast, NODES, rng.next_u64()).generate();
    let hfast_trace = traces.pop().expect("three traces");
    let graph = trace_graph(NODES, &hfast_trace);
    let prov = tracer.span("hfast-core.provision", || {
        PaperLinear.provision(
            &graph,
            ProvisionConfig {
                block_ports: 16,
                cutoff: BDP_CUTOFF,
            },
        )
    });
    let fabrics: Vec<(Box<dyn Fabric>, Vec<Flow>, bool)> =
        tracer.span("hfast-netsim.build", || {
            let fat_trace = traces.pop().expect("three traces");
            let torus_trace = traces.pop().expect("three traces");
            vec![
                (
                    Box::new(TorusFabric::new(TORUS).expect("valid torus")) as Box<dyn Fabric>,
                    torus_trace,
                    true,
                ),
                (
                    Box::new(FatTreeFabric::new(NODES, 16).expect("valid fat tree")),
                    fat_trace,
                    true,
                ),
                (Box::new(HfastFabric::new(prov)), hfast_trace, false),
            ]
        });
    let replays = fabrics
        .into_iter()
        .enumerate()
        .map(|(i, (fabric, trace, credit))| {
            let eligible = transit_links(fabric.as_ref(), &trace);
            let plan = FaultPlan::builder()
                .random_link_failures(
                    plan_seed ^ i as u64,
                    FAULTS,
                    &eligible,
                    FAULT_WINDOW,
                    Some(DOWNTIME_NS),
                )
                .build(fabric.as_ref())
                .expect("valid fault plan");
            let mut cache = PathCache::new();
            tracer.span("hfast-netsim.prime", || {
                Simulation::new(fabric.as_ref())
                    .with_cache(&mut cache)
                    .run(&trace)
            });
            Replay {
                bytes: trace.iter().map(|f| f.bytes).sum(),
                fabric,
                trace,
                cache,
                plan,
                credit,
            }
        })
        .collect();
    Inputs { replays, incast }
}

/// Flows per trace of `args.workload`.
fn flows(args: &Args) -> usize {
    if args.workload == "netsim_static" {
        STATIC_FLOWS
    } else {
        DYNAMIC_FLOWS
    }
}

/// A set-up alone, counted from process start.
pub fn cold_setup(args: &Args) -> f64 {
    let _inputs = setup(args.seed, flows(args), &Tracer::new(false));
    setup_cpu_s()
}

/// Per-operation totals the traced runs report.
#[derive(Default, Clone, Copy)]
struct OpStats {
    flows: u64,
    loop_ns: u64,
    events: u64,
    retries: u64,
    credit_events: u64,
}

fn static_op(tracer: &Tracer, inputs: &mut Inputs) -> Op<OpStats> {
    let (mut st, mut parts) = (OpStats::default(), Vec::new());
    let mut ok = true;
    for r in &mut inputs.replays {
        let out = timed(&mut parts, || {
            tracer.span("hfast-netsim.run", || {
                Simulation::new(r.fabric.as_ref())
                    .with_cache(&mut r.cache)
                    .run(&r.trace)
            })
        });
        ok &= out.stats.completed == r.trace.len()
            && out.stats.unrouted == 0
            && out.stats.delivered_bytes == r.bytes;
        st.flows += r.trace.len() as u64;
        st.loop_ns += out.perf.loop_ns;
        st.events += out.perf.events;
    }
    Op {
        work: st.flows,
        ok,
        parts,
        stats: st,
    }
}

fn faulted(r: &Replay) -> Simulation<'_> {
    Simulation::new(r.fabric.as_ref())
        .with_snapshot(&r.cache)
        .with_faults(&r.plan)
        .with_retry(RetryPolicy::default())
}

fn credit(fabric: &dyn Fabric) -> Simulation<'_> {
    Simulation::new(fabric).with_congestion(CreditConfig::credit(DEFAULT_CREDITS))
}

/// The credit-mode replays: every fabric that takes part, then the
/// incast scenario on the fat tree.
fn credit_replays(inputs: &Inputs) -> impl Iterator<Item = (&dyn Fabric, &[Flow])> {
    let fat_tree = inputs.replays[1].fabric.as_ref();
    inputs
        .replays
        .iter()
        .filter(|r| r.credit)
        .map(|r| (r.fabric.as_ref(), r.trace.as_slice()))
        .chain(std::iter::once((fat_tree, inputs.incast.as_slice())))
}

fn dynamic_op(tracer: &Tracer, inputs: &Inputs) -> Op<OpStats> {
    let (mut st, mut parts) = (OpStats::default(), Vec::new());
    let mut ok = true;
    for r in &inputs.replays {
        let out = timed(&mut parts, || {
            tracer.span("hfast-netsim.fault_run", || faulted(r).run(&r.trace))
        });
        ok &= out.stats.completed + out.stats.unrouted == r.trace.len();
        st.flows += r.trace.len() as u64;
        st.events += out.perf.events;
        st.retries += out.stats.total_retries;
    }
    for (fabric, trace) in credit_replays(inputs) {
        let out = timed(&mut parts, || {
            tracer.span("hfast-netsim.credit_run", || credit(fabric).run(trace))
        });
        ok &= out.stats.completed == trace.len();
        st.flows += trace.len() as u64;
        st.credit_events += out.perf.events;
    }
    Op {
        work: st.flows,
        ok,
        parts,
        stats: st,
    }
}

/// Once per run: detailed fault-free replays checked flow by flow against
/// the reference ideal-FIFO loop.
fn check_against_reference(inputs: &Inputs, out: &mut Outcome) {
    let mut mismatches = 0usize;
    let mut flows = 0usize;
    for r in &inputs.replays {
        let sim = Simulation::new(r.fabric.as_ref()).detailed().run(&r.trace);
        let refs = ideal_fifo(r.fabric.as_ref(), &r.trace);
        flows += refs.len();
        mismatches += sim
            .records()
            .iter()
            .zip(&refs)
            .filter(|(s, r)| s.end_ns != r.end_ns || s.hops != r.hops)
            .count();
        mismatches += sim.records().len().abs_diff(refs.len());
    }
    out.check(
        "netsim.detailed_replay_vs_reference_loop",
        mismatches == 0,
        format!("{mismatches} of {flows} flows differ"),
    );
}

/// Flows of `out` (a detailed replay of `trace`) that arrive sooner than
/// `floor(flow, hops)` allows.
fn too_fast(out: &SimOutput, trace: &[Flow], floor: impl Fn(&Flow, usize) -> u64) -> usize {
    out.records()
        .iter()
        .filter(|rec| match rec.end_ns {
            Some(end) => end - trace[rec.flow].start_ns < floor(&trace[rec.flow], rec.hops),
            None => false,
        })
        .count()
}

/// Once per run: no flow of a detailed credit or faulted replay beats
/// its uncontended lower bound.
fn check_lower_bounds(inputs: &Inputs, out: &mut Outcome) {
    let mut fast = 0usize;
    for r in &inputs.replays {
        let floor = CutThroughFloor::new(r.fabric.as_ref());
        let run = faulted(r).detailed().run(&r.trace);
        fast += too_fast(&run, &r.trace, |fl, hops| floor.at(hops, fl.bytes));
    }
    for (f, trace) in credit_replays(inputs) {
        let run = credit(f).detailed().run(trace);
        fast += too_fast(&run, trace, |fl, _| {
            let path = f
                .path(fl.src, fl.dst)
                .expect("delivered flows have a route");
            store_and_forward_floor(f, &path, fl.bytes)
        });
    }
    out.check(
        "netsim.no_flow_beats_its_lower_bound",
        fast == 0,
        format!("{fast} flows too fast"),
    );
}

fn med(stats: &[OpStats], f: impl Fn(&OpStats) -> f64) -> f64 {
    median(&stats.iter().map(f).collect::<Vec<_>>())
}

pub fn run_static(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let mut inputs = setup(args.seed, STATIC_FLOWS, tracer);
    let setup_s = setup_cpu_s();
    let root = "op.netsim_static";
    let stats = drive(
        args,
        tracer,
        out,
        setup_s,
        root,
        "netsim_static.every_flow_delivered_with_all_bytes",
        |t| static_op(t, &mut inputs),
        |_| (),
    );
    check_against_reference(&inputs, out);
    if !args.trace {
        return;
    }
    let run_ms = median(&tracer.busy_ms_per_op(root, "hfast-netsim.run"));
    let loop_ms = med(&stats, |s| s.loop_ns as f64 / 1e6);
    out.metric("hfast-netsim.run_ms", run_ms, "ms");
    out.metric("hfast-netsim.loop_ms", loop_ms, "ms");
    out.metric("hfast-netsim.outside_loop_ms", run_ms - loop_ms, "ms");
    out.metric(
        "hfast-netsim.events",
        med(&stats, |s| s.events as f64),
        "count",
    );
    out.metric(
        "hfast-netsim.events_per_s",
        med(&stats, |s| s.events as f64 * 1e9 / s.loop_ns.max(1) as f64),
        "1/s",
    );
    let entries: usize = inputs.replays.iter().map(|r| r.cache.len()).sum();
    out.metric("hfast-netsim.route_cache_entries", entries as f64, "count");
    out.metric(
        "hfast-core.fabric_provision_ms",
        median(&tracer.durations_ms("hfast-core.provision")),
        "ms",
    );
}

pub fn run_dynamic(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let inputs = setup(args.seed, DYNAMIC_FLOWS, tracer);
    let setup_s = setup_cpu_s();
    let root = "op.netsim_dynamic";
    let stats = drive(
        args,
        tracer,
        out,
        setup_s,
        root,
        "netsim_dynamic.faulted_accounted_and_credit_delivered",
        |t| dynamic_op(t, &inputs),
        |_| (),
    );
    check_lower_bounds(&inputs, out);
    if !args.trace {
        return;
    }
    let per_op = |name: &str| median(&tracer.busy_ms_per_op(root, name));
    out.metric(
        "hfast-netsim.fault_run_ms",
        per_op("hfast-netsim.fault_run"),
        "ms",
    );
    out.metric(
        "hfast-netsim.fault_events",
        med(&stats, |s| s.events as f64),
        "count",
    );
    out.metric(
        "hfast-netsim.retries",
        med(&stats, |s| s.retries as f64),
        "count",
    );
    out.metric(
        "hfast-netsim.credit_run_ms",
        per_op("hfast-netsim.credit_run"),
        "ms",
    );
    out.metric(
        "hfast-netsim.credit_events",
        med(&stats, |s| s.credit_events as f64),
        "count",
    );
}
