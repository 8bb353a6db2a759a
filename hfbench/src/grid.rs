//! `paper_grid`: the paper's Table 3 pipeline over the six apps at
//! P = 64 and 256, one cell at a time in grid order. One operation is one
//! pass over the 12 cells; each cell runs profile → comm graph → TDC sweep
//! over `PAPER_CUTOFFS` → provision (16-port blocks, 2 KiB cutoff) → cost.
//! The apps are the paper's fixed kernels, so the inputs do not depend on
//! the seed.

use std::time::Duration;

use hfast_apps::{all_apps, profile_app, CommKernel, STUDY_SIZES};
use hfast_bench::paper::paper_row;
use hfast_core::{CostComparison, CostModel, PaperLinear, ProvisionConfig, Provisioner};
use hfast_ipm::IpmProfiler;
use hfast_mpi::{World, WorldConfig};
use hfast_topology::{tdc_sweep, CommGraph, TdcSummary, BDP_CUTOFF, PAPER_CUTOFFS};

use crate::measure::{median, Usage};
use crate::reference::{edge_list, tdc_count};
use crate::trace::Tracer;
use crate::{drive, setup_cpu_s, timed, Args, Op, Outcome};

const ROOT: &str = "op.paper_grid";
/// Root of the runtime-only passes that pair with the traced passes.
const RUNTIME_ROOT: &str = "op.paper_grid.runtime";

/// The provisioning every cell asks for: 16-port blocks, 2 KiB cutoff.
const PROVISION: ProvisionConfig = ProvisionConfig {
    block_ports: 16,
    cutoff: BDP_CUTOFF,
};

/// What one cell produced.
struct Cell {
    name: &'static str,
    procs: usize,
    calls: u64,
    wire_bytes: u64,
    ptp_pct: f64,
    col_pct: f64,
    graph: CommGraph,
    sweep: Vec<(u64, TdcSummary)>,
    provision_ok: Result<(), String>,
    cost: CostComparison,
}

/// The full grid, `(app index, P)` in grid order.
fn cells() -> Vec<(usize, usize)> {
    (0..all_apps().len())
        .flat_map(|a| STUDY_SIZES.iter().map(move |&p| (a, p)))
        .collect()
}

fn run_cell(tracer: &Tracer, app: &dyn CommKernel, procs: usize) -> Cell {
    let outcome = tracer
        .span("hfast-apps.profile_app", || profile_app(app, procs))
        .unwrap_or_else(|e| panic!("{} at P={procs} failed: {e}", app.name()));
    let graph = tracer.span("hfast-ipm.comm_graph", || outcome.steady.comm_graph());
    let sweep = tracer.span("hfast-topology.tdc_sweep", || {
        tdc_sweep(&graph, &PAPER_CUTOFFS)
    });
    let prov = tracer.span("hfast-core.provision", || {
        PaperLinear.provision(&graph, PROVISION)
    });
    let cost = tracer.span("hfast-core.cost", || {
        CostComparison::of(&prov, &CostModel::default())
    });
    let wire_bytes = outcome.merged.wire_volume.iter().map(|e| e.bytes).sum();
    Cell {
        name: app.name(),
        procs,
        calls: outcome.merged.total_calls(),
        wire_bytes,
        ptp_pct: 100.0 * outcome.steady.ptp_call_fraction(),
        col_pct: 100.0 * outcome.steady.collective_call_fraction(),
        provision_ok: prov.validate(&graph),
        graph,
        sweep,
        cost,
    }
}

/// One pass over the grid; each cell's wall time goes to `parts`.
fn pass(
    tracer: &Tracer,
    apps: &[Box<dyn CommKernel>],
    grid: &[(usize, usize)],
    parts: &mut Vec<f64>,
) -> Vec<Cell> {
    grid.iter()
        .map(|&(a, p)| timed(parts, || run_cell(tracer, apps[a].as_ref(), p)))
        .collect()
}

/// Output checks of one pass; returns true when every cell passes.
/// `first` is the first pass's graph hashes, which every later pass must
/// repeat exactly.
fn check_pass(cells: &[Cell], first: &mut Vec<u64>, tally: &mut Tally) -> bool {
    let hashes: Vec<u64> = cells.iter().map(|c| c.graph.content_hash()).collect();
    if first.is_empty() {
        *first = hashes.clone();
    }
    let mut ok = hashes == *first;
    tally.passes += 1;
    tally.deterministic &= ok;
    for c in cells {
        // Table 3 against the paper's transcribed rows.
        if let Some(p) = paper_row(c.name, c.procs) {
            let at_2k = c
                .sweep
                .iter()
                .find(|(cut, _)| *cut == BDP_CUTOFF)
                .map(|(_, s)| *s)
                .expect("sweep covers the 2 KiB cutoff");
            let tdc_ok = at_2k.max == p.tdc_max
                && (at_2k.avg - p.tdc_avg).abs() <= p.tdc_avg.max(2.0) * 0.25;
            let split_ok = (c.ptp_pct - p.ptp_pct).abs() < 6.0;
            tally.table3_pass += usize::from(tdc_ok) + usize::from(split_ok);
            tally.table3_total += 2;
            ok &= tdc_ok && split_ok;
        }
        // Call percentages are a partition.
        let sum_ok = (c.ptp_pct + c.col_pct - 100.0).abs() < 1e-9;
        tally.percent_sum &= sum_ok;
        // The benchmark's own degree count at every cutoff.
        let edges = edge_list(&c.graph);
        let mut ref_ok = c.sweep.len() == PAPER_CUTOFFS.len();
        for (cut, s) in &c.sweep {
            let d = tdc_count(c.graph.n(), &edges, *cut);
            ref_ok &= s.max == d.max
                && s.min == d.min
                && s.median == d.median
                && (s.avg - d.avg).abs() <= 1e-12 * d.avg.max(1.0);
        }
        tally.tdc_reference &= ref_ok;
        // TDC never grows as the cutoff rises.
        let mono_ok = c
            .sweep
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[1].1.max <= w[0].1.max && w[1].1.avg <= w[0].1.avg);
        tally.tdc_monotone &= mono_ok;
        let prov_ok = c.provision_ok.is_ok() && c.cost.hfast > 0.0 && c.cost.fat_tree > 0.0;
        tally.provision_valid &= prov_ok;
        ok &= sum_ok && ref_ok && mono_ok && prov_ok;
    }
    ok
}

struct Tally {
    passes: usize,
    table3_pass: usize,
    table3_total: usize,
    percent_sum: bool,
    tdc_reference: bool,
    tdc_monotone: bool,
    provision_valid: bool,
    deterministic: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            passes: 0,
            table3_pass: 0,
            table3_total: 0,
            percent_sum: true,
            tdc_reference: true,
            tdc_monotone: true,
            provision_valid: true,
            deterministic: true,
        }
    }

    fn report(&self, out: &mut Outcome) {
        let passes = self.passes.max(1);
        out.check(
            "paper_grid.table3_vs_paper",
            self.table3_pass == self.table3_total && self.table3_total > 0,
            format!(
                "{}/{} per pass",
                self.table3_pass / passes,
                self.table3_total / passes
            ),
        );
        out.check("paper_grid.tdc_vs_own_degree_count", self.tdc_reference, "");
        out.check(
            "paper_grid.call_percentages_sum_to_100",
            self.percent_sum,
            "",
        );
        out.check(
            "paper_grid.tdc_nonincreasing_in_cutoff",
            self.tdc_monotone,
            "",
        );
        out.check("paper_grid.provisioning_valid", self.provision_valid, "");
        out.check(
            "paper_grid.graphs_identical_across_passes",
            self.deterministic,
            "",
        );
    }
}

/// Set-up: build the apps and warm the runtime on the grid's P = 64 cells.
fn setup(grid: &[(usize, usize)]) -> Vec<Box<dyn CommKernel>> {
    let apps = all_apps();
    for &(a, p) in grid.iter().filter(|&&(_, p)| p == STUDY_SIZES[0]) {
        profile_app(apps[a].as_ref(), p).expect("warm-up cell runs");
    }
    apps
}

/// A set-up alone, counted from process start.
pub fn cold_setup() -> f64 {
    let _apps = setup(&cells());
    setup_cpu_s()
}

/// The runtime alone, once per cell: an empty body at the cell's P
/// (spawn), and the kernel under `World::run_with` without the IPM hook.
fn runtime_pass(tracer: &Tracer, apps: &[Box<dyn CommKernel>], grid: &[(usize, usize)]) {
    for &(a, p) in grid {
        tracer.span("hfast-mpi.spawn", || {
            World::run_with(WorldConfig::new(p), |_comm| ()).expect("empty world runs")
        });
        let app = apps[a].as_ref();
        let profiler = IpmProfiler::new(p);
        let results = tracer.span("hfast-mpi.kernel", || {
            World::run_with(
                WorldConfig::new(p).timeout(Duration::from_secs(60)),
                |comm| app.run(comm, &profiler),
            )
            .expect("unhooked kernel runs")
        });
        assert!(
            results.iter().all(Result::is_ok),
            "{} kernel failed",
            app.name()
        );
    }
}

/// What the traced run keeps of one pass.
struct PassStats {
    calls: u64,
    bytes: u64,
    edges: usize,
    used: Usage,
}

pub fn run(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let grid = cells();
    let apps = setup(&grid);
    let setup_s = setup_cpu_s();
    let mut tally = Tally::new();
    let mut first = Vec::new();
    let stats = drive(
        args,
        tracer,
        out,
        setup_s,
        ROOT,
        "paper_grid.every_pass_checks_out",
        |t| {
            let before = t.enabled().then(Usage::now);
            let mut parts = Vec::new();
            let cells = pass(t, &apps, &grid, &mut parts);
            let used = before.map(|b| Usage::now().since(b)).unwrap_or_default();
            let calls = cells.iter().map(|c| c.calls).sum();
            Op {
                work: calls,
                ok: check_pass(&cells, &mut first, &mut tally),
                parts,
                stats: PassStats {
                    calls,
                    bytes: cells.iter().map(|c| c.wire_bytes).sum(),
                    edges: cells.iter().map(|c| c.graph.edge_count()).sum(),
                    used,
                },
            }
        },
        // Each traced pass is paired with a runtime-only pass, so the
        // hook's cost is taken between passes made in the same state.
        |id| tracer.op(RUNTIME_ROOT, id, || runtime_pass(tracer, &apps, &grid)),
    );
    tally.report(out);
    if !args.trace {
        return;
    }
    let med = |f: fn(&PassStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    let per_pass = |name: &str| median(&tracer.busy_ms_per_op(ROOT, name));
    let runtime = |name: &str| tracer.busy_ms_per_op(RUNTIME_ROOT, name);
    let kernel = runtime("hfast-mpi.kernel");
    let hook: Vec<f64> = tracer
        .busy_ms_per_op(ROOT, "hfast-apps.profile_app")
        .iter()
        .zip(&kernel)
        .map(|(profiled, bare)| profiled - bare)
        .collect();
    out.metric(
        "hfast-mpi.spawn_ms",
        median(&runtime("hfast-mpi.spawn")),
        "ms",
    );
    out.metric("hfast-mpi.kernel_ms", median(&kernel), "ms");
    out.metric("hfast-mpi.cpu_user_s", med(|s| s.used.user_s), "s");
    out.metric("hfast-mpi.cpu_sys_s", med(|s| s.used.sys_s), "s");
    out.metric(
        "hfast-mpi.ctx_switches",
        med(|s| s.used.ctx_switches as f64),
        "count",
    );
    out.metric("hfast-mpi.calls", med(|s| s.calls as f64), "count");
    out.metric("hfast-mpi.bytes", med(|s| s.bytes as f64), "bytes");
    out.metric("hfast-ipm.hook_ms", median(&hook), "ms");
    out.metric(
        "hfast-ipm.comm_graph_ms",
        per_pass("hfast-ipm.comm_graph"),
        "ms",
    );
    out.metric(
        "hfast-topology.tdc_sweep_ms",
        per_pass("hfast-topology.tdc_sweep"),
        "ms",
    );
    out.metric("hfast-topology.edges", med(|s| s.edges as f64), "count");
    out.metric(
        "hfast-core.provision_ms",
        per_pass("hfast-core.provision"),
        "ms",
    );
    out.metric("hfast-core.cost_ms", per_pass("hfast-core.cost"), "ms");
}
