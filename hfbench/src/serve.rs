//! `serve_mix`: a daemon with the default `ServerConfig` on an ephemeral
//! loopback port and two closed-loop client connections. Most requests
//! come from the 24-request paper pool (provision, cost, TDC and simulate
//! for each app at P = 16), which the warm-up leaves in the response
//! cache. A seeded one in eight carries fresh cutoffs instead, which miss
//! the cache and run the handlers over the registry's memoized graphs.
//! One in eight is a chosen share, not one measured from real traffic:
//! every run prints how the client time of its timed phase splits between
//! the two kinds. One operation is one request.
//!
//! Throughput is responses per CPU second of the whole process (daemon
//! and clients) over the timed phase. In wall time, three runs in a row
//! lost 25–45% of their throughput while their median round trip rose
//! only 5–10%: a few requests stalled for long, as they do when the host
//! takes a virtual CPU away, and CPU time does not count those stalls.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hfast_bench::loadgen::{request_pool, PAPER_APPS};
use hfast_netsim::traffic::SplitMix64;
use hfast_serve::{
    decode_request, decode_response, encode_request, encode_response, execute, read_frame,
    request_key, start, write_frame, AppSpec, Client, Registry, Request, Response, ResponseCache,
    ServerConfig, ServerHandle,
};
use hfast_topology::tdc_sweep;

use crate::measure::{median, quantile, Usage};
use crate::reference::{edge_list, tdc_count};
use crate::trace::Tracer;
use crate::{setup_cpu_s, Args, EndToEnd, Outcome};

/// Closed-loop client connections (the machine has two cores).
const CONNECTIONS: usize = 2;
/// One request in this many carries fresh cutoffs (a chosen share).
const MISS_ONE_IN: u64 = 8;
/// Round trips each connection keeps per kind (untraced, traced): a
/// uniform sample of fixed size, allocated up front, so the memory the
/// samples take does not grow with throughput and show in `peak_rss_mb`.
const RTT_SAMPLES: usize = 16_384;
/// Fresh cutoffs lie in `FRESH_BASE + [0, 2^20)`, just above the pool's
/// 2 KiB.
const FRESH_BASE: u64 = 2049;
const FRESH_BITS: u32 = 20;
/// Ranks each paper app is profiled at. At P = 64 the peak resident set
/// of the warm-up's worlds swings between about 105 and 185 MB from run
/// to run (it depends on how rank threads land in the allocator's
/// arenas); at P = 16 it holds within a few percent.
const PROCS: usize = 16;

const ROOT: &str = "op.serve_mix";

/// The benchmark's own view of one app graph: task count and edges.
struct RefGraph {
    n: usize,
    edges: Vec<(usize, usize, u64)>,
}

/// What the client loops check every response against.
struct Expect {
    /// Pool response texts from the warm-up, by pool index.
    pool_texts: Vec<String>,
    /// Reference graphs by app name.
    graphs: HashMap<String, RefGraph>,
}

fn start_daemon(pool: &[Request]) -> (ServerHandle, Vec<String>) {
    let handle = start("127.0.0.1:0", ServerConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    let texts = pool
        .iter()
        .map(|r| client.call_text(r).expect("warm-up request answered").1)
        .collect();
    (handle, texts)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn kind_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Provision { .. }, Response::Provisioned { .. })
            | (Request::Cost { .. }, Response::CostReport { .. })
            | (Request::Tdc { .. }, Response::TdcReport { .. })
            | (Request::Simulate { .. }, Response::SimReport { .. })
    )
}

/// A TDC answer against the benchmark's own degree count.
fn tdc_matches(req: &Request, resp: &Response, graphs: &HashMap<String, RefGraph>) -> bool {
    let (
        Request::Tdc {
            app: AppSpec::Named { name, .. },
            cutoffs,
        },
        Response::TdcReport { rows },
    ) = (req, resp)
    else {
        return true;
    };
    let Some(g) = graphs.get(name) else {
        return false;
    };
    rows.len() == cutoffs.len()
        && rows.iter().zip(cutoffs).all(|(row, &cut)| {
            let d = tdc_count(g.n, &g.edges, cut);
            row.cutoff == cut
                && row.max == d.max
                && row.min == d.min
                && row.median == d.median
                && (row.avg - d.avg).abs() <= 1e-9 * d.avg.max(1.0)
        })
}

/// The `n`-th fresh cutoff. Multiplying by an odd constant permutes
/// `[0, 2^20)`, so the first 2^20 cutoffs are distinct, yet they spread
/// over the whole range from the start: the work a miss costs does not
/// drift as a run goes on.
fn fresh_cutoff(n: u64) -> u64 {
    FRESH_BASE + (n.wrapping_mul(0x9E37_79B1) & ((1 << FRESH_BITS) - 1))
}

/// A request that misses the cache: a seeded app and verb with cutoffs
/// no earlier request used.
fn fresh_request(rng: &mut SplitMix64, fresh: &AtomicU64) -> Request {
    let app = AppSpec::Named {
        name: PAPER_APPS[rng.below(PAPER_APPS.len() as u64) as usize].to_string(),
        procs: PROCS,
    };
    let c = fresh_cutoff(fresh.fetch_add(1, Ordering::Relaxed));
    match rng.below(3) {
        0 => Request::Provision {
            app,
            block_ports: 16,
            cutoff: c,
            strategy: None,
        },
        1 => Request::Cost {
            app,
            block_ports: 16,
            cutoff: c,
        },
        _ => Request::Tdc {
            app,
            cutoffs: vec![c, c + (1 << FRESH_BITS), c + (2 << FRESH_BITS)],
        },
    }
}

/// A uniform sample of fixed size of the values offered to it
/// (reservoir sampling), drawn from its own seeded stream.
struct Reservoir {
    kept: Vec<f64>,
    offered: u64,
    rng: SplitMix64,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Reservoir {
            kept: Vec::with_capacity(RTT_SAMPLES),
            offered: 0,
            rng: SplitMix64::new(seed),
        }
    }

    fn offer(&mut self, x: f64) {
        self.offered += 1;
        if self.kept.len() < RTT_SAMPLES {
            self.kept.push(x);
        } else {
            let j = self.rng.below(self.offered) as usize;
            if j < RTT_SAMPLES {
                self.kept[j] = x;
            }
        }
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ConnReport {
    /// Sampled round-trip times of untraced requests, seconds
    /// (`RTT_SAMPLES` at most).
    plain_rtts: Vec<f64>,
    /// Sampled round-trip times of traced requests, seconds.
    traced_rtts: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Requests with fresh cutoffs.
    misses: u64,
    /// Client seconds spent on pool requests and on fresh ones.
    pool_s: f64,
    miss_s: f64,
    error_or_busy: u64,
    wrong_kind: u64,
    repeat_differs: u64,
    tdc_differs: u64,
    transport: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: std::net::SocketAddr,
    conn: usize,
    seed: u64,
    deadline: Instant,
    pool: &[Request],
    expect: &Expect,
    fresh: &AtomicU64,
    tracer: &Tracer,
) -> ConnReport {
    let mut rep = ConnReport::default();
    let mut client = Client::connect(addr).expect("client connects");
    let mut rng = SplitMix64::new(seed ^ (0x5E5E_0000 + conn as u64));
    let mut plain = Reservoir::new(rng.next_u64());
    let mut traced_sample = Reservoir::new(rng.next_u64());
    let mut i = 0u64;
    while Instant::now() < deadline {
        let (req, pool_idx) = if rng.below(MISS_ONE_IN) == 0 {
            (fresh_request(&mut rng, fresh), None)
        } else {
            let idx = rng.below(pool.len() as u64) as usize;
            (pool[idx].clone(), Some(idx))
        };
        // In a traced run every other request is traced, so traced and
        // untraced round trips share the same machine state.
        let traced = tracer.enabled() && i % 2 == 1;
        let t = Instant::now();
        let answer = if traced {
            tracer.op(ROOT, ((conn as u64) << 40) | i, || {
                tracer.span("hfast-serve.call", || client.call_text(&req))
            })
        } else {
            client.call_text(&req)
        };
        let rtt = t.elapsed().as_secs_f64();
        i += 1;
        rep.attempted += 1;
        if pool_idx.is_some() {
            rep.pool_s += rtt;
        } else {
            rep.misses += 1;
            rep.miss_s += rtt;
        }
        let ok = match answer {
            Err(_) => {
                rep.transport += 1;
                false
            }
            Ok((resp, text)) => {
                let served = !matches!(resp, Response::Error { .. } | Response::Busy);
                let kind = kind_matches(&req, &resp);
                let repeat = pool_idx.is_none_or(|idx| expect.pool_texts[idx] == text);
                let tdc = tdc_matches(&req, &resp, &expect.graphs);
                rep.error_or_busy += u64::from(!served);
                rep.wrong_kind += u64::from(!kind);
                rep.repeat_differs += u64::from(!repeat);
                rep.tdc_differs += u64::from(!tdc);
                served && kind && repeat && tdc
            }
        };
        rep.failed += u64::from(!ok);
        if traced {
            traced_sample.offer(rtt);
        } else {
            plain.offer(rtt);
        }
    }
    rep.plain_rtts = plain.kept;
    rep.traced_rtts = traced_sample.kept;
    rep
}

fn stats(addr: std::net::SocketAddr) -> (u64, u64, u64) {
    let mut client = Client::connect(addr).expect("client connects");
    match client.call(&Request::Stats).expect("stats answered") {
        Response::Stats {
            cache_hits,
            cache_misses,
            shed,
            ..
        } => (cache_hits, cache_misses, shed),
        other => panic!("stats answered {other:?}"),
    }
}

/// Count-weighted mean of the per-verb rolling p50s the daemon reports
/// for the computing verbs, in ms.
fn server_p50_ms(addr: std::net::SocketAddr) -> f64 {
    let mut client = Client::connect(addr).expect("client connects");
    let Response::Metrics { verbs, .. } = client.call(&Request::Metrics).expect("metrics answered")
    else {
        panic!("metrics verb answered another kind");
    };
    let (mut weighted, mut count) = (0.0, 0u64);
    for v in verbs
        .iter()
        .filter(|v| ["provision", "cost", "tdc", "simulate"].contains(&v.verb.as_str()))
    {
        weighted += v.p50_ns as f64 * v.count as f64;
        count += v.count;
    }
    weighted / count.max(1) as f64 / 1e6
}

/// Median per-call time in µs of `f`, over 20 spans of `reps` passes
/// over `items` each.
fn per_call_us<T>(
    tracer: &Tracer,
    name: &'static str,
    items: &[T],
    reps: usize,
    mut f: impl FnMut(&T),
) -> f64 {
    for _ in 0..20 {
        tracer.span(name, || {
            for _ in 0..reps {
                items.iter().for_each(&mut f);
            }
        });
    }
    median(&tracer.durations_ms(name)) * 1e3 / (items.len() * reps) as f64
}

/// Traced-only measurements of the serve path's stages, made in-process
/// on the pool's own texts, plus handler and TDC-sweep times on misses.
fn stage_metrics(
    tracer: &Tracer,
    out: &mut Outcome,
    pool: &[Request],
    texts: &[String],
    registry: &Registry,
    seed: u64,
) {
    let requests: Vec<String> = pool.iter().map(encode_request).collect();
    let responses: Vec<Response> = texts
        .iter()
        .map(|t| decode_response(t).expect("pool response decodes"))
        .collect();
    let mut buf = Vec::new();
    let frame_us = per_call_us(tracer, "hfast-serve.frame", texts, 50, |t| {
        buf.clear();
        write_frame(&mut buf, t).expect("frame written");
        let back = read_frame(&mut Cursor::new(&buf)).expect("frame read");
        assert_eq!(back.len(), t.len());
    });
    let decode_us = per_call_us(tracer, "hfast-serve.decode", &requests, 50, |t| {
        std::hint::black_box(decode_request(t).expect("request decodes"));
    });
    let encode_us = per_call_us(tracer, "hfast-serve.encode", &responses, 50, |r| {
        std::hint::black_box(encode_response(r));
    });
    let defaults = ServerConfig::default();
    let cache = ResponseCache::new(defaults.cache_shards, defaults.cache_bytes);
    let keys: Vec<u64> = requests.iter().map(|r| request_key(r)).collect();
    for (k, t) in keys.iter().zip(texts) {
        cache.put(*k, t);
    }
    let lookup_us = per_call_us(tracer, "hfast-serve.cache_lookup", &keys, 200, |k| {
        assert!(cache.get(*k).is_some(), "pool key cached");
    });
    out.metric("hfast-serve.frame_us", frame_us, "us");
    out.metric("hfast-serve.decode_us", decode_us, "us");
    out.metric("hfast-serve.encode_us", encode_us, "us");
    out.metric("hfast-serve.cache_lookup_us", lookup_us, "us");

    let mut rng = SplitMix64::new(seed ^ 0x4A4D);
    let fresh = AtomicU64::new(0);
    let mut handler_ok = true;
    for _ in 0..60 {
        let req = fresh_request(&mut rng, &fresh);
        let resp = tracer.span("hfast-serve.execute", || execute(&req, registry));
        handler_ok &= kind_matches(&req, &resp);
    }
    out.check("serve_mix.handlers_answer_in_kind", handler_ok, "");
    out.metric(
        "hfast-serve.handler_ms",
        median(&tracer.durations_ms("hfast-serve.execute")),
        "ms",
    );
    for name in PAPER_APPS {
        let app = AppSpec::Named {
            name: name.to_string(),
            procs: PROCS,
        };
        let g = registry.graph(&app).expect("graph memoized");
        for k in 0..10u64 {
            let c = fresh_cutoff(k);
            let cutoffs = [c, c + (1 << FRESH_BITS), c + (2 << FRESH_BITS)];
            tracer.span("hfast-topology.tdc_sweep", || tdc_sweep(&g, &cutoffs));
        }
    }
    out.metric(
        "hfast-topology.miss_tdc_sweep_ms",
        median(&tracer.durations_ms("hfast-topology.tdc_sweep")),
        "ms",
    );
}

/// A set-up alone, counted from process start; the daemon is stopped
/// after the time is taken.
pub fn cold_setup() -> f64 {
    let (handle, _) = start_daemon(&request_pool(PROCS));
    let seconds = setup_cpu_s();
    stop(handle);
    seconds
}

pub fn run(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let pool = request_pool(PROCS);
    let (handle, pool_texts) = start_daemon(&pool);
    let setup_s = setup_cpu_s();

    // The benchmark's own graphs, for the TDC checks. The same registry
    // serves the traced run's in-process handler timings.
    let registry = Registry::new();
    let mut graphs = HashMap::new();
    for name in PAPER_APPS {
        let g = registry
            .graph(&AppSpec::Named {
                name: name.to_string(),
                procs: PROCS,
            })
            .expect("paper app profiles");
        graphs.insert(
            name.to_string(),
            RefGraph {
                n: g.n(),
                edges: edge_list(&g),
            },
        );
    }
    let in_process_equal = pool
        .iter()
        .zip(&pool_texts)
        .all(|(req, text)| encode_response(&execute(req, &registry)) == *text);
    out.check(
        "serve_mix.daemon_answers_equal_in_process_handlers",
        in_process_equal,
        "",
    );
    let expect = Expect { pool_texts, graphs };
    let served_kind_ok = pool
        .iter()
        .zip(&expect.pool_texts)
        .all(|(req, text)| decode_response(text).is_ok_and(|r| kind_matches(req, &r)));
    out.check("serve_mix.warm_up_answers_in_kind", served_kind_ok, "");

    let addr = handle.local_addr();
    let before = stats(addr);
    let fresh = AtomicU64::new(0);
    let timed_start = Usage::now();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let reports: Vec<ConnReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (pool, expect, fresh) = (&pool, &expect, &fresh);
                s.spawn(move || {
                    client_loop(addr, conn, args.seed, deadline, pool, expect, fresh, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed_cpu_s = Usage::now().since(timed_start).cpu_s();
    let after = stats(addr);

    let sum = |f: fn(&ConnReport) -> u64| reports.iter().map(f).sum::<u64>();
    out.attempted += sum(|r| r.attempted);
    out.failed += sum(|r| r.failed);
    out.check(
        "serve_mix.no_error_or_busy_response",
        sum(|r| r.error_or_busy) + sum(|r| r.transport) == 0,
        format!(
            "{} refused, {} transport",
            sum(|r| r.error_or_busy),
            sum(|r| r.transport)
        ),
    );
    out.check(
        "serve_mix.response_kind_matches_verb",
        sum(|r| r.wrong_kind) == 0,
        "",
    );
    out.check(
        "serve_mix.repeat_answers_byte_identical",
        sum(|r| r.repeat_differs) == 0,
        "",
    );
    out.check(
        "serve_mix.tdc_vs_own_degree_count",
        sum(|r| r.tdc_differs) == 0,
        "",
    );
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    let (sent_pool, sent_fresh) = (sum(|r| r.attempted - r.misses), sum(|r| r.misses));
    out.check(
        "serve_mix.pool_hits_and_fresh_cutoffs_miss",
        hits == sent_pool && misses == sent_fresh && misses > 0,
        format!("{hits} hits, {misses} misses"),
    );
    let pool_s: f64 = reports.iter().map(|r| r.pool_s).sum();
    let miss_s: f64 = reports.iter().map(|r| r.miss_s).sum();
    let miss_share = miss_s / (pool_s + miss_s);
    println!(
        "serve_mix client time: {sent_pool} pool requests (cache hits) {:.1}%, \
         {sent_fresh} fresh-cutoff requests (misses) {:.1}%",
        100.0 * (1.0 - miss_share),
        100.0 * miss_share
    );

    let plain: Vec<f64> = reports.iter().flat_map(|r| r.plain_rtts.clone()).collect();
    if !args.trace {
        EndToEnd {
            setup_s,
            throughput_per_s: sum(|r| r.attempted) as f64 / timed_cpu_s,
            latency_ms: median(&plain) * 1e3,
        }
        .record(out);
    } else {
        let traced: Vec<f64> = reports.iter().flat_map(|r| r.traced_rtts.clone()).collect();
        let rtts = tracer.durations_ms("hfast-serve.call");
        out.metric("hfast-serve.rtt_p50_ms", median(&rtts), "ms");
        out.metric("hfast-serve.rtt_p99_ms", quantile(&rtts, 0.99), "ms");
        out.metric("hfast-serve.server_p50_ms", server_p50_ms(addr), "ms");
        out.metric(
            "hfast-serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        out.metric("hfast-serve.miss_time_share", miss_share, "share");
        out.metric("hfast-serve.busy", (after.2 - before.2) as f64, "count");
        crate::layers::record_overhead(out, tracer, ROOT, &plain, &traced, false);
        stage_metrics(tracer, out, &pool, &expect.pool_texts, &registry, args.seed);
    }
    stop(handle);
}
