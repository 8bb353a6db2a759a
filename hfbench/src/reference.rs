//! Reference computations the benchmark checks the program against. Each
//! is written from the method's definition, apart from the program's own
//! implementation of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hfast_netsim::{Fabric, Flow};
use hfast_topology::CommGraph;

/// Degree statistics at one cutoff, in `TdcSummary`'s terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degrees {
    pub max: usize,
    pub min: usize,
    pub avg: f64,
    pub median: usize,
}

/// The undirected edges of `graph` as `(a, b, largest message)`, read
/// from the upper triangle of its edge matrix.
pub fn edge_list(graph: &CommGraph) -> Vec<(usize, usize, u64)> {
    let n = graph.n();
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let e = graph.edge(a, b);
            if e.count > 0 {
                edges.push((a, b, e.max_msg));
            }
        }
    }
    edges
}

/// Topological degree of communication at `cutoff`, counted edge by
/// edge: a task's degree is its number of partners whose largest message
/// is at least `cutoff` bytes (paper §4.4).
pub fn tdc_count(n: usize, edges: &[(usize, usize, u64)], cutoff: u64) -> Degrees {
    let mut deg = vec![0usize; n];
    for &(a, b, max_msg) in edges {
        if max_msg >= cutoff {
            deg[a] += 1;
            deg[b] += 1;
        }
    }
    let avg = deg.iter().sum::<usize>() as f64 / n as f64;
    deg.sort_unstable();
    Degrees {
        max: deg[n - 1],
        min: deg[0],
        avg,
        median: deg[n / 2],
    }
}

/// One flow's outcome in the reference replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRecord {
    /// Delivery time, `None` when the fabric has no route.
    pub end_ns: Option<u64>,
    /// Links on the route.
    pub hops: usize,
}

/// A plain ideal-FIFO virtual cut-through replay: the header advances
/// hop by hop, waits while a link is busy, and holds each link for the
/// message's serialization time from the moment it enters; the tail
/// lands one serialization time after the header clears the last link.
/// Events are ordered by time; injections come first at equal times (in
/// start-time, then flow order), later events in the order they were
/// scheduled.
pub fn ideal_fifo(fabric: &dyn Fabric, flows: &[Flow]) -> Vec<RefRecord> {
    let paths: Vec<Option<Vec<usize>>> = flows.iter().map(|f| fabric.path(f.src, f.dst)).collect();
    let mut records: Vec<RefRecord> = paths
        .iter()
        .zip(flows)
        .map(|(p, f)| RefRecord {
            end_ns: match p {
                Some(p) if p.is_empty() => Some(f.start_ns),
                _ => None,
            },
            hops: p.as_ref().map_or(0, Vec::len),
        })
        .collect();
    let mut order: Vec<usize> = (0..flows.len())
        .filter(|&i| paths[i].as_ref().is_some_and(|p| !p.is_empty()))
        .collect();
    order.sort_by_key(|&i| (flows[i].start_ns, i));
    // (time, sequence, flow, hop index)
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for i in order {
        heap.push(Reverse((flows[i].start_ns, seq, i, 0)));
        seq += 1;
    }
    let mut free_at = vec![0u64; fabric.link_count()];
    while let Some(Reverse((t, _, flow, hop))) = heap.pop() {
        let path = paths[flow].as_ref().expect("only routed flows are queued");
        let link = path[hop];
        let spec = fabric.link(link);
        let ser = spec.serialize_ns(flows[flow].bytes);
        let start = t.max(free_at[link]);
        free_at[link] = start + ser;
        let header_out = start + spec.latency_ns;
        if hop + 1 < path.len() {
            heap.push(Reverse((header_out, seq, flow, hop + 1)));
            seq += 1;
        } else {
            records[flow].end_ns = Some(header_out + ser);
        }
    }
    records
}

/// Uncontended store-and-forward latency over `path`: every hop pays its
/// latency plus the full serialization time. No flow of a credit-mode
/// replay can arrive sooner.
pub fn store_and_forward_floor(fabric: &dyn Fabric, path: &[usize], bytes: u64) -> u64 {
    path.iter()
        .map(|&l| {
            let spec = fabric.link(l);
            spec.latency_ns + spec.serialize_ns(bytes)
        })
        .sum()
}

/// A floor on the cut-through latency of any route of a fabric: the
/// cheapest link latency per hop plus one serialization at the fastest
/// link bandwidth.
pub struct CutThroughFloor {
    min_latency_ns: u64,
    max_bandwidth: f64,
}

impl CutThroughFloor {
    pub fn new(fabric: &dyn Fabric) -> CutThroughFloor {
        let mut floor = CutThroughFloor {
            min_latency_ns: u64::MAX,
            max_bandwidth: 0.0,
        };
        for l in 0..fabric.link_count() {
            let spec = fabric.link(l);
            floor.min_latency_ns = floor.min_latency_ns.min(spec.latency_ns);
            floor.max_bandwidth = floor.max_bandwidth.max(spec.bandwidth);
        }
        floor
    }

    /// The floor for a `hops`-link route carrying `bytes`.
    pub fn at(&self, hops: usize, bytes: u64) -> u64 {
        if hops == 0 {
            return 0;
        }
        hops as u64 * self.min_latency_ns + (bytes as f64 / self.max_bandwidth).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_netsim::{CreditConfig, LinkSpec, Simulation};

    /// Nodes 0 — 1 — 2 on a line: link 0 carries 0→1, link 1 carries
    /// 1→2 (one direction is enough for the hand-worked cases).
    struct Line;

    impl Fabric for Line {
        fn name(&self) -> &str {
            "line"
        }
        fn nodes(&self) -> usize {
            3
        }
        fn link_count(&self) -> usize {
            2
        }
        fn link(&self, _id: usize) -> LinkSpec {
            LinkSpec {
                latency_ns: 50,
                bandwidth: 1.0,
            }
        }
        fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
            match (src, dst) {
                (s, d) if s == d => Some(vec![]),
                (0, 1) => Some(vec![0]),
                (1, 2) => Some(vec![1]),
                (0, 2) => Some(vec![0, 1]),
                _ => None,
            }
        }
        fn incident_links(&self, node: usize) -> Vec<usize> {
            match node {
                0 => vec![0],
                1 => vec![0, 1],
                _ => vec![1],
            }
        }
    }

    fn deg(max: usize, min: usize, avg: f64, median: usize) -> Degrees {
        Degrees {
            max,
            min,
            avg,
            median,
        }
    }

    fn flow(src: usize, dst: usize, bytes: u64, start_ns: u64) -> Flow {
        Flow {
            src,
            dst,
            bytes,
            start_ns,
        }
    }

    #[test]
    fn small_graph_tdc_by_hand() {
        // 0—1 max 4 KiB, 1—2 max 100 B, 0—3 max 2 KiB, 2—3 max 1 MiB.
        let mut g = CommGraph::new(4);
        g.add_message(0, 1, 4096);
        g.add_message(1, 2, 100);
        g.add_message(0, 3, 2048);
        g.add_message(2, 3, 1 << 20);
        let edges = edge_list(&g);
        assert_eq!(edges.len(), 4);
        let at = |c| tdc_count(4, &edges, c);
        // Every task has two partners without a cutoff.
        assert_eq!(at(0), deg(2, 2, 2.0, 2));
        // 2 KiB drops 1—2: degrees (2, 1, 1, 2).
        assert_eq!(at(2048), deg(2, 1, 1.5, 2));
        // 4 KiB also drops 0—3: degrees (1, 1, 1, 1).
        assert_eq!(at(4096), deg(1, 1, 1.0, 1));
        // 1 MiB keeps only 2—3: degrees (0, 0, 1, 1).
        assert_eq!(at(1 << 20), deg(1, 0, 0.5, 1));
        // The program's sweep agrees on every cutoff.
        let cutoffs = [0, 2048, 4096, 1 << 20];
        for (c, s) in hfast_topology::tdc_sweep(&g, &cutoffs) {
            let d = at(c);
            assert_eq!(
                (s.max, s.min, s.avg, s.median),
                (d.max, d.min, d.avg, d.median)
            );
        }
    }

    #[test]
    fn two_flows_sharing_a_link_by_hand() {
        // A: 0→2 over links 0 and 1; B: 1→2 over link 1; both 1000 B at
        // t = 0 on 50 ns, 1 B/ns links.
        //   A enters link 0 at 0 (busy to 1000), header reaches link 1 at 50.
        //   B enters link 1 at 0 (busy to 1000), arrives 50 + 1000 = 1050.
        //   A waits for link 1 until 1000, header out at 1050, tail at 2050.
        let flows = [flow(0, 2, 1000, 0), flow(1, 2, 1000, 0)];
        let refs = ideal_fifo(&Line, &flows);
        assert_eq!(
            refs[0],
            RefRecord {
                end_ns: Some(2050),
                hops: 2
            }
        );
        assert_eq!(
            refs[1],
            RefRecord {
                end_ns: Some(1050),
                hops: 1
            }
        );
        // Uncontended, A would take 50 + 50 + 1000 = 1100.
        let alone = ideal_fifo(&Line, &flows[..1]);
        assert_eq!(alone[0].end_ns, Some(1100));
        // The simulator replays the same schedule.
        let out = Simulation::new(&Line).detailed().run(&flows);
        let got: Vec<Option<u64>> = out.records().iter().map(|r| r.end_ns).collect();
        assert_eq!(got, vec![Some(2050), Some(1050)]);
    }

    #[test]
    fn unrouted_and_self_flows() {
        let flows = [flow(2, 0, 10, 5), flow(1, 1, 10, 7)];
        let refs = ideal_fifo(&Line, &flows);
        assert_eq!(
            refs[0],
            RefRecord {
                end_ns: None,
                hops: 0
            }
        );
        assert_eq!(
            refs[1],
            RefRecord {
                end_ns: Some(7),
                hops: 0
            }
        );
    }

    #[test]
    fn store_and_forward_floor_by_hand() {
        // Two hops of 50 ns + 1000 ns each.
        assert_eq!(store_and_forward_floor(&Line, &[0, 1], 1000), 2100);
        assert_eq!(CutThroughFloor::new(&Line).at(2, 1000), 1100);
        let flows = [flow(0, 2, 1000, 0)];
        let out = Simulation::new(&Line)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .run(&flows);
        assert!(out.records()[0].end_ns.unwrap() >= 2100);
    }
}
