//! The three workloads. Each repetition boots a fresh simulated cluster with
//! the library defaults, sets up its inputs, runs one measured window as a
//! closed loop (every app thread issues its next call when the last one
//! returns) and checks the outputs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use darray::{ArrayOptions, Cluster, ClusterConfig, Ctx, NodeStatsSnapshot, Sim, SimConfig};
use darray_graph::pagerank::pagerank_darray;
use darray_graph::reference::pagerank_ref;
use darray_graph::rmat;
use darray_kvs::{Kvs, KvsConfig};
use workloads::{RequestDistribution, Rng, YcsbOp, YcsbSpec, YcsbStream};

use crate::host::{self, Setup, SetupClock};
use crate::trace::{Probe, Span, TracedBackend};

/// One workload at one size.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Non-Pin PageRank over an R-MAT graph: fast path and Operated combining.
    Graph { scale: u32, iters: usize },
    /// Uniform random get/set/apply over arrays far larger than the cache.
    Thrash { len: usize, ops_per_thread: u64 },
    /// YCSB over the DArray KVS: Zipf 0.99, 50% get / 50% put.
    Kvs { records: u64, ops_per_thread: u64 },
}

pub const WORKLOADS: [&str; 3] = ["graph_pagerank", "array_thrash", "kvs_ycsb"];

const GRAPH_NODES: usize = 4;
const GRAPH_EDGE_FACTOR: usize = 4;
const THRASH_NODES: usize = 3;
const THRASH_THREADS: usize = 2;
const KVS_NODES: usize = 4;
const KVS_THREADS: usize = 2;
const VALUE_BYTES: usize = 100;
/// Relative tolerance of distributed ranks against the reference.
const RANK_TOLERANCE: f64 = 1e-9;

impl Workload {
    /// The benchmark's size of workload `name`.
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "graph_pagerank" => Workload::Graph {
                scale: 16,
                iters: 20,
            },
            "array_thrash" => Workload::Thrash {
                len: THRASH_NODES << 20,
                ops_per_thread: 9_000,
            },
            "kvs_ycsb" => Workload::Kvs {
                records: 4096,
                ops_per_thread: 2_800,
            },
            _ => return None,
        })
    }

    /// Run one repetition; `traced` records spans around every public call.
    pub fn run(&self, seed: u64, traced: bool) -> Rep {
        let w = self.clone();
        // Best effort: without the reset the peak covers earlier repetitions
        // too, which only makes it larger.
        let _ = host::reset_peak_rss();
        let mut rep = Sim::new(SimConfig::default()).run(move |ctx| match w {
            Workload::Graph { scale, iters } => graph(ctx, seed, traced, scale, iters),
            Workload::Thrash {
                len,
                ops_per_thread,
            } => thrash(ctx, seed, traced, len, ops_per_thread),
            Workload::Kvs {
                records,
                ops_per_thread,
            } => kvs(ctx, seed, traced, records, ops_per_thread),
        });
        rep.peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
        rep.rss_after_mb = host::rss_mb().unwrap_or(f64::NAN);
        rep
    }
}

/// What one repetition measured.
pub struct Rep {
    /// From the start of the repetition to the measured window.
    pub setup: Setup,
    /// Host seconds of the measured window.
    pub window_s: f64,
    /// Operations completed in the window (graph: edge updates).
    pub ops: u64,
    /// Operations whose result failed its check.
    pub failed: u64,
    /// End-of-run invariant.
    pub invariant: Result<(), String>,
    pub virt: Virtual,
    /// Spans of a traced repetition, empty otherwise.
    pub spans: Vec<Span>,
    /// `VmHWM` over this repetition, MiB.
    pub peak_rss_mb: f64,
    /// `VmRSS` after the cluster shut down, MiB.
    pub rss_after_mb: f64,
}

/// Everything a repetition measures on the virtual clock or counts. It must
/// repeat exactly for a given seed, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Virtual ns of the measured window.
    pub window_ns: u64,
    /// Virtual ns of every read call (`get`, `kv.get`), ascending.
    pub reads: Vec<u64>,
    /// Virtual ns of every update call (`set`, `apply`, `kv.put`), ascending.
    pub updates: Vec<u64>,
    /// `Cluster::stats` of each node before and after the window.
    pub stats: Vec<(NodeStatsSnapshot, NodeStatsSnapshot)>,
    /// Per node: lines at the cache pools' high-water marks, and lines.
    pub pool_peak: Vec<(u64, u64)>,
    /// `Ctx::stats` switches and events during the window.
    pub switches: u64,
    pub events: u64,
}

/// splitmix64: derives independent stream seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cluster_config(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        // Explicit, so the DARRAY_RUNTIME_THREADS override cannot move it.
        runtime_threads: 2,
        ..ClusterConfig::default()
    }
}

/// Per-thread results of a measured window.
#[derive(Default)]
struct ThreadOut {
    v_start: u64,
    v_end: u64,
    reads: Vec<u64>,
    updates: Vec<u64>,
    ops: u64,
    failed: u64,
    /// `apply(add, 1)` calls that returned `Ok` (array_thrash).
    applied: u64,
}

/// Snapshots taken around the measured window from the root thread.
struct Window {
    before: Vec<NodeStatsSnapshot>,
    sim: (u64, u64),
    wall: Instant,
}

impl Window {
    fn open(ctx: &Ctx, cluster: &Cluster) -> Self {
        let s = ctx.stats();
        Window {
            before: node_stats(cluster),
            sim: (s.switches, s.events),
            wall: Instant::now(),
        }
    }

    fn close(
        self,
        ctx: &Ctx,
        cluster: &Cluster,
        window_ns: u64,
        outs: &[ThreadOut],
    ) -> (f64, Virtual) {
        let window_s = self.wall.elapsed().as_secs_f64();
        let s = ctx.stats();
        let mut reads: Vec<u64> = outs.iter().flat_map(|o| o.reads.iter().copied()).collect();
        let mut updates: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.updates.iter().copied())
            .collect();
        reads.sort_unstable();
        updates.sort_unstable();
        let nodes = cluster.config().nodes;
        let virt = Virtual {
            window_ns,
            reads,
            updates,
            stats: self.before.into_iter().zip(node_stats(cluster)).collect(),
            pool_peak: (0..nodes)
                .map(|n| {
                    let pools = cluster.pool_stats(n);
                    (
                        pools.iter().map(|p| p.peak_occupied as u64).sum(),
                        pools.iter().map(|p| p.lines as u64).sum(),
                    )
                })
                .collect(),
            switches: s.switches - self.sim.0,
            events: s.events - self.sim.1,
        };
        (window_s, virt)
    }
}

fn node_stats(cluster: &Cluster) -> Vec<NodeStatsSnapshot> {
    (0..cluster.config().nodes)
        .map(|n| cluster.stats(n))
        .collect()
}

/// Virtual window of a closed loop: first start to last end.
fn window_ns(outs: &[ThreadOut]) -> u64 {
    let start = outs.iter().map(|o| o.v_start).min().unwrap_or(0);
    let end = outs.iter().map(|o| o.v_end).max().unwrap_or(0);
    end - start
}

/// The root thread's spans plus those the app threads left in `app`.
fn collect(root: &Probe, app: Arc<Mutex<Vec<Span>>>) -> Vec<Span> {
    let app = Arc::try_unwrap(app).expect("app threads have finished");
    root.drain_into(&app);
    app.into_inner().expect("span sink poisoned")
}

fn take<T>(shared: Arc<Mutex<T>>) -> T {
    Arc::try_unwrap(shared)
        .ok()
        .expect("app threads have finished")
        .into_inner()
        .expect("result lock poisoned")
}

fn graph(ctx: &mut Ctx, seed: u64, traced: bool, scale: u32, iters: usize) -> Rep {
    let t0 = SetupClock::start();
    let probe = Probe::new(traced, 0);
    let el = rmat(scale, GRAPH_EDGE_FACTOR, mix(seed, 1));
    let cluster = probe.span(ctx, "Cluster::new", |ctx| {
        Cluster::new(ctx, cluster_config(GRAPH_NODES))
    });
    let setup = t0.stop();

    let win = Window::open(ctx, &cluster);
    let pr = probe.span(ctx, "pagerank_darray", |ctx| {
        pagerank_darray(ctx, &cluster, &el, iters, false)
    });
    let ops = (el.edges.len() * iters) as u64;
    let (window_s, virt) = win.close(ctx, &cluster, pr.elapsed, &[]);

    let want = pagerank_ref(&el, iters);
    let invariant = if pr.ranks.len() != want.len() {
        Err(format!("{} ranks, want {}", pr.ranks.len(), want.len()))
    } else {
        match pr
            .ranks
            .iter()
            .zip(&want)
            .position(|(x, y)| (x - y).abs() > RANK_TOLERANCE * x.abs().max(y.abs()))
        {
            Some(v) => Err(format!(
                "rank of vertex {v} is {}, reference {}",
                pr.ranks[v], want[v]
            )),
            None => Ok(()),
        }
    };
    probe.span(ctx, "Cluster::shutdown", |ctx| cluster.shutdown(ctx));
    Rep {
        setup,
        window_s,
        ops,
        failed: 0,
        invariant,
        virt,
        spans: collect(&probe, Arc::default()),
        peak_rss_mb: 0.0,
        rss_after_mb: 0.0,
    }
}

/// Low 32 bits of every data element: its own index.
const STAMP_MASK: u64 = 0xFFFF_FFFF;

fn thrash(ctx: &mut Ctx, seed: u64, traced: bool, len: usize, ops_per_thread: u64) -> Rep {
    assert!(len as u64 <= STAMP_MASK, "indices must fit the stamp");
    let t0 = SetupClock::start();
    let probe = Probe::new(traced, 0);
    let cluster = probe.span(ctx, "Cluster::new", |ctx| {
        Cluster::new(ctx, cluster_config(THRASH_NODES))
    });
    let add = cluster.ops().register_add_u64();
    let (data, counters) = probe.span(ctx, "Cluster::alloc", |_| {
        (
            cluster.alloc_with::<u64>(len, ArrayOptions::default(), |i| i as u64),
            cluster.alloc::<u64>(len, ArrayOptions::default()),
        )
    });
    let setup = t0.stop();

    let outs = Arc::new(Mutex::new(Vec::new()));
    let spans = Arc::new(Mutex::new(Vec::new()));
    let win = Window::open(ctx, &cluster);
    {
        let (data, counters, outs, spans) =
            (data.clone(), counters.clone(), outs.clone(), spans.clone());
        probe.span(ctx, "Cluster::run", |ctx| {
            cluster.run(ctx, THRASH_THREADS, move |ctx, env| {
                let gid = (env.node * env.threads_per_node + env.thread) as u64;
                let probe = Probe::new(traced, 1 + gid);
                let (d, c) = (data.on(env.node), counters.on(env.node));
                let mut rng = Rng::new(mix(seed, 100 + gid));
                let mut o = ThreadOut::default();
                env.barrier(ctx);
                o.v_start = ctx.now();
                for _ in 0..ops_per_thread {
                    let i = rng.next_below(len as u64) as usize;
                    let t = ctx.now();
                    o.ops += 1;
                    match rng.next_below(10) {
                        0..=5 => {
                            let r = probe.span(ctx, "DArray::get", |ctx| d.try_get(ctx, i));
                            o.reads.push(ctx.now() - t);
                            if !matches!(r, Ok(v) if v & STAMP_MASK == i as u64) {
                                o.failed += 1;
                            }
                        }
                        6 | 7 => {
                            let v = ((gid + 1) << 32) | i as u64;
                            let r = probe.span(ctx, "DArray::set", |ctx| d.try_set(ctx, i, v));
                            o.updates.push(ctx.now() - t);
                            o.failed += r.is_err() as u64;
                        }
                        _ => {
                            let r =
                                probe.span(ctx, "DArray::apply", |ctx| c.try_apply(ctx, i, add, 1));
                            o.updates.push(ctx.now() - t);
                            match r {
                                Ok(()) => o.applied += 1,
                                Err(_) => o.failed += 1,
                            }
                        }
                    }
                }
                o.v_end = ctx.now();
                probe.drain_into(&spans);
                outs.lock().expect("result lock poisoned").push(o);
            })
        });
    }
    let outs = take(outs);
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    let (window_s, virt) = win.close(ctx, &cluster, window_ns(&outs), &outs);

    // Every apply added 1, so the counters sum to the applies issued. Each
    // node sums the elements it homes, which recalls outstanding operands.
    let applied: u64 = outs.iter().map(|o| o.applied).sum();
    let sums = Arc::new(Mutex::new(Vec::new()));
    {
        let (counters, sums) = (counters.clone(), sums.clone());
        cluster.run(ctx, 1, move |ctx, env| {
            let c = counters.on(env.node);
            let sum: Result<u64, _> = c.local_range().map(|i| c.try_get(ctx, i)).sum();
            sums.lock().expect("sum lock poisoned").push(sum);
        });
    }
    let invariant = match take(sums).into_iter().sum::<Result<u64, _>>() {
        Ok(total) if total == applied => Ok(()),
        Ok(total) => Err(format!("counters sum to {total}, {applied} applies issued")),
        Err(e) => Err(format!("reading counters: {e}")),
    };
    probe.span(ctx, "Cluster::shutdown", |ctx| cluster.shutdown(ctx));
    Rep {
        setup,
        window_s,
        ops,
        failed: outs.iter().map(|o| o.failed).sum(),
        invariant,
        virt,
        spans: collect(&probe, spans),
        peak_rss_mb: 0.0,
        rss_after_mb: 0.0,
    }
}

/// The value the benchmark stores under `key` at `version`: the key, the
/// version, then words derived from the key alone.
pub fn kv_value(key: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES + 8);
    v.extend(key.to_le_bytes());
    v.extend(version.to_le_bytes());
    while v.len() < VALUE_BYTES {
        let word = mix(key, v.len() as u64);
        v.extend(word.to_le_bytes());
    }
    v.truncate(VALUE_BYTES);
    v
}

/// True when `val` is what [`kv_value`] stores for `key` at some version.
pub fn kv_value_ok(key: u64, val: &[u8]) -> bool {
    val.len() == VALUE_BYTES && {
        let version = u64::from_le_bytes(val[8..16].try_into().expect("8 bytes"));
        val == kv_value(key, version)
    }
}

fn kvs(ctx: &mut Ctx, seed: u64, traced: bool, records: u64, ops_per_thread: u64) -> Rep {
    let t0 = SetupClock::start();
    let probe = Probe::new(traced, 0);
    let cfg = KvsConfig {
        buckets: (records / 8).max(16),
        overflow_per_node: (records / 16).max(8),
        value_capacity: (records * 2 + 1024) * 256,
        nodes: KVS_NODES,
    };
    let cluster = probe.span(ctx, "Cluster::new", |ctx| {
        Cluster::new(ctx, cluster_config(KVS_NODES))
    });
    let (entries, bytes) = probe.span(ctx, "Cluster::alloc", |_| {
        (
            cluster.alloc::<u64>(cfg.entry_array_len(), ArrayOptions::default()),
            cluster.alloc::<u64>(cfg.byte_array_words(), ArrayOptions::default()),
        )
    });
    let store = Kvs::new(cfg);
    let preload = Arc::new(Mutex::new(Vec::new()));
    {
        let (store, entries, bytes, preload) = (
            store.clone(),
            entries.clone(),
            bytes.clone(),
            preload.clone(),
        );
        probe.span(ctx, "Cluster::run", |ctx| {
            cluster.run(ctx, 1, move |ctx, env| {
                let kv = store.view(
                    env.node,
                    TracedBackend::new(entries.on(env.node), Probe::new(false, 0)),
                    TracedBackend::new(bytes.on(env.node), Probe::new(false, 0)),
                );
                let errors = (env.node as u64..records)
                    .step_by(env.nodes)
                    .filter(|&k| kv.put(ctx, &k.to_le_bytes(), &kv_value(k, 0)).is_err())
                    .count();
                preload.lock().expect("preload lock poisoned").push(errors);
            })
        });
    }
    let preload_errors: usize = take(preload).into_iter().sum();
    let setup = t0.stop();

    let spec = YcsbSpec {
        records,
        get_ratio: 0.5,
        theta: 0.99,
        value_size: VALUE_BYTES,
        distribution: RequestDistribution::Zipfian,
    };
    let outs = Arc::new(Mutex::new(Vec::new()));
    let spans = Arc::new(Mutex::new(Vec::new()));
    let win = Window::open(ctx, &cluster);
    {
        let (outs, spans) = (outs.clone(), spans.clone());
        probe.span(ctx, "Cluster::run", |ctx| {
            cluster.run(ctx, KVS_THREADS, move |ctx, env| {
                let gid = (env.node * env.threads_per_node + env.thread) as u64;
                let probe = Probe::new(traced, 1 + gid);
                let kv = store.view(
                    env.node,
                    TracedBackend::new(entries.on(env.node), probe.clone()),
                    TracedBackend::new(bytes.on(env.node), probe.clone()),
                );
                let mut stream = YcsbStream::new(spec.clone(), mix(seed, 200 + gid));
                let mut version = gid << 32;
                let mut o = ThreadOut::default();
                env.barrier(ctx);
                o.v_start = ctx.now();
                for _ in 0..ops_per_thread {
                    let t = ctx.now();
                    o.ops += 1;
                    match stream.next_op() {
                        YcsbOp::Get(k) => {
                            let r = probe
                                .span(ctx, "KvsView::get", |ctx| kv.get(ctx, &k.to_le_bytes()));
                            o.reads.push(ctx.now() - t);
                            if !matches!(r, Some(v) if kv_value_ok(k, &v)) {
                                o.failed += 1;
                            }
                        }
                        YcsbOp::Put(k) => {
                            version += 1;
                            let val = kv_value(k, version);
                            let r = probe.span(ctx, "KvsView::put", |ctx| {
                                kv.put(ctx, &k.to_le_bytes(), &val)
                            });
                            o.updates.push(ctx.now() - t);
                            o.failed += r.is_err() as u64;
                        }
                    }
                }
                o.v_end = ctx.now();
                probe.drain_into(&spans);
                outs.lock().expect("result lock poisoned").push(o);
            })
        });
    }
    let outs = take(outs);
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    let (window_s, virt) = win.close(ctx, &cluster, window_ns(&outs), &outs);
    let invariant = match preload_errors {
        0 => Ok(()),
        n => Err(format!("{n} preload puts failed")),
    };
    probe.span(ctx, "Cluster::shutdown", |ctx| cluster.shutdown(ctx));
    Rep {
        setup,
        window_s,
        ops,
        failed: outs.iter().map(|o| o.failed).sum(),
        invariant,
        virt,
        spans: collect(&probe, spans),
        peak_rss_mb: 0.0,
        rss_after_mb: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_values_carry_their_key() {
        let v = kv_value(7, 3);
        assert_eq!(v.len(), VALUE_BYTES);
        assert!(kv_value_ok(7, &v));
        assert!(kv_value_ok(7, &kv_value(7, 99)));
        assert!(!kv_value_ok(8, &v));
        let mut torn = v.clone();
        torn[40] ^= 1;
        assert!(!kv_value_ok(7, &torn));
    }

    /// Spans and the traced KVS backend only read the virtual clock: a
    /// traced repetition must measure exactly what an untraced one does.
    #[test]
    fn tracing_is_pure_observation() {
        let small = [
            Workload::Graph {
                scale: 10,
                iters: 3,
            },
            Workload::Thrash {
                len: THRASH_NODES << 12,
                ops_per_thread: 300,
            },
            Workload::Kvs {
                records: 256,
                ops_per_thread: 100,
            },
        ];
        for w in small {
            let plain = w.run(5, false);
            let traced = w.run(5, true);
            assert!(plain.spans.is_empty());
            assert!(!traced.spans.is_empty());
            assert_eq!(plain.invariant, Ok(()), "{w:?}");
            assert_eq!(plain.failed, 0, "{w:?}");
            assert_eq!(
                plain.virt, traced.virt,
                "{w:?}: tracing moved the virtual clock"
            );
            assert_eq!(plain.ops, traced.ops);
            assert_ne!(
                w.run(6, false).virt,
                plain.virt,
                "{w:?}: the seed drives the inputs"
            );
        }
    }
}
