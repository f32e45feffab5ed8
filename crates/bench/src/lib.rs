//! # darray-bench — the evaluation harness
//!
//! One module per experiment family; every figure binary (`fig01` …
//! `fig18`, `table1`, `ablations`) and the criterion benches call into
//! these functions. All numbers are **virtual time** from the
//! deterministic simulation, so every run of a binary reproduces the same
//! table bit-for-bit.
//!
//! See `DESIGN.md` §5 for the experiment ↔ figure mapping and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

pub mod graphs;
pub mod kvsbench;
pub mod micro;
pub mod operate;
pub mod report;

pub use darray::TransportKind;

use std::sync::Mutex;

/// Process-wide doorbell-batching override for benchmark cells, as
/// `(send_batch_max, signal_interval)` on [`darray::NetConfig`]. The
/// figure binaries' workload functions (`kvs_ycsb`, `micro::*`) build
/// their clusters through [`bench_cluster_config`] with fixed signatures,
/// so sweeps over the batching knobs set this instead of threading a
/// config through every call. `None` (the default) keeps the
/// `NetConfig` defaults.
static BATCH_OVERRIDE: Mutex<Option<(usize, u64)>> = Mutex::new(None);

/// Set (or with `None`, clear) the `(send_batch_max, signal_interval)`
/// pair that [`bench_cluster_config`] applies to every cluster built until
/// the next call. Figure binaries run their cells sequentially, so scoping
/// is by call order.
pub fn set_batch_override(batch: Option<(usize, u64)>) {
    *BATCH_OVERRIDE.lock().unwrap() = batch;
}

/// True when `FIG_FAST=1`: figure binaries shrink workloads for smoke runs.
pub fn fast_mode() -> bool {
    std::env::var("FIG_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Network backend for the DArray clusters, selected by `--transport=sim`
/// / `--transport=tcp` on the command line (or the `DARRAY_TRANSPORT` env
/// var; flag wins). Defaults to the deterministic simulated fabric — the
/// only backend whose virtual-time numbers mean anything; a TCP run keeps
/// the protocol-traffic sections comparable but its timings are wall-clock
/// noise. The comparison engines (GAM, Gemini, BCL) always simulate.
pub fn transport_kind() -> TransportKind {
    fn pick(v: &str) -> TransportKind {
        match v {
            "sim" => TransportKind::Sim,
            "tcp" if cfg!(feature = "tcp-transport") => TransportKind::Tcp,
            "tcp" => panic!("--transport=tcp requires building with --features tcp-transport"),
            other => panic!("unknown transport {other:?} (expected `sim` or `tcp`)"),
        }
    }
    for arg in std::env::args() {
        if let Some(v) = arg.strip_prefix("--transport=") {
            return pick(v);
        }
    }
    match std::env::var("DARRAY_TRANSPORT") {
        Ok(v) => pick(&v),
        Err(_) => TransportKind::Sim,
    }
}

/// The `ClusterConfig` every DArray benchmark cell boots with: the
/// calibrated config for `nodes` on the backend picked by
/// [`transport_kind`], **pinned to one runtime thread**. The library
/// default is multi-threaded, but the checked-in `BENCH_*` baselines were
/// recorded single-threaded and `protocol_diff` holds them at 0%; figure
/// binaries that study the thread count (fig12, fig13, ablation 5) opt in
/// per cell via [`bench_cluster_config_rt`].
pub fn bench_cluster_config(nodes: usize) -> darray::ClusterConfig {
    bench_cluster_config_rt(nodes, 1)
}

/// [`bench_cluster_config`] with an explicit runtime-thread count, for
/// the benchmark cells that sweep it.
pub fn bench_cluster_config_rt(nodes: usize, runtime_threads: usize) -> darray::ClusterConfig {
    let mut cfg = darray::ClusterConfig::with_nodes(nodes);
    cfg.runtime_threads = runtime_threads;
    cfg.transport = transport_kind();
    if let Some((send_batch_max, signal_interval)) = *BATCH_OVERRIDE.lock().unwrap() {
        cfg.net.send_batch_max = send_batch_max;
        cfg.net.signal_interval = signal_interval;
    }
    cfg
}
