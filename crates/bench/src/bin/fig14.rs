//! Figure 14: throughput and latency of Zipfian(0.99) `write_add` using the
//! Operate interface vs WLock+Read+Write, one thread per node.

use darray_bench::operate::zipf_update;
use darray_bench::report::{fmt, print_table, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    let len = if fast { 16_384 } else { 65_536 };
    let op_ops: u64 = if fast { 2_000 } else { 10_000 };
    let lk_ops: u64 = if fast { 500 } else { 3_000 };
    let node_counts: &[usize] = if fast { &[1, 3] } else { &[1, 2, 4, 6, 8] };

    let mut thr = Vec::new();
    let mut lat = Vec::new();
    let mut traffic = Vec::new();
    for &n in node_counts {
        let o = zipf_update(n, len, op_ops, true);
        let l = zipf_update(n, len, lk_ops, false);
        traffic.push((format!("operate_{n}n"), o.protocol));
        traffic.push((format!("lock_{n}n"), l.protocol));
        thr.push(vec![n.to_string(), fmt(o.mops()), fmt(l.mops())]);
        lat.push(vec![
            n.to_string(),
            fmt(o.avg_latency_ns(op_ops)),
            fmt(l.avg_latency_ns(lk_ops)),
        ]);
    }
    print_table(
        "Figure 14a — zipfian write_add throughput (Mops/s)",
        &["nodes", "Operate", "WLock+Read+Write"],
        &thr,
    );
    print_table(
        "Figure 14b — zipfian write_add latency (ns/op)",
        &["nodes", "Operate", "WLock+Read+Write"],
        &lat,
    );
    println!("\npaper: Operate scales with nodes at flat latency; the lock-based scheme's throughput stalls and its latency grows sharply (exclusive-ownership contention).");
    match write_bench_json_with_metrics("fig14", &[], &traffic) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig14.json: {e}"),
    }
}
