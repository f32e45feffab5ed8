//! Figure 17: total KVS throughput (Kops/s) on six nodes under YCSB with a
//! Zipfian(0.99) key distribution, varying thread count and get ratio.

use darray_bench::kvsbench::{kvs_ycsb, KvSys};
use darray_bench::report::{fmt, print_table, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    let nodes = if fast { 2 } else { 6 };
    let records: u64 = if fast { 512 } else { 2_048 };
    let ops: u64 = if fast { 300 } else { 1_200 };
    let threads: &[usize] = if fast { &[1] } else { &[1, 2, 4] };
    let ratios = [1.0f64, 0.95, 0.5];

    let mut traffic = Vec::new();
    for &get_ratio in &ratios {
        let mut rows = Vec::new();
        for &t in threads {
            let d = kvs_ycsb(KvSys::DArray, nodes, t, get_ratio, records, ops);
            let g = kvs_ycsb(KvSys::Gam, nodes, t, get_ratio, records, ops);
            traffic.push((
                format!("get{:02.0}_t{t}_{nodes}n", get_ratio * 100.0),
                d.protocol,
            ));
            rows.push(vec![
                t.to_string(),
                fmt(d.kops()),
                fmt(g.kops()),
                fmt(d.kops() / g.kops()),
            ]);
        }
        print_table(
            &format!(
                "Figure 17 — KVS YCSB throughput, get ratio {:.0}% ({} nodes, Kops/s)",
                get_ratio * 100.0,
                nodes
            ),
            &["threads/node", "DArray-KVS", "GAM-KVS", "speedup"],
            &rows,
        );
    }
    // Doorbell-batching sweep (DESIGN.md §13): the put-heavy cell again
    // under explicit batching knobs, so the BENCH json records how egress
    // coalescing responds. batch1 disables coalescing (every frame rings
    // its own doorbell); batch16_sig8 pairs the default ring depth with
    // selective signaling every 8th frame.
    let sweep_t = *threads.last().unwrap();
    let mut sweep_rows = Vec::new();
    for (label, batch) in [
        ("batch1", (1, darray::NetConfig::default().signal_interval)),
        ("batch16_sig8", (16, 8)),
    ] {
        darray_bench::set_batch_override(Some(batch));
        let d = kvs_ycsb(KvSys::DArray, nodes, sweep_t, 0.5, records, ops);
        sweep_rows.push(vec![
            label.to_string(),
            d.protocol.frames.to_string(),
            d.protocol.tx_flushes.to_string(),
            d.protocol.doorbell_batches.to_string(),
            d.protocol.frames_coalesced.to_string(),
        ]);
        traffic.push((format!("{label}_get50_t{sweep_t}_{nodes}n"), d.protocol));
    }
    darray_bench::set_batch_override(None);
    print_table(
        &format!("Figure 17 — doorbell-batching sweep, get ratio 50% ({nodes} nodes)"),
        &[
            "batch",
            "frames",
            "tx_flushes",
            "doorbell_batches",
            "frames_coalesced",
        ],
        &sweep_rows,
    );
    println!("\npaper: 20x-41x at 100% gets; 2x-3.8x under put-heavy contention; DArray-KVS also scales better intra-node (0.63-0.96 vs 0.48-0.64).");
    match write_bench_json_with_metrics("fig17", &[], &traffic) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig17.json: {e}"),
    }
}
