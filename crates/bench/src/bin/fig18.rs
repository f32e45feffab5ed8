//! Figure 18 (limitations): uniform-random Read / Write / Operate latency
//! (ns) with increasing node counts, one thread per node. With poor
//! locality the coherence protocol's fills/evictions dominate DArray and
//! GAM, while cache-less BCL stays flat at the RDMA round trip.

use darray_bench::micro::{micro, Op, Pattern, System};
use darray_bench::report::{fmt, print_table, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    // Working set far beyond the cache so random access thrashes (§6.6).
    let elems_per_node = if fast { 65_536 } else { 262_144 };
    let ops: u64 = if fast { 2_000 } else { 8_000 };
    let bcl_ops: u64 = if fast { 500 } else { 2_000 };
    let node_counts: &[usize] = if fast { &[1, 3] } else { &[1, 2, 4, 6, 8] };

    let mut traffic = Vec::new();
    for op in [Op::Read, Op::Write, Op::Operate] {
        let mut rows = Vec::new();
        for &n in node_counts {
            let d = micro(
                System::DArray,
                op,
                Pattern::Random,
                n,
                1,
                elems_per_node,
                ops,
            );
            traffic.push((format!("{}_{n}n", op.label()), d.protocol));
            let g = micro(System::Gam, op, Pattern::Random, n, 1, elems_per_node, ops);
            let b = if op == Op::Operate {
                None
            } else {
                Some(micro(
                    System::Bcl,
                    op,
                    Pattern::Random,
                    n,
                    1,
                    elems_per_node,
                    bcl_ops,
                ))
            };
            rows.push(vec![
                n.to_string(),
                fmt(d.avg_latency_ns(ops)),
                fmt(g.avg_latency_ns(ops)),
                b.map(|x| fmt(x.avg_latency_ns(bcl_ops)))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        print_table(
            &format!(
                "Figure 18{} — uniform random {} latency (ns)",
                match op {
                    Op::Read => "a",
                    Op::Write => "b",
                    Op::Operate => "c",
                },
                op.label()
            ),
            &["nodes", "DArray", "GAM", "BCL"],
            &rows,
        );
    }
    // Doorbell-batching sweep (DESIGN.md §13): the write-thrash cell at the
    // largest node count under explicit batching knobs, recording how the
    // egress coalescing counters respond in BENCH json.
    let sweep_n = *node_counts.last().unwrap();
    let mut sweep_rows = Vec::new();
    for (label, batch) in [
        ("batch1", (1, darray::NetConfig::default().signal_interval)),
        ("batch16_sig8", (16, 8)),
    ] {
        darray_bench::set_batch_override(Some(batch));
        let d = micro(
            System::DArray,
            Op::Write,
            Pattern::Random,
            sweep_n,
            1,
            elems_per_node,
            ops,
        );
        sweep_rows.push(vec![
            label.to_string(),
            d.protocol.frames.to_string(),
            d.protocol.tx_flushes.to_string(),
            d.protocol.doorbell_batches.to_string(),
            d.protocol.frames_coalesced.to_string(),
        ]);
        traffic.push((format!("{label}_write_{sweep_n}n"), d.protocol));
    }
    darray_bench::set_batch_override(None);
    print_table(
        &format!("Figure 18 — doorbell-batching sweep, random write ({sweep_n} nodes)"),
        &[
            "batch",
            "frames",
            "tx_flushes",
            "doorbell_batches",
            "frames_coalesced",
        ],
        &sweep_rows,
    );
    println!("\npaper: DArray/GAM latency grows with nodes (coherence + eviction overhead); BCL stays ≈2 µs; random writes cost more than reads (contention).");
    match write_bench_json_with_metrics("fig18", &[], &traffic) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig18.json: {e}"),
    }
}
