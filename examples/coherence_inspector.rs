//! A tour of the extended cache coherence protocol (§4.4): drive one chunk
//! through Unshared → Shared → Dirty → Operated → Unshared and print the
//! per-node statistics showing each transition's traffic.
//!
//! Run with: `cargo run --release --example coherence_inspector`

use darray::{table1_rows, ArrayOptions, Cluster, ClusterConfig, Sim, SimConfig};

fn main() {
    // Table 1, straight from the protocol implementation.
    println!("protocol states (Table 1):");
    for r in table1_rows() {
        println!(
            "  {:<9} home={:<6} others={:<5} exclusive={}",
            r.state,
            r.home.to_string(),
            r.others.to_string(),
            if r.exclusive { "yes" } else { "no" }
        );
    }
    println!();

    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(3));
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(3 * 512, ArrayOptions::default());
        let snap = |cluster: &Cluster, tag: &str| {
            let mut line = format!("{tag:<28}");
            for n in 0..3 {
                let s = cluster.stats(n);
                line += &format!(
                    " | n{n}: fills={:<2} inval={:<2} wb={:<2} flush={:<2} frames={:<3}",
                    s.fills, s.invalidations, s.writebacks, s.operand_flushes, s.frames
                );
            }
            println!("{line}");
        };

        // Element 0 lives in chunk 0, homed on node 0 (Unshared initially).
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Phase 1: everyone reads -> Shared everywhere.
            let _ = a.get(ctx, 0);
            env.barrier(ctx);
            // Phase 2: node 2 writes -> invalidations, then Dirty at node 2.
            if env.node == 2 {
                a.set(ctx, 0, 99);
            }
            env.barrier(ctx);
            // Phase 3: everyone applies -> recall of the dirty copy, then
            // the Operated state with local combining on all three nodes.
            a.apply(ctx, 0, add, 1);
            env.barrier(ctx);
            // Phase 4: node 1 reads -> operand flushes + reduction at home,
            // back to Unshared/Shared; the value is 99 + 3.
            if env.node == 1 {
                assert_eq!(a.get(ctx, 0), 102);
            }
        });
        snap(&cluster, "after full protocol tour:");
        println!("\n(The Shared->Dirty write invalidated two sharers; the apply recalled the\n dirty copy; the final read recalled three Operated copies and reduced them.)");
        cluster.shutdown(ctx);
    });
}
