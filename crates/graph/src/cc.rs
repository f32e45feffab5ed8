//! Connected Components by min-label propagation over DArray, using the
//! `write_min` operator (§4.3) — the second graph application of §6.4.
//!
//! The propagation engine here is shared with BFS and SSSP: double-buffered
//! value arrays, a scatter phase that `apply`s `min` contributions along
//! edges, and a global convergence check through a small flag array.

use darray::{ArrayOptions, Cluster, Ctx, PinMode, VTime};

use crate::csr::EdgeList;
use crate::engine::{partition, run_double_buffered, Window};

/// Result of a propagation run (CC, BFS or SSSP).
pub struct PropagateResult {
    /// Virtual time of the iteration loop (max over nodes).
    pub elapsed: VTime,
    /// Final per-vertex values (labels or distances), gathered at node 0.
    pub values: Vec<u64>,
    /// Rounds until convergence.
    pub rounds: usize,
}

/// Generic min-propagation engine. `init(v)` seeds the value array;
/// `contrib(u, j, x)` is what vertex `u`, holding `x`, offers its `j`-th
/// out-neighbor (`None`: nothing). Each round seeds the next array with the
/// current one, scatters the contributions through `apply(min)` (combined
/// locally in the Operated state) and stops once no node's owned range
/// changed. With `pin`, every owned-range scan reads and writes through
/// chunk pins.
pub(crate) fn min_propagate_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    init: impl Fn(usize) -> u64 + Copy,
    contrib: impl Fn(usize, usize, u64) -> Option<u64> + Send + Sync + 'static,
    pin: bool,
) -> PropagateResult {
    let n = el.vertices;
    let nodes = cluster.config().nodes;
    let (locals, opts) = partition(el, nodes);
    let min = cluster.ops().register_min_u64();
    let a = cluster.alloc_with::<u64>(n, opts.clone(), init);
    let b = cluster.alloc_with::<u64>(n, opts, init);
    let flags = cluster.alloc::<u64>(nodes, ArrayOptions::default());
    let (elapsed, values, rounds) =
        run_double_buffered(ctx, cluster, locals, [a, b], move |ctx, env, g, arrs| {
            let fl = flags.on(env.node);
            let mut round = 0usize;
            loop {
                let (src, dst) = (&arrs[round % 2], &arrs[(round + 1) % 2]);
                // Seed dst with src (owner-local copy).
                for w in src.windows(g.owned.clone()) {
                    let s = Window::open(ctx, src, w.start, PinMode::Read, pin);
                    let d = Window::open(ctx, dst, w.start, PinMode::Write, pin);
                    for v in w {
                        let x = s.get(ctx, v);
                        d.set(ctx, v, x);
                    }
                }
                env.barrier(ctx);
                // Scatter min contributions along owned out-edges.
                for w in src.windows(g.owned.clone()) {
                    let s = Window::open(ctx, src, w.start, PinMode::Read, pin);
                    for u in w {
                        let x = s.get(ctx, u);
                        for (j, &v) in g.neighbors(u).iter().enumerate() {
                            if let Some(c) = contrib(u, j, x) {
                                dst.apply(ctx, v as usize, min, c);
                            }
                        }
                    }
                }
                env.barrier(ctx);
                // Local convergence check (reads recall outstanding combines).
                let mut changed = false;
                for w in src.windows(g.owned.clone()) {
                    let s = Window::open(ctx, src, w.start, PinMode::Read, pin);
                    let d = Window::open(ctx, dst, w.start, PinMode::Read, pin);
                    for v in w {
                        changed |= s.get(ctx, v) != d.get(ctx, v);
                    }
                }
                fl.set(ctx, env.node, changed as u64);
                env.barrier(ctx);
                let mut any = false;
                for i in 0..env.nodes {
                    any |= fl.get(ctx, i) != 0;
                }
                env.barrier(ctx);
                round += 1;
                if !any {
                    return round;
                }
                assert!(round <= n + 2, "propagation failed to converge");
            }
        });
    PropagateResult {
        elapsed,
        values,
        rounds,
    }
}

/// Distributed Connected Components: every vertex converges to the minimum
/// vertex id in its (undirected) component.
pub fn cc_darray(ctx: &mut Ctx, cluster: &Cluster, el: &EdgeList, pin: bool) -> PropagateResult {
    let sym = el.symmetrized();
    min_propagate_darray(ctx, cluster, &sym, |v| v as u64, |_, _, x| Some(x), pin)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::cc_ref;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    /// `run(pin)` on both variants: the Pin variant must return exactly the
    /// plain variant's values and round count, in less virtual time.
    pub(crate) fn assert_pin_matches_plain_and_is_faster(run: impl Fn(bool) -> PropagateResult) {
        let (plain, pinned) = (run(false), run(true));
        assert_eq!(pinned.values, plain.values);
        assert_eq!(pinned.rounds, plain.rounds);
        assert!(
            pinned.elapsed < plain.elapsed,
            "pin {} should beat plain {}",
            pinned.elapsed,
            plain.elapsed
        );
    }

    fn run_cc(nodes: usize, pin: bool) -> (PropagateResult, Vec<u64>) {
        let el = rmat(9, 2, 11);
        let want = cc_ref(&el);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(nodes));
            let r = cc_darray(ctx, &cluster, &el, pin);
            cluster.shutdown(ctx);
            r
        });
        (got, want)
    }

    #[test]
    fn cc_matches_reference_multi_node() {
        let (got, want) = run_cc(3, false);
        assert_eq!(got.values, want);
        assert!(got.rounds >= 1);
    }

    #[test]
    fn cc_pin_variant_matches() {
        let (got, want) = run_cc(2, true);
        assert_eq!(got.values, want);
    }

    #[test]
    fn cc_pin_matches_plain_and_is_faster() {
        assert_pin_matches_plain_and_is_faster(|pin| run_cc(2, pin).0);
    }

    #[test]
    fn cc_single_node_matches() {
        let (got, want) = run_cc(1, false);
        assert_eq!(got.values, want);
    }
}
