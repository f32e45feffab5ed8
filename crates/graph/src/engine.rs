//! The skeleton every DArray graph algorithm runs on (§5.1): vertex arrays
//! partitioned like the graph, one task per node, phases that scan the
//! node's owned vertices one chunk window at a time, and a node-0 gather of
//! the final values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{
    ArrayOptions, Cluster, Ctx, DArray, Element, GlobalArray, NodeEnv, PinMode, Pinned, VTime,
};
use parking_lot::Mutex;

use crate::csr::EdgeList;
use crate::local::LocalGraph;

/// Edge-balanced per-node subgraphs plus the array options that give the
/// vertex arrays the same homes.
pub(crate) fn partition(el: &EdgeList, nodes: usize) -> (Vec<LocalGraph>, ArrayOptions) {
    let (locals, offsets) = LocalGraph::partition_balanced(el, nodes);
    let opts = ArrayOptions {
        chunk_size: None,
        partition_offset: Some(offsets),
    };
    (locals, opts)
}

/// One chunk window of a vertex array as a phase reads and writes it:
/// through the array itself (plain variant) or through a pin on the
/// window's chunk (DArray-Pin variant, §6.4). Both issue the same element
/// accesses; the Pin variant pays the pinned path instead of the per-access
/// fast path.
pub(crate) enum Window<'a, T: Element> {
    Array(&'a DArray<T>),
    Pinned(Pinned<T>),
}

impl<'a, T: Element> Window<'a, T> {
    /// Open the window of `arr` that starts at `start`, pinned in `mode`
    /// when `pin` is set. Dropping the window unpins it.
    pub(crate) fn open(
        ctx: &mut Ctx,
        arr: &'a DArray<T>,
        start: usize,
        mode: PinMode,
        pin: bool,
    ) -> Self {
        if pin {
            Window::Pinned(arr.pin(ctx, start, mode))
        } else {
            Window::Array(arr)
        }
    }

    pub(crate) fn get(&self, ctx: &mut Ctx, index: usize) -> T {
        match self {
            Window::Array(a) => a.get(ctx, index),
            Window::Pinned(p) => p.get(ctx, index),
        }
    }

    pub(crate) fn set(&self, ctx: &mut Ctx, index: usize, value: T) {
        match self {
            Window::Array(a) => a.set(ctx, index, value),
            Window::Pinned(p) => p.set(ctx, index, value),
        }
    }
}

/// Run `rounds` on every node (one task each) over the double-buffered
/// vertex arrays `arrs`, then gather the final values at node 0. Round `r`
/// reads `arrs[r % 2]` and writes `arrs[(r + 1) % 2]`; `rounds` returns how
/// many rounds it ran. Returns the virtual time of the rounds (max over
/// nodes, excluding graph loading and the gather), the final values and the
/// round count.
pub(crate) fn run_double_buffered<T: Element>(
    ctx: &mut Ctx,
    cluster: &Cluster,
    locals: Vec<LocalGraph>,
    arrs: [GlobalArray<T>; 2],
    rounds: impl Fn(&mut Ctx, &NodeEnv, &LocalGraph, &[DArray<T>; 2]) -> usize + Send + Sync + 'static,
) -> (VTime, Vec<T>, usize) {
    let n = locals[0].vertices;
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new((Vec::new(), 0)));
    let (e2, o2) = (elapsed.clone(), out.clone());
    cluster.run(ctx, 1, move |ctx, env| {
        let g = &locals[env.node];
        let arrs = [arrs[0].on(env.node), arrs[1].on(env.node)];
        env.barrier(ctx);
        let t0 = ctx.now();
        let ran = rounds(ctx, &env, g, &arrs);
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        env.barrier(ctx);
        if env.node == 0 {
            let fin = &arrs[ran % 2];
            let values = (0..n).map(|i| fin.get(ctx, i)).collect();
            *o2.lock() = (values, ran);
        }
    });
    let (values, ran) = std::mem::take(&mut *out.lock());
    (elapsed.load(Ordering::Relaxed), values, ran)
}
