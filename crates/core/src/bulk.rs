//! Bulk range operations, built on the Pin interface: one pin per chunk
//! window amortizes the per-access atomics over whole ranges, which is how
//! the paper's applications scan arrays ("appropriate sequential access
//! scenarios", §4.1).

use dsim::Ctx;

use crate::array::DArray;
use crate::element::Element;
use crate::op::OpId;
use crate::pin::PinMode;

impl<T: Element> DArray<T> {
    /// Split `range` at chunk boundaries: each window lies inside one
    /// chunk, so one [`DArray::pin`] on its start covers all of it.
    pub fn windows(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        assert!(range.end <= self.len(), "range out of bounds");
        let chunk = self.chunk_size();
        let mut at = range.start;
        std::iter::from_fn(move || {
            let hi = (at - at % chunk + chunk).min(range.end);
            let w = at..hi;
            at = hi;
            (!w.is_empty()).then_some(w)
        })
    }

    /// Read `range` into a vector (chunk-pinned sequential reads).
    pub fn get_range(&self, ctx: &mut Ctx, range: std::ops::Range<usize>) -> Vec<T> {
        let mut out = Vec::with_capacity(range.len());
        for w in self.windows(range) {
            let p = self.pin(ctx, w.start, PinMode::Read);
            for i in w {
                out.push(p.get(ctx, i));
            }
        }
        out
    }

    /// Write values starting at `start` (chunk-pinned sequential writes).
    pub fn set_range(&self, ctx: &mut Ctx, start: usize, values: &[T]) {
        for w in self.windows(start..start + values.len()) {
            let p = self.pin(ctx, w.start, PinMode::Write);
            for i in w {
                p.set(ctx, i, values[i - start]);
            }
        }
    }

    /// Apply `op` with per-element operands starting at `start`
    /// (chunk-pinned combining).
    pub fn apply_range(&self, ctx: &mut Ctx, start: usize, op: OpId, operands: &[T]) {
        for w in self.windows(start..start + operands.len()) {
            let p = self.pin(ctx, w.start, PinMode::Operate(op));
            for i in w {
                p.apply(ctx, i, op, operands[i - start]);
            }
        }
    }

    /// Fold over `range` with chunk-pinned reads (avoids materializing the
    /// values).
    pub fn fold_range<A>(
        &self,
        ctx: &mut Ctx,
        range: std::ops::Range<usize>,
        init: A,
        mut f: impl FnMut(A, T) -> A,
    ) -> A {
        let mut acc = init;
        for w in self.windows(range) {
            let p = self.pin(ctx, w.start, PinMode::Read);
            for i in w {
                acc = f(acc, p.get(ctx, i));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::{ArrayOptions, Cluster, ClusterConfig};
    use dsim::{Sim, SimConfig};

    #[test]
    fn range_ops_roundtrip_across_chunks_and_nodes() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                if env.node == 0 {
                    // Spans chunk 0/1 boundary and the node 0/1 boundary.
                    let vals: Vec<u64> = (0..900).map(|i| i as u64 * 3).collect();
                    a.set_range(ctx, 300, &vals);
                }
                env.barrier(ctx);
                let got = a.get_range(ctx, 300..1200);
                for (k, v) in got.iter().enumerate() {
                    assert_eq!(*v, k as u64 * 3);
                }
                let sum = a.fold_range(ctx, 300..1200, 0u64, |acc, v| acc + v);
                assert_eq!(sum, (0..900).map(|i| i * 3).sum::<u64>());
            });
            cluster.shutdown(ctx);
        });
    }

    #[test]
    fn apply_range_combines_from_all_nodes() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let add = cluster.ops().register_add_u64();
            let arr = cluster.alloc::<u64>(1536, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                let ones = vec![1u64; 700];
                a.apply_range(ctx, 100, add, &ones);
                env.barrier(ctx);
                if env.node == 1 {
                    let got = a.get_range(ctx, 100..800);
                    assert!(got.iter().all(|&v| v == 3));
                    assert_eq!(a.get(ctx, 99), 0);
                    assert_eq!(a.get(ctx, 800), 0);
                }
            });
            cluster.shutdown(ctx);
        });
    }

    #[test]
    fn empty_and_single_element_ranges() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(1));
            let arr = cluster.alloc::<u64>(600, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                assert!(a.get_range(ctx, 5..5).is_empty());
                a.set_range(ctx, 599, &[42]);
                assert_eq!(a.get_range(ctx, 599..600), vec![42]);
            });
            cluster.shutdown(ctx);
        });
    }
}
