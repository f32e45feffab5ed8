//! # darray-graph — distributed graph analytics (§5.1)
//!
//! "To port a single-machine graph analytics engine to a distributed one,
//! we could simply replace the built-in arrays with our DArray ... and
//! reuse the computation engine and task scheduling components."
//!
//! This crate provides:
//!
//! * [`mod@rmat`] — the Graph500 R-MAT generator (the paper evaluates on
//!   rMat24: 2²⁴ vertices, 2²⁶ edges; the harness defaults to smaller
//!   scales, same structure);
//! * [`csr`] — compressed sparse row graphs;
//! * [`local`] — per-node subgraphs (each node owns a chunk-aligned vertex
//!   range and the out-edges of its owned vertices);
//! * [`pagerank`] / [`cc`] / [`bfs`] / [`sssp`] — PageRank, Connected
//!   Components, BFS and weighted single-source shortest paths (an
//!   extension) over DArray, in plain and Pin-optimized variants (Figure
//!   8's pattern: `apply(dst, op, contribution)` with local combining).
//!   All four share one skeleton — double-buffered vertex arrays, phases
//!   that scan each node's owned vertices chunk window by chunk window, a
//!   node-0 gather — and each phase has one loop body, whose windows the
//!   Pin variant reads and writes through chunk pins. CC, BFS and SSSP
//!   differ only in seed values and a per-edge contribution closure on
//!   the min-propagation engine in [`cc`];
//! * [`gam_engine`] — the same algorithms ported to the GAM baseline
//!   (Atomic-verb neighbor updates under exclusive ownership);
//! * [`gemini`] — a Gemini-style bulk-synchronous message-passing baseline
//!   engine (dense-mode partition-aggregated delta exchange with a global
//!   barrier per superstep);
//! * [`mod@reference`] — single-threaded reference implementations used by the
//!   test suite.

pub mod bfs;
pub mod cc;
pub mod csr;
mod engine;
pub mod gam_engine;
pub mod gemini;
pub mod local;
pub mod pagerank;
pub mod reference;
pub mod rmat;
pub mod sssp;

pub use csr::{Csr, EdgeList};
pub use local::LocalGraph;
pub use rmat::rmat;
