//! # darray — a high performance RDMA-based distributed array
//!
//! A from-scratch Rust reproduction of **DArray** (Ding, Han, Chen,
//! ICPP 2023): a distributed object array spanning a cluster of
//! RDMA-connected nodes, with
//!
//! * a rich object-granularity API — [`DArray::get`] / [`DArray::set`],
//!   distributed reader/writer locks, the **Operate** interface
//!   ([`DArray::apply`] with operators registered via
//!   [`Cluster::register_op`]), and the **Pin** hint ([`DArray::pin`]);
//! * a per-node **distributed cache** with a lock-free data access path
//!   (delay-flag + reference counting instead of locks), watermark-driven
//!   eviction with per-runtime-thread scanning pointers, and sequential
//!   prefetch;
//! * an **extended directory-based cache coherence protocol** with the
//!   four states *Unshared / Shared / Dirty / Operated*, where the new
//!   Operated state lets every node apply an associative+commutative
//!   operator concurrently, combining operands locally and reducing them
//!   at the chunk's home node;
//! * an RDMA communication layer: one-sided WRITE for data, two-sided
//!   SEND/RECV for protocol messages, optional dedicated Tx threads, and
//!   selective signaling (all modeled by the `rdma-fabric` crate).
//!
//! The cluster runs inside a deterministic `dsim` virtual-time simulation
//! (see `DESIGN.md` at the repository root for why and how). A minimal
//! program:
//!
//! ```
//! use darray::{ArrayOptions, Cluster, ClusterConfig};
//! use dsim::{Sim, SimConfig};
//!
//! Sim::new(SimConfig::default()).run(|ctx| {
//!     let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
//!     let add = cluster.ops().register_add_u64();
//!     let arr = cluster.alloc::<u64>(1024, ArrayOptions::default());
//!     cluster.run(ctx, 1, move |ctx, env| {
//!         let a = arr.on(env.node);
//!         // Every node increments every element once (combined locally,
//!         // reduced at each chunk's home node).
//!         for i in 0..a.len() {
//!             a.apply(ctx, i, add, 1);
//!         }
//!         env.barrier(ctx);
//!         // Reading recalls the Operated chunks and reduces them.
//!         if env.node == 0 {
//!             let mut sum = 0;
//!             for i in 0..a.len() {
//!                 sum += a.get(ctx, i);
//!             }
//!             assert_eq!(sum, (a.len() * a.nodes()) as u64);
//!         }
//!     });
//!     cluster.shutdown(ctx);
//! });
//! ```

mod array;
mod bulk;
mod cache;
mod cluster;
mod comm;
mod config;
mod dentry;
mod element;
mod error;
mod layout;
mod membership;
mod msg;
mod op;
mod pin;
mod placement;
pub mod protocol;
mod runtime;
mod shared;
mod state;
mod stats;
mod store;
mod trace;

pub use array::DArray;
pub use cache::PoolStats;
pub use cluster::{Cluster, GlobalArray, NodeEnv};
pub use config::{
    default_runtime_threads, AccessPath, ArrayOptions, CacheConfig, ClusterConfig,
    DurabilityConfig, FaultConfig, TransportKind, DEFAULT_CHUNK_SIZE,
};
pub use element::Element;
pub use error::{ConfigError, DArrayError, UnavailableKind};
pub use layout::Layout;
pub use membership::PeerHealth;
pub use msg::LockKind;
pub use op::{OpId, OpRegistry};
pub use pin::{PinMode, Pinned};
pub use state::{table1_rows, DirState, LocalState, Rights, Table1Row};
pub use stats::{NodeStats, NodeStatsSnapshot, StatClass};
pub use store::{
    CheckpointConfig, ChunkStore, DurabilityPolicy, LogChunkStore, RecoveredChunk, StoreStats,
};

// Re-export the substrate types callers need to configure a cluster.
pub use dsim::{Ctx, Sim, SimBarrier, SimConfig, VTime};
pub use rdma_fabric::{
    AsymmetricLoss, CostModel, FaultPlan, NetConfig, NodeId, Partition, SimTransport, TcpOptions,
    Transport, TransportStats, Wire,
};
#[cfg(feature = "tcp-transport")]
pub use rdma_fabric::{TcpFabric, TcpTransport};
