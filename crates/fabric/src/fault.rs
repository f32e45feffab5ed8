//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] attaches to a [`crate::Fabric`] at construction and
//! perturbs the wire behavior of every NIC, driven entirely by a seeded
//! [`dsim::Rng`]: the same plan (same seed) replays the exact same fault
//! schedule, bit for bit, which is what makes chaos-test failures
//! reproducible from a single `u64`.
//!
//! Injected fault classes:
//!
//! * **Latency jitter** — every remote SEND/WRITE serializes for an extra
//!   uniform `0..=jitter_ns` on its link. Jitter is added to the link's
//!   busy window (not to the arrival stamp alone), so per-link delivery
//!   stays monotone and RC FIFO ordering — which a WRITE followed by its
//!   notification SEND relies on for data-before-notification — is
//!   preserved.
//! * **NIC stalls** — with probability `stall_ppm` per remote verb, the
//!   posting NIC freezes: all its subsequent transmissions start no earlier
//!   than `now + stall_ns` (a uniform draw from the configured window).
//!   Models firmware hiccups / PFC pauses.
//! * **Message drops** — with probability `drop_ppm`, a two-sided SEND is
//!   transmitted but discarded by the receiver. The sender's per-link
//!   `link_error` latch is raised (the QP-error completion notification);
//!   one-sided WRITEs are never randomly dropped, so a retransmitted
//!   WRITE+SEND pair stays idempotent.
//! * **Node crashes** — at a scheduled virtual time a node halts: every
//!   remote verb from or to it is discarded from then on. Loopback
//!   (self-node) traffic still delivers, so a crashed node's local teardown
//!   (e.g. the `Halt` self-send that stops an Rx thread) keeps working.
//!   Messages already in flight at the crash instant still deliver; the
//!   crash closes the NIC, it does not rewrite history.
//! * **Partitions** — during a [`Partition`] window, two-sided SENDs
//!   between nodes in different groups are discarded deterministically (no
//!   RNG draw). The window heals on its own; nodes absent from every group
//!   are unaffected.
//! * **Asymmetric loss** — an [`AsymmetricLoss`] rule drops two-sided
//!   SENDs on one *direction* of one link with its own probability and
//!   time window, modelling a flaky cable or a congested switch port that
//!   degrades only one flow. The reverse direction is untouched.
//!
//! Partitions and asymmetric loss sever the **control plane only**: like
//! random drops, they discard two-sided SENDs but never one-sided WRITEs,
//! preserving the invariant that a retransmitted or replayed WRITE+SEND
//! pair stays idempotent (the data always lands; only the notification is
//! at risk).
//!
//! One-sided READ/FETCH_ADD/CMP_SWAP verbs are not perturbed — the DArray
//! protocol path (the subject of the chaos suite) uses WRITE+SEND only.

use dsim::VTime;

use crate::NodeId;

/// A temporary network partition: during `[from_ns, until_ns)`, two-sided
/// SENDs between nodes in *different* groups are discarded (deterministic,
/// no RNG draw — the same plan always severs the same messages). Nodes not
/// listed in any group keep full connectivity; traffic within a group is
/// unaffected. One-sided WRITEs cross the partition untouched (see the
/// module docs on control-plane-only severing).
#[derive(Debug, Clone)]
pub struct Partition {
    /// The disjoint connectivity groups. Cross-group pairs are severed.
    pub groups: Vec<Vec<NodeId>>,
    /// Partition start (inclusive), virtual ns.
    pub from_ns: VTime,
    /// Partition end (exclusive), virtual ns; the link heals at this time.
    pub until_ns: VTime,
}

impl Partition {
    /// True when the pair `(a, b)` is severed by this partition at `now`:
    /// the window is active and the two nodes sit in different groups.
    pub fn severs(&self, a: NodeId, b: NodeId, now: VTime) -> bool {
        if now < self.from_ns || now >= self.until_ns {
            return false;
        }
        let group_of = |n: NodeId| self.groups.iter().position(|g| g.contains(&n));
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) => ga != gb,
            _ => false,
        }
    }
}

/// Directional lossy link: two-sided SENDs from `from` to `to` are dropped
/// with probability `drop_ppm` during `[from_ns, until_ns)`. The reverse
/// direction is untouched, which is exactly the shape that provokes false
/// suspicion — `to` still hears nothing is wrong while `from`'s RPCs
/// toward it silently vanish (or vice versa).
#[derive(Debug, Clone)]
pub struct AsymmetricLoss {
    /// Sending side of the degraded direction.
    pub from: NodeId,
    /// Receiving side of the degraded direction.
    pub to: NodeId,
    /// Drop probability for matching SENDs, parts per million.
    pub drop_ppm: u32,
    /// Rule start (inclusive), virtual ns.
    pub from_ns: VTime,
    /// Rule end (exclusive), virtual ns; the link heals at this time.
    pub until_ns: VTime,
}

impl AsymmetricLoss {
    /// Drop probability (ppm) this rule applies to a SEND from `from` to
    /// `to` at `now`; 0 when the rule does not match.
    pub fn drop_ppm_for(&self, from: NodeId, to: NodeId, now: VTime) -> u32 {
        if self.from == from && self.to == to && now >= self.from_ns && now < self.until_ns {
            self.drop_ppm
        } else {
            0
        }
    }
}

/// Declarative, seed-driven fault schedule for a whole fabric.
///
/// The default plan is benign (no jitter, no stalls, no drops, no crashes);
/// a fabric built without a plan skips the fault paths entirely and behaves
/// bit-identically to a fault-free build.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Root seed. Each NIC derives its own decorrelated stream from it, so
    /// draw order is independent of cross-node interleaving.
    pub seed: u64,
    /// Maximum extra serialization per remote verb, ns (uniform
    /// `0..=jitter_ns`). 0 disables jitter.
    pub jitter_ns: VTime,
    /// Probability, in parts per million, that a remote two-sided SEND is
    /// dropped after transmission. 0 disables drops.
    pub drop_ppm: u32,
    /// Probability, in parts per million, that a remote verb stalls the
    /// posting NIC. 0 disables stalls.
    pub stall_ppm: u32,
    /// Stall duration window `[min, max]` ns, drawn uniformly per stall.
    pub stall_ns: (VTime, VTime),
    /// Scheduled whole-node crashes: `(node, halt_time)`. A node listed
    /// more than once crashes at the earliest of its times.
    pub crash_at: Vec<(NodeId, VTime)>,
    /// Timed network partitions (deterministic, no RNG); empty disables.
    pub partitions: Vec<Partition>,
    /// Directional lossy-link rules; empty disables. Each matching SEND
    /// costs one extra RNG draw *after* the fixed stall/jitter/drop draws,
    /// so plans without rules replay bit-identically to older plans.
    pub asym_loss: Vec<AsymmetricLoss>,
}

impl FaultPlan {
    /// A benign plan carrying only a seed; switch individual fault classes
    /// on by setting their fields.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            jitter_ns: 0,
            drop_ppm: 0,
            stall_ppm: 0,
            stall_ns: (0, 0),
            crash_at: Vec::new(),
            partitions: Vec::new(),
            asym_loss: Vec::new(),
        }
    }

    /// True when the plan injects no faults at all (a bare seed). Only a
    /// benign plan can run over a real transport backend: fault injection
    /// is a property of the simulated fabric, not of OS sockets.
    pub fn is_benign(&self) -> bool {
        self.jitter_ns == 0
            && self.drop_ppm == 0
            && self.stall_ppm == 0
            && self.crash_at.is_empty()
            && self.partitions.is_empty()
            && self.asym_loss.is_empty()
    }

    /// Crash time of `node` under this plan, if any.
    pub fn crash_time_of(&self, node: NodeId) -> Option<VTime> {
        self.crash_at
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|&(_, t)| t)
            .min()
    }

    /// True when any partition severs the pair `(a, b)` at `now`.
    pub fn partitioned(&self, a: NodeId, b: NodeId, now: VTime) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b, now))
    }

    /// Highest asymmetric-loss drop probability (ppm) matching a SEND from
    /// `from` to `to` at `now`; 0 when no rule matches.
    pub fn asym_drop_ppm(&self, from: NodeId, to: NodeId, now: VTime) -> u32 {
        self.asym_loss
            .iter()
            .map(|r| r.drop_ppm_for(from, to, now))
            .max()
            .unwrap_or(0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        let p = FaultPlan::default();
        assert_eq!(p.jitter_ns, 0);
        assert_eq!(p.drop_ppm, 0);
        assert_eq!(p.stall_ppm, 0);
        assert!(p.crash_at.is_empty());
        assert_eq!(p.crash_time_of(0), None);
    }

    #[test]
    fn crash_time_takes_earliest_entry() {
        let mut p = FaultPlan::new(1);
        p.crash_at = vec![(2, 900), (1, 500), (2, 300)];
        assert_eq!(p.crash_time_of(2), Some(300));
        assert_eq!(p.crash_time_of(1), Some(500));
        assert_eq!(p.crash_time_of(0), None);
    }

    #[test]
    fn partition_severs_cross_group_pairs_inside_window() {
        let mut p = FaultPlan::new(1);
        p.partitions = vec![Partition {
            groups: vec![vec![0, 1], vec![2]],
            from_ns: 1_000,
            until_ns: 2_000,
        }];
        // Outside the window: connected.
        assert!(!p.partitioned(0, 2, 999));
        assert!(!p.partitioned(0, 2, 2_000));
        // Inside: cross-group severed both ways, intra-group connected.
        assert!(p.partitioned(0, 2, 1_000));
        assert!(p.partitioned(2, 1, 1_500));
        assert!(!p.partitioned(0, 1, 1_500));
        // A node listed in no group keeps full connectivity.
        assert!(!p.partitioned(0, 3, 1_500));
        assert!(!p.partitioned(3, 2, 1_500));
    }

    #[test]
    fn asym_loss_matches_one_direction_in_window() {
        let mut p = FaultPlan::new(1);
        p.asym_loss = vec![AsymmetricLoss {
            from: 0,
            to: 2,
            drop_ppm: 700_000,
            from_ns: 500,
            until_ns: 1_500,
        }];
        assert_eq!(p.asym_drop_ppm(0, 2, 1_000), 700_000);
        // Reverse direction, other pairs, and out-of-window: no rule.
        assert_eq!(p.asym_drop_ppm(2, 0, 1_000), 0);
        assert_eq!(p.asym_drop_ppm(0, 1, 1_000), 0);
        assert_eq!(p.asym_drop_ppm(0, 2, 499), 0);
        assert_eq!(p.asym_drop_ppm(0, 2, 1_500), 0);
    }

    #[test]
    fn overlapping_asym_rules_take_the_harshest() {
        let mut p = FaultPlan::new(1);
        let rule = |ppm| AsymmetricLoss {
            from: 1,
            to: 0,
            drop_ppm: ppm,
            from_ns: 0,
            until_ns: u64::MAX,
        };
        p.asym_loss = vec![rule(100_000), rule(900_000)];
        assert_eq!(p.asym_drop_ppm(1, 0, 10), 900_000);
    }
}
