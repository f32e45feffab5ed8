//! The migration world: elastic re-homing under crashes (DESIGN.md §15).
//!
//! Three nodes: the **source** home (node 0), the **target** home (node 1 —
//! a freshly joined node, so its machine starts cold exactly as
//! `Cluster::join_peer` brings it up), and one **requester** (node 2)
//! issuing Read/Write traffic against whichever home its home-map view
//! names. [`Migration`] drives one `BeginMigration` through every
//! interleaving of requests, recalls, transfers, acks, commits, persists
//! and **kills of source, target, or requester** (with every surviving
//! prefix of the victim's in-flight messages), and checks the two §15
//! theorems in every reachable state:
//!
//! * **single authority** — the source (alive, not departed) and the
//!   target (alive, adopted) are never simultaneously authoritative;
//! * **no acked write lost** (durable mode) — every value whose persist
//!   the protocol acknowledged is recoverable: it lives in a live
//!   authoritative home's image, or best-epoch-wins log replay would
//!   restore it. The migration fence (`mig_epoch` burned as a persist
//!   sequence) is exactly what makes the target's log outrank the
//!   source's here.

use std::collections::{BTreeSet, VecDeque};

use darray::protocol::{
    Counter, HomeAction, HomeEvent, HomeMachine, Kind, Request, Requester, NOTAG,
};
use darray::LocalState;

use super::coherence::{satisfied, App};
use super::{Check, Model, Search};

/// Node ids: source home, target home (the joiner), requester.
const SRC: usize = 0;
const TGT: usize = 1;
const REQ: usize = 2;

/// One in-flight message on a migration-world link. Data-bearing
/// messages (`Fill`, `Writeback`, `MigData`) carry the value their
/// one-sided RDMA WRITE lands at delivery time — RC FIFO makes the
/// write visible exactly when the trailing notification is consumed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    Req { kind: Kind },
    FwdReq { node: usize, kind: Kind },
    Fill { exclusive: bool, val: u64 },
    Inv,
    RecallDirty,
    InvAck,
    EvictNotice,
    Writeback { val: u64 },
    MigData { epoch: u64, val: u64 },
    MigAck { epoch: u64 },
    MigCommit { epoch: u64 },
    HomeMoved { new_home: usize, epoch: u64 },
    Down { dead: usize },
}

/// One home node of the migration world.
#[derive(Debug, Clone, Hash)]
struct MHome {
    m: HomeMachine<u32>,
    dentry: (LocalState, u32),
    draining: bool,
    /// `AdoptChunk` fired: this node is the chunk's authoritative home.
    adopted: bool,
    /// `DepartChunk` fired: this node is a former home.
    departed: bool,
    knows_dead: [bool; 3],
    view_epoch: u64,
}

impl MHome {
    fn fresh() -> Self {
        MHome {
            m: HomeMachine::new(),
            dentry: (LocalState::Invalid, NOTAG),
            draining: false,
            adopted: false,
            departed: false,
            knows_dead: [false; 3],
            view_epoch: 0,
        }
    }
}

#[derive(Debug, Clone, Hash)]
pub struct MigWorld {
    homes: [Option<MHome>; 2],
    // The requester's minimal cache: one line, one app slot.
    r_alive: bool,
    r_state: LocalState,
    r_val: u64,
    r_dirty: bool,
    /// The requester's home-map view of the chunk (`home_on`).
    r_home: usize,
    r_home_epoch: u64,
    r_knows_dead: [bool; 2],
    r_app: App,
    /// A protocol request is outstanding: the requester's dentry is
    /// in-flight, so the runtime parks retries on the pending fill
    /// instead of issuing a duplicate request.
    r_inflight: bool,
    r_req_budget: u8,
    r_evict_budget: u8,
    /// Home images (the chunk's home slot per node).
    img: [u64; 2],
    /// Durable log per home: highest `(seq, value)` record. `(0, 0)` is
    /// the empty log (the initial image is value 0 at epoch 0).
    log: [(u64, u64); 2],
    /// A `PersistChunk` accepted but not yet completed: `(seq, value
    /// captured at emission)`.
    pending_persist: [Option<(u64, u64)>; 2],
    /// FIFO links, indexed by [from][to] over {SRC, TGT, REQ}; the
    /// diagonal is unused.
    links: [[VecDeque<Msg>; 3]; 3],
    /// `BeginMigration` not yet injected.
    mig_pending: bool,
    kill_budget: u8,
    durable: bool,
    /// Monotone value generator for requester writes.
    next_val: u64,
    /// Highest value whose persist the protocol acknowledged.
    acked_val: u64,
}

impl MigWorld {
    fn new(req_budget: u8, evict_budget: u8, kills: u8, durable: bool) -> Self {
        let mut src = MHome::fresh();
        src.dentry = (LocalState::Exclusive, NOTAG);
        let mut tgt = MHome::fresh();
        if durable {
            src.m.set_durable(true);
            tgt.m.set_durable(true);
        }
        MigWorld {
            homes: [Some(src), Some(tgt)],
            r_alive: true,
            r_state: LocalState::Invalid,
            r_val: 0,
            r_dirty: false,
            r_home: SRC,
            r_home_epoch: 0,
            r_knows_dead: [false; 2],
            r_app: App::Idle,
            r_inflight: false,
            r_req_budget: req_budget,
            r_evict_budget: evict_budget,
            img: [0, 0],
            log: [(0, 0), (0, 0)],
            pending_persist: [None, None],
            links: Default::default(),
            mig_pending: true,
            kill_budget: kills,
            durable,
            next_val: 1,
            acked_val: 0,
        }
    }

    fn alive(&self, node: usize) -> bool {
        match node {
            REQ => self.r_alive,
            h => self.homes[h].is_some(),
        }
    }
}

/// The migration model's coverage tallies, kept outside the memoized
/// [`MigWorld`].
#[derive(Default)]
pub struct Migration {
    /// `(victim, survivor transient name)` at each `Down` consumption.
    pub kill_phases: BTreeSet<(&'static str, &'static str)>,
    /// Quiescent states where the migration fully committed.
    pub completed: usize,
    /// Quiescent states where the source re-assumed after a target death.
    pub aborted: usize,
    pub migrations_out: usize,
    pub migrations_in: usize,
    pub parked_replays: usize,
    pub forwards: usize,
}

/// One atomic step of the migration world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tr {
    Deliver {
        from: usize,
        to: usize,
    },
    DrainHome(usize),
    PersistDone(usize),
    BeginMigration,
    AppReq(Kind),
    /// Fast-path write on an already-Exclusive requester line.
    WriteHit,
    Evict,
    Kill {
        victim: usize,
        keep: [usize; 2],
        flush_disk: bool,
    },
}

/// The two outgoing links of `victim`, in `keep[]` order.
fn out_links(victim: usize) -> [(usize, usize); 2] {
    match victim {
        SRC => [(SRC, TGT), (SRC, REQ)],
        TGT => [(TGT, SRC), (TGT, REQ)],
        _ => [(REQ, SRC), (REQ, TGT)],
    }
}

impl Model for Migration {
    type State = MigWorld;
    type Tr = Tr;
    const TITLE: &'static str = "MIGRATION MODEL CHECK";

    fn internal(&self, w: &MigWorld) -> Vec<Tr> {
        let mut out = Vec::new();
        for from in 0..3 {
            for to in 0..3 {
                if from != to && w.alive(to) && !w.links[from][to].is_empty() {
                    out.push(Tr::Deliver { from, to });
                }
            }
        }
        for h in 0..2 {
            if let Some(home) = &w.homes[h] {
                if home.draining {
                    out.push(Tr::DrainHome(h));
                }
                if w.pending_persist[h].is_some() {
                    out.push(Tr::PersistDone(h));
                }
            }
        }
        out
    }

    fn external(&self, w: &MigWorld) -> Vec<Tr> {
        let mut out = Vec::new();
        if w.mig_pending && w.homes[SRC].is_some() {
            out.push(Tr::BeginMigration);
        }
        if w.r_alive
            && w.r_app == App::Idle
            && w.r_req_budget > 0
            && !w.r_inflight
            && !w.r_knows_dead[w.r_home]
        {
            for kind in [Kind::Read, Kind::Write] {
                if !satisfied(w.r_state, NOTAG, kind) {
                    out.push(Tr::AppReq(kind));
                }
            }
            if w.r_state == LocalState::Exclusive {
                out.push(Tr::WriteHit);
            }
        }
        if w.r_alive
            && w.r_evict_budget > 0
            && matches!(w.r_state, LocalState::Shared | LocalState::Exclusive)
        {
            out.push(Tr::Evict);
        }
        if w.kill_budget > 0 {
            for victim in 0..3 {
                if !w.alive(victim) {
                    continue;
                }
                let [l0, l1] = out_links(victim);
                for k0 in 0..=w.links[l0.0][l0.1].len() {
                    for k1 in 0..=w.links[l1.0][l1.1].len() {
                        out.push(Tr::Kill {
                            victim,
                            keep: [k0, k1],
                            flush_disk: false,
                        });
                        if victim < 2 && w.pending_persist[victim].is_some() {
                            out.push(Tr::Kill {
                                victim,
                                keep: [k0, k1],
                                flush_disk: true,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn label(&self, w: &MigWorld, tr: Tr) -> String {
        let name = |n: usize| match n {
            SRC => "src",
            TGT => "tgt",
            _ => "req",
        };
        match tr {
            Tr::Deliver { from, to } => format!(
                "deliver {}->{}: {:?}",
                name(from),
                name(to),
                w.links[from][to].front().unwrap()
            ),
            Tr::DrainHome(h) => format!("{} home drain completes", name(h)),
            Tr::PersistDone(h) => format!(
                "{} disk completes persist {:?}",
                name(h),
                w.pending_persist[h].unwrap()
            ),
            Tr::BeginMigration => "BeginMigration(src -> tgt) injected".to_string(),
            Tr::AppReq(k) => format!("req app requests {k:?} from {}", name(w.r_home)),
            Tr::WriteHit => "req fast-path write (Exclusive hit)".to_string(),
            Tr::Evict => "eviction scan hits req".to_string(),
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => format!(
                "KILL {} (kept prefixes {keep:?}, pending persist {})",
                name(victim),
                if flush_disk { "flushed" } else { "lost" }
            ),
        }
    }

    fn apply(&mut self, w: &mut MigWorld, tr: Tr) -> Check {
        match tr {
            Tr::Deliver { from, to } => {
                let msg = w.links[from][to].pop_front().unwrap();
                if to == REQ {
                    self.deliver_to_req(w, from, msg)?;
                } else {
                    self.deliver_to_home(w, to, from, msg)?;
                }
            }
            Tr::DrainHome(h) => {
                w.homes[h].as_mut().unwrap().draining = false;
                self.run_home(w, h, HomeEvent::Drained)?;
            }
            Tr::PersistDone(h) => {
                let (seq, val) = w.pending_persist[h].take().unwrap();
                if seq > w.log[h].0 {
                    w.log[h] = (seq, val);
                }
                // Record the acknowledgement for the no-lost-write theorem
                // *before* the protocol resumes, mirroring the machine's
                // own completion checks.
                let awaited = match w.homes[h].as_ref().unwrap().m.transient() {
                    darray::protocol::Transient::AwaitPersist { seq: s } => seq >= *s,
                    darray::protocol::Transient::MigratingIn {
                        mig_epoch,
                        phase: darray::protocol::MigInPhase::Persist,
                        ..
                    } => seq >= *mig_epoch,
                    _ => false,
                };
                if awaited {
                    w.acked_val = w.acked_val.max(val);
                }
                self.run_home(w, h, HomeEvent::PersistDone { seq })?;
            }
            Tr::BeginMigration => {
                w.mig_pending = false;
                self.run_home(w, SRC, HomeEvent::BeginMigration { to: TGT })?;
            }
            Tr::AppReq(kind) => {
                w.r_app = App::Waiting(kind);
                w.r_req_budget -= 1;
                w.r_inflight = true;
                let home = w.r_home;
                if w.alive(home) {
                    w.links[REQ][home].push_back(Msg::Req { kind });
                }
            }
            Tr::WriteHit => {
                w.r_req_budget -= 1;
                w.r_val = w.next_val;
                w.next_val += 1;
                w.r_dirty = true;
            }
            Tr::Evict => {
                w.r_evict_budget -= 1;
                let val = w.r_val;
                let state = w.r_state;
                w.r_state = LocalState::Invalid;
                w.r_dirty = false;
                // Evict notices go to the node the requester believes is
                // home; a migration recall crossing with this is exactly
                // the race the protocol must absorb. An Exclusive line is
                // the directory's Dirty owner whether or not it was
                // actually written, so its eviction is always a writeback.
                let home = w.r_home;
                if w.alive(home) {
                    if state == LocalState::Exclusive {
                        w.links[REQ][home].push_back(Msg::Writeback { val });
                    } else {
                        w.links[REQ][home].push_back(Msg::EvictNotice);
                    }
                }
            }
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => {
                w.kill_budget -= 1;
                if victim < 2 {
                    if let Some((seq, val)) = w.pending_persist[victim].take() {
                        if flush_disk && seq > w.log[victim].0 {
                            w.log[victim] = (seq, val);
                        }
                    }
                    w.homes[victim] = None;
                } else {
                    w.r_alive = false;
                    w.r_state = LocalState::Invalid;
                    w.r_dirty = false;
                    w.r_app = App::Idle;
                    w.r_inflight = false;
                    w.r_req_budget = 0;
                    w.r_evict_budget = 0;
                }
                // Inbound links to the corpse are never consumed.
                for from in 0..3 {
                    if from != victim {
                        w.links[from][victim].clear();
                    }
                }
                // Outgoing links: an arbitrary prefix survives, then the
                // quorum-confirmed Down marker (always last, FIFO).
                for (i, (from, to)) in out_links(victim).into_iter().enumerate() {
                    w.links[from][to].truncate(keep[i]);
                    if w.alive(to) {
                        w.links[from][to].push_back(Msg::Down { dead: victim });
                    } else {
                        w.links[from][to].clear();
                    }
                }
            }
        }
        Ok(())
    }

    /// §15 safety, checked in every reachable state.
    fn check_safety(&mut self, w: &MigWorld) -> Check {
        let src_auth = w.homes[SRC]
            .as_ref()
            .is_some_and(|h| h.m.migrated_to().is_none() && !h.departed);
        let tgt_auth = w.homes[TGT].as_ref().is_some_and(|h| h.adopted);
        if src_auth && tgt_auth {
            return Err("two homes simultaneously authoritative".into());
        }
        // Executor/machine agreement on departure.
        if let Some(h) = &w.homes[SRC] {
            if h.departed != h.m.migrated_to().is_some() {
                return Err("departed flag out of sync with migrated_to".into());
            }
        }
        // No acked write lost (durable): the newest acknowledged value is
        // recoverable — in a live authoritative home's image, or in the
        // log record best-epoch-wins replay would pick.
        if w.durable {
            let recoverable = if src_auth {
                w.img[SRC]
            } else if tgt_auth {
                w.img[TGT]
            } else if w.log[TGT].0 >= w.log[SRC].0 {
                w.log[TGT].1
            } else {
                w.log[SRC].1
            };
            if recoverable < w.acked_val {
                return Err(format!(
                    "acked write lost: acked value {} but only {recoverable} recoverable",
                    w.acked_val
                ));
            }
        }
        Ok(())
    }

    /// Liveness at quiescence: nothing parked forever.
    fn check_quiescence(&mut self, w: &MigWorld) -> Check {
        if w.r_alive && matches!(w.r_app, App::Waiting(_)) {
            return Err("requester app parked forever at quiescence".into());
        }
        for h in 0..2 {
            if let Some(home) = &w.homes[h] {
                if !home.m.transient().is_none() {
                    return Err(format!("home {h} transient pending at quiescence"));
                }
                if home.m.pending_len() != 0 {
                    return Err(format!(
                        "home {h} still holds parked requests at quiescence"
                    ));
                }
            }
        }
        let departed = w.homes[SRC].as_ref().is_some_and(|h| h.departed);
        let adopted = w.homes[TGT].as_ref().is_some_and(|h| h.adopted);
        if departed && adopted {
            self.completed += 1;
        }
        // A target death must leave the source authoritative again.
        if w.homes[TGT].is_none() && !w.mig_pending {
            if let Some(src) = &w.homes[SRC] {
                if src.m.migrated_to().is_none() {
                    self.aborted += 1;
                }
            }
        }
        Ok(())
    }

    fn coverage(&self) -> String {
        format!(
            "completed={} aborted={} migrations_out={} migrations_in={} parked_replays={} \
             forwards={} kill_phases={:?}",
            self.completed,
            self.aborted,
            self.migrations_out,
            self.migrations_in,
            self.parked_replays,
            self.forwards,
            self.kill_phases,
        )
    }
}

impl Migration {
    /// Feed one event to home `h`'s machine and execute its actions.
    fn run_home(&mut self, w: &mut MigWorld, h: usize, ev: HomeEvent<u32>) -> Check {
        let actions = w.homes[h].as_mut().unwrap().m.on_event(0, 0, ev);
        for a in actions {
            match a {
                HomeAction::ChargeDirUpdate | HomeAction::Trace(_) => {}
                HomeAction::Wake(_) => return Err("home woke a local waiter (none modeled)".into()),
                HomeAction::SendFill { to, exclusive, .. } => {
                    let val = w.img[h];
                    self.send(w, h, to, Msg::Fill { exclusive, val })?;
                }
                HomeAction::SendInvalidate { to } => self.send(w, h, to, Msg::Inv)?,
                HomeAction::SendRecallDirty { to } => self.send(w, h, to, Msg::RecallDirty)?,
                HomeAction::SendGrant { .. }
                | HomeAction::SendDowngrade { .. }
                | HomeAction::SendRecallOperated { .. }
                | HomeAction::ApplyFlushData { .. } => {
                    return Err("unreachable action for a Read/Write-only world".into())
                }
                HomeAction::SetHomeLocal { state, tag } => {
                    w.homes[h].as_mut().unwrap().dentry = (state, tag);
                }
                HomeAction::StartHomeDrain { target, tag } => {
                    let home = w.homes[h].as_mut().unwrap();
                    if home.draining {
                        return Err("overlapping home drains".into());
                    }
                    home.dentry = (target, tag);
                    home.draining = true;
                }
                HomeAction::ScheduleRetry { .. } => {
                    return Err("grace retry scheduled with grace=0".into())
                }
                HomeAction::PersistChunk { seq } => {
                    if !w.durable {
                        return Err("non-durable machine emitted PersistChunk".into());
                    }
                    if w.pending_persist[h].is_some() {
                        return Err("two persists pending at once".into());
                    }
                    w.pending_persist[h] = Some((seq, w.img[h]));
                }
                HomeAction::TransferChunk { to, mig_epoch } => {
                    if h != SRC || to != TGT {
                        return Err("transfer outside the modeled migration".into());
                    }
                    let val = w.img[SRC];
                    self.send(
                        w,
                        SRC,
                        TGT,
                        Msg::MigData {
                            epoch: mig_epoch,
                            val,
                        },
                    )?;
                }
                HomeAction::SendMigrateAck { to, mig_epoch } => {
                    // §15 persist-before-ack: a durable target may only ack
                    // the hand-off once its log holds the transferred image
                    // at (or past) the fence epoch.
                    if w.durable && w.log[TGT].0 < mig_epoch {
                        return Err(
                            "durable target acked the hand-off before logging the image".into()
                        );
                    }
                    self.send(w, h, to, Msg::MigAck { epoch: mig_epoch })?;
                }
                HomeAction::SendMigrateCommit { to, mig_epoch } => {
                    self.send(w, h, to, Msg::MigCommit { epoch: mig_epoch })?;
                }
                HomeAction::DepartChunk { to, mig_epoch } => {
                    if h != SRC || to != TGT {
                        return Err("departure outside the modeled migration".into());
                    }
                    w.homes[h].as_mut().unwrap().departed = true;
                    // HomeMoved broadcast (the runtime's broadcast_home_moved).
                    if w.r_alive {
                        w.links[h][REQ].push_back(Msg::HomeMoved {
                            new_home: TGT,
                            epoch: mig_epoch,
                        });
                    }
                }
                HomeAction::AdoptChunk { mig_epoch } => {
                    if h != TGT {
                        return Err("adoption outside the modeled migration".into());
                    }
                    let home = w.homes[h].as_mut().unwrap();
                    home.adopted = true;
                    home.dentry = (LocalState::Exclusive, NOTAG);
                    if w.r_alive {
                        w.links[h][REQ].push_back(Msg::HomeMoved {
                            new_home: TGT,
                            epoch: mig_epoch,
                        });
                    }
                }
                HomeAction::ForwardRequest { to, node, kind, .. } => {
                    self.forwards += 1;
                    // Fire-and-forget: the former home forwards without a
                    // liveness check; a forward to a corpse is lost and the
                    // requester's timeout surfaces the unavailability.
                    if w.alive(to) {
                        w.links[h][to].push_back(Msg::FwdReq { node, kind });
                    }
                    // HomeMoved redirect to the original requester.
                    let (new_home, epoch) = match w.homes[h].as_ref().unwrap().m.migrated_to() {
                        Some((n, e)) => (n, e),
                        None => return Err("forward from a non-departed home".into()),
                    };
                    if node == REQ && w.r_alive {
                        w.links[h][REQ].push_back(Msg::HomeMoved { new_home, epoch });
                    }
                }
                HomeAction::Count(c) => match c {
                    Counter::MigrationsOut => self.migrations_out += 1,
                    Counter::MigrationsIn => self.migrations_in += 1,
                    Counter::ParkedReplays => self.parked_replays += 1,
                    _ => {}
                },
            }
        }
        Ok(())
    }

    /// Send a directory message from home `h`. Sends to a node the home has
    /// already declared dead are recovery bugs (`forget_peer`'s contract).
    fn send(&mut self, w: &mut MigWorld, from: usize, to: usize, msg: Msg) -> Check {
        if w.homes[from].as_ref().unwrap().knows_dead[to] {
            return Err(format!(
                "home {from} sent {msg:?} to node {to} it knows is dead"
            ));
        }
        if w.alive(to) {
            w.links[from][to].push_back(msg);
        }
        // else: lost in flight; the kill's prefix truncation modeled it.
        Ok(())
    }

    fn deliver_to_home(&mut self, w: &mut MigWorld, h: usize, from: usize, msg: Msg) -> Check {
        let ev: HomeEvent<u32> = match msg {
            Msg::Req { kind } => HomeEvent::Request(Request {
                source: Requester::Remote {
                    node: from,
                    dst_off: 0,
                },
                kind,
            }),
            Msg::FwdReq { node, kind } => HomeEvent::Request(Request {
                source: Requester::Remote { node, dst_off: 0 },
                kind,
            }),
            Msg::InvAck => HomeEvent::InvAck { from },
            Msg::EvictNotice => HomeEvent::EvictNotice { from },
            Msg::Writeback { val } => {
                // The writeback's RDMA WRITE lands in the home image first.
                w.img[h] = val;
                HomeEvent::Writeback {
                    from,
                    downgrade: false,
                }
            }
            Msg::MigData { epoch, val } => {
                w.img[h] = val;
                HomeEvent::MigrateData {
                    from,
                    mig_epoch: epoch,
                }
            }
            Msg::MigAck { epoch } => HomeEvent::MigrateAck {
                from,
                mig_epoch: epoch,
            },
            Msg::MigCommit { epoch } => HomeEvent::MigrateCommit {
                from,
                mig_epoch: epoch,
            },
            Msg::Down { dead } => {
                let home = w.homes[h].as_mut().unwrap();
                home.knows_dead[dead] = true;
                let epoch = home.view_epoch + 1;
                home.view_epoch = epoch;
                let victim = match dead {
                    SRC => "src",
                    TGT => "tgt",
                    _ => "req",
                };
                let phase = home.m.transient().name();
                self.kill_phases.insert((victim, phase));
                HomeEvent::PeerDown {
                    dead,
                    view_epoch: epoch,
                }
            }
            Msg::Fill { .. } | Msg::Inv | Msg::RecallDirty | Msg::HomeMoved { .. } => {
                return Err("home received a remote-only message".into())
            }
        };
        self.run_home(w, h, ev)?;
        Ok(())
    }

    fn deliver_to_req(&mut self, w: &mut MigWorld, from: usize, msg: Msg) -> Check {
        match msg {
            Msg::Fill { exclusive, val } => {
                w.r_inflight = false;
                w.r_state = if exclusive {
                    LocalState::Exclusive
                } else {
                    LocalState::Shared
                };
                w.r_val = val;
                match w.r_app {
                    App::Waiting(Kind::Write) => {
                        if exclusive {
                            w.r_val = w.next_val;
                            w.next_val += 1;
                            w.r_dirty = true;
                            w.r_app = App::Idle;
                        }
                        // else: the stale shared completion of an aborted
                        // earlier read (the runtime matches completions to
                        // wait-cells); the rights are recorded, the write
                        // keeps waiting for its exclusive fill.
                    }
                    App::Waiting(_) => w.r_app = App::Idle,
                    // A fill for a request whose app already errored out
                    // (timeout after a death): the rights are real, the
                    // completion is spurious.
                    App::Idle => {}
                }
            }
            Msg::Inv => {
                // Mirrors CacheMachine::on_event(Invalidate): only a Shared
                // copy is invalidated and acked. Any other state means the
                // invalidate crossed with our own EvictNotice/Writeback (or
                // with a fresh grant from the chunk's NEW home after a
                // migration) — the in-flight notice satisfies the old
                // home's ack set, and an extra ack here would be stale.
                if w.r_state == LocalState::Shared {
                    w.r_state = LocalState::Invalid;
                    if w.alive(from) {
                        w.links[REQ][from].push_back(Msg::InvAck);
                    }
                }
            }
            Msg::RecallDirty => {
                if w.r_state == LocalState::Exclusive {
                    let val = w.r_val;
                    w.r_state = LocalState::Invalid;
                    w.r_dirty = false;
                    if w.alive(from) {
                        w.links[REQ][from].push_back(Msg::Writeback { val });
                    }
                }
                // else: crossed with our own eviction; the in-flight
                // writeback/evict-notice satisfies the recall.
            }
            Msg::HomeMoved { new_home, epoch } => {
                if epoch > w.r_home_epoch {
                    w.r_home = new_home;
                    w.r_home_epoch = epoch;
                }
                // The redirect names a home this node already knows is
                // dead: the runtime's retry resolves against the updated
                // map, sees the peer down, and surfaces NodeUnavailable
                // instead of re-sending into the corpse.
                if matches!(w.r_app, App::Waiting(_)) && w.r_knows_dead[w.r_home] {
                    w.r_app = App::Idle;
                }
            }
            Msg::Down { dead } => {
                w.r_knows_dead[dead] = true;
                // A parked request may have been lost with the corpse (or
                // forwarded into it); the runtime's RPC timeout surfaces
                // the retry/unavailable path rather than hanging.
                if matches!(w.r_app, App::Waiting(_)) {
                    w.r_app = App::Idle;
                }
            }
            other => return Err(format!("requester received a home-only message {other:?}")),
        }
        Ok(())
    }
}

/// The migration-world searches, by summary-line name.
pub const SEARCHES: [&str; 2] = ["migration", "migration-durable"];

/// The search named `name`: one migration, a requester issuing two
/// Read/Write requests plus one eviction, and one kill; the durable one
/// runs with both logs live.
pub fn search(name: &'static str) -> Search<Migration> {
    let durable = match name {
        "migration" => false,
        "migration-durable" => true,
        _ => panic!("unknown migration search `{name}` (known: {SEARCHES:?})"),
    };
    Search::new(name, Migration::default(), MigWorld::new(2, 1, 1, durable))
}
