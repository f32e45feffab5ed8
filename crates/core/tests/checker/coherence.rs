//! The coherence world: crash consistency of the directory protocol.
//!
//! A [`World`] is one home node (a real [`HomeMachine`] + [`LockTable`] plus
//! its dentry and drain/retry bookkeeping), two remote nodes (each a dentry
//! snapshot driven through the *pure* [`CacheMachine`] plus an application
//! slot and a lock slot), and four FIFO links (home→remote and remote→home
//! per remote). [`Coherence`] explores every interleaving of:
//!
//! * message deliveries (one per FIFO link),
//! * local drains (remote Figure-5 drains, the home drain, the grace retry),
//! * application requests (Read / Write / Operate, budget-limited),
//! * element-lock acquire/release (budget-limited),
//! * evictions (budget-limited), and
//! * **node kills** — fail-stop crashes modeled exactly as the runtime sees
//!   them: every surviving prefix of the victim's in-flight messages is
//!   explored, followed by a `Down` marker appended *last* on each link out
//!   of the victim (FIFO delivery means survivors consume all of the
//!   victim's accepted traffic before learning of its death). Since the
//!   quorum membership layer (DESIGN.md §12), the marker models a
//!   *quorum-confirmed* death declaration — it can only exist because the
//!   victim actually died, which is exactly the guarantee the quorum
//!   protocol provides; and
//! * **false suspicions** — the home may *suspect* a live remote
//!   (`Suspect`), which parks its outgoing link exactly as the reliability
//!   agent parks a suspected peer's send queue: nothing is discarded,
//!   delivery just stops. While the suspect is alive the only resolution is
//!   an internal `Refute` (its heartbeats keep its lease fresh at the other
//!   voters, so the quorum can never confirm), which unparks the link and
//!   replays delivery in order. If the suspect *is* killed mid-suspicion,
//!   its `Down` marker confirms the death instead. Safety asserts a live
//!   peer is never declared dead, so no reachable interleaving reclaims a
//!   live peer's locks or discards its Dirty writes.
//!
//! Durable mode adds the modeled chunk store: persists, restarts and the
//! checkpoint/compaction phases (DESIGN.md §14).

use std::collections::{BTreeSet, VecDeque};

use darray::protocol::{
    AfterDrain, CacheAction, CacheEvent, CacheMachine, CacheView, Counter, HomeAction, HomeEvent,
    HomeMachine, Kind, LockKind, LockSource, LockTable, Request, Requester, LINE_NONE, NOTAG,
};
use darray::{DirState, LocalState};

use super::{env_usize, Check, Model, Search};
/// Node id of the home node.
const HOME: usize = 0;
/// Number of remote nodes (node ids `1..=NREM`).
const NREM: usize = 2;
/// The single lock element the model contends on.
const ELEM: u64 = 7;
/// The operator id used by `Kind::Operate` requests.
const OP: u32 = 7;
/// Completion token for the home node's application slot.
const APP_TOKEN: u32 = 100;
/// Completion token for the home node's lock slot.
const LOCK_TOKEN: u32 = 200;
/// The one cacheline index the model allocates.
const LINE: u32 = 1;

const KINDS: [Kind; 3] = [Kind::Read, Kind::Write, Kind::Operate(OP)];
const LKINDS: [LockKind; 2] = [LockKind::Read, LockKind::Write];

/// One in-flight message. Links are FIFO; `Down` is the failure-detector
/// marker and is always the last message on a dead node's link.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    // home → remote
    Fill {
        exclusive: bool,
    },
    Grant {
        op: u32,
    },
    Inv,
    RecallDirty,
    Downgrade,
    RecallOperated {
        op: u32,
    },
    LockGrant {
        kind: LockKind,
    },
    // remote → home
    Req {
        kind: Kind,
    },
    InvAck,
    EvictNotice,
    Writeback {
        downgrade: bool,
    },
    Flush {
        op: u32,
    },
    LockAcq {
        kind: LockKind,
    },
    LockRel {
        kind: LockKind,
    },
    // either direction
    Down {
        dead: usize,
    },
    /// The home's *new incarnation* announcing itself after a restart
    /// (`RtMsg::PeerRestarted` fan-out): the remote must treat every right
    /// granted by the old incarnation as void.
    Restarted,
}

/// One node's application slot: at most one outstanding data request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    Idle,
    Waiting(Kind),
}

/// One node's lock slot: at most one outstanding element-lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lock {
    Idle,
    Waiting(LockKind),
    Holding(LockKind),
}

/// A remote node: the dentry the cache machine sees, plus app/lock slots
/// and the budgets bounding how many external stimuli it may still issue.
#[derive(Debug, Clone, Hash)]
struct Remote {
    alive: bool,
    state: LocalState,
    op_tag: u32,
    line: u32,
    /// `Some` while a Figure-5 drain is pending (the continuation).
    after: Option<AfterDrain>,
    /// Has this node consumed the home's `Down` marker?
    home_down: bool,
    app: App,
    lock: Lock,
    req_budget: u8,
    lock_budget: u8,
    evict_budget: u8,
}

impl Remote {
    fn fresh(req_budget: u8, lock_budget: u8, evict_budget: u8) -> Self {
        Remote {
            alive: true,
            state: LocalState::Invalid,
            op_tag: NOTAG,
            line: LINE_NONE,
            after: None,
            home_down: false,
            app: App::Idle,
            lock: Lock::Idle,
            req_budget,
            lock_budget,
            evict_budget,
        }
    }

    /// Canonical corpse: every field zeroed so all post-mortem worlds that
    /// differ only in the victim's final state collapse into one.
    fn dead() -> Self {
        Remote {
            alive: false,
            state: LocalState::Invalid,
            op_tag: NOTAG,
            line: LINE_NONE,
            after: None,
            home_down: false,
            app: App::Idle,
            lock: Lock::Idle,
            req_budget: 0,
            lock_budget: 0,
            evict_budget: 0,
        }
    }
}

/// The home node: the real directory machine and lock table, the home
/// dentry, and the home's own app/lock slots.
#[derive(Debug, Clone, Hash)]
struct Home {
    m: HomeMachine<u32>,
    locks: LockTable<u32>,
    /// The home dentry: (local state, operator tag).
    dentry: (LocalState, u32),
    /// A home-dentry reference drain is pending.
    draining: bool,
    /// Which remotes this node's failure detector has declared dead.
    knows_dead: [bool; NREM],
    app: App,
    lock: Lock,
    req_budget: u8,
    lock_budget: u8,
}

/// One explorable world state, memoized by its structural `Hash`: every
/// field that influences future behavior must live here (and nothing else:
/// coverage tallies live in [`Coherence`]).
#[derive(Debug, Clone, Hash)]
pub struct World {
    /// `None` once the home node has been killed.
    home: Option<Home>,
    rem: [Remote; NREM],
    /// FIFO link home → remote `i+1`.
    h2r: [VecDeque<Msg>; NREM],
    /// FIFO link remote `i+1` → home.
    r2h: [VecDeque<Msg>; NREM],
    now: u64,
    /// A `ScheduleRetry { at }` is pending delivery.
    retry_at: Option<u64>,
    kill_budget: u8,
    /// Home-side suspicion flags: while `suspected[i]` the home's outgoing
    /// link to remote `i+1` is parked (no `DeliverH2R`), mirroring the
    /// reliability agent parking a suspected peer's send queue. Nothing is
    /// dropped; `Refute` (live suspect) or the `Down` marker (dead suspect)
    /// resolves it.
    suspected: [bool; NREM],
    /// How many `Suspect` stimuli may still be injected.
    suspect_budget: u8,
    /// Durable mode (DESIGN.md §14): the home machine gates dirty-data
    /// acknowledgements on a modeled chunk-store persist.
    durable: bool,
    /// A `PersistChunk { seq }` the executor has accepted but whose
    /// completion (`PersistDone`) has not yet been fed back. At most one:
    /// the machine parks in `AwaitPersist` until it resolves.
    pending_persist: Option<u64>,
    /// Highest persist sequence durably in the log. Survives home kills —
    /// that is the entire point of the log.
    disk_seq: u64,
    /// Highest persist sequence the protocol has *acknowledged* (completed
    /// the transient for). The persist-before-ack theorem is
    /// `acked_seq <= disk_seq` in every reachable state.
    acked_seq: u64,
    /// How many node restarts may still be injected.
    restart_budget: u8,
    /// Persist seq covered by the newest on-disk checkpoint generation
    /// (`.ckpt`), `None` when absent. Survives home kills — it is a file.
    ckpt: Option<u64>,
    /// Persist seq covered by the previous generation (`.ckpt.prev`) — the
    /// fallback a torn/CRC-bad newest checkpoint recovers from.
    ckpt_prev: Option<u64>,
    /// Highest seq whose log record compaction has truncated away. The
    /// lag-by-one rule keeps `trunc_floor <= ckpt_prev`: only the prefix
    /// covered by the *fallback* generation is ever dropped.
    trunc_floor: u64,
    /// An in-flight compaction: `(snapshot seq, next phase)`. Erased by a
    /// home kill — phases already applied are on disk, the rest never run.
    compacting: Option<(u64, CkPhase)>,
    /// How many compaction sequences may still be started.
    compact_budget: u8,
}

/// The crash-atomic phases of `LogChunkStore::checkpoint` (DESIGN.md §14),
/// in execution order. Each phase is one atomic disk operation (buffered
/// write + fsync, or a rename); the checker kills the home *between* any
/// two of them, which — together with each operation's own atomicity — is
/// exactly "a crash at any byte of the compaction sequence".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CkPhase {
    /// Write the full image to `.ckpt.tmp` and fsync it. Invisible to
    /// recovery: reopen deletes stale tmp files.
    WriteTmp,
    /// Rotate `.ckpt` → `.ckpt.prev`. The newest generation is momentarily
    /// absent; recovery in this window falls back to `.prev`.
    Rotate,
    /// Rename `.ckpt.tmp` → `.ckpt` (atomic): the new generation lands.
    Rename,
    /// Truncate the log prefix covered by `.ckpt.prev` (lag-by-one).
    Truncate,
}

impl CkPhase {
    fn name(self) -> &'static str {
        match self {
            CkPhase::WriteTmp => "WriteTmp",
            CkPhase::Rotate => "Rotate",
            CkPhase::Rename => "Rename",
            CkPhase::Truncate => "Truncate",
        }
    }
}

/// What a reopen of the modeled store recovers: the newest readable
/// checkpoint generation (`.ckpt`, falling back to `.prev` when absent or
/// torn — torn collapses to absent here, the CRC frame rejects it in full)
/// overlaid with the log suffix `(trunc_floor, disk_seq]`. A sound store
/// keeps every fallback generation ≥ `trunc_floor`, so the suffix splices
/// onto the checkpoint with no gap; if compaction ever truncated past the
/// fallback, the writes in the gap are gone and this returns less than
/// `disk_seq` — which the `acked_seq` safety check then catches.
fn recoverable(w: &World) -> u64 {
    let best = w.ckpt.or(w.ckpt_prev).unwrap_or(0);
    if best >= w.trunc_floor {
        best.max(w.disk_seq)
    } else {
        best
    }
}

/// The coherence model: the grace window its home machines run with, and
/// the coverage tallies the searches assert on. The tallies stay outside
/// the memoized [`World`], so accounting never splits otherwise-identical
/// states.
#[derive(Default)]
pub struct Coherence {
    pub grace: u64,
    /// Home transient name at the instant each `Down` marker was consumed.
    pub pd_transients: BTreeSet<&'static str>,
    /// Home directory-state name at the instant each `Down` was consumed.
    pub pd_states: BTreeSet<&'static str>,
    /// Remote dentry state at the instant the home's `Down` was consumed.
    pub homedown_states: BTreeSet<&'static str>,
    /// Home transient name at each `RetryExpired` delivery.
    pub retry_transients: BTreeSet<&'static str>,
    pub epochs_aborted: usize,
    pub sharers_pruned: usize,
    pub locks_reclaimed: usize,
    pub reductions: usize,
    /// Suspicions of a live remote resolved by refutation.
    pub suspect_refutes: usize,
    /// Suspicions resolved by the suspect's actual death (its `Down` marker
    /// consumed while the suspicion was pending).
    pub suspect_confirms: usize,
    /// A live remote held Exclusive (unwritten Dirty data) while suspected —
    /// the exact state a unilateral declaration would destroy.
    pub suspected_dirty_states: usize,
    /// `PersistChunk` actions executed (durable mode).
    pub persists: usize,
    /// Persists the machine acknowledged (`Count(FlushPersists)`).
    pub persist_acks: usize,
    /// Home kills that landed while a persist was pending on disk.
    pub killed_mid_persist: usize,
    /// Home restarts (log replay + `Restarted` fan-out) injected.
    pub home_restarts: usize,
    /// Remote restarts (`HomeEvent::PeerRestarted` un-fencing) injected.
    pub remote_restarts: usize,
    /// Compaction sequences started (`StartCompaction` stimuli).
    pub compactions_started: usize,
    /// Compaction sequences that ran all four phases to completion.
    pub compactions_completed: usize,
    /// Phase names a home kill landed in while a compaction was in flight —
    /// the snapshot→rename→truncate crash matrix must cover all four.
    pub killed_mid_compaction: BTreeSet<&'static str>,
    /// Home restarts that recovered through a checkpoint generation (not
    /// pure log replay).
    pub restarts_from_checkpoint: usize,
    /// Simultaneous two-victim kills injected (`KillBoth`).
    pub double_kills: usize,
    /// Reachable states in which the home had confirmed BOTH remote deaths.
    pub both_dead_states: usize,
}

/// One atomic step of the world. `Deliver*`, `Drain*` and `Retry` are
/// *internal* (protocol progress); the rest are external stimuli. A state
/// with no internal transition enabled is *quiescent* and must satisfy the
/// liveness conditions of [`Model::check_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tr {
    DeliverH2R(usize),
    DeliverR2H(usize),
    DrainRemote(usize),
    DrainHome,
    Retry,
    AppHome(Kind),
    AppRemote(usize, Kind),
    LockHomeAcq(LockKind),
    LockHomeRel,
    LockRemoteAcq(usize, LockKind),
    LockRemoteRel(usize),
    Evict(usize),
    /// Kill `victim`, keeping the first `keep[i]` messages of each of its
    /// outgoing links (prefix truncation models messages lost in flight).
    /// `flush_disk` branches the fate of a pending persist when the home is
    /// the victim: did the record reach the log before the crash?
    Kill {
        victim: usize,
        keep: [usize; 2],
        flush_disk: bool,
    },
    /// Kill BOTH remotes at once — two simultaneous quorum-confirmed
    /// deaths, each with its own surviving prefix. Costs two kill budget.
    KillBoth {
        keep: [usize; 2],
    },
    /// Begin a checkpoint/compaction sequence (durable mode): snapshot the
    /// synced log (`disk_seq`) and walk the [`CkPhase`] ladder.
    StartCompaction,
    /// The store executes the next compaction phase (guaranteed progress —
    /// `checkpoint` runs synchronously under the store lock).
    CompactStep,
    /// The modeled disk completes the pending persist: the record is in the
    /// log and `HomeEvent::PersistDone` resumes the parked acknowledgement.
    PersistDone,
    /// Restart `victim` (durable mode): a new incarnation rejoins cold,
    /// recovering only what the log holds.
    Restart {
        victim: usize,
    },
    /// The home's failure detector (falsely or not) suspects remote `i+1`:
    /// park the home→remote link.
    Suspect(usize),
    /// The quorum poll refutes the home's suspicion of (live) remote `i+1`:
    /// re-admit and resume parked delivery.
    Refute(usize),
}

/// Does `state`/`tag` already satisfy a request of `kind` locally (the
/// fast-path hit the runtime would take without consulting the protocol)?
pub fn satisfied(state: LocalState, tag: u32, kind: Kind) -> bool {
    match kind {
        Kind::Read => state.readable(),
        Kind::Write => state.writable(),
        Kind::Operate(op) => state.writable() || (state == LocalState::Operated && tag == op),
    }
}

impl Model for Coherence {
    type State = World;
    type Tr = Tr;
    const TITLE: &'static str = "MODEL CHECK";

    fn internal(&self, w: &World) -> Vec<Tr> {
        let mut out = Vec::new();
        for i in 0..NREM {
            // A suspected remote's inbound link is parked at the home's
            // reliability agent — deliverable again only after the suspicion
            // resolves.
            let parked = w.home.is_some() && w.suspected[i];
            if w.rem[i].alive && !w.h2r[i].is_empty() && !parked {
                out.push(Tr::DeliverH2R(i));
            }
            if w.home.is_some() && !w.r2h[i].is_empty() {
                out.push(Tr::DeliverR2H(i));
            }
            if w.rem[i].alive && w.rem[i].after.is_some() {
                out.push(Tr::DrainRemote(i));
            }
            // A live suspect keeps heartbeating, so refutation is *guaranteed*
            // progress in the real system — which makes it an internal
            // transition here (a suspicion of a live peer can never be the end
            // state, so a parked world is not quiescent).
            if parked && w.rem[i].alive {
                out.push(Tr::Refute(i));
            }
        }
        if let Some(h) = &w.home {
            if h.draining {
                out.push(Tr::DrainHome);
            }
            if w.retry_at.is_some() {
                out.push(Tr::Retry);
            }
            // Disk completion is guaranteed progress: a pending persist always
            // resolves (crash-during-persist is the Kill branch's job).
            if w.pending_persist.is_some() {
                out.push(Tr::PersistDone);
            }
            // A compaction in flight always advances to its next phase
            // (crash-mid-compaction is, again, the Kill branch's job).
            if w.compacting.is_some() {
                out.push(Tr::CompactStep);
            }
        }
        out
    }

    fn external(&self, w: &World) -> Vec<Tr> {
        let mut out = Vec::new();
        if let Some(h) = &w.home {
            if h.app == App::Idle && h.req_budget > 0 {
                for kind in KINDS {
                    if !satisfied(h.dentry.0, h.dentry.1, kind) {
                        out.push(Tr::AppHome(kind));
                    }
                }
            }
            match h.lock {
                Lock::Idle if h.lock_budget > 0 => {
                    for lk in LKINDS {
                        out.push(Tr::LockHomeAcq(lk));
                    }
                }
                Lock::Holding(_) => out.push(Tr::LockHomeRel),
                _ => {}
            }
        }
        for (i, r) in w.rem.iter().enumerate() {
            if !r.alive {
                continue;
            }
            if r.app == App::Idle && r.req_budget > 0 && !r.home_down {
                for kind in KINDS {
                    if !satisfied(r.state, r.op_tag, kind) {
                        out.push(Tr::AppRemote(i, kind));
                    }
                }
            }
            match r.lock {
                Lock::Idle if r.lock_budget > 0 && !r.home_down => {
                    for lk in LKINDS {
                        out.push(Tr::LockRemoteAcq(i, lk));
                    }
                }
                Lock::Holding(_) => out.push(Tr::LockRemoteRel(i)),
                _ => {}
            }
            if r.evict_budget > 0
                && r.after.is_none()
                && matches!(
                    r.state,
                    LocalState::Shared | LocalState::Exclusive | LocalState::Operated
                )
            {
                out.push(Tr::Evict(i));
            }
        }
        // Suspect a live remote: the false-suspicion stimulus. (Suspecting a
        // node that is already dead is the Kill path — its marker is the
        // confirmation — so the stimulus targets live peers, where a unilateral
        // declaration would be unsound.)
        if w.home.is_some() && w.suspect_budget > 0 {
            for i in 0..NREM {
                if w.rem[i].alive && !w.suspected[i] {
                    out.push(Tr::Suspect(i));
                }
            }
        }
        if w.kill_budget > 0 {
            // Kill the home: branch over every surviving prefix of each
            // home→remote link (the product; each link truncates independently).
            // With a persist pending, also branch on whether its record reached
            // the log before the crash.
            if w.home.is_some() {
                for k0 in 0..=w.h2r[0].len() {
                    for k1 in 0..=w.h2r[1].len() {
                        out.push(Tr::Kill {
                            victim: HOME,
                            keep: [k0, k1],
                            flush_disk: false,
                        });
                        if w.pending_persist.is_some() {
                            out.push(Tr::Kill {
                                victim: HOME,
                                keep: [k0, k1],
                                flush_disk: true,
                            });
                        }
                    }
                }
            }
            // Kill remote node 1 (the protagonist remote; killing node 2 adds
            // symmetric states without new behavior since budgets differ).
            if w.rem[0].alive && w.home.is_some() {
                for k0 in 0..=w.r2h[0].len() {
                    out.push(Tr::Kill {
                        victim: 1,
                        keep: [k0, 0],
                        flush_disk: false,
                    });
                }
            }
            // Double kill: the quorum confirms TWO simultaneous deaths — the
            // membership axis a single-kill budget can never reach. Both
            // remotes die at once, each in-flight link keeping an independent
            // surviving prefix; the home consumes the two Down markers in
            // either order, burning one view epoch per death.
            if w.kill_budget >= 2 && w.home.is_some() && w.rem[0].alive && w.rem[1].alive {
                for k0 in 0..=w.r2h[0].len() {
                    for k1 in 0..=w.r2h[1].len() {
                        out.push(Tr::KillBoth { keep: [k0, k1] });
                    }
                }
            }
        }
        // Start a compaction at any point the store could: the runtime polls
        // `maybe_checkpoint` after each persist and at every eviction-scan
        // batch point, so between any two protocol steps is fair game. An
        // empty store has nothing to snapshot (the real trigger counts
        // persists), and the store lock serializes sequences.
        if w.durable
            && w.compact_budget > 0
            && w.compacting.is_none()
            && w.home.is_some()
            && w.disk_seq > 0
        {
            out.push(Tr::StartCompaction);
        }
        if w.durable && w.restart_budget > 0 {
            // Restarts model `Cluster::restart_peer`, whose contract is a
            // *settled* death: every survivor has consumed the declaration and
            // has nothing in flight against the corpse (in the runtime this is
            // guaranteed by re-admitting between `run` phases — a still-parked
            // app thread would have kept the previous phase from joining).
            // Racing an unsettled death is out of contract: a survivor could
            // address the new incarnation before processing the stale death
            // declaration of the old one.
            let settled = |i: usize| {
                let r = &w.rem[i];
                !r.alive
                    || (r.home_down
                        && w.h2r[i].is_empty()
                        && w.r2h[i].is_empty()
                        && r.after.is_none()
                        && !r.state.in_flight()
                        && r.app == App::Idle
                        && matches!(r.lock, Lock::Idle | Lock::Holding(_)))
            };
            // Restart the home: only meaningful durable — a new incarnation
            // replays the log and re-announces itself to the survivors.
            if w.home.is_none() && (0..NREM).all(settled) {
                out.push(Tr::Restart { victim: HOME });
            }
            // Restart remote 1: the home un-fences the identity at a bumped
            // view epoch and serves its fresh (cold) requests again.
            if !w.rem[0].alive
                && w.home.as_ref().is_some_and(|h| h.knows_dead[0])
                && w.h2r[0].is_empty()
                && w.r2h[0].is_empty()
            {
                out.push(Tr::Restart { victim: 1 });
            }
        }
        out
    }

    /// Human-readable label for one transition (peeking the message about to be
    /// delivered), used in counterexample traces.
    fn label(&self, w: &World, tr: Tr) -> String {
        match tr {
            Tr::DeliverH2R(i) => {
                format!("deliver home->r{}: {:?}", i + 1, w.h2r[i].front().unwrap())
            }
            Tr::DeliverR2H(i) => {
                format!("deliver r{}->home: {:?}", i + 1, w.r2h[i].front().unwrap())
            }
            Tr::DrainRemote(i) => format!(
                "drain completes on r{}: {:?}",
                i + 1,
                w.rem[i].after.as_ref().unwrap()
            ),
            Tr::DrainHome => "home dentry drain completes".to_string(),
            Tr::Retry => format!("grace retry fires (at={:?})", w.retry_at.unwrap()),
            Tr::AppHome(k) => format!("home app requests {k:?}"),
            Tr::AppRemote(i, k) => format!("r{} app requests {k:?}", i + 1),
            Tr::LockHomeAcq(k) => format!("home acquires {k:?} lock"),
            Tr::LockHomeRel => "home releases its lock".to_string(),
            Tr::LockRemoteAcq(i, k) => format!("r{} acquires {k:?} lock", i + 1),
            Tr::LockRemoteRel(i) => format!("r{} releases its lock", i + 1),
            Tr::Evict(i) => format!("eviction scan hits r{}", i + 1),
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => format!(
                "KILL node {victim} (kept prefixes {keep:?}, pending persist {})",
                if flush_disk { "flushed" } else { "lost" }
            ),
            Tr::KillBoth { keep } => {
                format!("KILL BOTH remotes (kept prefixes {keep:?}, two confirmed deaths)")
            }
            Tr::StartCompaction => format!("compaction starts (snapshot seq {})", w.disk_seq),
            Tr::CompactStep => format!(
                "compaction phase {} executes",
                w.compacting.unwrap().1.name()
            ),
            Tr::Suspect(i) => format!("home SUSPECTS r{} (link parked)", i + 1),
            Tr::Refute(i) => format!("suspicion of r{} refuted (link replayed)", i + 1),
            Tr::PersistDone => format!("disk completes persist seq {}", w.pending_persist.unwrap()),
            Tr::Restart { victim } => format!(
                "RESTART node {victim} (log replay, disk_seq={})",
                w.disk_seq
            ),
        }
    }

    fn apply(&mut self, w: &mut World, tr: Tr) -> Check {
        match tr {
            Tr::DeliverH2R(i) => {
                let msg = w.h2r[i].pop_front().unwrap();
                self.deliver_to_remote(w, i, msg)?;
            }
            Tr::DeliverR2H(i) => {
                let msg = w.r2h[i].pop_front().unwrap();
                self.deliver_to_home(w, i, msg)?;
            }
            Tr::DrainRemote(i) => {
                let after = w.rem[i].after.take().unwrap();
                let home_down = w.rem[i].home_down;
                self.run_cache_event(w, i, CacheEvent::Drained { after, home_down })?;
            }
            Tr::DrainHome => {
                w.home.as_mut().unwrap().draining = false;
                self.run_home_event(w, HomeEvent::Drained)?;
            }
            Tr::Retry => {
                let at = w.retry_at.take().unwrap();
                w.now = w.now.max(at);
                self.retry_transients
                    .insert(w.home.as_ref().unwrap().m.transient().name());
                self.run_home_event(w, HomeEvent::RetryExpired)?;
            }
            Tr::AppHome(kind) => {
                let h = w.home.as_mut().unwrap();
                h.app = App::Waiting(kind);
                h.req_budget -= 1;
                self.run_home_event(
                    w,
                    HomeEvent::Request(Request {
                        source: Requester::Local(APP_TOKEN),
                        kind,
                    }),
                )?;
            }
            Tr::AppRemote(i, kind) => {
                let r = &mut w.rem[i];
                r.app = App::Waiting(kind);
                r.req_budget -= 1;
                let drain_pending = r.after.is_some();
                self.run_cache_event(
                    w,
                    i,
                    CacheEvent::Request {
                        kind,
                        home_down: false,
                        drain_pending,
                    },
                )?;
            }
            Tr::LockHomeAcq(lk) => {
                let h = w.home.as_mut().unwrap();
                h.lock_budget -= 1;
                h.lock = Lock::Waiting(lk);
                let granted = h.locks.acquire(ELEM, lk, LockSource::Local(LOCK_TOKEN));
                if let Some(src) = granted {
                    self.deliver_lock_grants(w, vec![(src, lk)])?;
                }
            }
            Tr::LockHomeRel => {
                let h = w.home.as_mut().unwrap();
                let Lock::Holding(lk) = h.lock else {
                    unreachable!()
                };
                h.lock = Lock::Idle;
                let granted = h.locks.release(ELEM, lk, None);
                self.deliver_lock_grants(w, granted)?;
            }
            Tr::LockRemoteAcq(i, lk) => {
                let r = &mut w.rem[i];
                r.lock_budget -= 1;
                r.lock = Lock::Waiting(lk);
                w.r2h[i].push_back(Msg::LockAcq { kind: lk });
            }
            Tr::LockRemoteRel(i) => {
                let r = &mut w.rem[i];
                let Lock::Holding(lk) = r.lock else {
                    unreachable!()
                };
                r.lock = Lock::Idle;
                if w.home.is_some() {
                    w.r2h[i].push_back(Msg::LockRel { kind: lk });
                }
                // Home already dead: the release would be sent to a corpse; the
                // home's lock table died with it, so dropping is sound.
            }
            Tr::Evict(i) => {
                w.rem[i].evict_budget -= 1;
                self.run_cache_event(w, i, CacheEvent::Evict)?;
            }
            Tr::Suspect(i) => {
                w.suspect_budget -= 1;
                w.suspected[i] = true;
            }
            Tr::Refute(i) => {
                self.suspect_refutes += 1;
                w.suspected[i] = false;
            }
            Tr::PersistDone => {
                let seq = w.pending_persist.take().unwrap();
                w.disk_seq = w.disk_seq.max(seq);
                // The machine will acknowledge its awaited sequence (the fed
                // seq covers it — persists are cumulative); record the ack for
                // the persist-before-ack theorem *before* the protocol resumes.
                if let darray::protocol::Transient::AwaitPersist { seq: s } =
                    w.home.as_ref().unwrap().m.transient()
                {
                    if seq >= *s {
                        w.acked_seq = w.acked_seq.max(*s);
                    }
                }
                self.run_home_event(w, HomeEvent::PersistDone { seq })?;
            }
            Tr::StartCompaction => {
                w.compact_budget -= 1;
                self.compactions_started += 1;
                // Phase zero of `checkpoint`: flush + sync the log. The model's
                // `disk_seq` is already the synced log (persists land there via
                // PersistDone / flush_disk), so the snapshot is just its
                // current value.
                w.compacting = Some((w.disk_seq, CkPhase::WriteTmp));
            }
            Tr::CompactStep => {
                let (snap, phase) = w.compacting.unwrap();
                match phase {
                    CkPhase::WriteTmp => {
                        // `.ckpt.tmp` written + fsynced: no durable-state
                        // change visible to recovery (reopen deletes tmps).
                        w.compacting = Some((snap, CkPhase::Rotate));
                    }
                    CkPhase::Rotate => {
                        // `.ckpt` → `.ckpt.prev` (skipped when no newest
                        // generation exists, exactly like the store).
                        if let Some(c) = w.ckpt.take() {
                            w.ckpt_prev = Some(c);
                        }
                        w.compacting = Some((snap, CkPhase::Rename));
                    }
                    CkPhase::Rename => {
                        // `.ckpt.tmp` → `.ckpt`, atomic: the new generation —
                        // covering every persist up to the snapshot — lands.
                        w.ckpt = Some(snap);
                        w.compacting = Some((snap, CkPhase::Truncate));
                    }
                    CkPhase::Truncate => {
                        // Lag-by-one: drop only the log prefix covered by the
                        // generation just rotated to `.prev`, so a torn newest
                        // checkpoint plus the truncated log still recovers
                        // every record. (Truncating up to `snap` here instead
                        // is the classic lost-window bug — the checker's
                        // Rotate-phase kill would catch it via `recoverable`.)
                        w.trunc_floor = w.trunc_floor.max(w.ckpt_prev.unwrap_or(0));
                        w.compacting = None;
                        self.compactions_completed += 1;
                    }
                }
            }
            Tr::Restart { victim } => {
                w.restart_budget -= 1;
                if victim == HOME {
                    self.home_restarts += 1;
                    if w.ckpt.or(w.ckpt_prev).is_some() {
                        self.restarts_from_checkpoint += 1;
                    }
                    // Reopen recovers checkpoint-then-log-suffix: the new
                    // incarnation's replay frontier is exactly what the disk
                    // yields. In a sound store this equals `disk_seq`; if
                    // compaction ever truncated a window no checkpoint covers,
                    // this drops below `acked_seq` and safety fails on the
                    // next state.
                    w.disk_seq = recoverable(w);
                    // A new incarnation: fresh machine, cold directory, persist
                    // sequence resumed from the replayed log (exactly what
                    // `LogChunkStore::open` + the allocation overlay do).
                    let mut m = HomeMachine::new();
                    m.set_durable(true);
                    m.resume_persist_seq(w.disk_seq);
                    w.home = Some(Home {
                        m,
                        locks: LockTable::default(),
                        dentry: (LocalState::Exclusive, NOTAG),
                        draining: false,
                        knows_dead: [false; NREM],
                        app: App::Idle,
                        lock: Lock::Idle,
                        req_budget: 0,
                        lock_budget: 0,
                    });
                    // Announce the new incarnation to every survivor, FIFO
                    // *after* the old incarnation's Down marker: a remote always
                    // learns of the death before the rebirth.
                    for (i, r) in w.rem.iter().enumerate() {
                        if r.alive {
                            w.h2r[i].push_back(Msg::Restarted);
                        }
                    }
                } else {
                    let i = victim - 1;
                    self.remote_restarts += 1;
                    // The restarted remote rejoins cold with a small budget to
                    // prove the un-fenced home serves it again.
                    w.rem[i] = Remote::fresh(1, 0, 0);
                    w.h2r[i].clear();
                    w.r2h[i].clear();
                    let h = w.home.as_mut().unwrap();
                    h.knows_dead[i] = false;
                    // The restart admission burns a fresh membership epoch on
                    // top of whatever deaths the view has already applied
                    // (`MembershipView::restart`).
                    let view_epoch = h.m.view_epoch() + 1;
                    self.run_home_event(
                        w,
                        HomeEvent::PeerRestarted {
                            node: victim,
                            view_epoch,
                        },
                    )?;
                }
            }
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => {
                w.kill_budget -= 1;
                if victim == HOME {
                    // A pending persist dies with the executor; `flush_disk`
                    // decides whether its record made the log first.
                    if let Some(seq) = w.pending_persist.take() {
                        self.killed_mid_persist += 1;
                        if flush_disk {
                            w.disk_seq = w.disk_seq.max(seq);
                        }
                    }
                    // A compaction in flight dies mid-sequence: the phases
                    // already executed are durably on disk, the rest never
                    // happen — this is the snapshot→rename→truncate crash
                    // matrix. (Reopen cleans the stale tmp, not modeled.)
                    if let Some((_, phase)) = w.compacting.take() {
                        self.killed_mid_compaction.insert(phase.name());
                    }
                    w.home = None;
                    w.retry_at = None;
                    // The suspector died with its suspicions.
                    w.suspected = [false; NREM];
                    for (i, &kept) in keep.iter().enumerate() {
                        // Messages to the corpse are never consumed.
                        w.r2h[i].clear();
                        // The victim's in-flight sends: an arbitrary prefix
                        // survives, then the detector marker (always last).
                        w.h2r[i].truncate(kept);
                        if w.rem[i].alive {
                            w.h2r[i].push_back(Msg::Down { dead: HOME });
                        } else {
                            w.h2r[i].clear();
                        }
                    }
                } else {
                    let i = victim - 1;
                    w.rem[i] = Remote::dead();
                    w.h2r[i].clear();
                    w.r2h[i].truncate(keep[0]);
                    if w.home.is_some() {
                        w.r2h[i].push_back(Msg::Down { dead: victim });
                    } else {
                        w.r2h[i].clear();
                    }
                }
            }
            Tr::KillBoth { keep } => {
                w.kill_budget -= 2;
                self.double_kills += 1;
                for (i, &kept) in keep.iter().enumerate() {
                    w.rem[i] = Remote::dead();
                    w.h2r[i].clear();
                    w.r2h[i].truncate(kept);
                    // Generation guards on a live home; each victim's marker
                    // rides its own FIFO, so the home learns of the two deaths
                    // in either delivery order.
                    w.r2h[i].push_back(Msg::Down { dead: i + 1 });
                }
            }
        }
        Ok(())
    }

    /// Safety: must hold in **every** reachable state.
    fn check_safety(&mut self, w: &World) -> Check {
        // THE durability theorem (DESIGN.md §14), as a world invariant: no
        // write is ever acknowledged before its image is durably in the log.
        // Kills erase the volatile machine but never `disk_seq`, and restarts
        // recover exactly `disk_seq` — so this single check is "every write
        // acked before the kill is recovered, and only those".
        if w.acked_seq > w.disk_seq {
            return Err(format!(
                "persist-before-ack violated: acked seq {} but disk only has {}",
                w.acked_seq, w.disk_seq
            ));
        }
        // Compaction lag-by-one theorem: the truncated log prefix must be
        // covered by the FALLBACK checkpoint generation, not merely the newest
        // one — so a torn `.ckpt` at any instant still recovers every dropped
        // record from `.prev` + the remaining log.
        if w.trunc_floor > w.ckpt_prev.unwrap_or(0) {
            return Err(format!(
                "compaction truncated the log past the fallback checkpoint \
                 (trunc_floor {} > prev generation {:?})",
                w.trunc_floor, w.ckpt_prev
            ));
        }
        // And the full recovery theorem in every state, every phase: what a
        // reopen would reconstruct from the disk as it is RIGHT NOW — newest
        // readable checkpoint + log suffix — covers every acknowledged write.
        if w.acked_seq > recoverable(w) {
            return Err(format!(
                "acked seq {} not recoverable from ckpt {:?}/prev {:?} + log ({}, {}]",
                w.acked_seq, w.ckpt, w.ckpt_prev, w.trunc_floor, w.disk_seq
            ));
        }
        if let Some(h) = &w.home {
            // The executor's pending persist and the machine's AwaitPersist
            // transient must agree exactly.
            use darray::protocol::Transient;
            let awaited = match h.m.transient() {
                Transient::AwaitPersist { seq } => Some(*seq),
                _ => None,
            };
            if awaited != w.pending_persist {
                return Err(format!(
                    "machine awaits persist {awaited:?} but executor has {:?} pending",
                    w.pending_persist
                ));
            }
            // Epoch monotonicity across restarts: a new record must never be
            // stamped below the log's replay frontier, or a later replay would
            // resurrect a pre-restart image.
            if h.m.persist_seq() < w.disk_seq {
                return Err("persist sequence regressed below the durable log".into());
            }
        }
        // The quorum guarantee, stated as a world invariant: no live peer is
        // ever declared dead. Everything destructive (lock reclaim, Dirty
        // ownership reclaim, sharer pruning) happens only behind `knows_dead`,
        // so this single check covers "no reachable interleaving discards a
        // live peer's writes".
        if let Some(h) = &w.home {
            for i in 0..NREM {
                if h.knows_dead[i] && w.rem[i].alive {
                    return Err("home declared a LIVE remote dead".into());
                }
                if w.suspected[i] && w.rem[i].alive && w.rem[i].state == LocalState::Exclusive {
                    // Coverage: the dangerous state — a live suspect holding
                    // unwritten Dirty data — was actually reached.
                    self.suspected_dirty_states += 1;
                }
            }
            if h.knows_dead.iter().all(|&d| d) {
                // Coverage: the home survived a confirmed double death and its
                // directory/lock sweeps ran for both victims.
                self.both_dead_states += 1;
            }
        }
        // A *zombie* remote consumed the home's `Down` marker (or is about to:
        // FIFO has the marker ahead of the `Restarted` announcement) and has
        // not yet learned of the rebirth. Its rights come from the dead
        // incarnation — the restarted directory neither knows nor honors them,
        // and consuming `Restarted` voids them. Pre-existing semantics: cached
        // copies of a dead home's chunks stay locally usable (graceful
        // degradation) but their post-death writes were never promised
        // durability. Zombies are therefore excluded from directory-agreement
        // checks; they cannot reach quiescence (the pending `Restarted`
        // delivery keeps the world live).
        let zombie =
            |i: usize| w.rem[i].home_down || w.h2r[i].iter().any(|m| matches!(m, Msg::Restarted));
        // Single writer: at most one alive remote holds Exclusive, and nobody
        // else holds any rights while it does.
        let excl: Vec<usize> = (0..NREM)
            .filter(|&i| w.rem[i].alive && !zombie(i) && w.rem[i].state == LocalState::Exclusive)
            .collect();
        if excl.len() > 1 {
            return Err("two alive remotes hold Exclusive".into());
        }
        if let Some(&e) = excl.first() {
            for (i, r) in w.rem.iter().enumerate() {
                if i != e
                    && r.alive
                    && !zombie(i)
                    && matches!(
                        r.state,
                        LocalState::Shared | LocalState::Exclusive | LocalState::Operated
                    )
                {
                    return Err(format!(
                        "r{} holds rights while r{} is Exclusive",
                        i + 1,
                        e + 1
                    ));
                }
            }
            if let Some(h) = &w.home {
                if !matches!(h.m.state(), DirState::Dirty { owner } if *owner == e + 1) {
                    return Err(format!(
                        "r{} is Exclusive but directory is {:?}",
                        e + 1,
                        h.m.state()
                    ));
                }
            }
        }
        // Operated epoch agreement: all alive Operated remotes carry one tag.
        let tags: Vec<u32> = (0..NREM)
            .filter(|&i| w.rem[i].alive && !zombie(i) && w.rem[i].state == LocalState::Operated)
            .map(|i| w.rem[i].op_tag)
            .collect();
        if tags.windows(2).any(|t| t[0] != t[1]) {
            return Err("two alive remotes Operated under different ops".into());
        }
        // Dentry/line consistency (drains excepted: the line detaches at the
        // continuation, not at drain start).
        for (i, r) in w.rem.iter().enumerate() {
            if r.alive
                && r.after.is_none()
                && (r.state == LocalState::Invalid) != (r.line == LINE_NONE)
            {
                return Err(format!(
                    "r{} dentry/line mismatch: {:?}/{}",
                    i + 1,
                    r.state,
                    r.line
                ));
            }
        }
        let Some(h) = &w.home else {
            return Ok(());
        };
        // The machine's dead set and the executor's detector agree.
        for n in 1..=NREM {
            if h.m.is_dead(n) != h.knows_dead[n - 1] {
                return Err("machine dead set out of sync with detector".into());
            }
        }
        // No directory bookkeeping references a known-dead node.
        let dead_ref = |n: &usize| h.knows_dead[*n - 1];
        let state_refs_dead = match h.m.state() {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => {
                sharers.iter().any(&dead_ref)
            }
            DirState::Dirty { owner } => dead_ref(owner),
            DirState::Unshared => false,
        };
        if state_refs_dead {
            return Err("directory state references a known-dead node".into());
        }
        use darray::protocol::Transient;
        let transient_refs_dead = match h.m.transient() {
            Transient::AwaitInvAcks { waiting } | Transient::AwaitFlushes { waiting, .. } => {
                waiting.iter().any(&dead_ref)
            }
            Transient::AwaitWriteback { from } => dead_ref(from),
            _ => false,
        };
        if transient_refs_dead {
            return Err("transient wait set references a known-dead node".into());
        }
        // No orphaned lock holders.
        if !h.locks.holders_all_satisfy(|n| !h.knows_dead[n - 1]) {
            return Err("lock table holds a lock for a known-dead node".into());
        }
        Ok(())
    }

    /// Liveness: must hold whenever **no internal transition is enabled** (the
    /// system has quiesced — nothing will ever make progress again without a
    /// new external stimulus, so anything still pending is stuck forever).
    fn check_quiescence(&mut self, w: &World) -> Check {
        let live_holder = matches!(w.home.as_ref().map(|h| h.lock), Some(Lock::Holding(_)))
            || w.rem
                .iter()
                .any(|r| r.alive && matches!(r.lock, Lock::Holding(_)));

        if let Some(h) = &w.home {
            if !h.m.transient().is_none() {
                return Err(format!(
                    "quiescent with transient {} pending",
                    h.m.transient().name()
                ));
            }
            if h.m.pending_len() != 0 || h.m.has_current() {
                return Err("quiescent with directory requests still queued".into());
            }
            if matches!(h.app, App::Waiting(_)) {
                return Err("home app thread parked forever".into());
            }
            if matches!(h.lock, Lock::Waiting(_)) && !live_holder {
                return Err("home lock waiter blocked with no live holder".into());
            }
            // Home dentry must mirror the directory state.
            let want = (
                h.m.state().home_local(),
                match h.m.state() {
                    DirState::Operated { op, .. } => op.0,
                    _ => NOTAG,
                },
            );
            if h.dentry != want {
                return Err(format!(
                    "home dentry {:?} disagrees with directory (want {want:?})",
                    h.dentry
                ));
            }
            // Directory ↔ survivor dentries, both directions.
            for (i, r) in w.rem.iter().enumerate() {
                let n = i + 1;
                let (in_sharers, as_owner, op_of) = match h.m.state() {
                    DirState::Shared { sharers } => (sharers.contains(&n), false, None),
                    DirState::Dirty { owner } => (false, *owner == n, None),
                    DirState::Operated { op, sharers } => (sharers.contains(&n), false, Some(op.0)),
                    DirState::Unshared => (false, false, None),
                };
                if !r.alive {
                    continue;
                }
                match r.state {
                    LocalState::Shared => {
                        if !(in_sharers && op_of.is_none()) {
                            return Err(format!(
                                "r{n} is Shared but directory is {:?}",
                                h.m.state()
                            ));
                        }
                    }
                    LocalState::Exclusive => {
                        if !as_owner {
                            return Err(format!(
                                "r{n} is Exclusive but directory is {:?}",
                                h.m.state()
                            ));
                        }
                    }
                    LocalState::Operated => {
                        if op_of != Some(r.op_tag) || !in_sharers {
                            return Err(format!(
                                "r{n} Operated({}) but directory is {:?}",
                                r.op_tag,
                                h.m.state()
                            ));
                        }
                    }
                    LocalState::Invalid => {
                        if in_sharers || as_owner {
                            return Err(format!("directory lists Invalid r{n}: {:?}", h.m.state()));
                        }
                    }
                    s => return Err(format!("r{n} stuck in transient state {s:?} at quiescence")),
                }
            }
        }
        for (i, r) in w.rem.iter().enumerate() {
            if !r.alive {
                continue;
            }
            if matches!(r.app, App::Waiting(_)) {
                return Err(format!("r{} app thread parked forever", i + 1));
            }
            if matches!(r.lock, Lock::Waiting(_)) && (w.home.is_none() || !live_holder) {
                return Err(format!(
                    "r{} lock waiter blocked with no live grantor",
                    i + 1
                ));
            }
            if w.home.is_none() && (r.state.in_flight() || r.after.is_some()) {
                return Err(format!("r{} stuck in-flight after home death", i + 1));
            }
        }
        Ok(())
    }

    fn params(&self) -> String {
        format!(" (grace={}ns)", self.grace)
    }

    fn coverage(&self) -> String {
        format!(
            "pd_transients={:?} pd_states={:?} homedown_states={:?} retry_transients={:?} \
             epochs_aborted={} sharers_pruned={} locks_reclaimed={} reductions={} \
             suspect_refutes={} suspect_confirms={} suspected_dirty_states={} \
             persists={} persist_acks={} killed_mid_persist={} home_restarts={} \
             remote_restarts={} compactions={}/{} killed_mid_compaction={:?} \
             restarts_from_checkpoint={} double_kills={} both_dead_states={}",
            self.pd_transients,
            self.pd_states,
            self.homedown_states,
            self.retry_transients,
            self.epochs_aborted,
            self.sharers_pruned,
            self.locks_reclaimed,
            self.reductions,
            self.suspect_refutes,
            self.suspect_confirms,
            self.suspected_dirty_states,
            self.persists,
            self.persist_acks,
            self.killed_mid_persist,
            self.home_restarts,
            self.remote_restarts,
            self.compactions_completed,
            self.compactions_started,
            self.killed_mid_compaction,
            self.restarts_from_checkpoint,
            self.double_kills,
            self.both_dead_states,
        )
    }
}

impl Coherence {
    /// Deliver one message to remote `i` (node id `i+1`).
    fn deliver_to_remote(&mut self, w: &mut World, i: usize, msg: Msg) -> Check {
        match msg {
            Msg::Fill { exclusive } => {
                let granted = if exclusive {
                    LocalState::Exclusive
                } else {
                    LocalState::Shared
                };
                self.run_cache_event(w, i, CacheEvent::FillDone { granted })?;
            }
            Msg::Grant { op } => self.run_cache_event(w, i, CacheEvent::GrantDone { op })?,
            Msg::Inv => self.run_cache_event(w, i, CacheEvent::Invalidate { from: HOME })?,
            Msg::RecallDirty => self.run_cache_event(w, i, CacheEvent::RecallDirty)?,
            Msg::Downgrade => self.run_cache_event(w, i, CacheEvent::DowngradeDirty)?,
            Msg::RecallOperated { op } => {
                self.run_cache_event(w, i, CacheEvent::RecallOperated { op })?;
            }
            Msg::LockGrant { kind } => {
                let r = &mut w.rem[i];
                if r.lock != Lock::Waiting(kind) {
                    return Err(format!(
                        "r{} got a {kind:?} lock grant it never asked for",
                        i + 1
                    ));
                }
                r.lock = Lock::Holding(kind);
            }
            Msg::Down { dead } => {
                assert_eq!(dead, HOME, "only the home's death reaches a remote");
                if w.home.is_some() {
                    // Restart gating requires every marker consumed first, so a
                    // marker outliving the rebirth means the model is broken.
                    return Err("Down marker consumed after the home restarted".into());
                }
                self.homedown_states.insert(w.rem[i].state.name());
                let r = &mut w.rem[i];
                r.home_down = true;
                // Lock slots waiting on (or holding locks managed by) the dead
                // home are meaningless now: the table died with the home.
                r.lock = Lock::Idle;
                self.run_cache_event(w, i, CacheEvent::HomeDown)?;
                // An application wait with no fill in flight will never be woken
                // by the protocol again — the runtime wakes it on the detector
                // edge so it re-checks and observes NodeUnavailable.
                if w.rem[i].app != App::Idle
                    && !w.rem[i].state.in_flight()
                    && w.rem[i].after.is_none()
                {
                    w.rem[i].app = App::Idle;
                }
            }
            Msg::Restarted => {
                // FIFO put the old incarnation's Down marker first, so the
                // remote has already torn down its in-flight state; what's left
                // is to void rights granted by the dead incarnation and resume
                // talking to the new one.
                w.rem[i].home_down = false;
                self.run_cache_event(w, i, CacheEvent::HomeRestarted)?;
            }
            other => {
                return Err(format!(
                    "remote-only message {other:?} delivered to r{}",
                    i + 1
                ))
            }
        }
        Ok(())
    }

    /// Deliver one message from remote `i` (node id `i+1`) to the home.
    fn deliver_to_home(&mut self, w: &mut World, i: usize, msg: Msg) -> Check {
        let from = i + 1;
        if w.home.as_ref().unwrap().knows_dead[i] && !matches!(msg, Msg::Down { .. }) {
            // FIFO + marker-last makes this unreachable; if it fires the kill
            // model itself is broken.
            return Err(format!(
                "home consumed {msg:?} from r{from} after its Down marker"
            ));
        }
        match msg {
            Msg::Req { kind } => self.run_home_event(
                w,
                HomeEvent::Request(Request {
                    source: Requester::Remote {
                        node: from,
                        dst_off: 0,
                    },
                    kind,
                }),
            )?,
            Msg::InvAck => self.run_home_event(w, HomeEvent::InvAck { from })?,
            Msg::EvictNotice => self.run_home_event(w, HomeEvent::EvictNotice { from })?,
            Msg::Writeback { downgrade } => {
                self.run_home_event(w, HomeEvent::Writeback { from, downgrade })?;
            }
            Msg::Flush { op } => self.run_home_event(
                w,
                HomeEvent::Flush {
                    from,
                    op,
                    has_data: true,
                },
            )?,
            Msg::LockAcq { kind } => {
                let h = w.home.as_mut().unwrap();
                let granted = h.locks.acquire(ELEM, kind, LockSource::Remote(from));
                if let Some(src) = granted {
                    self.deliver_lock_grants(w, vec![(src, kind)])?;
                }
            }
            Msg::LockRel { kind } => {
                let h = w.home.as_mut().unwrap();
                let granted = h.locks.release(ELEM, kind, Some(from));
                self.deliver_lock_grants(w, granted)?;
            }
            Msg::Down { dead } => {
                assert_eq!(dead, from);
                if w.rem[i].alive {
                    return Err(format!("quorum confirmed the death of LIVE node {dead}"));
                }
                if w.suspected[i] {
                    // The home's own suspicion was resolved by the suspect's
                    // actual death rather than a refutation.
                    self.suspect_confirms += 1;
                    w.suspected[i] = false;
                }
                let h = w.home.as_mut().unwrap();
                self.pd_transients.insert(h.m.transient().name());
                self.pd_states.insert(h.m.state().name());
                h.knows_dead[i] = true;
                // Each confirmed death burns one membership epoch, in marker
                // consumption order (a double kill burns 1 then 2).
                let view_epoch = h.m.view_epoch() + 1;
                self.run_home_event(w, HomeEvent::PeerDown { dead, view_epoch })?;
                let h = w.home.as_mut().unwrap();
                let purge = h.locks.forget_peer(dead);
                self.locks_reclaimed += purge.reclaimed;
                self.deliver_lock_grants(
                    w,
                    purge.granted.into_iter().map(|(_, s, k)| (s, k)).collect(),
                )?;
            }
            other => return Err(format!("home-only message {other:?} sent to the home")),
        }
        Ok(())
    }

    /// Deliver lock grants returned by the table, mirroring the runtime's
    /// cascade: a grant to a node already known dead is immediately released
    /// back (the table re-pumps to the next waiter).
    fn deliver_lock_grants(
        &mut self,
        w: &mut World,
        granted: Vec<(LockSource<u32>, LockKind)>,
    ) -> Check {
        let mut queue: VecDeque<(LockSource<u32>, LockKind)> = granted.into();
        while let Some((src, lk)) = queue.pop_front() {
            match src {
                LockSource::Local(tok) => {
                    assert_eq!(tok, LOCK_TOKEN, "unknown local lock token");
                    let h = w.home.as_mut().unwrap();
                    if h.lock != Lock::Waiting(lk) {
                        return Err("home lock slot granted while not waiting".into());
                    }
                    h.lock = Lock::Holding(lk);
                }
                LockSource::Remote(n) => {
                    let h = w.home.as_mut().unwrap();
                    if h.knows_dead[n - 1] {
                        // Runtime cascade: deliver_grant sees the grantee is
                        // dead and releases straight back.
                        let more = h.locks.release(ELEM, lk, Some(n));
                        self.locks_reclaimed += 1;
                        queue.extend(more);
                    } else if w.rem[n - 1].alive {
                        w.h2r[n - 1].push_back(Msg::LockGrant { kind: lk });
                    }
                    // else: grantee died but the marker is still in flight; the
                    // grant message is lost with the node, and the marker's
                    // forget_peer sweep will reclaim the table slot.
                }
            }
        }
        Ok(())
    }

    /// Feed one event to the home machine and execute its actions.
    fn run_home_event(&mut self, w: &mut World, ev: HomeEvent<u32>) -> Check {
        let now = w.now;
        let grace = self.grace;
        let actions = w.home.as_mut().unwrap().m.on_event(now, grace, ev);
        for a in actions {
            match a {
                HomeAction::ChargeDirUpdate => {}
                HomeAction::Wake(tok) => {
                    assert_eq!(tok, APP_TOKEN, "unknown home wake token");
                    let h = w.home.as_mut().unwrap();
                    if !matches!(h.app, App::Waiting(_)) {
                        return Err("home app woken while not waiting".into());
                    }
                    h.app = App::Idle;
                }
                HomeAction::SendFill { to, exclusive, .. } => {
                    self.send_h2r(w, to, Msg::Fill { exclusive })?;
                }
                HomeAction::SendGrant { to, op } => self.send_h2r(w, to, Msg::Grant { op })?,
                HomeAction::SendInvalidate { to } => self.send_h2r(w, to, Msg::Inv)?,
                HomeAction::SendRecallDirty { to } => self.send_h2r(w, to, Msg::RecallDirty)?,
                HomeAction::SendDowngrade { to } => self.send_h2r(w, to, Msg::Downgrade)?,
                HomeAction::SendRecallOperated { to, op } => {
                    self.send_h2r(w, to, Msg::RecallOperated { op })?;
                }
                HomeAction::ApplyFlushData { .. } => self.reductions += 1,
                HomeAction::SetHomeLocal { state, tag } => {
                    w.home.as_mut().unwrap().dentry = (state, tag);
                }
                HomeAction::StartHomeDrain { target, tag } => {
                    let h = w.home.as_mut().unwrap();
                    if h.draining {
                        return Err("overlapping home drains".into());
                    }
                    h.dentry = (target, tag);
                    h.draining = true;
                }
                HomeAction::ScheduleRetry { at } => {
                    if w.retry_at.is_some() {
                        return Err("two grace retries scheduled at once".into());
                    }
                    w.retry_at = Some(at);
                }
                HomeAction::Trace(_) => {}
                HomeAction::Count(c) => match c {
                    Counter::EpochsAborted => self.epochs_aborted += 1,
                    Counter::SharersPruned => self.sharers_pruned += 1,
                    Counter::FlushPersists => self.persist_acks += 1,
                    _ => {}
                },
                HomeAction::PersistChunk { seq } => {
                    self.persists += 1;
                    if w.pending_persist.is_some() {
                        return Err("two persists pending at once".into());
                    }
                    if !w.durable {
                        return Err("a non-durable machine emitted PersistChunk".into());
                    }
                    w.pending_persist = Some(seq);
                }
                // Migration actions cannot fire in this world (no
                // `BeginMigration` is ever injected); the elastic re-homing
                // search in the `migration` module covers them.
                HomeAction::TransferChunk { .. }
                | HomeAction::SendMigrateAck { .. }
                | HomeAction::SendMigrateCommit { .. }
                | HomeAction::DepartChunk { .. }
                | HomeAction::AdoptChunk { .. }
                | HomeAction::ForwardRequest { .. } => {
                    return Err("migration action in a migration-free world".into())
                }
            }
        }
        Ok(())
    }

    /// Send a protocol message from the home to remote node `to`. A send to a
    /// node the home has already declared dead is a recovery bug — the whole
    /// point of `forget_peer` is that no action ever references a corpse.
    fn send_h2r(&mut self, w: &mut World, to: usize, msg: Msg) -> Check {
        if w.home.as_ref().unwrap().knows_dead[to - 1] {
            return Err(format!("home sent {msg:?} to node {to} it knows is dead"));
        }
        if w.rem[to - 1].alive {
            w.h2r[to - 1].push_back(msg);
        }
        // else: the node died but the detector hasn't fired yet; the message is
        // lost in flight (prefix truncation already modeled it).
        Ok(())
    }

    /// Feed one event to the cache machine of remote `i` and execute its
    /// actions. Uses a worklist because some actions (line allocation, waiter
    /// rechecks) synchronously produce follow-up events.
    fn run_cache_event(&mut self, w: &mut World, i: usize, first: CacheEvent) -> Check {
        let mut events = VecDeque::from([first]);
        while let Some(ev) = events.pop_front() {
            let r = &w.rem[i];
            let view = CacheView {
                state: r.state,
                op_tag: r.op_tag,
                line: r.line,
                draining: r.after.is_some(),
            };
            let mut wake = false;
            for a in CacheMachine::on_event(&view, ev) {
                match a {
                    CacheAction::QueueWaiter => {}
                    CacheAction::WakeRequester | CacheAction::WakeAllWaiters => wake = true,
                    CacheAction::BeginDrain { target, tag, after } => {
                        let r = &mut w.rem[i];
                        if r.after.is_some() {
                            return Err("overlapping drains on one dentry".into());
                        }
                        r.state = target;
                        r.op_tag = tag;
                        r.after = Some(after);
                    }
                    CacheAction::AllocLine { kind } => {
                        events.push_back(CacheEvent::LineAllocated { line: LINE, kind });
                    }
                    CacheAction::SetLine { line } => w.rem[i].line = line,
                    CacheAction::ReleaseLine { line } => {
                        if line != LINE_NONE {
                            w.rem[i].line = LINE_NONE;
                        }
                    }
                    CacheAction::SetTransient { state } => w.rem[i].state = state,
                    CacheAction::Promote { state, tag } => {
                        let r = &mut w.rem[i];
                        r.state = state;
                        r.op_tag = tag;
                    }
                    CacheAction::InitOperandBuffer { .. } => {}
                    CacheAction::SendEvictNotice => self.send_r2h(w, i, Msg::EvictNotice)?,
                    CacheAction::SendInvalidateAck { to } => {
                        assert_eq!(to, HOME);
                        self.send_r2h(w, i, Msg::InvAck)?;
                    }
                    CacheAction::SendWriteback {
                        downgrade, release, ..
                    } => {
                        self.send_r2h(w, i, Msg::Writeback { downgrade })?;
                        if release {
                            w.rem[i].line = LINE_NONE;
                        }
                    }
                    CacheAction::SendFlush { op, release, .. } => {
                        self.send_r2h(w, i, Msg::Flush { op })?;
                        if release {
                            w.rem[i].line = LINE_NONE;
                        }
                    }
                    CacheAction::SendUpgrade { kind, .. } => {
                        self.send_r2h(w, i, Msg::Req { kind })?;
                    }
                    CacheAction::PrefetchHint | CacheAction::Trace(_) | CacheAction::Count(_) => {}
                }
            }
            if wake {
                recheck_app(w, i, &mut events);
            }
        }
        Ok(())
    }

    /// Send a protocol message from remote `i` to the home. A send after the
    /// node consumed the home's `Down` marker is a recovery bug: every cache
    /// path must go local-only once the home is known dead.
    fn send_r2h(&mut self, w: &mut World, i: usize, msg: Msg) -> Check {
        if w.rem[i].home_down {
            return Err(format!(
                "r{} sent {msg:?} to a home it knows is dead",
                i + 1
            ));
        }
        if w.home.is_some() {
            w.r2h[i].push_back(msg);
        }
        // else: home died, marker in flight; the message is never consumed.
        Ok(())
    }
}

/// A wake fired on remote `i`: the parked application request re-checks its
/// rights, exactly like the runtime's retry loop. It either completes
/// (satisfied, or home dead ⇒ NodeUnavailable) or re-issues the request.
fn recheck_app(w: &mut World, i: usize, events: &mut VecDeque<CacheEvent>) {
    let r = &mut w.rem[i];
    let App::Waiting(kind) = r.app else {
        return;
    };
    if satisfied(r.state, r.op_tag, kind) || r.home_down {
        r.app = App::Idle;
    } else {
        let drain_pending = r.after.is_some();
        events.push_back(CacheEvent::Request {
            kind,
            home_down: false,
            drain_pending,
        });
    }
}

fn initial_world(
    req: [u8; NREM],
    locks: [u8; NREM],
    evicts: [u8; NREM],
    home_req: u8,
    home_locks: u8,
    kills: u8,
    suspects: u8,
) -> World {
    World {
        home: Some(Home {
            m: HomeMachine::new(),
            locks: LockTable::default(),
            dentry: (LocalState::Exclusive, NOTAG),
            draining: false,
            knows_dead: [false; NREM],
            app: App::Idle,
            lock: Lock::Idle,
            req_budget: home_req,
            lock_budget: home_locks,
        }),
        rem: [
            Remote::fresh(req[0], locks[0], evicts[0]),
            Remote::fresh(req[1], locks[1], evicts[1]),
        ],
        h2r: [VecDeque::new(), VecDeque::new()],
        r2h: [VecDeque::new(), VecDeque::new()],
        now: 0,
        retry_at: None,
        kill_budget: kills,
        suspected: [false; NREM],
        suspect_budget: suspects,
        durable: false,
        pending_persist: None,
        disk_seq: 0,
        acked_seq: 0,
        restart_budget: 0,
        ckpt: None,
        ckpt_prev: None,
        trunc_floor: 0,
        compacting: None,
        compact_budget: 0,
    }
}

/// Durable-mode world: the home machine gates acknowledgements on the
/// modeled chunk store, and `restarts` node rebirths may be injected.
fn durable_world(mut w: World, restarts: u8) -> World {
    w.durable = true;
    w.restart_budget = restarts;
    w.home.as_mut().unwrap().m.set_durable(true);
    w
}

/// Compaction world: on top of a durable world, up to `compactions`
/// checkpoint/compaction sequences may start at any point, each walking
/// the snapshot→rotate→rename→truncate ladder with kills between phases.
fn compaction_world(mut w: World, compactions: u8) -> World {
    assert!(w.durable, "compaction requires the durable world");
    w.compact_budget = compactions;
    w
}

/// The coherence-world searches, by the name each one's summary line
/// carries. `protocol_check.rs` documents what each one proves.
pub const SEARCHES: [&str; 8] = [
    "coherence",
    "locks",
    "combined",
    "suspected",
    "durable",
    "compaction",
    "double-kill",
    "grace",
];

/// The search named `name`: its grace window and its root world's budgets.
pub fn search(name: &'static str) -> Search<Coherence> {
    let (grace, root) = match name {
        "coherence" => (0, initial_world([2, 2], [0, 0], [1, 1], 2, 0, 1, 0)),
        "locks" => (0, initial_world([0, 0], [2, 2], [0, 0], 0, 2, 1, 0)),
        "combined" => (0, initial_world([1, 1], [1, 1], [0, 0], 0, 1, 1, 0)),
        "suspected" => (0, initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 2)),
        "durable" => (
            0,
            durable_world(initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 0), 1),
        ),
        "compaction" => (
            0,
            compaction_world(
                durable_world(initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 0), 1),
                2,
            ),
        ),
        "double-kill" => (0, initial_world([1, 1], [1, 1], [1, 0], 1, 0, 2, 0)),
        // With `grace_ns = 1` every fresh grant opens a GraceWait window;
        // smaller budgets keep the time-carrying state space in check.
        "grace" => (1, initial_world([1, 1], [0, 0], [0, 0], 1, 0, 1, 0)),
        _ => panic!("unknown coherence search `{name}` (known: {SEARCHES:?})"),
    };
    let model = Coherence {
        grace,
        ..Coherence::default()
    };
    let mut search = Search::new(name, model, root);
    if grace > 0 {
        search.max_depth = env_usize("DARRAY_MC_MAX_DEPTH", 64);
    }
    search
}
