//! Explicit-state **crash-consistency model checker** for the coherence
//! protocol core: the ten searches and their coverage asserts.
//!
//! The worlds drive the real sans-I/O machines (`HomeMachine`,
//! `CacheMachine`, `LockTable`): `checker/coherence.rs` is one home and two
//! remotes under kills, false suspicions, persists, restarts and
//! compaction (DESIGN.md §11, §12, §14), and `checker/migration.rs` is live
//! re-homing under kills (§15). Both run on the one engine in
//! `checker/mod.rs`, which checks safety at every reachable state and
//! liveness at every quiescent one, and reports a violation with the
//! transition path that reached it — the first path DFS found in
//! transition order, not necessarily the shortest.
//!
//! Knobs (env): `DARRAY_MC_MAX_DEPTH`, `DARRAY_MC_MIN_STATES`,
//! `DARRAY_MC_MAX_STATES`, `DARRAY_MC_TRACE_FILE`.

mod checker;

use checker::{coherence, env_usize};

/// The main coherence search: no grace window (every transient is reachable
/// without time passing), two remotes issuing Read/Write/Operate plus one
/// eviction, and one kill (home or remote 1) injected at every point —
/// including every surviving-prefix truncation of the victim's in-flight
/// messages. Lock traffic is checked by [`crash_model_locks`] (the two
/// subsystems only meet at the `PeerDown` sweep, so searching them
/// separately sums the state spaces instead of multiplying them).
#[test]
fn crash_model_coherence_no_grace() {
    let s = coherence::search("coherence").run();

    let min_states = env_usize("DARRAY_MC_MIN_STATES", 10_000);
    assert!(
        s.states() >= min_states,
        "explored only {} states (< {min_states}); the model lost coverage",
        s.states()
    );
    // A PeerDown must have been injected into every transient phase the
    // protocol can be in (GraceWait needs grace > 0; see the other test).
    for t in [
        "None",
        "AwaitInvAcks",
        "AwaitWriteback",
        "AwaitFlushes",
        "HomeDrain",
    ] {
        assert!(
            s.model.pd_transients.contains(t),
            "no kill was consumed during transient {t}: {:?}",
            s.model.pd_transients
        );
    }
    assert!(
        s.model.pd_states.contains("Operated"),
        "no kill landed during an Operated epoch: {:?}",
        s.model.pd_states
    );
    assert!(
        s.model.epochs_aborted > 0,
        "no Operated epoch was ever closed by abort"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Lock-subsystem search: both remotes and the home contend on one element
/// with reader and writer locks while one kill (home or remote 1) lands at
/// every point. Asserts orphaned locks are reclaimed and no waiter is left
/// blocked on a dead grantor or dead holder.
#[test]
fn crash_model_locks() {
    let s = coherence::search("locks").run();

    assert!(
        s.model.locks_reclaimed > 0,
        "no orphaned lock was ever reclaimed"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Cross-subsystem search: one remote drives coherence *and* lock traffic
/// at once with a kill, so the `PeerDown` sweep (directory cleanup followed
/// by the lock purge) is exercised with both subsystems mid-flight.
#[test]
fn crash_model_combined() {
    let s = coherence::search("combined").run();

    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Suspected-but-alive search (DESIGN.md §12): the home may falsely suspect
/// either live remote while coherence traffic (including Write requests
/// that put a remote in Exclusive with unwritten Dirty data) is in flight,
/// and one real kill can land at any point — including mid-suspicion, so
/// both resolutions (refute for a live suspect, the `Down` marker for a
/// dead one) interleave with every protocol phase. Safety asserts no live
/// peer is ever declared dead; quiescence asserts the directory and every
/// survivor's dentry still agree after suspect → refute → replay cycles —
/// i.e. no reachable interleaving reclaims locks or discards the Dirty
/// writes of a peer that was merely suspected.
#[test]
fn crash_model_suspected_but_alive() {
    let s = coherence::search("suspected").run();

    assert!(
        s.model.suspect_refutes > 0,
        "no suspicion of a live remote was ever refuted"
    );
    assert!(
        s.model.suspect_confirms > 0,
        "no suspicion was ever resolved by the suspect's actual death"
    );
    assert!(
        s.model.suspected_dirty_states > 0,
        "no reachable state had a live suspect holding unwritten Dirty data"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Durable kill-then-restart search (DESIGN.md §14): the home gates every
/// dirty-data acknowledgement on a modeled chunk-store persist, a kill can
/// land at any point — including mid-persist, branching on whether the
/// record reached the log — and one restart may rebirth the victim, which
/// recovers exactly the log's contents (`disk_seq`). Safety carries the
/// theorem in every reachable state: `acked_seq <= disk_seq`, i.e. every
/// write the protocol acknowledged before the kill is durably recoverable,
/// and the replay frontier never regresses (a restarted node's new records
/// always supersede the replayed ones). Quiescence additionally proves the
/// rebirthed identity serves traffic again: survivors void the old
/// incarnation's grants (`Restarted` after the `Down` marker) and re-fill
/// from the recovered image, and a restarted remote is re-admitted at a
/// bumped view epoch.
#[test]
fn crash_model_durable_restart() {
    let s = coherence::search("durable").run();

    assert!(s.model.persists > 0, "no flush was ever persisted");
    assert!(
        s.model.persist_acks > 0,
        "no persist was ever acknowledged by the machine"
    );
    assert!(
        s.model.killed_mid_persist > 0,
        "no kill ever landed while a persist was pending"
    );
    assert!(
        s.model.pd_transients.contains("AwaitPersist"),
        "no remote death was consumed during AwaitPersist: {:?}",
        s.model.pd_transients
    );
    assert!(s.model.home_restarts > 0, "the home was never restarted");
    assert!(s.model.remote_restarts > 0, "a remote was never restarted");
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Checkpoint/compaction crash-matrix search (DESIGN.md §14): on top of
/// the durable world, up to two compaction sequences may start at any
/// point, and the one kill can land *between any two phases* of the
/// snapshot→rotate→rename→truncate ladder — every crash point of
/// `LogChunkStore::checkpoint`. Safety carries three theorems in every
/// reachable state: persist-before-ack (`acked_seq <= disk_seq`),
/// lag-by-one truncation (`trunc_floor <=` the fallback generation — a
/// torn newest checkpoint never strands a truncated record), and full
/// recoverability (newest readable checkpoint + log suffix covers every
/// acknowledged write, in every phase). The restart recomputes the replay
/// frontier from the disk exactly as reopen does, so a compaction that
/// lost a window would surface as a persist-before-ack violation on the
/// next state. Two sequences are required so the second runs with a
/// populated `.prev` and a non-trivial truncation.
#[test]
fn crash_model_durable_compaction() {
    let s = coherence::search("compaction").run();

    assert!(s.model.persists > 0, "no flush was ever persisted");
    assert!(
        s.model.compactions_completed > 0,
        "no compaction sequence ever ran to completion"
    );
    for phase in ["WriteTmp", "Rotate", "Rename", "Truncate"] {
        assert!(
            s.model.killed_mid_compaction.contains(phase),
            "no kill landed before compaction phase {phase}: {:?}",
            s.model.killed_mid_compaction
        );
    }
    assert!(
        s.model.restarts_from_checkpoint > 0,
        "no restart ever recovered through a checkpoint generation"
    );
    assert!(s.model.home_restarts > 0, "the home was never restarted");
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Double-kill membership search: with a kill budget of two, the quorum
/// may confirm TWO simultaneous deaths (`KillBoth` — both remotes at once,
/// independent surviving prefixes) as well as any two sequential kills.
/// The home consumes the two Down markers in either order, burning one
/// view epoch per death, and must survive with a coherent directory: both
/// sweeps prune sharers/wait-sets/locks, no bookkeeping references either
/// corpse, and quiescence still holds. Safety's "no live peer declared
/// dead" covers the markers crossing in flight with the victims' last
/// protocol messages.
#[test]
fn crash_model_double_kill() {
    let s = coherence::search("double-kill").run();

    assert!(
        s.model.double_kills > 0,
        "no simultaneous double kill was injected"
    );
    assert!(
        s.model.both_dead_states > 0,
        "the home never survived both remote deaths confirmed"
    );
    assert!(
        s.model.locks_reclaimed > 0,
        "no orphaned lock was reclaimed across the double death"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Grace-window variant: with `grace_ns = 1` every fresh grant opens a
/// GraceWait window, so kills and retries land inside it. Smaller budgets
/// keep the (now time-carrying) state space in check.
#[test]
fn crash_model_grace_window() {
    let s = coherence::search("grace").run();

    assert!(
        s.model.retry_transients.contains("GraceWait"),
        "no retry ever fired inside a grace window: {:?}",
        s.model.retry_transients
    );
    assert!(
        s.model.pd_transients.contains("GraceWait"),
        "no kill was consumed during GraceWait: {:?}",
        s.model.pd_transients
    );
    assert!(s.quiescent > 0);
}

/// Elastic re-homing searches (DESIGN.md §15): join + migrate under crashes.
mod migration {
    use super::*;

    /// Non-durable search: one migration, a requester issuing two
    /// Read/Write requests plus one eviction, and one kill of source,
    /// target, or requester injected at every point (with every surviving
    /// message prefix). Proves single authority in every reachable state
    /// and covers kills in every non-persist migration phase.
    #[test]
    fn migration_model_single_authority() {
        let s = checker::migration::search("migration").run();

        assert!(
            s.model.completed > 0,
            "no interleaving committed the migration"
        );
        assert!(
            s.model.aborted > 0,
            "no target death was ever absorbed by abort"
        );
        assert!(s.model.migrations_out > 0 && s.model.migrations_in > 0);
        assert!(
            s.model.parked_replays > 0,
            "no request was ever parked behind the fence and replayed"
        );
        assert!(
            s.model.forwards > 0,
            "no stale-home request was ever forwarded"
        );
        // Kills must land in every migration phase of the survivor that
        // observes them: the source sees target/requester deaths in every
        // outbound phase, the target sees source deaths while awaiting the
        // commit.
        for phase in [
            "MigratingOut:Recall",
            "MigratingOut:Drain",
            "MigratingOut:AwaitAck",
        ] {
            assert!(
                s.model.kill_phases.contains(&("tgt", phase)),
                "no target kill consumed during {phase}: {:?}",
                s.model.kill_phases
            );
        }
        assert!(
            s.model
                .kill_phases
                .contains(&("req", "MigratingOut:Recall")),
            "no requester kill consumed during the migration recall: {:?}",
            s.model.kill_phases
        );
        assert!(
            s.model
                .kill_phases
                .contains(&("src", "MigratingIn:AwaitCommit")),
            "no source kill consumed while the target awaited the commit: {:?}",
            s.model.kill_phases
        );
        let min_states = env_usize("DARRAY_MC_MIN_STATES", 2_000);
        assert!(
            s.states() >= min_states,
            "explored only {} states (< {min_states}); the model lost coverage",
            s.states()
        );
    }

    /// Durable search: the same migration with both logs live, proving the
    /// no-acked-write-lost theorem (best-epoch-wins recovery always holds
    /// the newest acknowledged value) and covering source kills during the
    /// target's persist phase.
    #[test]
    fn migration_model_durable_no_lost_write() {
        let s = checker::migration::search("migration-durable").run();

        assert!(
            s.model.completed > 0,
            "no interleaving committed the migration"
        );
        assert!(
            s.model
                .kill_phases
                .contains(&("src", "MigratingIn:Persist")),
            "no source kill consumed during the target's adopt-persist: {:?}",
            s.model.kill_phases
        );
        assert!(
            s.model
                .kill_phases
                .contains(&("src", "MigratingIn:AwaitCommit")),
            "no source kill consumed while the target awaited the commit: {:?}",
            s.model.kill_phases
        );
        for phase in [
            "MigratingOut:Recall",
            "MigratingOut:Drain",
            "MigratingOut:AwaitAck",
        ] {
            assert!(
                s.model.kill_phases.contains(&("tgt", phase)),
                "no target kill consumed during {phase}: {:?}",
                s.model.kill_phases
            );
        }
    }
}
