//! A depth-bounded slice of every protocol model-checker search.
//!
//! The full searches (`cargo test --release -p darray --test
//! protocol_check`) explore ~1.87M states with their coverage asserts; here
//! each one runs on the same engine and world to depth 8, so safety and
//! quiescence are still checked at every state it reaches, in a debug build
//! and within seconds.

#[path = "../crates/core/tests/checker/mod.rs"]
mod checker;

use checker::{coherence, migration};

/// Deep enough to reach kills, drains and the first quiescent states of
/// every world; shallow enough for a debug build.
const DEPTH: usize = 8;

#[test]
fn coherence_searches_hold_to_depth_8() {
    for name in coherence::SEARCHES {
        let mut search = coherence::search(name);
        search.max_depth = DEPTH;
        search.run();
    }
}

#[test]
fn migration_searches_hold_to_depth_8() {
    for name in migration::SEARCHES {
        let mut search = migration::search(name);
        search.max_depth = DEPTH;
        search.run();
    }
}
