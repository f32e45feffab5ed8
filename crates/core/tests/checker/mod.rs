//! One explicit-state model-checking engine for every protocol world.
//!
//! A [`Model`] describes a world: its state, the transitions enabled in a
//! state (*internal* protocol progress and *external* stimuli), how one
//! applies, and the invariants that must hold in every reachable state
//! (safety) and in every quiescent one (liveness: no internal transition
//! enabled). [`Search`] runs a bounded depth-first search over a model from
//! a root state and owns everything the worlds share: the memo, the depth
//! bound, the state budget, the quiescence count, the transition path and
//! the failure report.
//!
//! States are memoized by a structural `Hash` of the whole state, folded to
//! a `u64` with `DefaultHasher::new()` (fixed keys, so runs are
//! reproducible). The memo records the shallowest depth each state was
//! reached at; a state first seen deep is expanded again when a strictly
//! shallower path reaches it, once the search has cut anything at the depth
//! bound. A shallower revisit can only happen after the first visit's
//! subtree has finished, so `depth_pruned == 0` at that point proves the
//! subtree was explored in full and the re-expansion is skipped — runs that
//! never hit the bound therefore count exactly as an insert-only memo would.
//!
//! A violation is reported once, with the transition path that reached it.
//! The numbered step labels are rebuilt only then, by replaying the path
//! from the root, so the search itself never formats a label. The report is
//! printed and written to `DARRAY_MC_TRACE_FILE` (default
//! `target/model-check-counterexample.txt`). It is the first path DFS found
//! in transition order, not necessarily the shortest one.
//!
//! Knobs (env): `DARRAY_MC_MAX_DEPTH` (default 96), `DARRAY_MC_MAX_STATES`
//! (default 5 000 000), `DARRAY_MC_TRACE_FILE`; the tests read
//! `DARRAY_MC_MIN_STATES`.

pub mod coherence;
pub mod migration;

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{Debug, Write as _};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The outcome of applying a transition or checking an invariant: `Err`
/// carries the violation message.
pub type Check = Result<(), String>;

/// A world the engine can search.
pub trait Model {
    /// One explorable world state. Every field that influences future
    /// behavior must live here, and nothing else: coverage tallies belong
    /// to the model, so they never split otherwise-identical states.
    type State: Clone + Debug + Hash;
    /// One atomic step of the world.
    type Tr: Copy;

    /// Heading of a failure report (`<TITLE> FAILED: <msg>`).
    const TITLE: &'static str;

    /// Protocol-progress transitions enabled in `s`. A state with none is
    /// quiescent.
    fn internal(&self, s: &Self::State) -> Vec<Self::Tr>;
    /// External stimuli enabled in `s`.
    fn external(&self, s: &Self::State) -> Vec<Self::Tr>;
    /// Apply `tr` to `s`. On `Err`, `s` is left as it was at the violation.
    fn apply(&mut self, s: &mut Self::State, tr: Self::Tr) -> Check;
    /// Invariants of every reachable state.
    fn check_safety(&mut self, s: &Self::State) -> Check;
    /// Liveness conditions of every quiescent state.
    fn check_quiescence(&mut self, s: &Self::State) -> Check;
    /// Human-readable label of `tr` taken from `s`, for counterexamples.
    fn label(&self, s: &Self::State, tr: Self::Tr) -> String;
    /// Search parameters appended to the report's state count.
    fn params(&self) -> String {
        String::new()
    }
    /// The model's coverage tallies, for the summary line.
    fn coverage(&self) -> String;
}

/// A violation found by [`Search::explore`].
pub struct Violation<M: Model> {
    pub msg: String,
    /// The transitions from the root; the last one is the failing step when
    /// the violation was raised while applying it.
    pub path: Vec<M::Tr>,
    /// The world at the instant of the violation.
    pub state: M::State,
}

/// A bounded depth-first search of one model from one root state.
pub struct Search<M: Model> {
    name: &'static str,
    pub model: M,
    root: M::State,
    pub max_depth: usize,
    max_states: usize,
    /// State key → shallowest depth it was reached at.
    seen: HashMap<u64, usize>,
    /// States whose successors were cut by the depth bound.
    pub depth_pruned: usize,
    pub quiescent: usize,
    path: Vec<M::Tr>,
}

pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn state_key<S: Hash>(s: &S) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

impl<M: Model> Search<M> {
    pub fn new(name: &'static str, model: M, root: M::State) -> Self {
        Search {
            name,
            model,
            root,
            max_depth: env_usize("DARRAY_MC_MAX_DEPTH", 96),
            max_states: env_usize("DARRAY_MC_MAX_STATES", 5_000_000),
            seen: HashMap::new(),
            depth_pruned: 0,
            quiescent: 0,
            path: Vec::new(),
        }
    }

    /// Distinct states explored.
    pub fn states(&self) -> usize {
        self.seen.len()
    }

    /// Explore every state reachable from the root within the bounds, and
    /// stop at the first violation.
    pub fn explore(&mut self) -> Result<(), Violation<M>> {
        let root = self.root.clone();
        self.visit(&root, 0).map_err(|(msg, state)| Violation {
            msg,
            path: std::mem::take(&mut self.path),
            state,
        })
    }

    /// [`Search::explore`], then print the summary line; a violation is
    /// reported and fails the test.
    pub fn run(mut self) -> Self {
        let start = Instant::now();
        if let Err(v) = self.explore() {
            self.report(v);
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "[{}] states={} quiescent={} depth_pruned={} wall_ms={:.0} states_per_s={:.0} {}",
            self.name,
            self.states(),
            self.quiescent,
            self.depth_pruned,
            secs * 1e3,
            self.states() as f64 / secs.max(1e-9),
            self.model.coverage(),
        );
        self
    }

    fn visit(&mut self, s: &M::State, depth: usize) -> Result<(), (String, M::State)> {
        let fresh = match self.seen.entry(state_key(s)) {
            Entry::Vacant(e) => {
                e.insert(depth);
                true
            }
            Entry::Occupied(mut e) => {
                if depth >= *e.get() || self.depth_pruned == 0 {
                    return Ok(());
                }
                e.insert(depth);
                false
            }
        };
        let fail = |msg: String| (msg, s.clone());
        if fresh {
            if self.seen.len() > self.max_states {
                return Err(fail(
                    "state-space budget exceeded (raise DARRAY_MC_MAX_STATES)".into(),
                ));
            }
            self.model.check_safety(s).map_err(fail)?;
        }
        let mut next = self.model.internal(s);
        if fresh && next.is_empty() {
            self.quiescent += 1;
            self.model.check_quiescence(s).map_err(fail)?;
        }
        if depth >= self.max_depth {
            self.depth_pruned += 1;
            return Ok(());
        }
        next.extend(self.model.external(s));
        for tr in next {
            let mut child = s.clone();
            self.path.push(tr);
            if let Err(msg) = self.model.apply(&mut child, tr) {
                return Err((msg, child));
            }
            self.visit(&child, depth + 1)?;
            self.path.pop();
        }
        Ok(())
    }

    /// Compose the counterexample (numbered transition labels, replayed
    /// from the root, then the world at the violation), print it, write it
    /// to `DARRAY_MC_TRACE_FILE`, and fail the test.
    fn report(&mut self, v: Violation<M>) -> ! {
        let mut report = String::new();
        let _ = writeln!(report, "{} FAILED: {}", M::TITLE, v.msg);
        let _ = writeln!(
            report,
            "states explored: {}{}",
            self.states(),
            self.model.params()
        );
        let _ = writeln!(report, "counterexample trace ({} steps):", v.path.len());
        let mut s = self.root.clone();
        for (i, &tr) in v.path.iter().enumerate() {
            let _ = writeln!(report, "  {:3}. {}", i + 1, self.model.label(&s, tr));
            // Every step but the last applied cleanly during the search.
            let _ = self.model.apply(&mut s, tr);
        }
        let _ = writeln!(report, "final world:\n{:#?}", v.state);
        let path = std::env::var("DARRAY_MC_TRACE_FILE").unwrap_or_else(|_| {
            concat!(
                env!("CARGO_TARGET_TMPDIR"),
                "/../model-check-counterexample.txt"
            )
            .to_string()
        });
        let _ = std::fs::write(&path, &report);
        eprintln!("{report}");
        eprintln!("(trace written to {path})");
        panic!("{} failed: {}", M::TITLE.to_lowercase(), v.msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain `0 → 1 → 2 → 3 → 4` plus a shortcut `0 → 4`, and `4 → 5`
    /// where state 5 violates safety. DFS takes the chain first, so state 4
    /// is first reached exactly at the depth bound and its successor is
    /// cut; the shortcut then reaches it again two levels above the bound.
    struct Shortcut;

    impl Model for Shortcut {
        type State = u8;
        type Tr = u8;
        const TITLE: &'static str = "SHORTCUT MODEL CHECK";

        fn internal(&self, s: &u8) -> Vec<u8> {
            match s {
                0 => vec![1, 4],
                1..=4 => vec![s + 1],
                _ => vec![],
            }
        }
        fn external(&self, _: &u8) -> Vec<u8> {
            vec![]
        }
        fn apply(&mut self, s: &mut u8, tr: u8) -> Check {
            *s = tr;
            Ok(())
        }
        fn check_safety(&mut self, s: &u8) -> Check {
            if *s == 5 {
                return Err("reached state 5".into());
            }
            Ok(())
        }
        fn check_quiescence(&mut self, _: &u8) -> Check {
            Ok(())
        }
        fn label(&self, s: &u8, tr: u8) -> String {
            format!("{s} -> {tr}")
        }
        fn coverage(&self) -> String {
            String::new()
        }
    }

    /// An insert-only memo would skip the shallower revisit of state 4 and
    /// never reach state 5.
    #[test]
    fn shallower_revisit_reexpands_a_state_cut_at_the_depth_bound() {
        let mut search = Search::new("shortcut", Shortcut, 0);
        search.max_depth = 4;
        let Err(v) = search.explore() else {
            panic!("the violation behind the shortcut was missed");
        };
        assert_eq!(v.msg, "reached state 5");
        assert_eq!(v.path, [4, 5]);
        assert_eq!(v.state, 5);
        assert_eq!(search.depth_pruned, 1);
        assert_eq!(search.states(), 6, "state 4 is re-expanded, not recounted");
    }
}
