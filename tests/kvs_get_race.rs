//! `KvsView::get` takes no lock, so a put can swap the entry a reader has
//! just read, free the old pair, and a second put can reuse that slab slot
//! for another key while the reader is still reading it. These tests run
//! exactly that interleaving at a chosen point of the reader's pair read
//! and check that the reader still returns the key's value.

use std::sync::{Arc, Mutex};

use darray::{ArrayOptions, Cluster, ClusterConfig, Ctx, DArray, Sim, SimConfig};
use darray_kvs::{bucket_of, tag_of, DArrayBackend, Entry, KvBackend, Kvs, KvsConfig};

type Hook = Box<dyn FnOnce(&mut Ctx) + Send>;

/// A backend that runs a one-shot hook just before its `n`-th `get`
/// (counting from 0 after the hook is armed).
#[derive(Clone)]
struct Hooked {
    inner: DArrayBackend,
    hook: Arc<Mutex<Option<(usize, Hook)>>>,
}

impl Hooked {
    fn new(a: &DArray<u64>) -> Self {
        Self {
            inner: DArrayBackend(a.clone()),
            hook: Arc::default(),
        }
    }

    fn arm(&self, n: usize, f: Hook) {
        *self.hook.lock().unwrap() = Some((n, f));
    }
}

impl KvBackend for Hooked {
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64 {
        let due = {
            let mut slot = self.hook.lock().unwrap();
            match slot.as_mut() {
                Some((0, _)) => slot.take().map(|(_, f)| f),
                Some((n, _)) => {
                    *n -= 1;
                    None
                }
                None => None,
            }
        };
        if let Some(f) = due {
            f(ctx);
        }
        self.inner.get(ctx, i)
    }
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64) {
        self.inner.set(ctx, i, v)
    }
    fn wlock(&self, ctx: &mut Ctx, i: usize) {
        self.inner.wlock(ctx, i)
    }
    fn unlock(&self, ctx: &mut Ctx, i: usize) {
        self.inner.unlock(ctx, i)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

const KEY: &[u8] = b"key-0001";
const OTHER: &[u8] = b"key-0002";
const V1: [u8; 100] = [1; 100];
const V2: [u8; 100] = [2; 100];
const V_OTHER: [u8; 100] = [3; 100];

/// The entry of `key` in its head bucket (the tests never overflow).
fn entry_of(ctx: &mut Ctx, entries: &DArray<u64>, buckets: u64, key: &[u8]) -> Entry {
    let base = bucket_of(key, buckets) as usize * 16;
    (base..base + 15)
        .map(|i| Entry(entries.get(ctx, i)))
        .find(|e| e.tag() == tag_of(key))
        .expect("key has an entry in its head bucket")
}

/// Store `KEY = V1`, then `get(KEY)` through a reader whose byte-array
/// backend runs, just before its `nth` read of the pair, `put(KEY, V2)`
/// followed by `put(OTHER, V_OTHER)` into the slot `KEY`'s old pair freed.
/// Returns what the reader got.
fn get_racing_slot_reuse(nth: usize) -> Option<Vec<u8>> {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
        let cfg = KvsConfig {
            buckets: 64,
            overflow_per_node: 4,
            value_capacity: 1 << 20,
            nodes: 2,
        };
        let buckets = cfg.buckets;
        let entries = cluster.alloc::<u64>(cfg.entry_array_len(), ArrayOptions::default());
        let bytes = cluster.alloc::<u64>(cfg.byte_array_words(), ArrayOptions::default());
        let kvs = Kvs::new(cfg);
        let got = Arc::new(Mutex::new(None));
        let out = got.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node != 0 {
                return;
            }
            let (e, b) = (entries.on(0), bytes.on(0));
            let writer = kvs.view(0, DArrayBackend(e.clone()), DArrayBackend(b.clone()));
            let hooked = Hooked::new(&b);
            // Both backends of a view share a type; only the bytes hook is armed.
            let reader = kvs.view(0, Hooked::new(&e), hooked.clone());
            writer.put(ctx, KEY, &V1).unwrap();
            let old = entry_of(ctx, &e, buckets, KEY);
            let reused = Arc::new(Mutex::new(None));
            let seen = reused.clone();
            let e2 = e.clone();
            hooked.arm(
                nth,
                Box::new(move |ctx| {
                    writer.put(ctx, KEY, &V2).unwrap();
                    writer.put(ctx, OTHER, &V_OTHER).unwrap();
                    *seen.lock().unwrap() = Some(entry_of(ctx, &e2, buckets, OTHER));
                }),
            );
            let v = reader.get(ctx, KEY);
            let other = reused.lock().unwrap().expect("the hook ran");
            assert_eq!(
                other.offset(),
                old.offset(),
                "the second put must reuse the freed slot"
            );
            *out.lock().unwrap() = Some(v);
        });
        cluster.shutdown(ctx);
        let v = got.lock().unwrap().take();
        v.expect("node 0 ran")
    })
}

#[test]
fn get_restarts_when_its_pair_slot_is_reused_before_the_read() {
    // Hook before the header read: the reader finds OTHER's key behind the
    // entry it read for KEY.
    assert_eq!(get_racing_slot_reuse(0), Some(V2.to_vec()));
}

#[test]
fn get_rechecks_the_pair_after_copying_its_value() {
    // Reads are header, one key word, then 13 value words: hook before the
    // last one, so the copy ends with a word of OTHER's value.
    assert_eq!(get_racing_slot_reuse(14), Some(V2.to_vec()));
}
