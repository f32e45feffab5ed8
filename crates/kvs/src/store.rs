//! The store itself: bucketized entry array + slab-managed byte array
//! (§5.2, Figure 11).

use std::sync::Arc;

use darray::{Ctx, Layout, DEFAULT_CHUNK_SIZE};
use parking_lot::Mutex;

use crate::backend::KvBackend;
use crate::entry::Entry;
use crate::hash::{bucket_of, tag_of};
use crate::slab::SlabAllocator;

/// Slots per bucket: 15 entries plus the overflow pointer.
pub const BUCKET_SLOTS: usize = 16;
/// Entry slots usable for keys in each bucket.
pub const BUCKET_ENTRIES: usize = 15;

/// Store sizing.
#[derive(Debug, Clone)]
pub struct KvsConfig {
    /// Main hash buckets.
    pub buckets: u64,
    /// Overflow buckets reserved per node (chained when buckets fill up).
    pub overflow_per_node: u64,
    /// Total byte-array capacity in bytes (values live here).
    pub value_capacity: u64,
    /// Number of nodes.
    pub nodes: usize,
}

impl KvsConfig {
    /// Length (in `u64` elements) of the entry array this config needs.
    pub fn entry_array_len(&self) -> usize {
        ((self.buckets + self.overflow_per_node * self.nodes as u64) * BUCKET_SLOTS as u64) as usize
    }

    /// Length (in `u64` words) of the byte array this config needs.
    pub fn byte_array_words(&self) -> usize {
        (self.value_capacity / 8) as usize
    }
}

/// Store errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsError {
    /// The pair exceeds the largest slab class or the 16-bit size field.
    TooLarge,
    /// This node's byte-array partition or overflow-bucket budget is
    /// exhausted.
    Full,
}

/// Cluster-global store state: per-node slab allocators and overflow-bucket
/// counters. Allocate the two arrays yourself (sizes from [`KvsConfig`]),
/// then derive per-node [`KvsView`]s.
pub struct Kvs {
    cfg: Arc<KvsConfig>,
    slabs: Arc<Vec<Mutex<SlabAllocator>>>,
    ovf_next: Arc<Vec<Mutex<u64>>>,
}

impl Clone for Kvs {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            slabs: self.slabs.clone(),
            ovf_next: self.ovf_next.clone(),
        }
    }
}

impl Kvs {
    /// Build the global store state. The byte array is assumed to use the
    /// default even, chunk-aligned partition (which both backends use), so
    /// each node's slab manages exactly its local bytes — values are
    /// written node-locally and read remotely.
    pub fn new(cfg: KvsConfig) -> Self {
        let words = cfg.byte_array_words();
        let layout = Layout::even(words, cfg.nodes, DEFAULT_CHUNK_SIZE);
        let slabs = (0..cfg.nodes)
            .map(|n| {
                let r = layout.node_elems(n);
                Mutex::new(SlabAllocator::new(r.start as u64 * 8, r.end as u64 * 8))
            })
            .collect();
        let ovf_next = (0..cfg.nodes).map(|_| Mutex::new(0)).collect();
        Self {
            cfg: Arc::new(cfg),
            slabs: Arc::new(slabs),
            ovf_next: Arc::new(ovf_next),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KvsConfig {
        &self.cfg
    }

    /// Bind a node's view over its backend arrays.
    pub fn view<B: KvBackend>(&self, node: usize, entries: B, bytes: B) -> KvsView<B> {
        assert_eq!(entries.len(), self.cfg.entry_array_len());
        assert_eq!(bytes.len(), self.cfg.byte_array_words());
        KvsView {
            kvs: self.clone(),
            node,
            entries,
            bytes,
        }
    }
}

/// A node-local handle to the store.
pub struct KvsView<B: KvBackend> {
    kvs: Kvs,
    node: usize,
    entries: B,
    bytes: B,
}

impl<B: KvBackend> Clone for KvsView<B> {
    fn clone(&self) -> Self {
        Self {
            kvs: self.kvs.clone(),
            node: self.node,
            entries: self.entries.clone(),
            bytes: self.bytes.clone(),
        }
    }
}

/// Bytes a pair occupies: an 8-byte header (key/value lengths) plus the
/// word-padded key and value.
fn pair_bytes(key: &[u8], val: &[u8]) -> usize {
    8 + key.len().div_ceil(8) * 8 + val.len().div_ceil(8) * 8
}

impl<B: KvBackend> KvsView<B> {
    fn base_of(&self, chain_pos: u64) -> usize {
        (chain_pos * BUCKET_SLOTS as u64) as usize
    }

    /// The header word of the pair at `e` if its key is `key`, else `None`
    /// (the key-only compare of Figure 11's probe body).
    fn pair_header_if_match(&self, ctx: &mut Ctx, e: Entry, key: &[u8]) -> Option<u64> {
        let base_word = (e.offset() / 8) as usize;
        let header = self.bytes.get(ctx, base_word);
        if (header & 0xFFFF_FFFF) as usize != key.len() {
            return None;
        }
        for (w, part) in key.chunks(8).enumerate() {
            let word = self.bytes.get(ctx, base_word + 1 + w).to_le_bytes();
            if word[..part.len()] != *part {
                return None;
            }
        }
        Some(header)
    }

    /// Copy out the value of the pair at `e`, whose header is `header`.
    fn read_value(&self, ctx: &mut Ctx, e: Entry, header: u64) -> Vec<u8> {
        let key_words = ((header & 0xFFFF_FFFF) as usize).div_ceil(8);
        let val_len = (header >> 32) as usize;
        let first = (e.offset() / 8) as usize + 1 + key_words;
        let mut out = Vec::with_capacity(val_len);
        for w in 0..val_len.div_ceil(8) {
            let bytes = self.bytes.get(ctx, first + w).to_le_bytes();
            out.extend_from_slice(&bytes[..(val_len - w * 8).min(8)]);
        }
        out
    }

    /// Retrieve a key's value (Figure 11): hash to a bucket, probe its 15
    /// entries by tag, follow the overflow pointer if needed.
    ///
    /// `get` takes no lock, so a `put` can swap the entry it read and free
    /// the old pair, and another `put` can reuse that slab slot, while the
    /// pair is being read. Two checks catch it, and both restart the probe
    /// from the head bucket: a tag match whose key differs re-reads its
    /// entry word, and a copied value is kept only if the pair's header and
    /// key are still the same afterwards. A put of the *same* key that
    /// reuses the same slot mid-copy (ABA) is not detected.
    pub fn get(&self, ctx: &mut Ctx, key: &[u8]) -> Option<Vec<u8>> {
        let cfg = &self.kvs.cfg;
        let tag = tag_of(key);
        'probe: loop {
            let mut chain = bucket_of(key, cfg.buckets);
            loop {
                let base = self.base_of(chain);
                for idx in base..base + BUCKET_ENTRIES {
                    let e = Entry(self.entries.get(ctx, idx));
                    if e.is_empty() || e.tag() != tag {
                        continue;
                    }
                    let Some(header) = self.pair_header_if_match(ctx, e, key) else {
                        if self.entries.get(ctx, idx) != e.0 {
                            continue 'probe;
                        }
                        continue;
                    };
                    let v = self.read_value(ctx, e, header);
                    if self.pair_header_if_match(ctx, e, key) == Some(header) {
                        return Some(v);
                    }
                    continue 'probe;
                }
                let ovf = self.entries.get(ctx, base + BUCKET_ENTRIES);
                if ovf == 0 {
                    return None;
                }
                chain = cfg.buckets + (ovf - 1);
            }
        }
    }

    /// Write the pair's bytes into freshly allocated slab space on this
    /// node and return (offset, occupied size).
    fn write_pair(&self, ctx: &mut Ctx, key: &[u8], val: &[u8]) -> Result<(u64, usize), KvsError> {
        let size = pair_bytes(key, val);
        if size > u16::MAX as usize {
            return Err(KvsError::TooLarge);
        }
        let off = {
            let mut slab = self.kvs.slabs[self.node].lock();
            slab.alloc(size).ok_or(KvsError::Full)?
        };
        let base_word = (off / 8) as usize;
        let header = key.len() as u64 | ((val.len() as u64) << 32);
        self.bytes.set(ctx, base_word, header);
        let mut w = base_word + 1;
        for part in [key, val] {
            for chunk in part.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                self.bytes.set(ctx, w, u64::from_le_bytes(word));
                w += 1;
            }
        }
        Ok((off, size))
    }

    /// Give a pair's slab space back to the node that allocated it (slab
    /// metadata is per-node).
    fn free_pair(&self, e: Entry) {
        let owner = self.owner_of_offset(e.offset());
        self.kvs.slabs[owner]
            .lock()
            .free(e.offset(), e.size() as usize);
    }

    /// Insert or update a key. The new pair is written before the bucket's
    /// distributed writer lock is taken: no reader can reach it until the
    /// entry swap publishes it. The lock covers only the probe, the key
    /// check and the swap.
    pub fn put(&self, ctx: &mut Ctx, key: &[u8], val: &[u8]) -> Result<(), KvsError> {
        let cfg = self.kvs.cfg.clone();
        let tag = tag_of(key);
        let head = bucket_of(key, cfg.buckets);
        let (off, size) = self.write_pair(ctx, key, val)?;
        let new_entry = Entry::pack(tag, size as u16, off);
        let lock_idx = self.base_of(head);
        self.entries.wlock(ctx, lock_idx);
        let r = self.swap_in(ctx, &cfg, head, key, new_entry);
        self.entries.unlock(ctx, lock_idx);
        match r {
            Ok(Some(old)) => self.free_pair(old),
            Ok(None) => {}
            Err(_) => self.free_pair(new_entry),
        }
        r.map(|_| ())
    }

    /// Under the head bucket's lock: publish `new_entry` for `key` in
    /// place of its existing entry, in the first empty slot of the chain,
    /// or in a freshly chained overflow bucket. Returns the replaced entry.
    fn swap_in(
        &self,
        ctx: &mut Ctx,
        cfg: &KvsConfig,
        head: u64,
        key: &[u8],
        new_entry: Entry,
    ) -> Result<Option<Entry>, KvsError> {
        let tag = new_entry.tag();
        let mut chain = head;
        let mut empty_slot: Option<usize> = None;
        let last_base = loop {
            let base = self.base_of(chain);
            for idx in base..base + BUCKET_ENTRIES {
                let e = Entry(self.entries.get(ctx, idx));
                if e.is_empty() {
                    empty_slot.get_or_insert(idx);
                } else if e.tag() == tag && self.pair_header_if_match(ctx, e, key).is_some() {
                    self.entries.set(ctx, idx, new_entry.0);
                    return Ok(Some(e));
                }
            }
            let ovf = self.entries.get(ctx, base + BUCKET_ENTRIES);
            if ovf == 0 {
                break base;
            }
            chain = cfg.buckets + (ovf - 1);
        };
        if let Some(idx) = empty_slot {
            self.entries.set(ctx, idx, new_entry.0);
            return Ok(None);
        }
        // Chain a fresh overflow bucket from this node's budget.
        let id = {
            let mut next = self.kvs.ovf_next[self.node].lock();
            if *next >= cfg.overflow_per_node {
                return Err(KvsError::Full);
            }
            let id = self.node as u64 * cfg.overflow_per_node + *next;
            *next += 1;
            id
        };
        self.entries
            .set(ctx, self.base_of(cfg.buckets + id), new_entry.0);
        self.entries.set(ctx, last_base + BUCKET_ENTRIES, id + 1);
        Ok(None)
    }

    /// Remove a key; returns true if it was present. (An extension beyond
    /// the paper's Figure 11, for API completeness.)
    pub fn delete(&self, ctx: &mut Ctx, key: &[u8]) -> bool {
        let cfg = self.kvs.cfg.clone();
        let tag = tag_of(key);
        let head = bucket_of(key, cfg.buckets);
        let lock_idx = self.base_of(head);
        self.entries.wlock(ctx, lock_idx);
        let mut chain = head;
        let mut found = false;
        'outer: loop {
            let base = self.base_of(chain);
            for slot in 0..BUCKET_ENTRIES {
                let e = Entry(self.entries.get(ctx, base + slot));
                if !e.is_empty()
                    && e.tag() == tag
                    && self.pair_header_if_match(ctx, e, key).is_some()
                {
                    self.entries.set(ctx, base + slot, Entry::EMPTY.0);
                    self.free_pair(e);
                    found = true;
                    break 'outer;
                }
            }
            let ovf = self.entries.get(ctx, base + BUCKET_ENTRIES);
            if ovf == 0 {
                break;
            }
            chain = cfg.buckets + (ovf - 1);
        }
        self.entries.unlock(ctx, lock_idx);
        found
    }

    /// Which node's slab owns a byte offset (even word partition).
    fn owner_of_offset(&self, off: u64) -> usize {
        let words = self.kvs.cfg.byte_array_words();
        let layout = Layout::even(words, self.kvs.cfg.nodes, DEFAULT_CHUNK_SIZE);
        layout.home_of((off / 8) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sizes() {
        let cfg = KvsConfig {
            buckets: 100,
            overflow_per_node: 10,
            value_capacity: 1 << 20,
            nodes: 4,
        };
        assert_eq!(cfg.entry_array_len(), (100 + 40) * 16);
        assert_eq!(cfg.byte_array_words(), (1 << 20) / 8);
    }

    #[test]
    fn pair_bytes_pads_to_words() {
        assert_eq!(pair_bytes(b"k", b"v"), 8 + 8 + 8);
        assert_eq!(pair_bytes(b"12345678", b""), 8 + 8);
        assert_eq!(pair_bytes(b"123456789", b"x"), 8 + 16 + 8);
    }
}
