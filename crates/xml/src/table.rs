//! An open-addressing index of dense ids whose keys live elsewhere.
//!
//! A document keeps each element or attribute name, call label and URI
//! once, in its own tables and pool, and a provenance reachability index
//! keeps each URI once in its own pool. This index maps a key to the id of
//! its entry without holding a second copy of the key: it stores only the
//! ids, and the caller compares keys through them. Keys are hashed with the
//! standard library's randomly keyed SipHash (`RandomState`), so the
//! index keeps the protection against crafted colliding keys that a
//! `HashMap` gives — names and URIs come from ingested XML.

use crate::tree::NONE;

/// Linear-probing set of `u32` ids at most half full. An id must be below
/// `u32::MAX`, which marks an empty slot.
#[derive(Debug, Clone, Default)]
pub struct IdIndex {
    slots: Vec<u32>,
    len: usize,
}

impl IdIndex {
    /// The id stored under `hash` whose key satisfies `is_key`.
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i];
            if id == NONE {
                return None;
            }
            if is_key(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Add `id`, whose key hashes to `hash` and is not present yet.
    /// `hash_of` gives the hash of any id already present, for regrowth.
    pub fn insert(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![NONE; (self.slots.len() * 2).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for old_id in old.into_iter().filter(|&x| x != NONE) {
                self.place(hash_of(old_id), old_id);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != NONE {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// Forget every id (the next insert allocates afresh).
    pub(crate) fn clear(&mut self) {
        self.slots = Vec::new();
        self.len = 0;
    }

    /// Bytes of heap the index holds.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_what_it_stored_across_growth() {
        // each id is its own key; the hash deliberately collides often
        let hash = |id: u32| u64::from(id % 3);
        let mut idx = IdIndex::default();
        for id in 0..100u32 {
            assert_eq!(idx.find(hash(id), |x| x == id), None);
            idx.insert(hash(id), id, hash);
        }
        for id in 0..100u32 {
            assert_eq!(idx.find(hash(id), |x| x == id), Some(id));
        }
        assert!(idx.slots.len() >= 200);
        idx.clear();
        assert_eq!(idx.find(hash(5), |x| x == 5), None);
    }
}
