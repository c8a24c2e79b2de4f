//! The hash-join table: one materialised build side, for every key width.
//!
//! The distinct join keys sit in one arena (`key_width` vertices each, numbered by first
//! arrival), found through an open-addressing index of `u32` key ids with linear probing,
//! keyed on a hash of the key slice and checked against the arena. Each key id owns a
//! contiguous run of build tuples: `starts` holds where each run begins, and the payload
//! columns of all runs sit in one arena grouped by key, in arrival order within a key.
//!
//! [`JoinTableBuilder`] files each build tuple under its key id and stages its payload; one
//! prefix-sum pass at [`finish`](JoinTableBuilder::finish) scatters the staged payloads into
//! their runs. Nothing is allocated per tuple, and a lookup borrows the caller's key slice.
//! A counts-only table keeps the run lengths and no payload: a `COUNT(*)` join at the root of
//! its pipeline needs nothing else.

use graphflow_graph::VertexId;

/// Index slot that holds no key id.
const EMPTY: u32 = u32::MAX;

/// Smallest index: eight slots.
const MIN_SLOTS_LOG2: u32 = 3;

/// Hash of a key slice: the Fx step per vertex, then one xor-shift-multiply round, without
/// which small vertex ids share home slots far more often than random keys would. Its high
/// bits are the best mixed, so slots are taken from them.
#[inline]
fn hash(key: &[VertexId]) -> u64 {
    let h = key.iter().fold(0, |h: u64, &v| {
        (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    });
    (h ^ (h >> 32)).wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// A materialised hash-join build side: build tuples grouped by join key.
#[derive(Debug)]
pub struct JoinTable {
    key_width: usize,
    payload_width: usize,
    /// Whether the payload columns were dropped ([`JoinTableBuilder::new`]).
    counts_only: bool,
    /// The distinct keys, `key_width` vertices each, in key-id order.
    keys: Vec<VertexId>,
    /// Open-addressing index over `keys`: a key id per slot, [`EMPTY`] when free. Its length
    /// is `1 << (64 - shift)`, and a key's home slot is its hash shifted right by `shift`.
    slots: Vec<u32>,
    shift: u32,
    /// Key id `k`'s build tuples are numbers `starts[k]..starts[k + 1]`; one entry per key
    /// while building (the count of each), one more once finished.
    starts: Vec<usize>,
    /// The payload columns of every build tuple, `payload_width` vertices each, grouped by
    /// key id (empty for a counts-only table).
    payloads: Vec<VertexId>,
}

impl JoinTable {
    /// Whether the build side materialised no tuples at all (no probe can ever succeed).
    pub fn is_empty(&self) -> bool {
        self.num_keys() == 0
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// Vertices per payload group (0 for a counts-only table).
    pub fn payload_width(&self) -> usize {
        self.payload_width
    }

    /// Whether only the number of build tuples per key was kept.
    pub fn counts_only(&self) -> bool {
        self.counts_only
    }

    /// The id of `key`, if some build tuple carries it.
    #[inline]
    pub fn find(&self, key: &[VertexId]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash(key) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                id if self.key(id as usize) == key => return Some(id as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// How many build tuples carry key `id`.
    #[inline]
    pub fn count(&self, id: usize) -> usize {
        self.starts[id + 1] - self.starts[id]
    }

    /// The payload groups of key `id`: [`count`](JoinTable::count) groups of
    /// [`payload_width`](JoinTable::payload_width) vertices each, in build order (empty for a
    /// counts-only table).
    #[inline]
    pub fn payloads(&self, id: usize) -> &[VertexId] {
        let w = self.payload_width;
        &self.payloads[self.starts[id] * w..self.starts[id + 1] * w]
    }

    #[inline]
    fn key(&self, id: usize) -> &[VertexId] {
        &self.keys[id * self.key_width..(id + 1) * self.key_width]
    }
}

/// Builds a [`JoinTable`] from a stream of build tuples.
#[derive(Debug)]
pub struct JoinTableBuilder {
    /// The table so far; its `starts` holds each key's tuple count until
    /// [`finish`](JoinTableBuilder::finish).
    table: JoinTable,
    /// The key id of every build tuple, in arrival order (empty for a counts-only table).
    filed: Vec<u32>,
    /// The payload columns of every build tuple, in arrival order.
    staged: Vec<VertexId>,
}

impl JoinTableBuilder {
    /// An empty table for keys of `key_width` and payloads of `payload_width` vertices.
    /// `counts_only` keeps only the number of build tuples per key: the table's payload width
    /// is then 0.
    pub fn new(key_width: usize, payload_width: usize, counts_only: bool) -> Self {
        JoinTableBuilder {
            table: JoinTable {
                key_width,
                payload_width: if counts_only { 0 } else { payload_width },
                counts_only,
                keys: Vec::new(),
                slots: vec![EMPTY; 1 << MIN_SLOTS_LOG2],
                shift: 64 - MIN_SLOTS_LOG2,
                starts: Vec::new(),
                payloads: Vec::new(),
            },
            filed: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// File one build tuple under `key` (`key_width` vertices). `payload` yields its
    /// `payload_width` payload vertices; a counts-only table does not read it.
    #[inline]
    pub fn insert(&mut self, key: &[VertexId], payload: impl IntoIterator<Item = VertexId>) {
        let id = self.file(key);
        self.table.starts[id as usize] += 1;
        if !self.table.counts_only {
            self.filed.push(id);
            self.staged.extend(payload);
        }
    }

    /// The id of `key`, given a new one on first sight. The index stays at most half full.
    #[inline]
    fn file(&mut self, key: &[VertexId]) -> u32 {
        if 2 * (self.table.starts.len() + 1) > self.table.slots.len() {
            self.grow();
        }
        let table = &mut self.table;
        let mask = table.slots.len() - 1;
        let mut slot = (hash(key) >> table.shift) as usize;
        loop {
            match table.slots[slot] {
                EMPTY => {
                    let id = u32::try_from(table.starts.len())
                        .ok()
                        .filter(|&id| id != EMPTY)
                        .expect("a join table holds fewer than 2^32 - 1 keys");
                    table.slots[slot] = id;
                    table.keys.extend_from_slice(key);
                    table.starts.push(0);
                    return id;
                }
                id if table.key(id as usize) == key => return id,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the index and re-seat every key id.
    fn grow(&mut self) {
        let table = &mut self.table;
        table.shift -= 1;
        table.slots.clear();
        table.slots.resize(1 << (64 - table.shift), EMPTY);
        let mask = table.slots.len() - 1;
        for id in 0..table.starts.len() {
            let mut slot = (hash(table.key(id)) >> table.shift) as usize;
            while table.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table.slots[slot] = id as u32;
        }
    }

    /// Group the staged payloads by key: one prefix sum turns the per-key counts into run
    /// starts, and one pass moves each staged payload into its key's run.
    pub fn finish(self) -> JoinTable {
        let JoinTableBuilder {
            mut table,
            filed,
            staged,
        } = self;
        let mut total = 0;
        for start in &mut table.starts {
            total += std::mem::replace(start, total);
        }
        table.starts.push(total);
        if !table.counts_only {
            let w = table.payload_width;
            let mut next = table.starts.clone();
            table.payloads.resize(total * w, 0);
            for (t, &id) in filed.iter().enumerate() {
                let at = &mut next[id as usize];
                table.payloads[*at * w..][..w].copy_from_slice(&staged[t * w..][..w]);
                *at += 1;
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Build a table from `tuples` (key, payload) and check every key against a map oracle:
    /// its count, its payload groups in arrival order, and that absent keys are not found.
    fn check(key_width: usize, payload_width: usize, tuples: &[(Vec<u32>, Vec<u32>)]) {
        let mut oracle: BTreeMap<&[u32], (usize, Vec<u32>)> = BTreeMap::new();
        let mut builders = [
            JoinTableBuilder::new(key_width, payload_width, false),
            JoinTableBuilder::new(key_width, payload_width, true),
        ];
        for (key, payload) in tuples {
            let (groups, payloads) = oracle.entry(key).or_default();
            *groups += 1;
            payloads.extend(payload);
            for builder in &mut builders {
                builder.insert(key, payload.iter().copied());
            }
        }
        let [full, counts] = builders.map(JoinTableBuilder::finish);
        for table in [&full, &counts] {
            assert_eq!(table.num_keys(), oracle.len());
            assert_eq!(table.is_empty(), tuples.is_empty());
            for (key, (groups, payloads)) in &oracle {
                let id = table.find(key).expect("a built key is found");
                assert_eq!(table.count(id), *groups, "{key:?}");
                if table.counts_only() {
                    assert!(table.payloads(id).is_empty());
                } else {
                    assert_eq!(table.payloads(id), &payloads[..], "{key:?}");
                }
            }
            let absent = vec![u32::MAX; key_width];
            assert_eq!(
                table.find(&absent).is_some(),
                oracle.contains_key(&absent[..])
            );
        }
    }

    #[test]
    fn tables_match_a_map_oracle_at_every_width() {
        let mut state = 0x2545_f491_u32;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state % bound
        };
        check(2, 1, &[]);
        for (key_width, payload_width) in [(1, 1), (2, 1), (2, 2), (3, 0), (1, 3)] {
            // Few distinct keys (long runs) and many (the index grows several times).
            for distinct in [3, 5000] {
                let tuples: Vec<(Vec<u32>, Vec<u32>)> = (0..20_000)
                    .map(|_| {
                        let key = (0..key_width).map(|_| next(distinct)).collect();
                        (key, (0..payload_width).map(|_| next(1 << 20)).collect())
                    })
                    .collect();
                check(key_width, payload_width, &tuples);
            }
        }
        // A key of no columns (a cross product) files every tuple under one key.
        check(0, 2, &[(vec![], vec![1, 2]), (vec![], vec![3, 4])]);
    }
}
