//! The server-state class index behind every placement scan.
//!
//! Placement asks, per candidate configuration, "which server fits, and
//! how well?" — and the answer depends only on a server's exact
//! free-resource state ([`Server::state_key`]), never on its id beyond
//! the lowest-id tie-break. A large cluster holds few distinct states
//! (empty, or holding one common config), so scans iterate one
//! representative per state class — its lowest-id member — instead of
//! every server.
//!
//! The index is refreshed lazily: mutations only mark a server dirty,
//! and [`ClassIndex::refresh`] re-keys the dirty servers before
//! answering, so a query costs O(dirty + classes), not O(servers), and
//! reuses its buffers, allocating only when a state is seen for the
//! first time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::server::Server;

/// `class_of` value of a server that was never keyed.
const UNKEYED: u32 = u32::MAX;

/// A class's member heap is compacted once it holds more than twice
/// its live members plus this slack of stale entries.
const COMPACT_SLACK: usize = 16;

/// Emptied classes are kept, so a state seen before is re-entered
/// without allocating. Once more than twice the server count plus this
/// slack have been created, the index starts over from the books, which
/// keeps its memory O(servers) over arbitrarily long runs.
const CLASS_SLACK: usize = 64;

/// Exact free-resource state → ordered server ids, kept lazily.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassIndex {
    /// Class of each server; current only while the server is clean.
    class_of: Vec<u32>,
    /// Bumped whenever a server changes class. Heap entries carry the
    /// epoch they were pushed at, so an entry left behind by a server
    /// that moved on is recognisably stale.
    epoch: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Servers mutated since the last refresh.
    dirty: Vec<u32>,
    ids: HashMap<Box<[u64]>, u32>,
    classes: Vec<Class>,
    /// The non-empty classes, in no particular order.
    live: Vec<u32>,
    /// Output of the last refresh: the lowest id of each live class,
    /// ascending.
    reps: Vec<u32>,
    /// Scratch buffer for [`Server::state_key`].
    key: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct Class {
    /// Number of servers currently in the class.
    len: usize,
    /// Position in `live` while `len > 0`.
    live_at: usize,
    /// Min-heap of `server << 32 | epoch` entries: the top valid entry
    /// is the class's lowest id. Entries whose server has since left
    /// are dropped lazily, when they surface or at compaction.
    members: BinaryHeap<Reverse<u64>>,
}

impl ClassIndex {
    /// An index over `servers` servers, all dirty: the first refresh
    /// keys every one of them.
    pub(crate) fn new(servers: usize) -> Self {
        let n = u32::try_from(servers).expect("server ids fit in 32 bits");
        ClassIndex {
            class_of: vec![UNKEYED; servers],
            epoch: vec![0; servers],
            is_dirty: vec![true; servers],
            dirty: (0..n).collect(),
            ..ClassIndex::default()
        }
    }

    /// Marks server `idx` for re-keying at the next refresh.
    pub(crate) fn mark(&mut self, idx: usize) {
        if !self.is_dirty[idx] {
            self.is_dirty[idx] = true;
            self.dirty.push(idx as u32);
        }
    }

    /// Re-keys the dirty servers and returns the lowest id of every
    /// non-empty class, ascending.
    pub(crate) fn refresh(&mut self, servers: &[Server]) -> &[u32] {
        if self.classes.len() > 2 * servers.len() + CLASS_SLACK {
            *self = ClassIndex::new(servers.len());
        }
        for d in 0..self.dirty.len() {
            let idx = self.dirty[d] as usize;
            self.is_dirty[idx] = false;
            servers[idx].state_key(&mut self.key);
            let class = match self.ids.get(&self.key[..]) {
                Some(&c) => c,
                None => {
                    let c = self.classes.len() as u32;
                    self.ids.insert(self.key.as_slice().into(), c);
                    self.classes.push(Class::default());
                    c
                }
            };
            let old = self.class_of[idx];
            if old == class {
                continue;
            }
            if old != UNKEYED {
                self.leave(old);
            }
            self.class_of[idx] = class;
            self.epoch[idx] = self.epoch[idx].wrapping_add(1);
            self.join(class, idx);
        }
        self.dirty.clear();

        let Self {
            class_of,
            epoch,
            classes,
            live,
            reps,
            ..
        } = self;
        reps.clear();
        for &k in live.iter() {
            let members = &mut classes[k as usize].members;
            while let Some(&Reverse(entry)) = members.peek() {
                let (idx, at) = unpack(entry);
                if class_of[idx] == k && epoch[idx] == at {
                    reps.push(idx as u32);
                    break;
                }
                members.pop();
            }
        }
        reps.sort_unstable();
        reps
    }

    fn leave(&mut self, k: u32) {
        let class = &mut self.classes[k as usize];
        class.len -= 1;
        if class.len == 0 {
            // Every remaining entry is stale.
            class.members.clear();
            let at = class.live_at;
            self.live.swap_remove(at);
            if let Some(&moved) = self.live.get(at) {
                self.classes[moved as usize].live_at = at;
            }
        }
    }

    fn join(&mut self, k: u32, idx: usize) {
        let Self {
            class_of,
            epoch,
            classes,
            live,
            ..
        } = self;
        let class = &mut classes[k as usize];
        if class.len == 0 {
            class.live_at = live.len();
            live.push(k);
        }
        class.len += 1;
        class
            .members
            .push(Reverse((idx as u64) << 32 | u64::from(epoch[idx])));
        if class.members.len() > 2 * class.len + COMPACT_SLACK {
            class.members.retain(|&Reverse(entry)| {
                let (i, at) = unpack(entry);
                class_of[i] == k && epoch[i] == at
            });
        }
    }

    /// Compares the index against one rebuilt from `servers`' books:
    /// each server must sit in the class of its current state, every
    /// class must count exactly its members, the live list must hold
    /// exactly the non-empty classes, and the representatives must be
    /// each state's lowest id. Refreshes first, so pending dirty marks
    /// are not a mismatch.
    pub(crate) fn check(&mut self, servers: &[Server]) -> Result<(), String> {
        let reps = self.refresh(servers).to_vec();
        let mut counts = vec![0usize; self.classes.len()];
        let mut key = Vec::new();
        for (idx, server) in servers.iter().enumerate() {
            server.state_key(&mut key);
            let want = self.ids.get(&key[..]).copied();
            if want != Some(self.class_of[idx]) {
                return Err(format!(
                    "server {idx} is in class {}, its state's class is {want:?}",
                    self.class_of[idx]
                ));
            }
            counts[self.class_of[idx] as usize] += 1;
        }
        for (k, class) in self.classes.iter().enumerate() {
            if class.len != counts[k] {
                return Err(format!(
                    "class {k} counts {} of {} members",
                    class.len, counts[k]
                ));
            }
            let listed = class.len > 0 && self.live.get(class.live_at) == Some(&(k as u32));
            if listed != (class.len > 0) {
                return Err(format!("class {k} is misfiled in the live list"));
            }
        }
        if self.live.len() != counts.iter().filter(|&&n| n > 0).count() {
            return Err("the live list holds an empty class".to_string());
        }
        let rebuilt = ClassIndex::new(servers.len()).refresh(servers).to_vec();
        if reps != rebuilt {
            return Err(format!("representatives {reps:?}, rebuilt {rebuilt:?}"));
        }
        Ok(())
    }
}

fn unpack(entry: u64) -> (usize, u32) {
    ((entry >> 32) as usize, entry as u32)
}
