//! A fixed kernel timed beside the workload's runs, to measure how fast
//! the host is at the moment. On a host shared with other tenants the
//! simulator's speed drifts by 20–30% over tens of seconds, and this
//! kernel, which does what the simulator's inner loop does (pop the
//! earliest event off a binary heap, update state in a table of a few
//! MiB, push a follow-up event), slows and recovers with it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events kept in flight.
const IN_FLIGHT: u32 = 1 << 15;
/// Events processed per call.
const STEPS: usize = 200_000;
/// Table entries (8 bytes each: 4 MiB).
const TABLE: usize = 1 << 19;

/// The kernel's buffers, allocated once so that a call allocates
/// nothing.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            heap: BinaryHeap::with_capacity(IN_FLIGHT as usize + 1),
            table: vec![0; TABLE],
        }
    }

    /// Runs the kernel once and returns its wall time, s.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.heap.clear();
        self.heap
            .extend((0..IN_FLIGHT).map(|i| Reverse((u64::from(i) * 7, i))));
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..STEPS {
            let Reverse((at, id)) = self.heap.pop().expect("events stay in flight");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % TABLE];
            *slot = slot.wrapping_add(at ^ u64::from(id));
            self.heap.push(Reverse((at + 1 + (x >> 52), id)));
        }
        black_box(self.table[x as usize % TABLE]);
        t.elapsed().as_secs_f64()
    }
}
