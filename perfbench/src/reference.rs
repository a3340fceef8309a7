//! A fixed reference computation that measures how fast the host runs
//! right now.
//!
//! On a shared host, outside load slows every computation on the machine
//! alike, in episodes that last seconds to minutes, so two runs of the same
//! workload can differ by a third in wall time. The benchmark times this
//! kernel next to every measured operation and divides: the ratio cancels
//! the host's current speed and keeps the program's. The kernel is the
//! benchmark's own code — binary-heap Dijkstra runs over one fixed sparse
//! graph — so no change to the program can change it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The kernel time that converts a ratio to the kernel back to seconds:
/// `setup_s` reads as seconds on a host where one kernel run takes this
/// long (close to what it takes on the 2-vCPU host the benchmark was sized
/// on). A fixed scale, so the converted figure keeps the ratio's steadiness.
pub const NOMINAL_S: f64 = 0.010;

const NODES: usize = 2048;
const SOURCES: usize = 32;

/// The reference kernel's input: a fixed sparse graph in which node `u`
/// links to two earlier nodes, with integer weights.
pub struct Reference {
    adjacency: Vec<Vec<(usize, u64)>>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut adjacency = vec![Vec::new(); NODES];
        for u in 1..NODES {
            for _ in 0..2 {
                let v = (next() % u as u64) as usize;
                let w = next() % 1000 + 1;
                adjacency[u].push((v, w));
                adjacency[v].push((u, w));
            }
        }
        Self { adjacency }
    }
}

impl Reference {
    /// Seconds one run of the kernel takes now (about 10 ms on an
    /// unloaded 2 GHz core).
    #[must_use]
    pub fn seconds(&self) -> f64 {
        let t0 = Instant::now();
        let mut total = 0u64;
        for source in 0..SOURCES {
            let mut dist = vec![u64::MAX; NODES];
            let mut heap = BinaryHeap::new();
            dist[source] = 0;
            heap.push(Reverse((0, source)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &(v, w) in &self.adjacency[u] {
                    if d + w < dist[v] {
                        dist[v] = d + w;
                        heap.push(Reverse((d + w, v)));
                    }
                }
            }
            total = total.wrapping_add(dist.iter().sum::<u64>());
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    }
}
