//! Host-speed reference.
//!
//! The benchmark runs on virtual machines whose shared hosts move between
//! faster and slower periods lasting minutes, and the same operation can
//! take twice as long in one period as in another. A run cannot average
//! such periods out, so every timed operation is paired with this fixed
//! workload, timed right before it on as many threads, and reported at
//! the reference speed: `secs * NOMINAL_SECS / reference_secs`. The workload lives in the
//! benchmark alone, so no change to the analyzer moves it; only the host
//! does. It has the analyzer's profile: text scanning, string interning in
//! hash maps, allocation of many small vectors and pointer chasing over a
//! working set larger than the caches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The scale of reported times: an operation is reported at the speed of a
/// host on which the reference takes this long. A 2-vCPU virtual machine
/// takes about 0.1 s in a quiet period and about 0.2 s in a slow one.
pub const NOMINAL_SECS: f64 = 0.125;

/// Runs the reference workload on `threads` threads and returns its wall
/// seconds. The workload is cut into `4 * threads` equal chunks that the
/// threads take from a shared counter, so it sees the host the way an
/// operation on as many threads does: a stalled core slows it only while
/// the others still have chunks to take.
pub fn reference_secs(threads: usize) -> f64 {
    let chunks = 4 * threads;
    let next = AtomicUsize::new(0);
    let worker = || {
        while next.fetch_add(1, Ordering::Relaxed) < chunks {
            std::hint::black_box(workload(std::hint::black_box(CHUNK_SIZE)));
        }
    };
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(worker);
        }
        worker();
    });
    t.elapsed().as_secs_f64()
}

/// `secs` of an operation at the reference speed, given the reference
/// workload's time measured next to it.
pub fn scaled(secs: f64, reference: f64) -> f64 {
    secs * NOMINAL_SECS / reference
}

/// Identifiers in one chunk of the reference workload. A chunk's working
/// set (about 6 MB) outgrows the caches but stays well below the analyzer's
/// peak, so the reference does not raise the run's `peak_rss_mb`.
const CHUNK_SIZE: usize = 180_000;

/// A fixed, deterministic mix: generate identifier text, intern it, build
/// a random graph over the interned ids and walk it. Returns a checksum.
fn workload(size: usize) -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Text: `size` identifiers drawn from a vocabulary of size / 4.
    let mut text = String::with_capacity(size * 12);
    for _ in 0..size {
        let id = next() % (size as u64 / 4);
        text.push_str("v_");
        text.push_str(&id.to_string());
        text.push(if id.is_multiple_of(7) { '\n' } else { ' ' });
    }
    // Interning.
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut seq = Vec::with_capacity(size);
    for word in text.split_ascii_whitespace() {
        let n = ids.len() as u32;
        seq.push(*ids.entry(word).or_insert(n));
    }
    // A graph: each id links to the ids that follow it in the text.
    let mut edges: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
    for pair in seq.windows(2) {
        edges[pair[0] as usize].push(pair[1]);
    }
    // Walks from pseudo-random starts, a fixed number of hops each.
    let mut sum = 0u64;
    for _ in 0..size / 16 {
        let mut at = (next() % edges.len() as u64) as usize;
        for _ in 0..32 {
            let out = &edges[at];
            if out.is_empty() {
                break;
            }
            at = out[(next() % out.len() as u64) as usize] as usize;
            sum = sum.wrapping_mul(31).wrapping_add(at as u64);
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(2_000), workload(2_000));
        assert_ne!(workload(2_000), workload(2_400));
    }

    #[test]
    fn scaling_is_proportional() {
        assert_eq!(scaled(2.0, NOMINAL_SECS), 2.0);
        assert!((scaled(1.0, 2.0 * NOMINAL_SECS) - 0.5).abs() < 1e-12);
    }
}
