//! Host-load correction. The benchmark shares a few cores of a host with
//! other tenants, and their load slows every timing of a run together,
//! by up to 1.6× for seconds to minutes at a time. A fixed kernel, timed
//! just before each timed operation on the same CPU (see `affinity.rs`),
//! measures that slowdown. It has two parts, a stream over two 32 KiB
//! arrays and a pointer chase through 256 KiB; on the reference machine
//! their times followed the solver's row times window by window, where a
//! compute-bound loop and a DRAM-bound pointer chase did not, and their
//! geometric mean followed the largest swings more closely than either.
//!
//! A kernel run's slowdown is the geometric mean of each part's time over
//! its nominal time. A corrected time is the measured time divided by the
//! current slowdown, the median over the last [`RECENT`] kernel runs: the
//! time the operation would have taken with the kernel at its nominal
//! speed. The kernel is the benchmark's own code, so a change to the
//! crates under test moves corrected times exactly as it moves measured
//! ones.

use std::hint::black_box;
use std::time::Instant;

use crate::affinity::Pin;
use crate::stats::median;

/// Words per stream array: two arrays of 32 KiB.
const WORDS: usize = 4096;
/// Sweeps over the arrays per timed stream (about 0.5 ms).
const SWEEPS: usize = 320;
/// Slots of the pointer chase: 256 KiB.
const SLOTS: usize = 1 << 16;
/// Steps per timed chase (about 0.4 ms).
const STEPS: usize = 50_000;
/// Each part first runs untimed for this share of its timed length, so
/// that the timed run finds its data in cache whatever ran before.
const WARM_SHARE: usize = 20;
/// Kernel runs the current slowdown is the median of.
const RECENT: usize = 3;
/// Each part's time on the reference machine (2-vCPU Intel Xeon @
/// 2.10GHz) when its other tenants were quiet: stream, chase.
const NOMINAL_S: (f64, f64) = (0.000_45, 0.000_40);

/// The kernel, the slowdowns it measured, and the CPU pin they rely on.
pub struct Calib {
    a: Vec<u64>,
    b: Vec<u64>,
    next: Vec<u32>,
    samples: Vec<f64>,
    pin: Option<Pin>,
}

impl Calib {
    /// A calibrator with no samples yet; pins the calling thread, and the
    /// threads and processes it starts later, to one CPU.
    pub fn new() -> Self {
        let b = (0..WORDS as u64).map(crate::programs::splitmix64).collect();
        Calib {
            a: vec![1; WORDS],
            b,
            next: cycle(SLOTS),
            samples: Vec::new(),
            pin: Pin::lowest(),
        }
    }

    /// Whether the run is pinned to one CPU.
    pub fn pinned(&self) -> bool {
        self.pin.is_some()
    }

    /// Runs `f` on every CPU the process may use.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.pin {
            Some(pin) => pin.widened(f),
            None => f(),
        }
    }

    /// Times one run of the kernel and records its slowdown.
    pub fn sample(&mut self) {
        black_box(stream(&mut self.a, &self.b, SWEEPS / WARM_SHARE));
        let t = Instant::now();
        black_box(stream(&mut self.a, &self.b, SWEEPS));
        let stream_s = t.elapsed().as_secs_f64();
        black_box(chase(&self.next, STEPS / WARM_SHARE));
        let t = Instant::now();
        black_box(chase(&self.next, STEPS));
        let chase_s = t.elapsed().as_secs_f64();
        self.samples
            .push((stream_s / NOMINAL_S.0 * chase_s / NOMINAL_S.1).sqrt());
    }

    /// Kernel runs timed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `measured` divided by the current slowdown; unchanged before the
    /// first sample.
    pub fn correct(&self, measured: f64) -> f64 {
        let recent = &self.samples[self.samples.len().saturating_sub(RECENT)..];
        measured / median(recent).unwrap_or(1.0)
    }

    /// The median slowdown over the samples from the `from`-th on.
    pub fn slowdown_since(&self, from: usize) -> f64 {
        let tail = self.samples.get(from..).unwrap_or(&[]);
        median(tail).unwrap_or(f64::NAN)
    }
}

/// A random cyclic permutation of `0..n`: `next[i]` is the slot after
/// `i`, and following it from any slot visits every slot.
fn cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = 0;
    for i in (1..n).rev() {
        x = crate::programs::splitmix64(x);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

/// Follows `next` for `steps` steps.
fn chase(next: &[u32], steps: usize) -> u32 {
    let mut i = 0;
    for _ in 0..steps {
        i = next[i as usize];
    }
    i
}

/// Streams over `a` and `b` `sweeps` times.
fn stream(a: &mut [u64], b: &[u64], sweeps: usize) -> u64 {
    let mut acc = 0;
    for _ in 0..sweeps {
        for (x, y) in black_box(&mut *a).iter_mut().zip(b) {
            *x |= *y;
            *x ^= *y >> 1;
        }
        acc ^= a[7];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_slot() {
        let next = cycle(1000);
        let mut seen = vec![false; 1000];
        let mut i = 0;
        for _ in 0..1000 {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
            i = next[i as usize];
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn corrects_by_the_median_of_recent_samples() {
        let mut c = Calib::new();
        assert_eq!(c.correct(2.0), 2.0);
        assert!(c.slowdown_since(0).is_nan());
        c.samples = vec![9.0, 3.0, 2.0, 4.0];
        // The last three: 3, 2, 4 → slowdown 3.
        assert!((c.correct(6.0) - 2.0).abs() < 1e-12);
        assert!((c.slowdown_since(2) - 3.0).abs() < 1e-12);
        c.sample();
        assert_eq!(c.len(), 5);
        assert!(c.slowdown_since(4) > 0.0);
    }
}
