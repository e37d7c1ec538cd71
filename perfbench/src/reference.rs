//! The host-speed reference: a fixed kernel the untraced run times between
//! its passes, so that pass and set-up times can be scaled to one host
//! speed.
//!
//! On a shared host the speed of this benchmark drifts by up to 40 % over
//! minutes, the same for every workload and tool, and the drift is not
//! stolen time: the thread's CPU time drifts with its wall time. Two sets of
//! runs an hour apart would then differ by more than any useful bound. The
//! kernel is shaped like the interpreter that dominates every workload (a
//! `match` dispatch over a fixed op stream, loads and stores into a 256 KiB
//! table), and its time follows the drift: over 56 measuring processes of
//! `spec` whose native pass time ranged from 24 to 37 ms, pass time over
//! kernel time stayed between 8.6 and 10.1. The kernel is this benchmark's own
//! code and calls nothing in the repository, so no change to the program
//! can make it faster or slower; scaling by it removes the host's speed and
//! keeps the program's.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (2 shared cores) in a typical
/// state; a scaled time is what the time would have been there.
pub const NOMINAL_S: f64 = 3.0e-3;

const OPS: usize = 1 << 16;
const TABLE: usize = 1 << 15;
const ROUNDS: usize = 4;

/// The kernel's fixed inputs: an op stream and a data table, both from a
/// fixed xorshift sequence (never from the workload's seed).
pub struct Reference {
    ops: Vec<u8>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Reference {
            ops: (0..OPS).map(|_| (next() % 8) as u8).collect(),
            table: (0..TABLE).map(|_| next()).collect(),
        }
    }
}

impl Reference {
    /// One run of the kernel; returns a checksum of its registers.
    fn run(&mut self) -> u64 {
        let mut r = [1u64; 8];
        let ops = black_box(&self.ops);
        for _ in 0..ROUNDS {
            for (pc, &op) in ops.iter().enumerate() {
                let k = pc & 7;
                match op {
                    0 => r[k] = r[k].wrapping_add(r[(k + 1) & 7]),
                    1 => r[k] = self.table[r[k] as usize % TABLE],
                    2 => self.table[r[(k + 3) & 7] as usize % TABLE] = r[k],
                    3 => r[k] ^= r[k] >> 3,
                    4 => {
                        if r[k] & 1 == 0 {
                            r[(k + 2) & 7] = r[k].rotate_left(5)
                        }
                    }
                    5 => r[k] = r[k].wrapping_mul(0x9e37),
                    6 => r[k] = r[k].wrapping_sub(pc as u64),
                    _ => r[k] = r[(k + 5) & 7] | 1,
                }
            }
        }
        r.iter().fold(0, |a, &b| a ^ b)
    }

    /// Seconds for one run, after an untimed run that brings the kernel's
    /// data back into the caches the passes used.
    pub fn time(&mut self) -> f64 {
        black_box(self.run());
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }
}

/// The factor that scales one process's times to the reference host:
/// [`NOMINAL_S`] over the median of the kernel times it took.
pub fn scale(kernel_s: &[f64]) -> f64 {
    NOMINAL_S / crate::stats::median(kernel_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.ops, b.ops);
        assert!(a.time() > 0.0);
    }

    #[test]
    fn scale_is_nominal_over_the_median() {
        let s = scale(&[NOMINAL_S * 2.0, NOMINAL_S * 4.0, NOMINAL_S * 1.0]);
        assert!((s - 0.5).abs() < 1e-12);
    }
}
