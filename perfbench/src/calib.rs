//! Host-speed calibration.
//!
//! On a shared host the speed of identical work drifts by tens of percent
//! over minutes, as other guests come and go on the same cores, and every
//! figure of a run (serve latencies, tune calls, datagen, training) drifts
//! with it. So before and after every slice the benchmark times a fixed
//! reference kernel while nothing of the program runs (the daemon is
//! stopped with `SIGSTOP`, and the in-process phases are between calls).
//! A slice's times are multiplied by its scale, `REFERENCE_S` ÷ the mean
//! of the kernel times around it: they read as at the reference speed,
//! and rates are divided by the same scale.
//!
//! The kernel uses only the standard library, so no change to the
//! measured program can change it; it mixes the kinds of work the program
//! does (f32 multiply-adds over a small matrix, hashing and branches,
//! sorting, a map, float formatting).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median time of one [`kernel`] call on the reference host, a 2-vCPU
/// guest of a shared Intel Xeon host at the fastest it was seen to run,
/// in seconds. Scales are near 1 there, and below 1 when it is slower.
pub const REFERENCE_S: f64 = 1.24e-4;

/// Wall time one calibration point spends timing the kernel.
const POINT: Duration = Duration::from_millis(15);
const MIN_REPS: usize = 7;

/// One call of the reference kernel; returns a checksum so none of the
/// work is optimized away.
pub fn kernel(round: u64) -> u64 {
    const N: usize = 40;
    let mut x = black_box(round) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let a: Vec<f32> = (0..N * N).map(|_| (next() % 1000) as f32 * 1e-3).collect();
    let b: Vec<f32> = (0..N * N).map(|_| (next() % 1000) as f32 * 1e-3).collect();
    let mut c = vec![0f32; N * N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
    let mut keys: Vec<u64> = (0..2048).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    let mut branchy = 0u64;
    for &k in &keys {
        if k % 3 == 0 {
            map.insert(k % 512, k);
        } else if k % 5 == 1 {
            branchy = branchy.wrapping_add(k >> 7);
        } else {
            branchy ^= k.rotate_left(11);
        }
    }
    let mut text = String::new();
    for v in c.iter().step_by(7) {
        let _ = write!(text, "{v:.4},");
    }
    branchy ^ map.len() as u64 ^ text.len() as u64 ^ keys[keys.len() / 2]
}

/// Median seconds of one kernel call, over the calls that fit in about
/// [`POINT`] (at least [`MIN_REPS`]).
pub fn measure() -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut round = 0u64;
    while times.len() < MIN_REPS || start.elapsed() < POINT {
        round += 1;
        let t = Instant::now();
        black_box(kernel(round));
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The scale of a stretch of work bracketed by calibration points
/// `before` and `after`.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_depends_on_its_round() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(3), kernel(4));
    }

    #[test]
    fn scale_is_one_at_the_reference_speed() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        assert!((scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }
}
