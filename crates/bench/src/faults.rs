//! Fault injection for the fallible pipeline.
//!
//! Each [`Corruption`] mode mimics a realistic data defect — an encoder
//! glitch emitting NaN, an overflowed counter reading as infinity, a
//! sign-flipped run, a stuck (constant) sensor, a truncated capture —
//! and [`FaultInjector`] applies it deterministically so the robustness
//! suite can assert that every stage of the estimation → generation →
//! queueing pipeline reports a typed error (or degrades gracefully)
//! instead of panicking or silently emitting non-finite traffic.

use vbr_stats::rng::Xoshiro256;

/// A data defect to inject into an otherwise healthy series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// One sample becomes NaN (arithmetic fault in the encoder).
    NanSpike,
    /// One sample becomes +∞ (overflowed byte counter).
    InfSpike,
    /// A contiguous run of samples is negated (sign corruption).
    NegateRun,
    /// The whole series collapses to its first value (stuck encoder —
    /// zero variance defeats every estimator).
    ZeroVarianceRun,
    /// Only the first few samples survive (truncated capture).
    Truncate,
}

impl Corruption {
    /// Every corruption mode, for exhaustive sweeps.
    pub const ALL: [Corruption; 5] = [
        Corruption::NanSpike,
        Corruption::InfSpike,
        Corruption::NegateRun,
        Corruption::ZeroVarianceRun,
        Corruption::Truncate,
    ];
}

/// Applies [`Corruption`] modes deterministically (seeded positions).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// Creates an injector; `seed` fixes every fault position.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// Returns a corrupted copy of `xs`. The input is never mutated, and
    /// an empty input stays empty.
    pub fn apply(&self, xs: &[f64], mode: Corruption) -> Vec<f64> {
        let mut out = xs.to_vec();
        if out.is_empty() {
            return out;
        }
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ mode as u64);
        let pick = |rng: &mut Xoshiro256, n: usize| rng.below(n as u64) as usize;
        match mode {
            Corruption::NanSpike => {
                let i = pick(&mut rng, out.len());
                out[i] = f64::NAN;
            }
            Corruption::InfSpike => {
                let i = pick(&mut rng, out.len());
                out[i] = f64::INFINITY;
            }
            Corruption::NegateRun => {
                let run = (out.len() / 20).max(1);
                let start = pick(&mut rng, out.len());
                let end = (start + run).min(out.len());
                for v in &mut out[start..end] {
                    // Map zeros below zero too, so the run is detectably bad.
                    *v = if *v == 0.0 { -1.0 } else { -*v };
                }
            }
            Corruption::ZeroVarianceRun => {
                let c = out[0];
                out.iter_mut().for_each(|v| *v = c);
            }
            Corruption::Truncate => {
                out.truncate(16.min(out.len()));
            }
        }
        out
    }

    /// The position seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a corrupted copy of a serialized snapshot (or any byte
    /// blob). Deterministic like [`apply`](Self::apply): the same seed
    /// and mode damage the same bytes. An empty input stays empty.
    pub fn apply_bytes(&self, bytes: &[u8], mode: FileCorruption) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ (0x100 + mode as u64));
        match mode {
            FileCorruption::Truncated => {
                // Cut somewhere strictly inside the file: a crash before
                // the tail of a non-atomic write ever hit the disk.
                let keep = rng.below(out.len() as u64) as usize;
                out.truncate(keep);
            }
            FileCorruption::TornTail => {
                // The file keeps its length but the last ~quarter was
                // never written: zero-filled sectors after a torn write.
                let torn = (out.len() / 4).max(1);
                let start = out.len() - torn;
                out[start..].fill(0);
            }
            FileCorruption::BitFlips => {
                // A few random single-bit flips (bad sector, bad RAM).
                for _ in 0..3 {
                    let i = rng.below(out.len() as u64) as usize;
                    let bit = rng.below(8) as u8;
                    out[i] ^= 1 << bit;
                }
            }
        }
        out
    }

    /// Corrupts a snapshot file on disk in place with `mode`. Used by
    /// the adversarial restore tests to simulate crash damage between a
    /// checkpoint write and the restart that reads it.
    pub fn corrupt_file(
        &self,
        path: &std::path::Path,
        mode: FileCorruption,
    ) -> std::io::Result<()> {
        let bytes = std::fs::read(path)?;
        std::fs::write(path, self.apply_bytes(&bytes, mode))
    }
}

/// A file-level defect on a serialized snapshot — what a crash, torn
/// write or failing medium does to checkpoint bytes, as opposed to the
/// sample-level [`Corruption`] modes that damage the data *inside* a
/// healthy file. Stale-generation damage (an old snapshot swapped over
/// a newer one) is exercised at the checkpoint-store level, where
/// generations exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileCorruption {
    /// The file ends early (crash mid-write without an atomic rename).
    Truncated,
    /// Full length but the tail reads back as zeros (torn sector write).
    TornTail,
    /// A handful of random single-bit flips (media/RAM corruption).
    BitFlips,
}

impl FileCorruption {
    /// Every file corruption mode, for exhaustive sweeps.
    pub const ALL: [FileCorruption; 3] =
        [FileCorruption::Truncated, FileCorruption::TornTail, FileCorruption::BitFlips];
}

/// A deterministic kill point for crash-recovery drills: arms at a unit
/// count (slices, blocks, bytes — caller's choice) and reports when
/// progress crosses it. The injector only *decides*; the caller pulls
/// the trigger (`std::process::abort()` for a SIGKILL-equivalent exit
/// that skips destructors and atexit hooks), which keeps the decision
/// logic testable in-process.
#[derive(Debug, Clone)]
pub struct KillPoint {
    after: Option<u64>,
    seen: u64,
    fired: bool,
}

impl KillPoint {
    /// Arms a kill point after `after` units; `None` never fires.
    pub fn new(after: Option<u64>) -> Self {
        KillPoint { after, seen: 0, fired: false }
    }

    /// Records `n` units of progress; returns `true` exactly once, the
    /// first time cumulative progress reaches the armed threshold.
    pub fn advance(&mut self, n: u64) -> bool {
        self.seen = self.seen.saturating_add(n);
        match self.after {
            Some(k) if !self.fired && self.seen >= k => {
                self.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Units of progress recorded so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruptions_are_deterministic_and_nonempty() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() + 2.0).collect();
        let inj = FaultInjector::new(7);
        // Compare bit patterns: NaN != NaN would defeat a value compare.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mode in Corruption::ALL {
            let a = inj.apply(&xs, mode);
            let b = inj.apply(&xs, mode);
            assert_eq!(bits(&a), bits(&b), "{mode:?} not deterministic");
            assert_ne!(bits(&a), bits(&xs), "{mode:?} must actually corrupt");
            assert!(!a.is_empty());
        }
        assert!(inj.apply(&[], Corruption::NanSpike).is_empty());
    }

    #[test]
    fn each_mode_produces_its_signature_defect() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).cos() + 2.0).collect();
        let inj = FaultInjector::new(3);
        assert!(inj.apply(&xs, Corruption::NanSpike).iter().any(|v| v.is_nan()));
        assert!(inj.apply(&xs, Corruption::InfSpike).iter().any(|v| v.is_infinite()));
        assert!(inj.apply(&xs, Corruption::NegateRun).iter().any(|&v| v < 0.0));
        let flat = inj.apply(&xs, Corruption::ZeroVarianceRun);
        assert!(flat.iter().all(|&v| v == flat[0]));
        assert_eq!(inj.apply(&xs, Corruption::Truncate).len(), 16);
    }

    #[test]
    fn file_corruptions_are_deterministic_and_damaging() {
        let blob: Vec<u8> = (0..2048u32).map(|i| (i.wrapping_mul(31) % 251) as u8 + 1).collect();
        let inj = FaultInjector::new(11);
        for mode in FileCorruption::ALL {
            let a = inj.apply_bytes(&blob, mode);
            let b = inj.apply_bytes(&blob, mode);
            assert_eq!(a, b, "{mode:?} not deterministic");
            assert_ne!(a, blob, "{mode:?} must actually corrupt");
        }
        assert!(inj.apply_bytes(&[], FileCorruption::BitFlips).is_empty());
    }

    #[test]
    fn file_corruption_signatures() {
        let blob = vec![0xAAu8; 1000];
        let inj = FaultInjector::new(5);
        assert!(inj.apply_bytes(&blob, FileCorruption::Truncated).len() < blob.len());
        let torn = inj.apply_bytes(&blob, FileCorruption::TornTail);
        assert_eq!(torn.len(), blob.len());
        assert_eq!(*torn.last().unwrap(), 0, "torn tail must read as zeros");
        let flipped = inj.apply_bytes(&blob, FileCorruption::BitFlips);
        assert_eq!(flipped.len(), blob.len());
        let diff_bits: u32 = blob.iter().zip(&flipped).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert!((1..=3).contains(&diff_bits), "expected ≤3 flipped bits, got {diff_bits}");
    }

    #[test]
    fn kill_point_fires_exactly_once_at_threshold() {
        let mut kp = KillPoint::new(Some(100));
        assert!(!kp.advance(60));
        assert!(!kp.advance(39)); // 99: one short
        assert!(kp.advance(1)); // crosses 100
        assert!(!kp.advance(500), "must not re-fire");
        assert_eq!(kp.seen(), 600);
        let mut disarmed = KillPoint::new(None);
        assert!(!disarmed.advance(u64::MAX));
        assert!(!disarmed.advance(u64::MAX), "saturating progress count");
    }

    #[test]
    fn corrupt_file_damages_on_disk_bytes() {
        let dir = std::env::temp_dir().join("vbr_faults_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let blob: Vec<u8> = (0..512u32).map(|i| (i % 256) as u8).collect();
        std::fs::write(&path, &blob).unwrap();
        let inj = FaultInjector::new(9);
        inj.corrupt_file(&path, FileCorruption::BitFlips).unwrap();
        let damaged = std::fs::read(&path).unwrap();
        assert_eq!(damaged, inj.apply_bytes(&blob, FileCorruption::BitFlips));
        std::fs::remove_file(&path).ok();
    }
}
