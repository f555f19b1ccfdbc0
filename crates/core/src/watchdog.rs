//! Training watchdogs: checkpoint on health, restore on divergence.
//!
//! Deep RL training occasionally diverges — a bad batch explodes the loss,
//! NaN propagates through the network, and every episode afterwards is
//! wasted. [`crate::Runner::train_guarded`] monitors each training episode
//! and, when an episode produces a non-finite or exploding reward or leaves
//! the policy unhealthy (non-finite parameters), restores the last
//! known-good checkpoint and re-seeds exploration so the restored policy
//! does not march back down the trajectory that diverged.
//!
//! The watchdog is deterministic: checkpoints are byte buffers from
//! [`fairmove_rl::save_mlp`], restore decisions depend only on episode
//! outcomes, and the re-seed is derived from the evaluation seed and the
//! episode index.

use crate::method::Method;
use fairmove_sim::DisplacementPolicy;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Divergence thresholds for [`crate::Runner::train_guarded`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// An episode whose average reward exceeds this magnitude is treated as
    /// exploded even if still finite.
    pub max_abs_reward: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Rewards are per-taxi per-slot CNY-scale quantities; 1e6 is orders
        // of magnitude beyond anything a healthy run produces.
        WatchdogConfig {
            max_abs_reward: 1e6,
        }
    }
}

/// What the watchdog saw and did over one guarded training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogReport {
    /// Healthy episodes whose parameters were checkpointed.
    pub checkpoints: u64,
    /// Diverged episodes rolled back to the last good checkpoint.
    pub restores: u64,
    /// Diverged episodes with no checkpoint to roll back to (the policy
    /// either doesn't support checkpointing or hadn't completed a healthy
    /// episode yet); exploration is still re-seeded.
    pub unrecovered: u64,
}

impl WatchdogReport {
    /// Total episodes the watchdog rejected.
    pub fn bad_episodes(&self) -> u64 {
        self.restores + self.unrecovered
    }
}

/// A trainee the watchdog can guard: a policy plus (optionally) parameter
/// checkpointing. Implemented by [`Method`]; tests use mock trainees to
/// exercise divergence paths deterministically.
pub trait GuardedTrainee {
    /// The policy to drive through training episodes.
    fn policy(&mut self) -> &mut dyn DisplacementPolicy;

    /// Serializes current learned parameters, or `None` if this trainee
    /// does not support checkpointing.
    fn checkpoint(&self) -> Option<Vec<u8>>;

    /// Restores parameters from [`Self::checkpoint`] bytes. Returns whether
    /// the restore was applied.
    fn restore(&mut self, bytes: &[u8]) -> bool;
}

impl GuardedTrainee for Method {
    fn policy(&mut self) -> &mut dyn DisplacementPolicy {
        self.as_policy()
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        match self {
            Method::FairMove(p) => {
                let mut buf = Vec::new();
                p.save(&mut buf).ok()?;
                Some(buf)
            }
            // The other learners have no save/load surface (the paper only
            // persists FairMove); the watchdog still re-seeds them.
            _ => None,
        }
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        match self {
            Method::FairMove(p) => p.load(&mut &bytes[..]).is_ok(),
            _ => false,
        }
    }
}

/// On-disk checkpoint history: versioned files written crash-safely, read
/// back newest-first past any corruption.
///
/// Each [`CheckpointVault::persist`] call lands `ckpt-<seq>.bin` through
/// [`fairmove_rl::store::write_atomic`] (tmp + fsync + rename, CRC/length
/// footer), so a crash mid-write can at worst leave a stale temp file that
/// is never read. [`CheckpointVault::latest_valid`] walks the history from
/// the newest sequence number down and returns the first file whose footer
/// validates — a torn or bit-flipped newest checkpoint silently falls back
/// to the previous snapshot (pinned by a truncate-at-every-byte test).
#[derive(Debug)]
pub struct CheckpointVault {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

impl CheckpointVault {
    /// Opens (creating if needed) a vault directory, resuming the sequence
    /// numbering after any checkpoints already present.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Self::with_keep(dir, 4)
    }

    /// [`CheckpointVault::open`] with an explicit retention count (how many
    /// most-recent checkpoints survive pruning; min 1).
    pub fn with_keep(dir: &Path, keep: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let next_seq = Self::sequences(dir)?.last().map_or(0, |s| s + 1);
        Ok(CheckpointVault {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            next_seq,
        })
    }

    /// The vault directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.bin"))
    }

    /// Sequence numbers of checkpoint files present, ascending.
    fn sequences(dir: &Path) -> io::Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Writes `payload` as the next checkpoint generation (atomically, with
    /// integrity footer), prunes generations beyond the retention count,
    /// and returns the sequence number written.
    pub fn persist(&mut self, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        fairmove_rl::store::write_atomic(&self.path_for(seq), payload)?;
        self.next_seq += 1;
        // Prune oldest-first, but never the file just written.
        let seqs = Self::sequences(&self.dir)?;
        if seqs.len() > self.keep {
            for &old in &seqs[..seqs.len() - self.keep] {
                let _ = std::fs::remove_file(self.path_for(old));
            }
        }
        Ok(seq)
    }

    /// The newest checkpoint that passes integrity validation, as
    /// `(sequence, payload)` — corrupt or torn files are skipped, not
    /// trusted. `None` when no valid checkpoint exists.
    pub fn latest_valid(&self) -> Option<(u64, Vec<u8>)> {
        let seqs = Self::sequences(&self.dir).ok()?;
        for &seq in seqs.iter().rev() {
            if let Ok(payload) = fairmove_rl::store::read_verified(&self.path_for(seq)) {
                return Some((seq, payload));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodKind;
    use fairmove_city::City;
    use fairmove_sim::SimConfig;

    #[test]
    fn fairmove_checkpoints_roundtrip() {
        let sim = SimConfig::test_scale();
        let city = City::generate(sim.city.clone());
        let mut m = Method::build(MethodKind::FairMove, &city, &sim, 0.6);
        let bytes = m.checkpoint().expect("FairMove must checkpoint");
        assert!(!bytes.is_empty());
        assert!(m.restore(&bytes), "restoring own checkpoint must succeed");
        assert!(!m.restore(b"garbage"), "corrupt bytes must be rejected");
    }

    #[test]
    fn non_checkpointing_methods_return_none() {
        let sim = SimConfig::test_scale();
        let city = City::generate(sim.city.clone());
        for kind in [MethodKind::Gt, MethodKind::Sd2, MethodKind::Tql] {
            let mut m = Method::build(kind, &city, &sim, 0.6);
            assert!(m.checkpoint().is_none(), "{kind:?}");
            assert!(!m.restore(&[]), "{kind:?}");
        }
    }

    fn vault_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fairmove-vault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn vault_persists_and_returns_newest() {
        let dir = vault_dir("newest");
        let mut vault = CheckpointVault::with_keep(&dir, 2).unwrap();
        assert!(vault.latest_valid().is_none());
        vault.persist(b"gen zero").unwrap();
        vault.persist(b"gen one").unwrap();
        vault.persist(b"gen two").unwrap();
        let (seq, payload) = vault.latest_valid().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(payload, b"gen two");
        // Retention pruned generation zero.
        assert!(!dir.join("ckpt-00000000.bin").exists());
        // A reopened vault resumes the numbering after what is on disk.
        let mut reopened = CheckpointVault::with_keep(&dir, 2).unwrap();
        assert_eq!(reopened.persist(b"gen three").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite regression test: a checkpoint torn at *every* byte
    /// boundary is cleanly rejected and the vault falls back to the
    /// previous snapshot — never a partial payload, never a panic.
    #[test]
    fn torn_newest_checkpoint_falls_back_to_previous() {
        let dir = vault_dir("torn");
        let mut vault = CheckpointVault::with_keep(&dir, 4).unwrap();
        vault.persist(b"the good previous snapshot").unwrap();
        vault.persist(b"the torn newest snapshot").unwrap();
        let newest = dir.join("ckpt-00000001.bin");
        let full = std::fs::read(&newest).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&newest, &full[..cut]).unwrap();
            let (seq, payload) = vault
                .latest_valid()
                .unwrap_or_else(|| panic!("no fallback at truncation {cut}"));
            assert_eq!(seq, 0, "truncation at {cut} bytes did not fall back");
            assert_eq!(payload, b"the good previous snapshot");
        }
        // Restored in full, the newest wins again.
        std::fs::write(&newest, &full).unwrap();
        assert_eq!(vault.latest_valid().unwrap().0, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_totals_add_up() {
        let r = WatchdogReport {
            checkpoints: 5,
            restores: 2,
            unrecovered: 1,
        };
        assert_eq!(r.bad_episodes(), 3);
    }
}
