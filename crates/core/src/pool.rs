//! Per-worker platform pooling for campaign throughput.
//!
//! Campaign cells used to rebuild a [`Platform`] from scratch for every
//! job — and platform construction is dominated (in both wall clock and
//! allocation count) by RSA key generation inside
//! [`crate::provision::provision`]. Provisioning is a pure function of
//! `(seed, rsa_bits, TEE deployment)` though, and most campaigns sweep a
//! handful of such cells across many scenarios, so a per-worker
//! [`PlatformPool`]:
//!
//! * caches [`Provisioned`] factory state per cell and hands out clones,
//!   so RSA keygen and image signing run once per cell per worker instead
//!   of once per job;
//! * recycles the previous job's [`Platform`] through
//!   [`Platform::reset`], keeping the event buffer, the SSM's
//!   evidence/intern storage and the telemetry recorder's ring across
//!   jobs;
//! * carries the scoring scratch ([`ScoreScratch`]) so `RunReport`
//!   assembly reuses its working buffers.
//!
//! Pooling is semantically invisible: a pooled run is bit-identical to a
//! fresh-platform run (pinned by the `platform_reset` proptests and the
//! campaign determinism suite), because every reused buffer is
//! content-reset and everything else is rebuilt from the pure provisioning
//! output.
//!
//! The pool is deliberately *per worker* — it is not `Sync`, never shared,
//! and therefore adds no locking to the campaign's work-stealing loop.

use crate::config::PlatformConfig;
use crate::platform::Platform;
use crate::provision::{provision, Provisioned};
use cres_sim::SimTime;
use cres_tee::TeeDeployment;

/// Provisioning cache capacity. Campaigns sweep a few `(profile, seed)`
/// cells per worker; 8 covers every in-tree experiment with room to spare,
/// and eviction (oldest first) only costs a re-provision, never
/// correctness.
const PROVISION_CACHE_CAP: usize = 8;

/// The inputs [`provision`] is a pure function of — the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProvisionKey {
    seed: u64,
    rsa_bits: usize,
    tee: TeeDeployment,
}

impl ProvisionKey {
    fn of(config: &PlatformConfig) -> Self {
        ProvisionKey {
            seed: config.seed,
            rsa_bits: config.rsa_bits,
            tee: config.tee_deployment(),
        }
    }
}

/// Reusable working buffers for `RunReport` assembly, carried across jobs
/// by the pool so scoring does not rebuild them per run.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Ground-truth injection times, rebuilt (capacity kept) per score.
    pub ground_truth: Vec<SimTime>,
}

/// Cumulative pool counters: how warm the worker's pool actually is.
///
/// A healthy steady-state sweep shows `provision_hits` dominating
/// `provision_misses` (misses are bounded by the number of distinct
/// provisioning cells the worker sees) and `platform_recycles` tracking
/// one-less-than the jobs run (only the first acquire builds fresh).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PoolStats {
    /// Provisioning-cache hits (RSA keygen + signing skipped).
    pub provision_hits: u64,
    /// Provisioning-cache misses (full provisioning paid).
    pub provision_misses: u64,
    /// Acquires satisfied by recycling the previous job's platform.
    pub platform_recycles: u64,
}

impl PoolStats {
    /// Provisioning-cache hit rate in `[0, 1]`; `1.0` for an unused pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.provision_hits + self.provision_misses;
        if total == 0 {
            return 1.0;
        }
        self.provision_hits as f64 / total as f64
    }

    /// Field-wise sum — aggregating per-shard pools into fleet totals.
    pub fn merge(&mut self, other: &PoolStats) {
        self.provision_hits += other.provision_hits;
        self.provision_misses += other.provision_misses;
        self.platform_recycles += other.platform_recycles;
    }
}

/// A per-worker pool of provisioning state and one recyclable platform.
#[derive(Default)]
pub struct PlatformPool {
    provisioned: Vec<(ProvisionKey, Provisioned)>,
    idle: Option<Platform>,
    scratch: ScoreScratch,
    hits: u64,
    misses: u64,
    recycles: u64,
}

impl PlatformPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A platform for `config`: the recycled previous platform when one is
    /// idle (via [`Platform::reset`]), else a fresh build — either way fed
    /// from the provisioning cache.
    pub fn acquire(&mut self, config: PlatformConfig) -> Platform {
        let provisioned = self.provisioned(&config);
        match self.idle.take() {
            Some(mut platform) => {
                self.recycles += 1;
                platform.reset(config, provisioned);
                platform
            }
            None => Platform::from_provisioned(config, provisioned),
        }
    }

    /// Returns a finished platform for the next [`PlatformPool::acquire`]
    /// to recycle.
    pub fn release(&mut self, platform: Platform) {
        self.idle = Some(platform);
    }

    /// The scoring scratch buffers.
    pub fn scratch_mut(&mut self) -> &mut ScoreScratch {
        &mut self.scratch
    }

    /// Cumulative hit/miss/recycle counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            provision_hits: self.hits,
            provision_misses: self.misses,
            platform_recycles: self.recycles,
        }
    }

    /// Factory state for `config`, cloned from the cache when the cell was
    /// provisioned before.
    fn provisioned(&mut self, config: &PlatformConfig) -> Provisioned {
        let key = ProvisionKey::of(config);
        if let Some((_, cached)) = self.provisioned.iter().find(|(k, _)| *k == key) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let fresh = provision(config);
        if self.provisioned.len() == PROVISION_CACHE_CAP {
            self.provisioned.remove(0);
        }
        self.provisioned.push((key, fresh.clone()));
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformProfile;

    #[test]
    fn provision_cache_hits_on_same_cell() {
        let mut pool = PlatformPool::new();
        let config = PlatformConfig::new(PlatformProfile::CyberResilient, 9);
        let p1 = pool.acquire(config);
        pool.release(p1);
        let p2 = pool.acquire(config);
        pool.release(p2);
        let stats = pool.stats();
        assert_eq!((stats.provision_hits, stats.provision_misses), (1, 1));
    }

    #[test]
    fn profiles_sharing_a_tee_deployment_share_provisioning() {
        // PassiveTrust and TeeShared both map to SharedResources, so with
        // one seed they are a single provisioning cell.
        let mut pool = PlatformPool::new();
        for profile in [PlatformProfile::PassiveTrust, PlatformProfile::TeeShared] {
            let p = pool.acquire(PlatformConfig::new(profile, 3));
            pool.release(p);
        }
        let stats = pool.stats();
        assert_eq!((stats.provision_hits, stats.provision_misses), (1, 1));
    }

    #[test]
    fn pooled_platform_matches_fresh_platform_state() {
        let config_a = PlatformConfig::new(PlatformProfile::CyberResilient, 5);
        let config_b = PlatformConfig::new(PlatformProfile::TeeShared, 6);
        let mut pool = PlatformPool::new();
        // Dirty the pooled platform with a full job on a different config
        // first, then rebuild it for config_b.
        let first = pool.acquire(config_a);
        pool.release(first);
        let pooled = pool.acquire(config_b);
        let fresh = Platform::new(config_b);
        assert_eq!(pooled.boot_report, fresh.boot_report);
        assert_eq!(
            pooled.ssm.evidence().records(),
            fresh.ssm.evidence().records()
        );
        assert_eq!(pooled.soc.uart.lines(), fresh.soc.uart.lines());
    }

    #[test]
    fn stats_count_hits_misses_and_recycles() {
        let mut pool = PlatformPool::new();
        let config = PlatformConfig::new(PlatformProfile::CyberResilient, 21);
        assert_eq!(pool.stats(), PoolStats::default());
        assert_eq!(
            pool.stats().hit_rate(),
            1.0,
            "unused pool is vacuously warm"
        );
        for _ in 0..3 {
            let p = pool.acquire(config);
            pool.release(p);
        }
        let stats = pool.stats();
        assert_eq!(
            stats.provision_misses, 1,
            "only the first acquire provisions"
        );
        assert_eq!(stats.provision_hits, 2);
        assert_eq!(
            stats.platform_recycles, 2,
            "only the first acquire builds fresh"
        );
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let mut merged = stats;
        merged.merge(&stats);
        assert_eq!(merged.provision_hits, 4);
        assert_eq!(merged.platform_recycles, 4);
    }

    #[test]
    fn cache_evicts_oldest_beyond_capacity() {
        let mut pool = PlatformPool::new();
        for seed in 0..=PROVISION_CACHE_CAP as u64 {
            let p = pool.acquire(PlatformConfig::new(PlatformProfile::CyberResilient, seed));
            pool.release(p);
        }
        // seed 0 was evicted; acquiring it again is a miss
        let p = pool.acquire(PlatformConfig::new(PlatformProfile::CyberResilient, 0));
        pool.release(p);
        let stats = pool.stats();
        assert_eq!(stats.provision_hits, 0);
        assert_eq!(stats.provision_misses, PROVISION_CACHE_CAP as u64 + 2);
    }
}
