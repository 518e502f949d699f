//! Property tests pinning the pooling contract: a run on a recycled
//! platform ([`cres_platform::Platform::reset`] via
//! [`cres_platform::PlatformPool`]) is **bit-identical** to a run on a
//! freshly built platform, for arbitrary `(config, config)` pairs — the
//! dirty platform's previous cell must leave no residue in the next run's
//! report, evidence or telemetry.

use cres_attacks::NetworkFloodAttack;
use cres_platform::config::{PlatformConfig, PlatformProfile};
use cres_platform::runner::{Scenario, ScenarioRunner};
use cres_platform::PlatformPool;
use cres_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn profile(tag: u8) -> PlatformProfile {
    match tag % 3 {
        0 => PlatformProfile::CyberResilient,
        1 => PlatformProfile::PassiveTrust,
        _ => PlatformProfile::TeeShared,
    }
}

fn scenario(attack: bool) -> Scenario {
    let scenario = Scenario::quiet(SimDuration::cycles(60_000));
    if attack {
        scenario.attack(
            SimTime::at_cycle(20_000),
            SimDuration::cycles(2_000),
            Box::new(NetworkFloodAttack::new(300, 4)),
        )
    } else {
        scenario
    }
}

proptest! {
    // Each case runs three full simulations (incl. RSA keygen per fresh
    // cell), so the case count stays deliberately small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_run_is_bit_identical_to_fresh(
        tag_a in any::<u8>(),
        seed_a in 0u64..32,
        tag_b in any::<u8>(),
        seed_b in 0u64..32,
        attack_a in any::<bool>(),
        attack_b in any::<bool>(),
    ) {
        let config_a = PlatformConfig::new(profile(tag_a), seed_a);
        let config_b = PlatformConfig::new(profile(tag_b), seed_b);

        // Dirty the pool with a full run on cell A, then reuse its
        // platform for cell B.
        let mut pool = PlatformPool::new();
        let _ = ScenarioRunner::new(config_a).run_pooled(&mut pool, scenario(attack_a));
        let pooled = ScenarioRunner::new(config_b).run_pooled(&mut pool, scenario(attack_b));

        let fresh = ScenarioRunner::new(config_b).run(scenario(attack_b));

        prop_assert_eq!(&pooled, &fresh);
        // Bit-identical all the way to the serialised artefact the
        // experiments and goldens consume.
        prop_assert_eq!(pooled.to_json(), fresh.to_json());
    }

    #[test]
    fn repeated_same_cell_reuse_stays_stable(tag in any::<u8>(), seed in 0u64..32) {
        // Same cell run three times through one pool: every pooled run
        // must equal the fresh baseline (no drift from repeated resets).
        let config = PlatformConfig::new(profile(tag), seed);
        let fresh = ScenarioRunner::new(config).run(scenario(true));
        let mut pool = PlatformPool::new();
        for round in 0..3 {
            let pooled = ScenarioRunner::new(config).run_pooled(&mut pool, scenario(true));
            prop_assert_eq!(&pooled, &fresh, "drift on pooled round {}", round);
        }
        let stats = pool.stats();
        prop_assert_eq!((stats.provision_hits, stats.provision_misses), (2, 1));
    }
}
