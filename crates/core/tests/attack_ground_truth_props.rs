//! Property test pinning the attack ground truth the platform records:
//! for any catalog attack, profile and schedule, the step instants
//! [`cres_platform::Platform::attack_times`] holds equal a naive schedule
//! (`start + k·interval` for every step the horizon reaches), and the
//! run report's step counts, first injection and name agree with them.

use cres_attacks::catalog::{self, try_build, NAMES, VARIANTS};
use cres_platform::config::{PlatformConfig, PlatformProfile};
use cres_platform::runner::{Scenario, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn profile(tag: u8) -> PlatformProfile {
    PlatformProfile::ALL[usize::from(tag) % PlatformProfile::ALL.len()]
}

proptest! {
    // Each case provisions a fresh platform and runs up to 500k cycles.
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn recorded_step_times_match_the_naive_schedule(
        pick in any::<prop::sample::Index>(),
        tag in any::<u8>(),
        start in 0u64..=400_000,
        interval in 1_000u64..=20_000,
        duration in 100_000u64..=500_000,
    ) {
        let names: Vec<&str> = NAMES.iter().chain(VARIANTS.iter()).copied().collect();
        let name = names[pick.index(names.len())];
        let injector = try_build(name).expect("catalog attack");
        let steps = u64::from(injector.steps());
        let scenario = Scenario::quiet(SimDuration::cycles(duration)).attack(
            SimTime::at_cycle(start),
            SimDuration::cycles(interval),
            injector,
        );

        // The event queue pops events at the horizon itself, so a step
        // landing exactly on it runs.
        let expected: Vec<SimTime> = (0..steps)
            .map(|k| SimTime::at_cycle(start + k * interval))
            .take_while(|&at| at <= SimTime::at_cycle(duration))
            .collect();

        let config = PlatformConfig::new(profile(tag), 42);
        let (report, platform) = ScenarioRunner::new(config).run_keep(scenario);
        let times = platform.attack_times(0);
        prop_assert_eq!(times, &expected[..], "{} on {:?}", name, config.profile);

        let outcome = &report.attacks[0];
        prop_assert_eq!(outcome.steps_executed as usize, times.len());
        prop_assert_eq!(outcome.first_injection, times.first().copied());
        prop_assert!(outcome.steps_achieved <= outcome.steps_executed);
        let kind = catalog::kind_of(name).expect("catalog name has a kind");
        prop_assert_eq!(outcome.kind, kind);
        prop_assert_eq!(outcome.name.as_str(), kind.name());
    }
}
