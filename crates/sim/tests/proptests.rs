//! Property-based tests over whole simulation runs: for arbitrary small
//! scenarios, the run must satisfy the system invariants.

use proptest::prelude::*;

use peas_des::time::SimTime;
use peas_sim::{BatterySpec, FailureConfig, Runner, ScenarioConfig};

fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        10usize..60,                      // node_count
        any::<u64>(),                     // seed
        0.0f64..0.2,                      // loss rate
        prop::option::of(10.0f64..200.0), // failure rate (scaled high for short runs)
        prop::bool::ANY,                  // grab on/off
        2.0f64..10.0,                     // battery joules
    )
        .prop_map(|(n, seed, loss, failure, grab, battery)| {
            let mut c = ScenarioConfig::small().with_seed(seed);
            c.node_count = n;
            c.loss_rate = loss;
            c.failure = failure.map(|rate_per_5000s| FailureConfig { rate_per_5000s });
            if grab {
                c.grab = Some(peas_grab::GrabConfig::paper());
            }
            c.battery = BatterySpec::Fixed(battery);
            c.horizon = SimTime::from_secs(600);
            c.metrics.sample_period = peas_des::time::SimDuration::from_secs(50);
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core run invariants hold for arbitrary scenarios.
    #[test]
    fn run_invariants(config in arb_scenario()) {
        let report = Runner::new(config.clone()).run_single();
        // Samples advance in time.
        for w in report.samples.windows(2) {
            prop_assert!(w[0].t_secs < w[1].t_secs);
            // Alive count never increases; cumulative wakeups never shrink.
            prop_assert!(w[1].alive <= w[0].alive);
            prop_assert!(w[1].total_wakeups >= w[0].total_wakeups);
            // Delivery ratio stays a probability.
            if let Some(r) = w[1].delivery_ratio {
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
        for s in &report.samples {
            // Coverage values are probabilities, monotone in k.
            for c in s.coverage.windows(2) {
                prop_assert!((0.0..=1.0).contains(&c[0]));
                prop_assert!(c[0] >= c[1] - 1e-12);
            }
            // Census consistency: working + sleeping <= alive <= deployed.
            prop_assert!(s.working + s.sleeping <= s.alive);
            prop_assert!(s.alive <= config.node_count);
        }
        // Energy ledger balances the batteries exactly.
        prop_assert!((report.ledger.total_j() - report.consumed_j).abs() < 1e-6);
        // Death bookkeeping: every death is a failure or a depletion, and
        // the final accounting sweep may kill nodes after the last sample.
        if let Some(last) = report.samples.last() {
            let deaths = (report.failures_injected + report.energy_deaths) as usize;
            prop_assert!(deaths >= config.node_count - last.alive);
            prop_assert!(deaths <= config.node_count);
        }
        // Deliveries never exceed generation.
        prop_assert!(report.delivered_reports <= report.generated_reports);
    }

    /// Bit-for-bit determinism for arbitrary scenarios.
    #[test]
    fn runs_are_reproducible(config in arb_scenario()) {
        let a = Runner::new(config.clone()).run_single();
        let b = Runner::new(config).run_single();
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.node_stats, b.node_stats);
        prop_assert_eq!(a.medium, b.medium);
        prop_assert_eq!(a.failures_injected, b.failures_injected);
        prop_assert_eq!(a.energy_deaths, b.energy_deaths);
        prop_assert_eq!(a.delivered_reports, b.delivered_reports);
    }

    /// The overhead ratio is always a valid fraction, and protocol
    /// overhead is consistent with its parts.
    #[test]
    fn overhead_is_a_fraction(config in arb_scenario()) {
        let report = Runner::new(config).run_single();
        let ratio = report.overhead_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        prop_assert!(report.overhead_j() <= report.ledger.total_j() + 1e-9);
    }
}
