//! The metric registry: every metric the benchmark can print, with its
//! unit, the direction that counts as better, and whether it is a host
//! time or a simulated statistic. `BENCHMARK.json` lists the same names
//! and units; the smoke mode checks that the two agree.

use std::collections::BTreeMap;

/// What a metric's value measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time, or a rate or share derived from host time: noisy.
    Host,
    /// A deterministic simulated statistic: repeats exactly for a seed.
    Simulated,
    /// The outcome of the output checks.
    Check,
}

/// One registered metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, higher: bool, kind: Kind) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        kind,
    }
}

use Kind::{Check, Host, Simulated};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", false, Host),
    def("wall_s", "s", false, Host),
    def("events_per_s", "1/s", true, Host),
    def("peak_rss_mib", "MiB", false, Host),
    def("cold_shards_per_s", "1/s", true, Host),
    def("ok_frac", "ratio", true, Check),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    def("des.hold_ns", "ns", false, Host),
    def("des.cancel_ns", "ns", false, Host),
    def("des.share", "ratio", false, Host),
    def("des.queue_high_water", "count", false, Simulated),
    def("des.queue_bytes", "bytes", false, Simulated),
    def("sim.table_bytes", "bytes", false, Simulated),
    def("core.on_input_ns", "ns", false, Host),
    def("core.inputs", "count", false, Simulated),
    def("core.share", "ratio", false, Host),
    def("radio.carrier_busy_ns", "ns", false, Host),
    def("radio.start_broadcast_ns", "ns", false, Host),
    def("radio.complete_ns", "ns", false, Host),
    def("radio.frames", "count", false, Simulated),
    def("radio.copies_per_frame", "ratio", false, Simulated),
    def("radio.ok_ratio", "ratio", true, Simulated),
    def("radio.share", "ratio", false, Host),
    def("radio.build_s", "s", false, Host),
    def("geom.coverage_csr_build_s", "s", false, Host),
    def("geom.coverage_walk_ns", "ns", false, Host),
    def("geom.working_transitions", "count", false, Simulated),
    def("geom.k_coverage_ns", "ns", false, Host),
    def("geom.share", "ratio", false, Host),
    def("grab.on_adv_ns", "ns", false, Host),
    def("grab.on_report_ns", "ns", false, Host),
    def("grab.forward_ratio", "ratio", true, Simulated),
    def("grab.share", "ratio", false, Host),
    def("energy.charge_ns", "ns", false, Host),
    def("energy.share", "ratio", false, Host),
    def("sim.events", "count", false, Simulated),
    def("sim.unattributed_share", "ratio", false, Host),
    def("sim.trace_overhead", "ratio", false, Host),
    def("cache.scan_s", "s", false, Host),
    def("cache.decode_us", "us", false, Host),
    def("cache.record_bytes", "bytes", false, Simulated),
    def("cache.hit_ratio", "ratio", true, Simulated),
    def("cache.quarantined", "count", false, Simulated),
    def("cache.append_us", "us", false, Host),
    def("cache.pool_busy_frac", "ratio", true, Host),
    def("scenario.compile_ms", "ms", false, Host),
];

/// The registry a run prints from.
pub fn registry(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"name": "host" | "simulated" | "check", ...}` for `defs`.
pub fn kinds_json(defs: &[Def]) -> String {
    let parts: Vec<String> = defs
        .iter()
        .map(|d| {
            let kind = match d.kind {
                Kind::Host => "host",
                Kind::Simulated => "simulated",
                Kind::Check => "check",
            };
            format!("\"{}\": \"{kind}\"", d.name)
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Metric values by name, filled by a run and rendered against the
/// registry (so a missing or unknown name is caught, not printed).
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` in registry
    /// order. Errors name every registered metric the run did not set and
    /// every value that is not a finite number.
    pub fn render(&self, defs: &[Def]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        let mut problems = Vec::new();
        for d in defs {
            match self.0.get(d.name) {
                Some(v) if v.is_finite() => {
                    parts.push(format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json_number(*v),
                        d.unit
                    ));
                }
                Some(v) => problems.push(format!("{} = {v}", d.name)),
                None => problems.push(format!("{} missing", d.name)),
            }
        }
        for name in self.0.keys() {
            if !defs.iter().any(|d| d.name == *name) {
                problems.push(format!("{name} is not registered"));
            }
        }
        if problems.is_empty() {
            Ok(format!("{{{}}}", parts.join(", ")))
        } else {
            Err(problems.join("; "))
        }
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(
                all[i + 1..].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn render_rejects_missing_unknown_and_non_finite() {
        let defs = &END_TO_END[..2];
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert!(v.render(defs).unwrap_err().contains("wall_s missing"));
        v.set("wall_s", f64::NAN);
        assert!(v.render(defs).is_err());
        v.set("wall_s", 2.0);
        assert_eq!(
            v.render(defs).unwrap(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 2.0, \"unit\": \"s\"}}"
        );
        v.set("bogus", 1.0);
        assert!(v.render(defs).unwrap_err().contains("bogus"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
