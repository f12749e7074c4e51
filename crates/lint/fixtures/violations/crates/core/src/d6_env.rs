//! Fixture: rule `d6-ambient-env` must fire on an environment read in a
//! sim-logic library (this tree mimics `crates/core/src/...`).

/// A debug switch read from the environment inside the state machine:
/// the run would depend on the calling shell, not on config and seed.
pub fn trace_enabled() -> bool {
    std::env::var("TRACE").is_ok()
}
