//! # peas-bench — the paper-experiment harness
//!
//! Regenerates every table and figure of the PEAS (ICDCS 2003) evaluation,
//! plus the analytical results and the ablations DESIGN.md calls out. Each
//! experiment in [`experiments`] returns a formatted, paper-style text
//! block; the `paper` binary prints them, and the Criterion benches run
//! scaled-down versions so `cargo bench` exercises every figure.
//!
//! | Experiment | Paper artifact |
//! |------------|----------------|
//! | [`experiments::fig9`]  | Fig 9 — coverage lifetime vs deployment number |
//! | [`experiments::fig10`] | Fig 10 — data delivery lifetime vs deployment number |
//! | [`experiments::fig11`] | Fig 11 — total wakeups vs deployment number |
//! | [`experiments::table1`]| Table 1 — energy overhead per deployment number |
//! | [`experiments::fig12`] | Fig 12 — coverage lifetime vs failure rate |
//! | [`experiments::fig13`] | Fig 13 — delivery lifetime vs failure rate |
//! | [`experiments::fig14`] | Fig 14 — wakeups vs failure rate |
//! | [`experiments::kaccuracy`] | §2.2.1 — estimator accuracy vs k |
//! | [`experiments::adaptive`]  | §2.2 — aggregate probing rate vs λd |
//! | [`experiments::gaps`]      | Figs 3–5 — randomized vs synchronized gaps |
//! | [`experiments::connectivity`] | §3 — (1+√5)Rp connectivity validation |
//! | [`experiments::loss`]      | §4 — multi-PROBE loss compensation |
//! | [`experiments::turnoff`]   | §4 — working-node turn-off ablation |
//! | [`experiments::baselines`] | §§1/6 — PEAS vs always-on / synchronized / GAF |

pub mod cli;
pub mod experiments;
pub mod model_gate;
pub mod sweeps;

pub use experiments::ExperimentOpts;
