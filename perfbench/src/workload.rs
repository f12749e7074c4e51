//! The workloads, the inputs each builds from `--seed`, and the pinned
//! outputs every run is checked against.
//!
//! * `paper-480` runs the Section 5.2 baseline world
//!   (`scenarios/base-paper.peas`) to network death, one world per seed
//!   of a 16-seed pool.
//! * `sweep-fig12` submits all 45 shards of `scenarios/fig12.peas` to a
//!   fresh result cache, then resubmits them warm.
//!
//! `--seed` picks the order in which the pool (or the sweep's shards) is
//! visited, so every run sees inputs whose outputs are pinned in
//! `perfbench/pins.tsv` and can be checked exactly.

use std::path::{Path, PathBuf};

use peas_des::rng::SimRng;
use peas_des::time::SimTime;
use peas_scenario::{load_compiled, sample_fingerprint, SweepRun};
use peas_sim::{encode_report, fnv1a, RunReport};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper480,
    SweepFig12,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Paper480, Workload::SweepFig12];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper480 => "paper-480",
            Workload::SweepFig12 => "sweep-fig12",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario file the workload compiles, relative to the repo root.
    pub fn scenario_file(self) -> &'static str {
        match self {
            Workload::Paper480 => "scenarios/base-paper.peas",
            Workload::SweepFig12 => "scenarios/fig12.peas",
        }
    }

    /// Whether runs go through `ResultCache::execute` as a sweep (rather
    /// than one world at a time in this process).
    pub fn is_sweep(self) -> bool {
        self == Workload::SweepFig12
    }
}

/// World seeds `1..=PAPER_POOL` make `paper-480`'s pinned pool. Small
/// enough that one run visits every seed several times, so runs with
/// different `--seed`s measure the same mix of worlds.
const PAPER_POOL: u64 = 16;

/// The inputs a workload builds for one invocation.
pub struct Plan {
    pub workload: Workload,
    pub root: PathBuf,
    pub seed: u64,
    /// Runs in the order this seed visits them.
    pub runs: Vec<SweepRun>,
    /// Whether the runs are the pinned full-size inputs (false in smoke
    /// mode, whose shrunken runs have no pins).
    pub pinned: bool,
}

/// Compiles the workload's scenario and expands the runs `seed` visits.
/// `smoke` shrinks every run to a few simulated minutes and a handful of
/// shards, so the whole pipeline runs in seconds.
pub fn plan(root: &Path, workload: Workload, seed: u64, smoke: bool) -> Result<Plan, String> {
    let compiled =
        load_compiled(&root.join(workload.scenario_file())).map_err(|e| e.to_string())?;
    let mut runs = match workload {
        Workload::Paper480 => (1..=PAPER_POOL)
            .map(|seed| SweepRun {
                label: format!("seed={seed}"),
                config: compiled.base.clone().with_seed(seed),
            })
            .collect(),
        Workload::SweepFig12 => compiled.runs(),
    };
    SimRng::new(seed).shuffle(&mut runs);
    if smoke {
        let (keep, horizon) = match workload {
            Workload::Paper480 => (2, 600),
            Workload::SweepFig12 => (4, 300),
        };
        runs.truncate(keep);
        for r in &mut runs {
            r.config.horizon = SimTime::from_secs(horizon);
        }
    }
    Ok(Plan {
        workload,
        root: root.to_path_buf(),
        seed,
        runs,
        pinned: !smoke,
    })
}

/// The outputs pinned for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub fingerprint: u64,
    pub events: u64,
    /// FNV-1a over the run's schema-1 `encode_report` bytes.
    pub report_fnv: u64,
}

impl Pin {
    pub fn of(report: &RunReport) -> Pin {
        Pin {
            fingerprint: sample_fingerprint(report),
            events: report.events_processed,
            report_fnv: fnv1a(encode_report(report).as_bytes()),
        }
    }
}

/// The pin file, relative to the repo root.
pub const PIN_FILE: &str = "perfbench/pins.tsv";

/// Pinned outputs keyed by (workload, run label).
pub struct Pins(Vec<(String, String, Pin)>);

impl Pins {
    /// Reads the pin file: `workload<TAB>label<TAB>fingerprint<TAB>events<TAB>report_fnv`
    /// per line, hex for the hashes; `#` starts a comment line.
    pub fn load(root: &Path) -> Result<Pins, String> {
        let path = root.join(PIN_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut pins = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed pin line", path.display(), i + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [w, label, fp, ev, rf] = f[..] else {
                return Err(bad());
            };
            let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16);
            let pin = Pin {
                fingerprint: hex(fp).map_err(|_| bad())?,
                events: ev.parse().map_err(|_| bad())?,
                report_fnv: hex(rf).map_err(|_| bad())?,
            };
            pins.push((w.to_string(), label.to_string(), pin));
        }
        Ok(Pins(pins))
    }

    pub fn get(&self, workload: Workload, label: &str) -> Option<Pin> {
        self.0
            .iter()
            .find(|(w, l, _)| w == workload.name() && l == label)
            .map(|(_, _, p)| *p)
    }

    /// Checks a run's report against its pin. A pinned plan must have a
    /// pin for every run; a smoke plan has none and checks nothing here.
    pub fn check(&self, plan: &Plan, label: &str, report: &RunReport) -> Result<(), String> {
        if !plan.pinned {
            return Ok(());
        }
        let want = self
            .get(plan.workload, label)
            .ok_or_else(|| format!("no pin for {} {label}", plan.workload.name()))?;
        let got = Pin::of(report);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} {label}: got fingerprint {:#018x} events {} report {:#018x}, pinned {:#018x} {} {:#018x}",
                plan.workload.name(),
                got.fingerprint,
                got.events,
                got.report_fnv,
                want.fingerprint,
                want.events,
                want.report_fnv
            ))
        }
    }
}

/// Renders one pin line.
pub fn pin_line(workload: Workload, label: &str, pin: Pin) -> String {
    format!(
        "{}\t{label}\t{:#018x}\t{}\t{:#018x}",
        workload.name(),
        pin.fingerprint,
        pin.events,
        pin.report_fnv
    )
}
