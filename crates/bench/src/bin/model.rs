//! The model-checker driver: exhaustively explores `.peas` scenarios
//! with a `[model]` section and replays `[trace]` counterexamples.
//!
//! ```text
//! Usage: model <command> [args]
//!
//! Commands:
//!   explore <name|all> [--expect-violation <rule>]
//!       Run the breadth-first explorer over each selected model
//!       scenario and print its statistics. Exits non-zero if a
//!       violation is found (or, with --expect-violation, if the named
//!       rule is NOT found). When a violation is found, the shrunk
//!       counterexample is written to target/model/<name>-ce.peas.
//!   replay <name|all>
//!       Replay each selected scenario's [trace] section and compare
//!       the outcome against its expect_violation.
//!   replay --file <path.peas>
//!       Replay a standalone counterexample file (as emitted by
//!       `explore`), honouring its expect_violation.
//! ```
//!
//! Scenario names are file stems under `scenarios/`; only scenarios
//! with a `[model]` section are eligible (`all` selects exactly those).

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use peas_bench::cli::{corpus_dir, load_corpus, select};
use peas_bench::model_gate::{expected_rule, model_cfg, parse_trace, rule_of};
use peas_model::{emit_peas, explore, replay, shrink_nodes, shrink_trace, FoundViolation};
use peas_scenario::{load_compiled, CompiledScenario};

/// Where shrunk counterexamples are written.
fn emit_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/model")
}

/// Shrinks a found violation and writes the replayable counterexample.
fn emit_counterexample(
    name: &str,
    cfg: &peas_model::ModelCfg,
    found: &FoundViolation,
) -> Result<PathBuf, String> {
    let rule = found.violation.rule();
    let trace = shrink_trace(cfg, &found.trace, rule);
    let (small_cfg, small_trace) = shrink_nodes(cfg, &trace, rule);
    let text = emit_peas(&format!("{name}-ce"), &small_cfg, &small_trace, rule);
    let dir = emit_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-ce.peas"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_explore(selected: &[(String, CompiledScenario)], expect: Option<&str>) -> bool {
    let mut ok = true;
    for (stem, scenario) in selected {
        let spec = scenario.model.as_ref().expect("model corpus");
        let cfg = model_cfg(spec, scenario);
        let outcome = explore(&cfg);
        println!(
            "{stem}: {} states, {} transitions, fixpoint {}, depth {}, \
             {} duplicate-working, {} coverage-hole, canon {:#018X}",
            outcome.states,
            outcome.transitions,
            outcome.fixpoint,
            outcome.max_depth,
            outcome.duplicate_working_states,
            outcome.coverage_hole_states,
            outcome.canon_hash,
        );
        let found_rule = outcome
            .violation
            .as_ref()
            .map(|f| f.violation.rule().to_string());
        if let Some(found) = &outcome.violation {
            println!("{stem}: VIOLATION {}", found.violation);
            match emit_counterexample(stem, &cfg, found) {
                Ok(path) => println!(
                    "{stem}: shrunk counterexample ({} events) -> {}",
                    shrink_trace(&cfg, &found.trace, found.violation.rule()).len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("{stem}: cannot emit counterexample: {e}");
                    ok = false;
                }
            }
        }
        match expect {
            None => {
                if found_rule.is_some() {
                    ok = false;
                }
            }
            Some(rule) => {
                if found_rule.as_deref() == Some(rule) {
                    println!("{stem}: expected violation `{rule}` found, as required");
                } else {
                    eprintln!(
                        "{stem}: expected violation `{rule}`, found {}",
                        found_rule.as_deref().unwrap_or("none")
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

fn replay_one(name: &str, scenario: &CompiledScenario) -> bool {
    let Some(spec) = scenario.model.as_ref() else {
        eprintln!("{name}: no [model] section");
        return false;
    };
    let Some(trace_spec) = scenario.trace.as_ref() else {
        eprintln!("{name}: no [trace] section to replay");
        return false;
    };
    let cfg = model_cfg(spec, scenario);
    let trace = match parse_trace(trace_spec) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{name}: {e}");
            return false;
        }
    };
    let outcome = replay(&cfg, &trace);
    let got = rule_of(outcome.violation.as_ref());
    let want = expected_rule(scenario);
    println!(
        "{name}: applied {}/{} events, violation {got}, final state {:#018X}",
        outcome.applied,
        trace.len(),
        outcome.final_state_hash
    );
    if let Some(stuck) = outcome.stuck_at {
        eprintln!(
            "{name}: trace got STUCK at event {stuck} (`{}`): not enabled",
            trace[stuck]
        );
        return false;
    }
    if got != want {
        eprintln!("{name}: expected violation `{want}`, got `{got}`");
        return false;
    }
    true
}

fn cmd_replay_file(path: &str) -> bool {
    match load_compiled(Path::new(path)) {
        Ok(scenario) => replay_one(path, &scenario),
        Err(e) => {
            eprintln!("{path}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("usage: model <explore|replay> [name ...|all] [--expect-violation <rule>] [--file <path>]");
        return ExitCode::FAILURE;
    };

    let mut names: Vec<String> = Vec::new();
    let mut expect: Option<String> = None;
    let mut file: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--expect-violation" => match rest.next() {
                Some(rule) => expect = Some(rule.clone()),
                None => {
                    eprintln!("--expect-violation needs a rule name");
                    return ExitCode::FAILURE;
                }
            },
            "--file" => match rest.next() {
                Some(path) => file = Some(path.clone()),
                None => {
                    eprintln!("--file needs a path");
                    return ExitCode::FAILURE;
                }
            },
            _ => names.push(arg.clone()),
        }
    }

    let t0 = std::time::Instant::now();
    let ok = match (command, file) {
        ("replay", Some(path)) => cmd_replay_file(&path),
        (command, None) => {
            let corpus = match load_corpus(&corpus_dir()) {
                Ok(corpus) => corpus
                    .into_iter()
                    .filter(|(_, c)| c.model.is_some())
                    .collect(),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let selected = match select(corpus, &names, "model scenario") {
                Ok(selected) => selected,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match command {
                "explore" => cmd_explore(&selected, expect.as_deref()),
                "replay" => {
                    // `all` means "everything replayable"; naming a
                    // trace-less scenario explicitly is still an error.
                    let explicit = !names.is_empty() && !names.iter().any(|n| n == "all");
                    let replayable: Vec<_> = selected
                        .iter()
                        .filter(|(_, sc)| explicit || sc.trace.is_some())
                        .collect();
                    if replayable.is_empty() {
                        eprintln!("no scenarios with a [trace] section selected");
                        false
                    } else {
                        replayable.iter().all(|(stem, sc)| replay_one(stem, sc))
                    }
                }
                other => {
                    eprintln!("unknown command `{other}`; expected explore or replay");
                    false
                }
            }
        }
        (other, Some(_)) => {
            eprintln!("--file only applies to `replay`, not `{other}`");
            false
        }
    };
    eprintln!("[{:.2?}]", t0.elapsed());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
