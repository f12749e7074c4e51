//! The PEAS simulator's benchmark.
//!
//! ```text
//! perfbench --workload <paper-480|sweep-fig12> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! perfbench --pin
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! gives the per-layer metrics. Either way the run also writes
//! `.perfbench/<untraced|traced>-<workload>-<seed>.json`: provenance, the
//! result, whether each metric is host time or a simulated statistic, the
//! failed checks and (traced) the spans. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, preceded
//! by a provenance line. `--smoke` runs every workload shrunken, in both
//! modes, and checks every emitted metric name and unit against
//! `BENCHMARK.json`. `--pin` reruns every pinned input and prints the pin
//! file. See `perfbench/README.md`.

mod e2e;
mod layers;
mod metrics;
mod spans;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use peas_sim::report_json::{json_escape, parse_json, Json};

use metrics::Values;
use workload::{Pins, Workload};

/// Where runs keep their caches and span files, relative to the root.
const OUT_DIR: &str = ".perfbench";

/// Checks attempted and failed, the failure messages, and the metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub values: Values,
}

impl Outcome {
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }

    /// A run that could not start: one attempt, failed.
    pub fn broken(e: String) -> Outcome {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.fail(e);
        o
    }
}

/// Empties (or creates) a scratch directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--pin" => args.pin = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_none() && !args.smoke && !args.pin {
        return Err("need --workload, --smoke or --pin".to_string());
    }
    Ok(args)
}

/// The repository root: the working directory, which must hold the
/// scenarios the workloads compile and the benchmark's own files.
fn find_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let need = [
        "scenarios/base-paper.peas",
        workload::PIN_FILE,
        "BENCHMARK.json",
    ];
    match need.iter().find(|f| !cwd.join(f).is_file()) {
        None => Ok(cwd),
        Some(f) => Err(format!(
            "{} is not the repository root: {f} is missing",
            cwd.display()
        )),
    }
}

/// Output of `cmd args…`, first line, or "unknown".
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the git checkout rooted at `root`; "unknown" when the
/// root is not itself a checkout (not inside some other repository).
fn git_commit(root: &Path) -> String {
    let top = first_line_of("git", &["rev-parse", "--show-toplevel"]);
    if Path::new(&top).canonicalize().ok() == root.canonicalize().ok() {
        first_line_of("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// Where and how this result was measured, as one JSON object.
fn provenance(root: &Path, workload: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", format!("\"{}\"", workload.name())),
        ("seed", seed.to_string()),
        ("seconds", metrics::json_number(seconds)),
        ("trace", trace.to_string()),
        (
            "git_commit",
            format!("\"{}\"", json_escape(&git_commit(root))),
        ),
        (
            "rustc",
            format!("\"{}\"", json_escape(&first_line_of("rustc", &["-V"]))),
        ),
        ("cpu", format!("\"{}\"", json_escape(&cpu))),
        ("cores", cores.to_string()),
        (
            "profile",
            format!(
                "\"{}\"",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
            ),
        ),
        (
            "queue",
            format!(
                "\"{}\"",
                if cfg!(feature = "heap-queue") {
                    "heap-queue"
                } else {
                    "ladder"
                }
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs one workload in one mode; returns the outcome and, for the traced
/// run, its spans.
fn run(
    root: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> (Outcome, Option<String>) {
    let pins = match Pins::load(root) {
        Ok(p) => p,
        Err(e) => return (Outcome::broken(e), None),
    };
    let plan = match workload::plan(root, workload, seed, smoke) {
        Ok(p) => p,
        Err(e) => return (Outcome::broken(e), None),
    };
    let scratch = root
        .join(OUT_DIR)
        .join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = fresh_dir(&scratch) {
        return (Outcome::broken(e), None);
    }
    let result = if trace {
        let (out, spans) = traced::measure(root, &plan, &pins, seconds, &scratch);
        (out, Some(spans))
    } else {
        let mut out = e2e::measure(&plan, &pins, seconds, &scratch);
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.values.set("ok_frac", ok);
        (out, None)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Renders the result line; a run whose metrics cannot all be rendered
/// reports itself incorrect.
fn result_line(out: &Outcome, trace: bool) -> (bool, String) {
    let rendered = out.values.render(metrics::registry(trace));
    let correct = out.failed == 0 && rendered.is_ok();
    let body = rendered.unwrap_or_else(|_| "{}".to_string());
    (
        correct,
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {body}}}",
            out.attempted.max(1),
            out.failed
        ),
    )
}

/// Smoke mode: every workload shrunken, both modes; every metric must be
/// emitted with the name and unit `BENCHMARK.json` declares.
fn smoke(root: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let json = parse_json(&text)?;
    let declared = |key: &str| -> Result<Vec<[String; 3]>, String> {
        let Some(Json::Arr(items)) = json.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let field = |m: &Json, k: &str| match m.get(k) {
            Some(Json::Str(v)) => v.clone(),
            _ => String::new(),
        };
        Ok(items
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect())
    };
    let Some(Json::Arr(workloads)) = json.get("workloads") else {
        return Err("BENCHMARK.json has no workloads list".to_string());
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| match w.get("name") {
            Some(Json::Str(n)) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if names != ours {
        return Err(format!(
            "BENCHMARK.json workloads {names:?}, benchmark runs {ours:?}"
        ));
    }
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(key)?;
        let have: Vec<[String; 3]> = metrics::registry(trace)
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                [d.name.to_string(), d.unit.to_string(), better.to_string()]
            })
            .collect();
        if want != have {
            return Err(format!("BENCHMARK.json {key} does not match the registry:\n  json {want:?}\n  code {have:?}"));
        }
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let (out, _) = run(root, w, 7, 0.5, trace, true);
            let (correct, line) = result_line(&out, trace);
            eprintln!("smoke {} trace={}: {line}", w.name(), u8::from(trace));
            if !correct {
                return Err(format!(
                    "smoke {} trace={trace}: {:?}",
                    w.name(),
                    out.errors
                ));
            }
            let parsed = parse_json(&line)?;
            let Some(Json::Obj(emitted)) = parsed.get("metrics") else {
                return Err("result line has no metrics object".to_string());
            };
            for d in metrics::registry(trace) {
                let unit = emitted
                    .iter()
                    .find(|(k, _)| k == d.name)
                    .and_then(|(_, m)| m.get("unit").cloned());
                if unit != Some(Json::Str(d.unit.to_string())) {
                    return Err(format!(
                        "smoke {}: {} emitted as {unit:?}",
                        w.name(),
                        d.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Reruns every pinned input and prints the pin file.
fn pin(root: &Path) -> Result<(), String> {
    println!("# workload\tlabel\tsample_fingerprint\tevents_processed\treport_fnv");
    for w in Workload::ALL {
        let plan = workload::plan(root, w, 0, false)?;
        let mut runs = plan.runs.clone();
        runs.sort_by_key(|r| (r.config.seed, r.label.clone()));
        let pins: Vec<String> = std::thread::scope(|s| {
            let half = runs.len().div_ceil(2);
            let handles: Vec<_> = runs
                .chunks(half.max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|r| {
                                let (report, _) = e2e::run_world(r.config.clone());
                                workload::pin_line(w, &r.label, workload::Pin::of(&report))
                            })
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pin worker panicked"))
                .collect()
        });
        for line in pins {
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match find_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.pin || args.smoke {
        let result = if args.pin { pin(&root) } else { smoke(&root) };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("parse_args requires a workload here");
    let (out, spans) = run(&root, workload, args.seed, args.seconds, args.trace, false);
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let prov = provenance(&root, workload, args.seed, args.seconds, args.trace);
    let (_, line) = result_line(&out, args.trace);
    let mode = if args.trace { "traced" } else { "untraced" };
    let path = root
        .join(OUT_DIR)
        .join(format!("{mode}-{}-{}.json", workload.name(), args.seed));
    let doc = format!(
        "{{\"provenance\": {prov},\n\"result\": {line},\n\"kinds\": {},\n\"errors\": [{}],\n\"spans\": {}}}\n",
        metrics::kinds_json(metrics::registry(args.trace)),
        out.errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect::<Vec<_>>()
            .join(", "),
        spans.as_deref().unwrap_or("[]")
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{{\"provenance\": {prov}}}");
    println!("{line}");
    ExitCode::SUCCESS
}
