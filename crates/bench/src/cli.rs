//! Command-line plumbing shared by the `peas-bench` binaries: a minimal flag
//! parser, the SIGKILL fault-injection hook and the scenario corpus.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use peas_scenario::{load_compiled, CompiledScenario};

/// Minimal flag parser: positional arguments, `--key value` pairs for the
/// flags a binary declares as taking a value, and boolean `--flag`s.
#[derive(Debug)]
pub struct Args {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw`; every flag in `value_flags` (spelled with its `--`)
    /// consumes the next argument as its value, so one in the final
    /// position is an error.
    pub fn parse(raw: &[String], value_flags: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                if value_flags.contains(&arg.as_str()) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    flags.push((flag.to_string(), Some(value.clone())));
                } else {
                    flags.push((flag.to_string(), None));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The value of `--flag` (named without its dashes), if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--flag` was given at all.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == flag)
    }

    /// The parsed value of `--flag`, or `default` when it is absent; an
    /// error when the value does not parse as `T`.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse `{raw}`")),
        }
    }

    /// The directory named by the required `--flag DIR`; an error when
    /// the flag is missing.
    pub fn dir(&self, flag: &str) -> Result<PathBuf, String> {
        self.get(flag)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{flag} DIR is required"))
    }
}

/// SIGKILLs the current process — the fault-injection path of
/// `sweep --die-after` and `serve --kill-after`. Falls back to `abort` if
/// no `kill` binary exists.
pub fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-KILL", &pid]).status();
    // Give the signal a moment to land, then hard-stop regardless.
    std::thread::sleep(Duration::from_secs(2));
    std::process::abort();
}

/// The scenario corpus directory, anchored at the workspace root so the
/// binaries work from any working directory.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Loads every `.peas` file in `dir` as `(stem, compiled)`, sorted by file
/// name for deterministic order.
///
/// # Errors
///
/// The directory cannot be read or a scenario does not compile.
pub fn load_corpus(dir: &Path) -> Result<Vec<(String, CompiledScenario)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "peas"))
        .collect();
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let compiled = load_compiled(&path).map_err(|e| e.to_string())?;
        corpus.push((stem, compiled));
    }
    Ok(corpus)
}

/// Resolves the requested names (or the whole corpus for `all`/empty);
/// `what` names the corpus in the unknown-name error.
///
/// # Errors
///
/// A requested name is not in the corpus.
pub fn select(
    corpus: Vec<(String, CompiledScenario)>,
    names: &[String],
    what: &str,
) -> Result<Vec<(String, CompiledScenario)>, String> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(corpus);
    }
    let mut selected = Vec::new();
    for name in names {
        match corpus.iter().find(|(stem, _)| stem == name) {
            Some(found) => selected.push(found.clone()),
            None => {
                let known: Vec<&str> = corpus.iter().map(|(s, _)| s.as_str()).collect();
                return Err(format!(
                    "unknown {what} `{name}` (known: {})",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_flags_take_the_next_argument() {
        let raw: Vec<String> = ["run", "--workers", "3", "--resume", "smoke", "--journal"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = &["--workers", "--journal"];
        assert_eq!(
            Args::parse(&raw, flags).expect_err("no value"),
            "--journal needs a value"
        );
        let a = Args::parse(&raw[..5], flags).expect("parses");
        assert_eq!(a.positional, ["run", "smoke"]);
        assert_eq!(a.get_parsed("workers", 1usize), Ok(3));
        assert_eq!(a.get_parsed("retries", 2usize), Ok(2));
        assert!(a.has("resume") && a.get("resume").is_none());
        assert_eq!(
            a.dir("journal").expect_err("missing"),
            "--journal DIR is required"
        );
    }
}
