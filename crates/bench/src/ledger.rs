//! The bench ledger: one command line, one report envelope and one gate
//! for the five bench binaries. Each takes `--scale full|smoke`, `--out
//! FILE` (default `BENCH_<name>.json`) and `--check`; each artifact
//! opens with `schema`, `scale` and `provenance`, then the binary's own
//! fields, and a gate matches a run row with the committed row of the
//! same `key` field.

use serde::{Content, Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Which grid a binary runs: `Full` writes the committed artifacts and
/// `Smoke`, a subset of it, is what CI runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// The flag value, also written as the artifact's `scale`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// A bench binary's command line.
#[derive(Debug)]
pub struct Cli {
    /// The artifact `BENCH_<name>.json` of the binary `bench_<name>`.
    pub name: &'static str,
    pub scale: Scale,
    pub out: PathBuf,
    pub check: bool,
    /// The committed artifact: [`committed_path`] of `name`.
    pub committed: PathBuf,
    extra: Vec<(String, u64)>,
}

impl Cli {
    /// Parses this process's arguments; `extra` names the binary's own
    /// flags, which take a number. An unknown flag, a missing or bad
    /// value or an unknown scale prints usage and exits non-zero.
    #[must_use]
    pub fn parse(name: &'static str, extra: &[&str]) -> Cli {
        Cli::parse_from(name, extra, std::env::args().skip(1)).unwrap_or_else(|e| {
            let flags: String = extra.iter().map(|f| format!(" [{f} N]")).collect();
            eprintln!("bench_{name}: {e}");
            eprintln!("usage: bench_{name} [--scale full|smoke] [--out FILE] [--check]{flags}");
            std::process::exit(2)
        })
    }

    fn parse_from(
        name: &'static str,
        extra: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            name,
            scale: Scale::Full,
            out: PathBuf::from(format!("BENCH_{name}.json")),
            check: false,
            committed: committed_path(name),
            extra: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--check" {
                cli.check = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--scale" if value == "full" => cli.scale = Scale::Full,
                "--scale" if value == "smoke" => cli.scale = Scale::Smoke,
                "--out" => cli.out = PathBuf::from(value),
                f if extra.contains(&f) => {
                    let n = value.parse().map_err(|e| format!("{f} {value}: {e}"))?;
                    cli.extra.push((flag, n));
                }
                _ => return Err(format!("unknown flag or value: {flag} {value}")),
            }
        }
        Ok(cli)
    }

    /// The last value given for one of the binary's own flags.
    #[must_use]
    pub fn extra(&self, flag: &str) -> Option<u64> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|&(_, n)| n)
    }
}

/// What produced an artifact, under the keys of perfbench's `record`
/// lines. `git_dirty` is `None` outside a checkout; `simd` and
/// `features` are [`dvbp_core::simd_backend`] and
/// [`dvbp_core::enabled_features`].
#[derive(Debug, Serialize, Deserialize)]
pub struct Provenance {
    pub git_rev: String,
    pub git_dirty: Option<bool>,
    pub rustc: String,
    pub cpu: String,
    pub nproc: usize,
    pub simd: String,
    pub features: String,
}

impl Provenance {
    /// The commit of the checkout this binary was built from, the
    /// toolchain and the host.
    #[must_use]
    pub fn capture() -> Provenance {
        let output = |cmd: &str, args: &[&str]| {
            let out = Command::new(cmd)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())?;
            Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let git_rev = output("git", &["rev-parse", "HEAD"]);
        let status = output("git", &["status", "--porcelain", "--untracked-files=no"]);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            });
        Provenance {
            git_dirty: git_rev.as_ref().and(status).map(|s| !s.is_empty()),
            git_rev: git_rev.unwrap_or_else(|| "unknown".to_string()),
            rustc: output("rustc", &["--version"]).unwrap_or_default(),
            cpu: cpu.unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
            simd: dvbp_core::simd_backend().to_string(),
            features: dvbp_core::enabled_features().to_string(),
        }
    }
}

/// One bench run: runs `bench` once with this run's provenance, writes
/// the report to `--out` and, under `--check`, prints every violation
/// `check` finds in it and fails if there is one.
pub fn run<R: Serialize>(
    cli: &Cli,
    bench: impl FnOnce(Scale, Provenance) -> R,
    check: impl FnOnce(&R) -> Vec<String>,
) -> ExitCode {
    let report = bench(cli.scale, Provenance::capture());
    let json = serde_json::to_string_pretty(&report).expect("reports serialize");
    if let Err(e) = std::fs::write(&cli.out, json + "\n") {
        eprintln!("bench_{}: write {}: {e}", cli.name, cli.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("bench_{}: wrote {}", cli.name, cli.out.display());
    let violations = if cli.check {
        check(&report)
    } else {
        Vec::new()
    };
    for v in &violations {
        eprintln!("bench_{} check failed: {v}", cli.name);
    }
    if !violations.is_empty() {
        return ExitCode::FAILURE;
    }
    if cli.check {
        eprintln!("bench_{}: every check passed", cli.name);
    }
    ExitCode::SUCCESS
}

/// [`run`] with a gate that compares the run with the committed
/// artifact. Under `--check` that artifact is read before the run
/// writes anything, so `--out` may name it.
pub fn run_against_committed<R: Serialize + for<'de> Deserialize<'de>>(
    cli: &Cli,
    bench: impl FnOnce(Scale, Provenance) -> R,
    check: impl FnOnce(&R, &R) -> Vec<String>,
) -> ExitCode {
    match cli.check.then(|| read::<R>(&cli.committed)).transpose() {
        Ok(committed) => run(cli, bench, |report| {
            check(report, committed.as_ref().expect("read under --check"))
        }),
        Err(e) => {
            eprintln!("bench_{}: {e}", cli.name);
            ExitCode::FAILURE
        }
    }
}

/// `BENCH_<name>.json` at the workspace root: the committed artifact.
#[must_use]
pub fn committed_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

/// Parses an artifact.
///
/// # Errors
///
/// The file cannot be read or does not parse as `R`.
pub fn read<R: for<'de> Deserialize<'de>>(path: &Path) -> Result<R, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// A row's `key` and its fields in order.
fn fields(row: &impl Serialize) -> (String, Vec<(String, Content)>) {
    let content = serde::to_content(row);
    let key = content["key"]
        .as_str()
        .expect("report rows have a key")
        .to_string();
    let Content::Map(fields) = content else {
        unreachable!("a row with a key is a struct")
    };
    (key, fields)
}

/// Matches every gated run row with the committed row of the same key
/// and returns one line per violation: a run row with no committed
/// counterpart, or one for which `rule` says why it fails.
pub fn rows<'a, R: Serialize + 'a>(
    run: impl IntoIterator<Item = &'a R>,
    committed: &[R],
    rule: impl Fn(&R, &R) -> Option<String>,
) -> Vec<String> {
    let committed: Vec<(String, &R)> = committed.iter().map(|c| (fields(c).0, c)).collect();
    run.into_iter()
        .filter_map(|r| {
            let key = fields(r).0;
            match committed.iter().find(|(k, _)| *k == key) {
                None => Some(format!("{key}: no committed row")),
                Some((_, c)) => rule(r, c).map(|why| format!("{key}: {why}")),
            }
        })
        .collect()
}

/// The gate of deterministic rows: every run row equals its committed
/// row field for field.
pub fn exact<R: Serialize>(run: &[R], committed: &[R]) -> Vec<String> {
    rows(run, committed, |r, c| {
        let diffs: Vec<String> = (fields(r).1.iter().zip(&fields(c).1))
            .filter(|(a, b)| a != b)
            .map(|((field, a), (_, b))| {
                let json = |v| serde_json::to_string(v).expect("rows serialize");
                format!("{field} {} (committed {})", json(a), json(b))
            })
            .collect();
        (!diffs.is_empty()).then(|| diffs.join(", "))
    })
}

/// The golden test of a deterministic artifact: panics, naming every
/// violation and the command that regenerates the artifact, unless the
/// full grid `run` reproduces the committed `BENCH_<name>.json` rows.
pub fn assert_golden<R: Serialize>(name: &str, run: &[R], committed: &[R]) {
    let violations = exact(run, committed);
    assert!(
        violations.is_empty() && run.len() == committed.len(),
        "{} of BENCH_{name}.json's {} rows reproduced; differences:\n  {}\n\
         If the change is intended, regenerate the artifact from the workspace root:\n  \
         cargo run --release -p dvbp-bench --bin bench_{name}",
        run.len() - violations.len(),
        committed.len(),
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Serialize, Deserialize)]
    struct TestRow {
        key: String,
        cost: u64,
    }

    #[derive(Debug, Serialize, Deserialize)]
    struct TestReport {
        schema: String,
        provenance: Option<Provenance>,
        entries: Vec<TestRow>,
    }

    fn row(key: &str, cost: u64) -> TestRow {
        TestRow {
            key: key.to_string(),
            cost,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn cli_takes_the_shared_flags_and_refuses_the_rest() {
        let cli = Cli::parse_from("t", &["--slow-us"], args(&[])).unwrap();
        assert_eq!(
            (cli.scale, cli.out, cli.check),
            (Scale::Full, PathBuf::from("BENCH_t.json"), false)
        );
        assert!(cli.committed.ends_with("BENCH_t.json"));
        let cli = Cli::parse_from(
            "t",
            &["--slow-us"],
            args(&[
                "--scale",
                "smoke",
                "--check",
                "--out",
                "x.json",
                "--slow-us",
                "1",
            ]),
        )
        .unwrap();
        assert_eq!(
            (cli.scale, cli.out.clone(), cli.check),
            (Scale::Smoke, PathBuf::from("x.json"), true)
        );
        assert_eq!(cli.extra("--slow-us"), Some(1));
        for bad in [
            &["--out"][..],
            &["--scale", "huge"],
            &["--baseline", "x.json"],
            &["--slow-us", "1"],
            &["--slow-us", "x"],
        ] {
            assert!(Cli::parse_from("t", &[], args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_run_row_missing_from_the_committed_artifact_fails() {
        let committed = [row("a", 1)];
        let run = [row("a", 1), row("b", 2)];
        assert_eq!(exact(&run, &committed), ["b: no committed row"]);
        let none = rows(&run, &committed, |_, _| None);
        assert_eq!(none, ["b: no committed row"]);
    }

    #[test]
    fn exact_rows_name_every_changed_field() {
        let committed = [row("a", 1), row("b", 2)];
        assert!(exact(&committed, &committed).is_empty());
        let run = [row("a", 1), row("b", 3)];
        assert_eq!(exact(&run, &committed), ["b: cost 3 (committed 2)"]);
    }

    /// `--out` naming the committed file must not let the run compare
    /// with itself: the committed rows are read before the report is
    /// written.
    #[test]
    fn a_check_writing_over_the_committed_file_still_fails() {
        let dir = std::env::temp_dir().join(format!("dvbp-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        // An artifact from before the envelope: no `provenance` key.
        std::fs::write(
            &path,
            r#"{"schema": "t/1", "entries": [{"key": "a", "cost": 1}]}"#,
        )
        .unwrap();
        let mut cli = Cli::parse_from("t", &[], args(&["--check"])).unwrap();
        cli.out = path.clone();
        cli.committed = path.clone();
        let bench = |_, provenance| TestReport {
            schema: "t/1".to_string(),
            provenance: Some(provenance),
            entries: vec![row("a", 2)],
        };
        let check = |r: &TestReport, c: &TestReport| exact(&r.entries, &c.entries);
        assert_eq!(run_against_committed(&cli, bench, check), ExitCode::FAILURE);
        let written: TestReport = read(&path).unwrap();
        assert_eq!(written.entries[0].cost, 2);
        assert!(written.provenance.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
