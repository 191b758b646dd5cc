//! `benchmark` — run, trace, profile-check and compare the trackdown
//! benchmark. See `README.md` next to this package's manifest.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trackbench::compare::{compare, load_runs, load_spec, render, workload_verdict, Verdict};
use trackbench::workload::{run, RunConfig, Workload};
use trackbench::{profile, Metric, RunResult};

#[global_allocator]
static ALLOC: trackbench::alloc::CountingAlloc = trackbench::alloc::CountingAlloc;

const USAGE: &str = "\
usage: benchmark --workload <internet|paper_measured|attack_stream|online_attack> \
[--seed <u64>] [--seconds <n>] [--trace [0|1]] [--check-profile] [--out <dir>]
       benchmark --all [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <dir>]
       benchmark compare <parent-runs-dir> <change-runs-dir> [--spec <BENCHMARK.json>]";

/// Default measurement window, matching `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Cli {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_profile: bool,
    out: Option<PathBuf>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            all: false,
            seed: 7,
            seconds: DEFAULT_SECONDS,
            trace: false,
            check_profile: false,
            out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
            match args[i].as_str() {
                "--workload" => {
                    let v = value(i)?;
                    cli.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                    i += 1;
                }
                "--seed" => {
                    cli.seed = value(i)?.parse().map_err(|_| "--seed takes a u64")?;
                    i += 1;
                }
                "--seconds" => {
                    cli.seconds = value(i)?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?;
                    i += 1;
                }
                "--trace" => match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        cli.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        cli.trace = true;
                        i += 1;
                    }
                    _ => cli.trace = true,
                },
                "--check-profile" => cli.check_profile = true,
                "--all" => cli.all = true,
                "--out" => {
                    cli.out = Some(PathBuf::from(value(i)?));
                    i += 1;
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        if cli.all == cli.workload.is_some() {
            return Err("give exactly one of --workload and --all".into());
        }
        if cli.all && cli.check_profile {
            return Err("--check-profile runs one workload".into());
        }
        Ok(cli)
    }

    fn config(&self) -> RunConfig {
        RunConfig::new(self.seed, self.seconds, self.trace)
    }
}

fn main() -> ExitCode {
    // Pin inputs: `internet` is always the seeded power-law graph, never
    // an as-rel file named by the environment. Children inherit this.
    std::env::remove_var("TRACKDOWN_AS_REL");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}

/// Run facts recorded as information next to every result.
fn header(cli: &Cli, w: Workload) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", w.name().into()),
        ("seed", cli.seed.to_string()),
        ("seconds", cli.seconds.to_string()),
        ("trace", (cli.trace as u8).to_string()),
        ("scale", w.default_scale().label().into()),
        ("threads", "1".into()),
        ("cores", cores.to_string()),
        ("commit", git_commit()),
        ("rustc", env!("TRACKBENCH_RUSTC_VERSION").into()),
    ]
}

fn run_one(cli: &Cli, w: Workload) -> ExitCode {
    let head = header(cli, w);
    let line: Vec<String> = head.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# benchmark {}", line.join(" "));
    let cfg = cli.config();
    if cli.check_profile {
        let (result, text) = profile::check(w, &cfg);
        print!("{text}");
        println!("{}", result.json_line());
        return exit_code(&result);
    }

    let (result, report) = run(w, &cfg);
    let ops = &report.ops;
    println!(
        "# set-up: {} builds; timed: {} operations attempted, {} failed \
         (failed_frac {:.4}), {} timed samples",
        report.setup_s.len(),
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted as f64,
        ops.samples_ms.len()
    );
    for failure in &ops.failures {
        println!("# FAILED {failure}");
    }
    for (name, value, unit) in &report.info {
        println!("# info   {name:<28} {value:>16.4} {unit}");
    }
    for m in &result.metrics {
        println!("# metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(dir) = &cli.out {
        if let Err(e) = write_run_file(dir, cli, w, &head, &report.info, &result) {
            eprintln!("error: writing run file into {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.json_line());
    exit_code(&result)
}

fn exit_code(result: &RunResult) -> ExitCode {
    if result.correct && result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Save a run as `<dir>/<workload>-seed<seed>-trace<t>-<n>.json`, with `n`
/// the first free index, for `benchmark compare`.
fn write_run_file(
    dir: &Path,
    cli: &Cli,
    w: Workload,
    head: &[(&'static str, String)],
    info: &[(String, f64, &'static str)],
    result: &RunResult,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", w.name(), cli.seed, cli.trace as u8);
    let path = (0..)
        .map(|n| dir.join(format!("{stem}-{n:03}.json")))
        .find(|p| !p.exists())
        .expect("a free file name");
    let mut fields: Vec<(String, Value)> = head
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
        .collect();
    fields.push((
        "info".into(),
        Value::Object(
            info.iter()
                .map(|(k, v, _)| (k.clone(), Value::F64(*v)))
                .collect(),
        ),
    ));
    fields.push(("result".into(), result.to_value()));
    let text =
        serde_json::to_string_pretty(&Value::Object(fields)).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

/// Run every workload, each in its own child process so `peak_rss_mb`
/// belongs to that workload alone.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut combined = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &cli.out {
            cmd.arg("--out").arg(dir);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: running workload {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let parsed = stdout
            .lines()
            .last()
            .ok_or_else(|| "no output".to_string())
            .and_then(|l| serde_json::from_str::<Value>(l).map_err(|e| e.to_string()))
            .and_then(|v| RunResult::from_value(&v));
        match parsed {
            Ok(r) if output.status.success() => {
                combined.correct &= r.correct;
                combined.attempted += r.attempted;
                combined.failed += r.failed;
                combined.metrics.extend(
                    r.metrics.into_iter().map(|m| {
                        Metric::new(&format!("{}.{}", w.name(), m.name), &m.unit, m.value)
                    }),
                );
            }
            Ok(_) | Err(_) => {
                eprintln!("error: workload {} failed ({})", w.name(), output.status);
                all_ok = false;
            }
        }
    }
    combined.correct &= all_ok;
    combined.attempted = combined.attempted.max(1);
    println!("{}", combined.json_line());
    exit_code(&combined)
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--spec" {
            match args.get(i + 1) {
                Some(p) => spec_path = PathBuf::from(p),
                None => {
                    eprintln!("error: --spec needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
            i += 1;
        } else {
            dirs.push(PathBuf::from(&args[i]));
        }
        i += 1;
    }
    if dirs.len() != 2 {
        eprintln!("error: compare takes two run directories\n{USAGE}");
        return ExitCode::from(2);
    }
    let loaded = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| load_spec(&t))
        .and_then(|specs| Ok((specs, load_runs(&dirs[0])?, load_runs(&dirs[1])?)));
    let (specs, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = compare(&specs, &parent, &change);
    print!("{}", render(&report));
    if report
        .values()
        .any(|c| workload_verdict(c) == Verdict::Worse)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The checked-out commit, read from the repository's `.git` directory
/// without starting a process; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
