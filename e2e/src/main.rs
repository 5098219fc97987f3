//! Socket-to-socket gateway benchmark with a per-layer latency budget.
//! See README.md beside this package for the commands and the metrics.

mod measure;
mod phases;
mod report;
mod stream;
mod sut;
mod trace;

use cogsdk::json::Json;
use phases::Config;
use report::{unit_of, Outcome, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use stream::WORKLOADS;

/// The repository's standard benchmark seed (`cogsdk_bench::BENCH_SEED`).
const BENCH_SEED: u64 = 0xC0_95DC;
/// `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  e2e run [--seed N] [--seconds S] [--quick] [--out DIR]
  e2e selfcheck [--seed N] [--seconds S] [--quick] [--out DIR]
  e2e compare A.json B.json
workloads: invoke_hot query_read ingest_bulk mixed_tenants";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: BENCH_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            RUN_SECONDS / 20.0
        } else {
            RUN_SECONDS
        })
    }
}

/// One workload, one phase, in this process.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = stream::workload(name).ok_or(format!("unknown workload {name}"))?;
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        quick: args.quick,
        out: args.out.clone(),
    };
    let outcome = if args.trace {
        phases::trace(&cfg)
    } else {
        phases::measure(&cfg)
    };
    println!("{}", result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// The contract's last line of standard output.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Json::object();
    for &(name, value) in &outcome.metrics {
        assert!(value.is_finite(), "{name} is not a finite number");
        let mut m = Json::object();
        m.insert("value", value);
        m.insert("unit", unit_of(name));
        metrics.insert(name, m);
    }
    let mut line = Json::object();
    line.insert("correct", outcome.correct);
    line.insert("attempted", outcome.attempted);
    line.insert("failed", outcome.failed);
    line.insert("metrics", metrics);
    line.to_json()
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Re-executes this binary for one workload and phase, so that VmHWM and
/// every cache start clean, and returns the child's result line.
fn child(args: &Args, workload: &str, trace: bool, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child's result line: {e}"))
}

/// Every workload, `measure` then `trace`, aggregated into one record
/// written to `<out>/results.json`. `Ok(true)` when every check passed.
fn run(args: &Args, out: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut host = Json::object();
    host.insert(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    host.insert("kernel", command_output("uname", &["-sr"]));
    host.insert("rustc", command_output("rustc", &["--version"]));
    host.insert("commit", command_output("git", &["rev-parse", "HEAD"]));
    host.insert("seed", args.seed as i64);
    host.insert("seconds", args.seconds());
    host.insert("quick", args.quick);
    host.insert("flush_policy", sut::FLUSH_POLICY);
    host.insert("telemetry", true);
    let mut all_correct = true;
    let mut workloads = Json::Array(Vec::new());
    for w in &WORKLOADS {
        let mut record = Json::object();
        record.insert("name", w.name);
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            println!(
                "\n=== {} / {} ===",
                w.name,
                if trace { "trace" } else { "measure" }
            );
            let result = child(args, w.name, trace, out)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let count = |field: &str| result.get(field).and_then(Json::as_usize).unwrap_or(0);
            let mut counts = Json::object();
            counts.insert("attempted", count("attempted"));
            counts.insert("succeeded", count("attempted") - count("failed"));
            counts.insert("failed", count("failed"));
            counts.insert(
                "correct",
                result.get("correct").cloned().unwrap_or(Json::Null),
            );
            record.insert(format!("{key}_requests"), counts);
            record.insert(key, result.get("metrics").cloned().unwrap_or(Json::Null));
        }
        workloads.push(record);
    }
    let mut results = Json::object();
    results.insert("schema", "cogsdk-e2e/1");
    results.insert("host", host);
    results.insert("workloads", workloads);

    println!("\n=== end to end ===");
    print!("{:<16}", "metric");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("{:<16}", m.name);
        for w in results
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let value = w
                .pointer(&format!("/end_to_end/{}/value", m.name))
                .and_then(Json::as_f64);
            print!(
                " {:>16}",
                value.map_or("-".to_string(), |v| format!("{v:.3}"))
            );
        }
        println!(" {}", m.unit);
    }
    let path = out.join("results.json");
    std::fs::write(&path, results.to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let verdict = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some(sub @ ("run" | "selfcheck" | "compare")) => (sub, &argv[1..]),
        _ => ("", argv),
    };
    let args = parse_args(rest)?;
    let out = args.out.clone().unwrap_or_else(sut::output_root);
    match sub {
        "run" => Ok(verdict(run(&args, &out)?)),
        "selfcheck" => {
            // The same code twice: every pair must agree within the bounds.
            let first = run(&args, &out.join("selfcheck-a"))?;
            let second = run(&args, &out.join("selfcheck-b"))?;
            let results = |side: &str| load(&out.join(side).join("results.json").to_string_lossy());
            let agree = report::compare(&results("selfcheck-a")?, &results("selfcheck-b")?);
            Ok(verdict(first && second && agree))
        }
        "compare" => match args.positional.as_slice() {
            [a, b] => Ok(verdict(report::compare(&load(a)?, &load(b)?))),
            _ => Err("compare takes two result files".to_string()),
        },
        _ => single(&args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
