//! The repository benchmark: three behavioural-targeting workloads run
//! through the public TiMR API, reporting end-to-end job metrics or, with
//! `--trace 1`, a per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bt_pipeline --seed 42 --seconds 18 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give the provenance and every metric by name with its unit.

mod layers;
mod stats;
mod sys;
mod trace;
mod workload;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Bench, Image, Kind, Output, Res};

/// Processes an end-to-end run is split across, one after another. Each
/// sets the workload up, warms up and times its share of `--seconds`; the
/// run reports medians over all of them, so one process's memory layout
/// or a passing disturbance of the machine moves the result less. Their
/// set-ups are the repeated set-ups `setup_s` is the median of.
const PARTS: usize = 3;
/// Timed executions per process even when its share of `--seconds` has
/// already elapsed.
const MIN_EXECUTIONS: usize = 2;

/// Command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process runs one part of an end-to-end run.
    part: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--part" => part = Some(value.parse().map_err(|_| format!("bad part `{value}`"))?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        part,
    })
}

/// Executions attempted and failed in one run, with the first reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(p);
            }
        }
    }

    /// A defect shared by every execution (the reference they all match
    /// is wrong): all of them count as failed.
    fn fail_all(&mut self, reason: String) {
        self.failed = self.attempted;
        self.reasons.push(reason);
    }
}

/// Wall and CPU seconds of one execution.
#[derive(Clone, Copy)]
struct Sample {
    wall: f64,
    cpu: f64,
}

/// Run `execute` once, timed, then check outside the timed region that it
/// left no worker process or spill file behind and that its output bytes
/// equal the reference (the first successful execution becomes it).
fn checked(
    bench: &Bench,
    tally: &mut Tally,
    reference: &mut Option<Image>,
    execute: impl FnOnce() -> Res<Output>,
) -> Sample {
    let spill_before = sys::dir_entries(&bench.spill_dir);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let result = execute();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu0;
    let children = sys::child_processes();
    let spill_after = sys::dir_entries(&bench.spill_dir);
    let mut problem = match result {
        Err(e) => Some(format!("job failed: {e}")),
        Ok(_) if children > 0 => Some(format!("{children} worker processes left behind")),
        Ok(_) if spill_after != spill_before => Some(format!(
            "spill directory went from {spill_before} to {spill_after} entries"
        )),
        Ok(out) => {
            let image = out.image();
            match reference {
                Some(r) => (!image.same_bytes(r))
                    .then(|| "output bytes differ from the first execution's".to_string()),
                None => {
                    *reference = Some(image);
                    None
                }
            }
        }
    };
    if let Err(e) = bench.reset() {
        problem.get_or_insert(format!("reset failed: {e}"));
    }
    tally.record(problem);
    Sample { wall, cpu }
}

/// Executions of `execute`, back to back, until `seconds` have passed and
/// at least [`MIN_EXECUTIONS`] ran.
fn closed_loop(
    bench: &Bench,
    seconds: f64,
    tally: &mut Tally,
    reference: &mut Option<Image>,
    mut execute: impl FnMut() -> Res<Output>,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_EXECUTIONS || start.elapsed().as_secs_f64() < seconds {
        samples.push(checked(bench, tally, reference, &mut execute));
    }
    samples
}

/// Set the workload up, returning it with the set-up's wall time.
fn setup(kind: Kind, seed: u64) -> Res<(Bench, f64)> {
    let spill_dir = out_dir().join(format!("spill-{}", std::process::id()));
    let t0 = Instant::now();
    let bench = Bench::setup(kind, seed, &spill_dir)?;
    Ok((bench, t0.elapsed().as_secs_f64()))
}

/// Where the benchmark writes its trace and spill files.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run reports.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    provenance: Vec<(String, Value)>,
}

/// One process's share of an end-to-end run.
#[derive(Serialize, Deserialize)]
struct Part {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// Digest of the output every execution of the part matched.
    digest: String,
    /// Provenance and oracle verdicts; only part 0 runs the oracle.
    provenance: Option<Value>,
}

/// Part `index` of an end-to-end run, in this process: set up, warm up,
/// then time executions for `seconds`.
fn run_part(args: &Args, index: usize) -> Res<Part> {
    let (bench, setup_s) = setup(args.kind, args.seed)?;
    let mut tally = Tally::default();
    let mut reference = None;
    // Warm-up: fills caches and yields the reference output.
    checked(&bench, &mut tally, &mut reference, || bench.execute());
    // The peak of set-up plus one execution. Later executions only add
    // allocator fragmentation, which varies from run to run.
    let peak_rss_mb = sys::peak_rss_mb();
    let samples = closed_loop(&bench, args.seconds, &mut tally, &mut reference, || {
        bench.execute()
    });
    let provenance = if index == 0 {
        let mut p = provenance(args, &bench);
        check_reference(&bench, reference.as_ref(), &mut tally, &mut p)?;
        Some(Value::Object(p))
    } else {
        if reference.is_none() {
            tally.fail_all("no execution succeeded".into());
        }
        None
    };
    Ok(Part {
        walls: samples.iter().map(|s| s.wall).collect(),
        cpus: samples.iter().map(|s| s.cpu).collect(),
        setup_s,
        peak_rss_mb,
        attempted: tally.attempted,
        failed: tally.failed,
        reasons: tally.reasons,
        digest: reference.map(|r| r.digest_hex()).unwrap_or_default(),
        provenance,
    })
}

/// The end-to-end run: job metrics with tracing off, pooled over [`PARTS`]
/// processes run one after another.
fn run_end_to_end(args: &Args) -> Res<Report> {
    let steal0 = sys::steal_ticks();
    let exe = std::env::current_exe()?;
    let share = (args.seconds / PARTS as f64).to_string();
    let mut parts = Vec::with_capacity(PARTS);
    for index in 0..PARTS {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.kind.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &share,
                "--trace",
                "0",
                "--part",
                &index.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()?;
        if !out.status.success() {
            return Err(format!("part {index} exited with {}", out.status).into());
        }
        let stdout = String::from_utf8(out.stdout)?;
        let last = stdout.lines().last().ok_or("a part printed nothing")?;
        parts.push(serde_json::from_str::<Part>(last)?);
    }

    let mut tally = Tally::default();
    for p in &parts {
        tally.attempted += p.attempted;
        tally.failed += if p.digest == parts[0].digest {
            p.failed
        } else {
            p.attempted
        };
        tally.reasons.extend(p.reasons.iter().cloned());
        if p.digest != parts[0].digest {
            tally
                .reasons
                .push("output bytes differ between processes".into());
        }
    }
    let walls: Vec<f64> = parts.iter().flat_map(|p| p.walls.iter().copied()).collect();
    let cpus: Vec<f64> = parts.iter().flat_map(|p| p.cpus.iter().copied()).collect();
    let mut provenance = match parts[0].provenance.take() {
        Some(Value::Object(fields)) => fields,
        _ => return Err("part 0 reported no provenance".into()),
    };
    let steal1 = sys::steal_ticks();
    let stolen = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    provenance.push(("host_steal_share".into(), Value::Float(stolen)));
    provenance.push(("processes".into(), Value::UInt(PARTS as u64)));
    provenance.push(("timed_executions".into(), Value::UInt(walls.len() as u64)));
    if let Some((p, v)) = stats::tail_percentile(&walls) {
        provenance.push((format!("job_s_p{p}"), Value::Float(v)));
    }
    let peaks: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    let setups: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let ok = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    Ok(Report {
        tally,
        metrics: vec![
            metric("job_s", stats::median(&walls), "s"),
            metric("cpu_s", stats::median(&cpus), "s"),
            metric("peak_rss_mb", stats::median(&peaks), "MiB"),
            metric("setup_s", stats::median(&setups), "s"),
            metric("ok_ops", ok, "share"),
        ],
        provenance,
    })
}

/// Check the reference output against the workload's oracle; a mismatch
/// fails every execution, since each matched the reference byte for byte.
fn check_reference(
    bench: &Bench,
    reference: Option<&Image>,
    tally: &mut Tally,
    provenance: &mut Vec<(String, Value)>,
) -> Res<()> {
    let Some(reference) = reference else {
        tally.fail_all("no execution succeeded".into());
        return Ok(());
    };
    if bench.kind == Kind::Dashboards {
        let rows = &reference.sink_rows;
        provenance.push((
            "dashboards_sink_rows".into(),
            Value::Array(rows.iter().map(|&r| Value::UInt(r)).collect()),
        ));
        if rows.iter().all(|&r| r == 0) {
            provenance.push((
                "known_defect".into(),
                Value::Str(
                    "every dashboards sink is empty: the queries filter KwAdId == \"ad{i%5}\" \
                     but adgen names its ad classes deodorant, laptop, cellphone, movies and \
                     dieting, so the byte-identity checks compare empty datasets"
                        .into(),
                ),
            ));
        }
    }
    if let Some(why) = bench.check_reference(reference)? {
        tally.fail_all(why);
    }
    Ok(())
}

/// Where a result came from.
fn provenance(args: &Args, bench: &Bench) -> Vec<(String, Value)> {
    let config = bench.cluster.config();
    let (backend, workers) = match config.backend {
        mapreduce::BackendKind::Threads => ("threads", config.threads),
        mapreduce::BackendKind::Processes { workers } => ("processes", workers),
    };
    let exec_mode = format!("{:?}", bench.dashboard_job().exec_mode);
    vec![
        ("git_rev".into(), Value::Str(sys::git_rev())),
        ("nproc".into(), Value::UInt(sys::nproc() as u64)),
        ("workload".into(), Value::Str(args.kind.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("users".into(), Value::UInt(workload::USERS as u64)),
        ("events".into(), Value::UInt(bench.input.events as u64)),
        ("extents".into(), Value::UInt(workload::EXTENTS as u64)),
        ("machines".into(), Value::UInt(workload::MACHINES as u64)),
        ("exec_mode".into(), Value::Str(exec_mode)),
        ("backend".into(), Value::Str(backend.into())),
        ("workers".into(), Value::UInt(workers as u64)),
        (
            "dsms_threads".into(),
            Value::UInt(config.dsms_threads as u64),
        ),
        (
            "memory_budget_bytes".into(),
            config.memory_budget_bytes.map_or(Value::Null, Value::UInt),
        ),
        ("trace".into(), Value::Bool(args.trace)),
        ("seconds".into(), Value::Float(args.seconds)),
    ]
}

/// Spill files are removed as their shuffle slots drop; the directory
/// itself belongs to this process.
fn remove_spill_dir() {
    let _ = std::fs::remove_dir_all(out_dir().join(format!("spill-{}", std::process::id())));
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <bt_pipeline|dashboards|bt_cluster> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Some(index) = args.part {
        let part = run_part(&args, index);
        remove_spill_dir();
        match part {
            Ok(p) => println!("{}", serde_json::to_string(&p).expect("serializable")),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let report = if args.trace {
        layers::run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    remove_spill_dir();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "provenance {}",
        serde_json::to_string(&Value::Object(report.provenance)).expect("serializable")
    );
    for reason in &report.tally.reasons {
        println!("failure: {reason}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let value = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.tally.failed == 0)),
        ("attempted".into(), Value::UInt(report.tally.attempted)),
        ("failed".into(), Value::UInt(report.tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("serializable"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload bt_cluster --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::BtCluster);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload dashboards").is_err());
        assert!(args("--workload dashboards --seed 1 --trace 2").is_err());
        assert!(args("--workload dashboards --seed 1 --seconds 0").is_err());
        assert!(args("--workload dashboards --seed").is_err());
    }
}
