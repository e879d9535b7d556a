//! The traced run: a per-layer breakdown of one workload.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer: `adgen` generation and the `dfs` load at set-up, `timr`
//! compilation and one `Cluster::run_stage` per compiled stage (with the
//! map, shuffle and reduce phases laid out from the `StageStats` the
//! cluster returns), a standalone `temporal` execution of each stage's
//! plan, and the `relation::extent` codec and `timr::bridge` decode over
//! each stage's input extents. Every traced run covers all five stages,
//! so every per-layer name has a measured value: the workload's own job
//! is executed traced for half of `--seconds` (after as long untraced, for
//! `trace.overhead_s`); the stages of the other jobs run once on the same
//! cluster in the closing analysis pass.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{bt_jobs, Bench, Image, Kind, Output, Res};
use crate::{
    check_reference, checked, closed_loop, metric, out_dir, provenance, setup, Args, Metric,
    Report, Tally,
};
use bt::baselines::custom::run_custom;
use mapreduce::StageStats;
use relation::extent::{decode_extent, encode_extent};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use temporal::exec::{execute_data, DataBindings, ExecMode, ExecOptions, StreamData};
use temporal::LogicalPlan;
use timr::{EventEncoding, MultiTimrJob, TimrJob};

/// Stage labels, in the order the jobs run.
pub const STAGES: [&str; 5] = ["botelim", "labels", "train", "scores", "dashboards"];

/// Per-stage metrics read from `StageStats`, plus compile time.
const STAGE_FIELDS: [(&str, &str); 15] = [
    ("wall_s", "s"),
    ("map_s", "s"),
    ("map_tasks", "count"),
    ("map_rows_in", "count"),
    ("map_rows_out", "count"),
    ("shuffle_s", "s"),
    ("shuffle_bytes", "B"),
    ("spill_bytes", "B"),
    ("reduce_s", "s"),
    ("reduce_cpu_s", "s"),
    ("reduce_skew", "ratio"),
    ("other_s", "s"),
    ("output_rows", "count"),
    ("wasted_attempts", "count"),
    ("compile_s", "s"),
];

/// Per-stage metrics of the standalone DSMS execution (`dsms.<st>.*`).
const DSMS_FIELDS: [(&str, &str); 4] = [
    ("s", "s"),
    ("rows_in", "count"),
    ("rows_out", "count"),
    ("share", "ratio"),
];

/// Metrics not tied to one stage.
const OTHER_FIELDS: [(&str, &str); 14] = [
    ("dashboards.shared_nodes", "count"),
    ("dashboards.factored_groups", "count"),
    ("dashboards.pushed_ops", "count"),
    ("dashboards.pushed_partials", "count"),
    ("extent.decode_s", "s"),
    ("extent.encode_s", "s"),
    ("extent.bytes_per_row", "B/row"),
    ("bridge.decode_s", "s"),
    ("adgen.generate_s", "s"),
    ("adgen.events", "count"),
    ("dfs.load_s", "s"),
    ("dfs.extent_bytes", "B"),
    ("custom.job_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let stage = STAGES.iter().flat_map(|st| {
        STAGE_FIELDS
            .iter()
            .map(move |(f, u)| (format!("{st}.{f}"), *u))
    });
    let dsms = STAGES.iter().flat_map(|st| {
        DSMS_FIELDS
            .iter()
            .map(move |(f, u)| (format!("dsms.{st}.{f}"), *u))
    });
    let other = OTHER_FIELDS.iter().map(|(n, u)| (n.to_string(), *u));
    stage.chain(dsms).chain(other).collect()
}

/// One job of a workload.
enum Job {
    /// A BT pipeline job and the name the next job reads its output under.
    Bt(&'static str, TimrJob, Option<&'static str>),
    /// The shared dashboards job.
    Dashboards(MultiTimrJob),
}

impl Job {
    fn label(&self) -> &'static str {
        match self {
            Job::Bt(label, ..) => label,
            Job::Dashboards(_) => "dashboards",
        }
    }

    /// The plan a stage executes, before push-down splits it, with its
    /// source encodings and exec mode.
    fn standalone_plan(&self) -> Res<(LogicalPlan, BTreeMap<String, EventEncoding>, ExecMode)> {
        Ok(match self {
            Job::Bt(_, job, _) => (
                job.plan.clone(),
                job.source_encodings.clone(),
                job.exec_mode,
            ),
            Job::Dashboards(job) => (
                job.clone().with_push_down(false).compile()?.plan,
                job.source_encodings.clone(),
                job.exec_mode,
            ),
        })
    }
}

/// All five jobs in dependency order: the BT pipeline, then the dashboards
/// over its bot-cleaned log.
fn all_jobs(bench: &Bench) -> Vec<Job> {
    let mut jobs: Vec<Job> = bt_jobs(&bench.input.params)
        .into_iter()
        .map(|(label, job, alias)| Job::Bt(label, job, alias))
        .collect();
    jobs.push(Job::Dashboards(bench.dashboard_job()));
    jobs
}

/// The labels of the workload's own job.
fn own_labels(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Dashboards => &["dashboards"],
        Kind::BtPipeline | Kind::BtCluster => &["botelim", "labels", "train", "scores"],
    }
}

/// One job's compile and stage executions.
struct StageRun {
    label: &'static str,
    compile_s: f64,
    stages: Vec<StageStats>,
    /// Shared-plan counters of the dashboards job: shared nodes, factored
    /// groups, pushed operators, pushed partial aggregations.
    plan: Option<[usize; 4]>,
}

/// Execute `jobs` stage by stage, with a span around every compile and
/// every `run_stage`. Returns the published datasets in the order the
/// public API reports them.
fn staged(bench: &Bench, tracer: &mut Tracer, jobs: &[Job]) -> Res<(Output, Vec<StageRun>)> {
    let dfs = &bench.input.dfs;
    let mut datasets = Vec::new();
    let mut runs = Vec::new();
    let mut all_stages = Vec::new();
    for job in jobs {
        let label = job.label();
        let t0 = Instant::now();
        let (compiled, _) = tracer.span(&format!("{label}.compile"), |_| match job {
            Job::Bt(_, j, _) => j.compile().map(|c| (c.stages, vec![c.output], None)),
            Job::Dashboards(j) => j.compile().map(|c| {
                let plan = [
                    c.shared.shared_nodes,
                    c.factored_groups,
                    c.pushed_ops,
                    c.pushed_partials,
                ];
                (vec![c.stage], c.outputs, Some(plan))
            }),
        });
        let compile_s = t0.elapsed().as_secs_f64();
        let (stages, outputs, plan) = compiled?;
        let mut stats = Vec::with_capacity(stages.len());
        for stage in &stages {
            let (s, id) = tracer.span(label, |_| bench.cluster.run_stage(dfs, stage));
            let s = s?;
            let phases = [
                ("map", s.map_time),
                ("shuffle", s.shuffle_time),
                ("reduce", s.reduce_wall_time),
            ];
            let mut offset = Duration::ZERO;
            for (phase, len) in phases {
                tracer.derived(id, &format!("{label}.{phase}"), offset, len);
                offset += len;
            }
            stats.push(s);
        }
        if let Job::Bt(_, _, Some(alias)) = job {
            dfs.put_overwrite(*alias, dfs.get(&outputs[0])?);
        }
        for name in &outputs {
            datasets.push(dfs.get(name)?);
        }
        all_stages.extend(stats.iter().cloned());
        runs.push(StageRun {
            label,
            compile_s,
            stages: stats,
            plan,
        });
    }
    Ok((
        Output {
            datasets,
            stages: all_stages,
        },
        runs,
    ))
}

/// The `<st>.*` metrics of one job run, in [`STAGE_FIELDS`] order.
fn stage_values(run: &StageRun) -> Vec<f64> {
    let sum_s =
        |f: fn(&StageStats) -> Duration| run.stages.iter().map(f).sum::<Duration>().as_secs_f64();
    let sum_n = |f: fn(&StageStats) -> u64| run.stages.iter().map(f).sum::<u64>() as f64;
    let parts: Vec<f64> = run
        .stages
        .iter()
        .flat_map(|s| s.partition_times.iter().map(Duration::as_secs_f64))
        .collect();
    let mean = parts.iter().sum::<f64>() / parts.len().max(1) as f64;
    let skew = if mean > 0.0 {
        parts.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    };
    let wall = sum_s(|s| s.wall_time);
    let map = sum_s(|s| s.map_time);
    let shuffle = sum_s(|s| s.shuffle_time);
    let reduce = sum_s(|s| s.reduce_wall_time);
    vec![
        wall,
        map,
        sum_n(|s| s.map_tasks as u64),
        sum_n(|s| s.map_rows_in),
        sum_n(|s| s.map_rows_out),
        shuffle,
        sum_n(|s| s.shuffle_bytes),
        sum_n(|s| s.spill_bytes),
        reduce,
        sum_s(StageStats::total_reduce_time),
        skew,
        wall - map - shuffle - reduce,
        sum_n(|s| s.output_rows),
        sum_n(|s| s.task_retries + s.workers_lost + s.speculative_launched),
        run.compile_s,
    ]
}

/// Standalone DSMS execution of each job's plan over its whole decoded
/// input (the datasets must be resident), plus the extent codec and the
/// bridge decode over the same inputs. Fills `dsms.*`, `extent.*` and
/// `bridge.decode_s`; a non-canonical extent re-encode is a failure.
fn analyse(
    bench: &Bench,
    tracer: &mut Tracer,
    jobs: &[Job],
    values: &mut BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> Res<()> {
    let dfs = &bench.input.dfs;
    let (mut decode, mut encode, mut bridge) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut bytes, mut rows) = (0u64, 0u64);
    for job in jobs {
        let label = job.label();
        let (plan, encodings, mode) = job.standalone_plan()?;
        let sources: BTreeMap<String, relation::Schema> = plan
            .sources()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s.clone()))
            .collect();
        let mut bindings = DataBindings::default();
        let mut rows_in = 0usize;
        for (name, payload) in &sources {
            let ds = dfs.get(name)?;
            let encoding = encodings.get(name).copied().unwrap_or(EventEncoding::Point);
            let stream = encoding.decode_stream(ds.iter(), payload)?;
            rows_in += stream.len();
            bindings.insert(name.clone(), StreamData::Rows(stream));

            let dataset_payload = encoding.payload_schema(&ds.schema)?;
            for i in 0..ds.partitions.len() {
                let Some(image) = ds.binary_extent(i) else {
                    continue;
                };
                let t0 = Instant::now();
                let batch = decode_extent(image)?;
                let t1 = Instant::now();
                let again = encode_extent(&batch)?;
                let t2 = Instant::now();
                if again != **image {
                    problems.push(format!(
                        "extent {i} of `{name}` does not re-encode to the same bytes"
                    ));
                }
                bytes += image.len() as u64;
                rows += batch.len() as u64;
                let t3 = Instant::now();
                let events = encoding.decode_column_batch(batch, &dataset_payload);
                let t4 = Instant::now();
                if events.is_none() {
                    problems.push(format!("extent {i} of `{name}` has no column-batch decode"));
                }
                tracer.record("extent.decode", t0, t1);
                tracer.record("extent.encode", t1, t2);
                tracer.record("bridge.decode", t3, t4);
                decode += t1 - t0;
                encode += t2 - t1;
                bridge += t4 - t3;
            }
        }
        let options = ExecOptions::with_mode(mode);
        let t0 = Instant::now();
        let (out, _) = tracer.span(&format!("dsms.{label}"), |_| {
            execute_data(&plan, bindings, &options)
        });
        let secs = t0.elapsed().as_secs_f64();
        let rows_out: usize = out?
            .iter()
            .map(|d| match d {
                StreamData::Rows(s) => s.len(),
                StreamData::Batch(b) => b.len(),
            })
            .sum();
        values.insert(format!("dsms.{label}.s"), secs);
        values.insert(format!("dsms.{label}.rows_in"), rows_in as f64);
        values.insert(format!("dsms.{label}.rows_out"), rows_out as f64);
    }
    values.insert("extent.decode_s".into(), decode.as_secs_f64());
    values.insert("extent.encode_s".into(), encode.as_secs_f64());
    values.insert(
        "extent.bytes_per_row".into(),
        bytes as f64 / rows.max(1) as f64,
    );
    values.insert("bridge.decode_s".into(), bridge.as_secs_f64());
    Ok(())
}

/// The traced run.
pub fn run_traced(args: &Args) -> Res<Report> {
    let kind = args.kind;
    let mut tracer = Tracer::new(kind.name());
    let (bench, _) = setup(kind, args.seed)?;
    let input = &bench.input;
    tracer.record("adgen.generate", input.generate.0, input.generate.1);
    tracer.record("dfs.load", input.load.0, input.load.1);
    if let Some((t0, t1)) = bench.prepass {
        tracer.record("setup.botelim", t0, t1);
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert(
        "adgen.generate_s".into(),
        (input.generate.1 - input.generate.0).as_secs_f64(),
    );
    values.insert("adgen.events".into(), input.events as f64);
    values.insert(
        "dfs.load_s".into(),
        (input.load.1 - input.load.0).as_secs_f64(),
    );
    values.insert("dfs.extent_bytes".into(), input.extent_bytes as f64);

    let mut tally = Tally::default();
    let mut reference = None;
    let half = args.seconds / 2.0;
    checked(&bench, &mut tally, &mut reference, || bench.execute());
    let untraced = closed_loop(&bench, half, &mut tally, &mut reference, || bench.execute());

    let own: Vec<Job> = all_jobs(&bench)
        .into_iter()
        .filter(|j| own_labels(kind).contains(&j.label()))
        .collect();
    let mut runs: Vec<StageRun> = Vec::new();
    let mut exec = 0;
    let traced = closed_loop(&bench, half, &mut tally, &mut reference, || {
        exec += 1;
        tracer.set_exec(exec);
        let (out, _) = tracer.span("job", |t| staged(&bench, t, &own));
        out.map(|(out, r)| {
            runs.extend(r);
            out
        })
    });
    let walls = |s: &[crate::Sample]| median(&s.iter().map(|x| x.wall).collect::<Vec<_>>());
    values.insert("trace.overhead_s".into(), walls(&traced) - walls(&untraced));

    // Own stages: the median over the traced executions.
    for label in own_labels(kind) {
        let per_run: Vec<Vec<f64>> = runs
            .iter()
            .filter(|r| r.label == *label)
            .map(stage_values)
            .collect();
        if per_run.is_empty() {
            return Err(format!("no traced execution of `{label}` succeeded").into());
        }
        for (i, (field, _)) in STAGE_FIELDS.iter().enumerate() {
            let xs: Vec<f64> = per_run.iter().map(|v| v[i]).collect();
            values.insert(format!("{label}.{field}"), median(&xs));
        }
    }

    // Closing pass: every job once, outputs left resident for analysis.
    tracer.set_exec(exec + 1);
    let jobs = all_jobs(&bench);
    let (pass, _) = tracer.span("analysis", |t| staged(&bench, t, &jobs));
    let (pass_out, pass_runs) = pass?;
    for run in &pass_runs {
        if !own_labels(kind).contains(&run.label) {
            for ((field, _), v) in STAGE_FIELDS.iter().zip(stage_values(run)) {
                values.insert(format!("{}.{field}", run.label), v);
            }
        }
        if let Some(p) = run.plan {
            for (name, v) in [
                "shared_nodes",
                "factored_groups",
                "pushed_ops",
                "pushed_partials",
            ]
            .iter()
            .zip(p)
            {
                values.insert(format!("dashboards.{name}"), v as f64);
            }
        }
    }
    // The closing pass publishes the workload's output too; it must match.
    // Each BT job publishes one dataset; the dashboards job comes last.
    let bt = jobs.len() - 1;
    let own = match kind {
        Kind::Dashboards => &pass_out.datasets[bt..],
        Kind::BtPipeline | Kind::BtCluster => &pass_out.datasets[..bt],
    };
    let mut problems = Vec::new();
    if let Some(r) = &reference {
        if !Image::of(own, Vec::new()).same_bytes(r) {
            problems
                .push("the stage-by-stage execution differs from the public API's output".into());
        }
    }
    analyse(&bench, &mut tracer, &jobs, &mut values, &mut problems)?;
    for label in STAGES {
        let share = values[&format!("dsms.{label}.s")] / values[&format!("{label}.reduce_cpu_s")];
        values.insert(format!("dsms.{label}.share"), share);
    }
    let t0 = Instant::now();
    tracer
        .span("custom.job", |_| {
            run_custom(
                &bench.input.dfs,
                &bench.cluster,
                "logs",
                "custom",
                &bench.input.params,
            )
        })
        .0?;
    values.insert("custom.job_s".into(), t0.elapsed().as_secs_f64());
    bench.reset()?;
    // The closing pass with its analysis counts as one operation, and so
    // does writing the trace.
    tally.record((!problems.is_empty()).then(|| problems.join("; ")));
    let path = out_dir().join(format!("trace-{}-{}.json", kind.name(), args.seed));
    std::fs::write(&path, tracer.to_chrome_json())?;
    tally.record(
        check_trace_file(&path)
            .err()
            .map(|e| format!("trace file {}: {e}", path.display())),
    );

    let mut provenance = provenance(args, &bench);
    check_reference(&bench, reference.as_ref(), &mut tally, &mut provenance)?;
    provenance.push((
        "untraced_executions".into(),
        Value::UInt(untraced.len() as u64),
    ));
    provenance.push(("traced_executions".into(), Value::UInt(traced.len() as u64)));
    provenance.push(("trace_file".into(), Value::Str(path.display().to_string())));
    provenance.push(("spans".into(), Value::UInt(tracer.spans().len() as u64)));

    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values
                .get(&name)
                .copied()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok(metric(name, v, unit))
        })
        .collect::<Res<Vec<Metric>>>()?;
    Ok(Report {
        tally,
        metrics,
        provenance,
    })
}

/// The trace file must parse as trace-event JSON: an object whose
/// `traceEvents` array holds complete events with the fields Perfetto
/// reads.
fn check_trace_file(path: &std::path::Path) -> Res<()> {
    let doc = serde_json::parse(&std::fs::read_to_string(path)?)?;
    let Value::Array(events) = doc.field("traceEvents")? else {
        return Err("traceEvents is not an array".into());
    };
    if events.is_empty() {
        return Err("no events".into());
    }
    let mut names = BTreeSet::new();
    for e in events {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            e.field(key)?;
        }
        if let Value::Str(n) = e.field("name")? {
            names.insert(n.clone());
        }
    }
    for needed in [
        "adgen.generate",
        "dfs.load",
        "job",
        "dsms.botelim",
        "extent.decode",
    ] {
        if !names.contains(needed) {
            return Err(format!("no `{needed}` span").into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this run reports are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Value::Array(items) = doc.field(key).unwrap() else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(
                    |m| match (m.field("name").unwrap(), m.field("unit").unwrap()) {
                        (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                        other => panic!("bad metric {other:?}"),
                    },
                )
                .collect()
        };
        let declared: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), declared);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, ["job_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_ops"]);
        let Value::Array(workloads) = doc.field("workloads").unwrap() else {
            panic!("workloads is not an array")
        };
        let wl: Vec<&str> = workloads
            .iter()
            .map(|w| match w.field("name").unwrap() {
                Value::Str(n) => n.as_str(),
                _ => panic!("bad workload"),
            })
            .collect();
        assert_eq!(wl, Kind::ALL.map(Kind::name));
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_limit() {
        let names = per_layer_names();
        let unique: BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
    }
}
