//! The three workloads: set-up, one job execution, and the output checks.
//!
//! Every workload reads one generated day of logs, loaded as 16
//! time-ordered extents. The load is a closed loop with one client: the
//! benchmark submits a job, waits for its published output, then submits
//! the next.

use crate::sys;
use adgen::GenConfig;
use bt::baselines::custom::run_custom;
use bt::pipeline::BtPipeline;
use bt::queries::{self, advertisers};
use bt::BtParams;
use mapreduce::{BackendKind, Cluster, ClusterConfig, Dataset, Dfs, StageStats};
use relation::Row;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;
use temporal::exec::ExecMode;
use timr::{EventEncoding, TimrJob};

/// Error type of the benchmark: any layer's error, boxed.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Simulated users; with `GenConfig::small` this is one day and about
/// 262k events.
pub const USERS: usize = 4800;
/// Extents the log is loaded as, so the first stage gets one map task
/// per extent as it would over a day of DFS logs.
pub const EXTENTS: usize = 16;
/// Reduce partitions of every keyed stage (`BtParams::machines`).
pub const MACHINES: usize = 8;
/// Advertiser dashboards in the shared job.
pub const DASHBOARDS: usize = 64;
/// Worker processes of `bt_cluster` (capped at the CPU count).
pub const WORKERS: usize = 2;
/// Shuffle memory budget of `bt_cluster`: below every BT stage's shuffle
/// volume, so all four stages spill.
pub const SPILL_BUDGET_BYTES: u64 = 256 * 1024;
/// Dataset-name prefix of the BT pipeline's jobs.
const PREFIX: &str = "bt";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 4-job BT pipeline on the thread backend, memory unbounded.
    BtPipeline,
    /// 64 advertiser dashboards as one shared job over the bot-cleaned log.
    Dashboards,
    /// The BT pipeline on worker processes under a spilling memory budget.
    BtCluster,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::BtPipeline, Kind::Dashboards, Kind::BtCluster];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BtPipeline => "bt_pipeline",
            Kind::Dashboards => "dashboards",
            Kind::BtCluster => "bt_cluster",
        }
    }

    /// Datasets the job reads; they stay resident between executions.
    fn inputs(self) -> &'static [&'static str] {
        match self {
            Kind::Dashboards => &["logs", advertisers::CLEAN_LOG_DATASET],
            Kind::BtPipeline | Kind::BtCluster => &["logs"],
        }
    }

    /// Cluster configuration: all CPUs, one DSMS thread per reduce task,
    /// and for `bt_cluster` worker processes with a spilling budget.
    pub fn cluster_config(self, spill_dir: &Path) -> ClusterConfig {
        let mut config = ClusterConfig {
            threads: sys::nproc(),
            dsms_threads: 1,
            ..ClusterConfig::default()
        };
        if self == Kind::BtCluster {
            config.backend = BackendKind::Processes {
                workers: WORKERS.min(sys::nproc()),
            };
            config.memory_budget_bytes = Some(SPILL_BUDGET_BYTES);
            config.spill_dir = Some(spill_dir.to_path_buf());
        }
        config
    }
}

/// The generated log, resident in a DFS.
pub struct Input {
    /// DFS holding `logs` (and `clean_logs` for `dashboards`).
    pub dfs: Dfs,
    /// BT parameters matched to the log.
    pub params: BtParams,
    /// Events generated.
    pub events: usize,
    /// Bytes of the 16 binary extents of `logs`.
    pub extent_bytes: u64,
    /// When log generation started and ended.
    pub generate: (Instant, Instant),
    /// When the DFS load started and ended.
    pub load: (Instant, Instant),
}

/// Generate the log for `seed` and load it into a fresh DFS as
/// [`EXTENTS`] time-ordered extents.
pub fn load_log(seed: u64) -> Res<Input> {
    let mut cfg = GenConfig::small(seed);
    cfg.users = USERS;
    let g0 = Instant::now();
    let log = adgen::generate(&cfg);
    let g1 = Instant::now();
    let params = BtParams {
        machines: MACHINES,
        // Analysis horizon covering the whole log.
        horizon: log.events.last().map_or(1, |e| e.time + 1) * 2,
        ..BtParams::default()
    };
    let rows = log.rows();
    drop(log);
    let events = rows.len();
    let per_extent = events.div_ceil(EXTENTS).max(1);
    let mut rows = rows.into_iter();
    let extents: Vec<Vec<Row>> = (0..EXTENTS)
        .map(|_| rows.by_ref().take(per_extent).collect())
        .collect();
    let logs = Dataset::partitioned(adgen::unified_schema(), extents);
    let extent_bytes = (0..EXTENTS)
        .filter_map(|i| logs.binary_extent(i))
        .map(|b| b.len() as u64)
        .sum();
    let dfs = Dfs::new();
    dfs.put("logs", logs)?;
    Ok(Input {
        dfs,
        params,
        events,
        extent_bytes,
        generate: (g0, g1),
        load: (g1, Instant::now()),
    })
}

/// The BT pipeline's four jobs built as [`BtPipeline::run`] builds them:
/// stage label, job, and the dataset name the next job reads its output
/// under. Running them in order through [`Cluster::run_stage`] publishes
/// the same bytes as `BtPipeline::run` with prefix `bt`.
pub fn bt_jobs(params: &BtParams) -> Vec<(&'static str, TimrJob, Option<&'static str>)> {
    let m = params.machines;
    let job = |name: &str, q: queries::BtQuery| {
        TimrJob::new(format!("{PREFIX}_{name}"), q.plan)
            .with_annotation(q.annotation)
            .with_machines(m)
    };
    vec![
        (
            "botelim",
            job("botelim", queries::bot_elim::query(params)),
            Some("clean_logs"),
        ),
        (
            "labels",
            job("labels", queries::train_data::labels_query(params))
                .with_source_encoding("clean_logs", EventEncoding::Interval),
            Some("labels"),
        ),
        (
            "train",
            job("train", queries::train_data::train_query(params))
                .with_source_encoding("clean_logs", EventEncoding::Interval),
            Some("train_rows"),
        ),
        (
            "scores",
            job("scores", queries::feature_selection::query(params))
                .with_source_encoding("labels", EventEncoding::Interval)
                .with_source_encoding("train_rows", EventEncoding::Interval),
            None,
        ),
    ]
}

/// What one job execution published.
pub struct Output {
    /// Every dataset the job published, in a fixed order.
    pub datasets: Vec<Dataset>,
    /// Per-stage statistics in execution order.
    pub stages: Vec<StageStats>,
}

/// A workload ready to execute: its input resident and its cluster built.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// The resident input.
    pub input: Input,
    /// The cluster every execution runs on.
    pub cluster: Cluster,
    /// Spill directory owned by this run (used by `bt_cluster`).
    pub spill_dir: PathBuf,
    /// When the `dashboards` bot-elimination pre-pass started and ended.
    pub prepass: Option<(Instant, Instant)>,
}

impl Bench {
    /// Load the log and build the cluster. For `dashboards`, also run bot
    /// elimination once so every execution reads the cleaned log.
    pub fn setup(kind: Kind, seed: u64, spill_dir: &Path) -> Res<Bench> {
        std::fs::create_dir_all(spill_dir)?;
        let input = load_log(seed)?;
        let cluster = Cluster::with_config(kind.cluster_config(spill_dir));
        let mut bench = Bench {
            kind,
            input,
            cluster,
            spill_dir: spill_dir.to_path_buf(),
            prepass: None,
        };
        if kind == Kind::Dashboards {
            let t0 = Instant::now();
            let (_, botelim, alias) = bt_jobs(&bench.input.params).swap_remove(0);
            let out = botelim.run(&bench.input.dfs, &bench.cluster)?;
            let clean = bench.input.dfs.get(&out.dataset)?;
            bench
                .input
                .dfs
                .put_overwrite(alias.expect("bot elimination feeds clean_logs"), clean);
            bench.reset()?;
            bench.prepass = Some((t0, Instant::now()));
        }
        Ok(bench)
    }

    /// The shared dashboards job (push-down on, compiled operators).
    pub fn dashboard_job(&self) -> timr::MultiTimrJob {
        advertisers::dashboard_job(&self.input.params, DASHBOARDS)
    }

    /// One job execution through the public API, from input resident in
    /// the DFS to output published.
    pub fn execute(&self) -> Res<Output> {
        self.execute_on(&self.cluster)
    }

    fn execute_on(&self, cluster: &Cluster) -> Res<Output> {
        let dfs = &self.input.dfs;
        match self.kind {
            Kind::BtPipeline | Kind::BtCluster => {
                let art =
                    BtPipeline::new(self.input.params.clone()).run(dfs, cluster, "logs", PREFIX)?;
                let datasets = [&art.clean, &art.labels, &art.train_rows, &art.scores]
                    .into_iter()
                    .map(|n| dfs.get(n))
                    .collect::<Result<_, _>>()?;
                let stages = art.stats.into_iter().flat_map(|(_, s)| s.stages).collect();
                Ok(Output { datasets, stages })
            }
            Kind::Dashboards => {
                let out = self.dashboard_job().run(dfs, cluster)?;
                let datasets = out
                    .datasets
                    .iter()
                    .map(|n| dfs.get(n))
                    .collect::<Result<_, _>>()?;
                Ok(Output {
                    datasets,
                    stages: out.stats.stages,
                })
            }
        }
    }

    /// Drop everything an execution published, leaving only the input.
    pub fn reset(&self) -> Res<()> {
        for name in self.input.dfs.list() {
            if !self.kind.inputs().contains(&name.as_str()) {
                self.input.dfs.remove(&name)?;
            }
        }
        Ok(())
    }

    /// Check a reference execution's output against the workload's
    /// independent oracle, returning a description of the first mismatch.
    /// Runs outside the timed region; leaves the DFS reset.
    pub fn check_reference(&self, reference: &Image) -> Res<Option<String>> {
        let verdict = match self.kind {
            Kind::BtPipeline => self.check_scores(reference)?,
            Kind::BtCluster => {
                // Same bytes as the thread backend with memory unbounded.
                let threads =
                    Cluster::with_config(Kind::BtPipeline.cluster_config(&self.spill_dir));
                let on_threads = self.execute_on(&threads)?.image();
                self.reset()?;
                if on_threads.same_bytes(reference) {
                    self.check_scores(reference)?
                } else {
                    Some("output differs from the thread backend's (bt_pipeline)".to_string())
                }
            }
            Kind::Dashboards => {
                let baseline = self
                    .dashboard_job()
                    .with_exec_mode(ExecMode::Interpreted)
                    .with_push_down(false)
                    .run(&self.input.dfs, &self.cluster)?;
                let datasets: Vec<Dataset> = baseline
                    .datasets
                    .iter()
                    .map(|n| self.input.dfs.get(n))
                    .collect::<Result<_, _>>()?;
                (!Image::of(&datasets, Vec::new()).same_bytes(reference))
                    .then(|| "output differs from the interpreted, reduce-only job".to_string())
            }
        };
        self.reset()?;
        Ok(verdict)
    }

    /// Final keyword scores against the custom-reducer pipeline, as the
    /// integration test checks them: z within 1e-9 on every matched
    /// (ad, keyword), and at least 90% of the TiMR scores matched.
    fn check_scores(&self, reference: &Image) -> Res<Option<String>> {
        let dfs = &self.input.dfs;
        dfs.put_overwrite("check_scores", reference.last.clone());
        let timr = BtPipeline::load_scores(dfs, "check_scores")?;
        run_custom(dfs, &self.cluster, "logs", "custom", &self.input.params)?;
        let custom = BtPipeline::load_custom_scores(dfs, "custom_scores")?;
        let custom: std::collections::BTreeMap<_, _> = custom
            .iter()
            .map(|s| ((s.ad.as_str(), s.keyword.as_str()), s.z))
            .collect();
        let mut matched = 0;
        for s in &timr {
            if let Some(z) = custom.get(&(s.ad.as_str(), s.keyword.as_str())) {
                if (s.z - z).abs() >= 1e-9 {
                    return Ok(Some(format!(
                        "z of {}/{} is {} but the custom pipeline says {z}",
                        s.ad, s.keyword, s.z
                    )));
                }
                matched += 1;
            }
        }
        if timr.is_empty() || (matched as f64) < 0.9 * timr.len() as f64 {
            return Ok(Some(format!(
                "only {matched} of {} keyword scores match the custom pipeline",
                timr.len()
            )));
        }
        Ok(None)
    }
}

/// What the checks keep of one execution's output: a digest of every
/// published dataset's bytes, and the final dataset itself (for the BT
/// pipeline, the keyword scores). Keeping digests instead of the datasets
/// keeps the reference out of `peak_rss_mb`.
pub struct Image {
    digests: Vec<u64>,
    /// The last dataset the job published.
    pub last: Dataset,
    /// Rows per sink of the last stage.
    pub sink_rows: Vec<u64>,
}

impl Image {
    /// Image of `datasets` (at least one) published by a job whose last
    /// stage wrote `sink_rows`.
    pub fn of(datasets: &[Dataset], sink_rows: Vec<u64>) -> Image {
        Image {
            digests: datasets.iter().map(digest).collect(),
            last: datasets.last().expect("a job publishes a dataset").clone(),
            sink_rows,
        }
    }

    /// The digests as hex, for comparing outputs across processes.
    pub fn digest_hex(&self) -> String {
        self.digests.iter().map(|d| format!("{d:016x}")).collect()
    }

    /// Whether both outputs have the same bytes.
    pub fn same_bytes(&self, other: &Image) -> bool {
        self.digests == other.digests
    }
}

impl Output {
    /// The image the checks keep.
    pub fn image(&self) -> Image {
        let sink_rows = self
            .stages
            .last()
            .map(|s| s.sink_rows.clone())
            .unwrap_or_default();
        Image::of(&self.datasets, sink_rows)
    }
}

/// SipHash of a dataset's schema, extent count and every extent's binary
/// image (its rows, for an extent without one).
fn digest(ds: &Dataset) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", ds.schema).hash(&mut h);
    ds.partitions.len().hash(&mut h);
    for (i, rows) in ds.partitions.iter().enumerate() {
        match ds.binary_extent(i) {
            Some(bytes) => (1u8, bytes.as_slice()).hash(&mut h),
            None => (0u8, rows).hash(&mut h),
        }
    }
    h.finish()
}
