//! Multi-process backend equivalence tests: the process backend — real
//! worker OS processes exchanging binary extent images over Unix-domain
//! sockets — must produce datasets byte-identical to the in-process
//! thread pool, at any worker count, in every DSMS execution mode, and
//! under real process-kill chaos (SIGKILL mid-task in every phase),
//! socket-level corruption, injected stragglers with speculative
//! re-execution, and preemptive attempt timeouts.

#![cfg(unix)]

use proptest::prelude::*;
use std::sync::{PoisonError, RwLock};
use std::time::Duration;
use timr_suite::mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, RetryPolicy,
    SpeculationPolicy, TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::exec::ExecMode;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::Query;
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

const MODES: [ExecMode; 4] = [
    ExecMode::Interpreted,
    ExecMode::Compiled,
    ExecMode::Columnar,
    ExecMode::Fused,
];

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
    ])
}

fn click_count_job(mode: ExecMode) -> TimrJob {
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, timr_suite::temporal::plan::Operator::Filter { .. }))
        .unwrap();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
    TimrJob::new("pb", plan)
        .with_annotation(ann)
        .with_machines(4)
        .with_exec_mode(mode)
}

/// The compiled stage name — lets chaos target exact task coordinates
/// instead of guessing node ids.
fn stage_name(mode: ExecMode) -> String {
    click_count_job(mode).compile().unwrap().stages[0]
        .name
        .clone()
}

/// Store the log as several extents so the map phase has multiple tasks.
fn dfs_with(rows: &[Row], extents: usize) -> Dfs {
    let chunk = rows.len().div_ceil(extents).max(1);
    let parts: Vec<Vec<Row>> = rows.chunks(chunk).map(|c| c.to_vec()).collect();
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::partitioned(EventEncoding::Point.dataset_schema(&payload()), parts),
    )
    .unwrap();
    dfs
}

fn deterministic_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                i * 7 % 500,
                (1 + i % 2) as i32,
                format!("u{}", i % 11),
                format!("ad{}", i % 7)
            ]
        })
        .collect()
}

/// Every job in this binary runs holding this lock shared; the hygiene
/// test holds it exclusively, so no other test's workers, sockets or
/// spill files are open while it counts them.
static RESOURCES: RwLock<()> = RwLock::new(());

fn run_job(rows: &[Row], mode: ExecMode, config: ClusterConfig) -> (Vec<Vec<Row>>, FaultTotals) {
    let _shared = RESOURCES.read().unwrap_or_else(PoisonError::into_inner);
    run_job_alone(rows, mode, config)
}

/// [`run_job`] for a caller that already holds [`RESOURCES`].
fn run_job_alone(
    rows: &[Row],
    mode: ExecMode,
    config: ClusterConfig,
) -> (Vec<Vec<Row>>, FaultTotals) {
    let dfs = dfs_with(rows, 3);
    let cluster = Cluster::with_config(config);
    let out = click_count_job(mode).run(&dfs, &cluster).unwrap();
    (
        dfs.get(&out.dataset).unwrap().partitions.as_ref().clone(),
        out.stats.fault_totals(),
    )
}

fn process_config(workers: usize, chaos: ChaosPlan, retry: RetryPolicy) -> ClusterConfig {
    ClusterConfig {
        backend: BackendKind::Processes { workers },
        chaos,
        retry,
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The process backend is byte-identical to the thread pool at 1, 2,
    /// and 4 workers in all four DSMS execution modes, clean and under a
    /// seeded chaos schedule that includes real process kills.
    #[test]
    fn process_backend_matches_threads(
        n in 40i64..120,
        seed in 0u64..1_000_000,
    ) {
        let rows = deterministic_rows(n);
        let chaos = ChaosPlan::seeded(seed)
            .with_transients(0.10)
            .with_corruption(0.08)
            .with_process_kills(0.10)
            .with_fault_cap(2);
        let retry = RetryPolicy::no_backoff(4);
        for mode in MODES {
            let (reference, totals) = run_job(
                &rows,
                mode,
                ClusterConfig {
                    threads: 4,
                    chaos: ChaosPlan::none(),
                    retry,
                    ..ClusterConfig::default()
                },
            );
            prop_assert_eq!(totals.task_retries, 0);
            for workers in [1usize, 2, 4] {
                let (clean, _) = run_job(
                    &rows,
                    mode,
                    process_config(workers, ChaosPlan::none(), retry),
                );
                prop_assert_eq!(
                    &clean, &reference,
                    "clean process run diverged (mode {:?}, workers {})", mode, workers
                );
                let (chaotic, _) = run_job(
                    &rows,
                    mode,
                    process_config(workers, chaos.clone(), retry),
                );
                prop_assert_eq!(
                    &chaotic, &reference,
                    "chaos visible in output (mode {:?}, workers {}, seed {})",
                    mode, workers, seed
                );
            }
        }
    }
}

/// A real SIGKILL in every phase — map, shuffle, and reduce — is invisible
/// in the output: survivors absorb the dead worker's partitions (and the
/// scheduler respawns only when nobody is left).
#[test]
fn sigkill_in_every_phase_is_byte_identical() {
    let rows = deterministic_rows(150);
    let retry = RetryPolicy::no_backoff(3);
    for mode in MODES {
        let stage = stage_name(mode);
        let (reference, _) = run_job(&rows, mode, process_config(2, ChaosPlan::none(), retry));
        let chaos = ChaosPlan::none()
            .kill_process(&stage, TaskPhase::Map, 0)
            .kill_process(&stage, TaskPhase::Shuffle, 1)
            .kill_process(&stage, TaskPhase::Reduce, 2);
        let (killed, totals) = run_job(&rows, mode, process_config(2, chaos, retry));
        assert_eq!(killed, reference, "SIGKILL visible in output ({mode:?})");
        assert!(
            totals.workers_lost >= 3,
            "expected three real worker deaths, saw {} ({mode:?})",
            totals.workers_lost
        );
        assert!(totals.task_retries >= 3);
    }
}

/// An injected straggler triggers speculative re-execution; the duplicate
/// (which skips the injected sleep) wins, and the race never changes
/// output bytes.
#[test]
fn straggler_speculation_is_deterministic() {
    let rows = deterministic_rows(120);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name(ExecMode::Compiled);
    let (reference, _) = run_job(
        &rows,
        ExecMode::Compiled,
        process_config(3, ChaosPlan::none(), retry),
    );
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 3, Duration::from_millis(400));
    let config = ClusterConfig {
        speculation: SpeculationPolicy {
            enabled: true,
            latency_factor: 2.0,
            min_lag: Duration::from_millis(20),
            min_completed: 2,
        },
        ..process_config(3, chaos, retry)
    };
    let (speculated, totals) = run_job(&rows, ExecMode::Compiled, config);
    assert_eq!(speculated, reference, "speculation changed output bytes");
    assert!(
        totals.speculative_launched >= 1,
        "no speculative duplicate launched for a 400ms straggler"
    );
    assert!(
        totals.speculative_wins >= 1,
        "the duplicate should beat a 400ms straggler"
    );
}

/// A result frame corrupted on the wire (byte flipped after the checksum
/// was computed) is caught by frame verification and re-executed.
#[test]
fn wire_corruption_is_caught_and_retried() {
    let rows = deterministic_rows(130);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name(ExecMode::Columnar);
    let (reference, _) = run_job(
        &rows,
        ExecMode::Columnar,
        process_config(2, ChaosPlan::none(), retry),
    );
    let chaos = ChaosPlan::none()
        .corrupt_wire(&stage, TaskPhase::Map, 0)
        .corrupt_wire(&stage, TaskPhase::Reduce, 1)
        .delay_wire(&stage, TaskPhase::Reduce, 0, Duration::from_millis(30));
    let (corrupted, totals) = run_job(&rows, ExecMode::Columnar, process_config(2, chaos, retry));
    assert_eq!(corrupted, reference, "wire corruption visible in output");
    assert!(
        totals.corruption_detected >= 2,
        "both damaged frames must be detected, saw {}",
        totals.corruption_detected
    );
    assert!(totals.task_retries >= 2);
}

/// `RetryPolicy::attempt_timeout` on the process backend is preemptive: a
/// copy running past the deadline is SIGKILLed, charged as `TimedOut`,
/// and re-executed (the injected straggle applies to attempt 0 only, so
/// the retry completes).
#[test]
fn attempt_timeout_preempts_stragglers() {
    let rows = deterministic_rows(110);
    let stage = stage_name(ExecMode::Compiled);
    let retry = RetryPolicy::no_backoff(3).with_attempt_timeout(Duration::from_millis(80));
    let (reference, _) = run_job(
        &rows,
        ExecMode::Compiled,
        process_config(2, ChaosPlan::none(), retry),
    );
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 0, Duration::from_millis(500));
    let config = ClusterConfig {
        speculation: SpeculationPolicy {
            enabled: false,
            ..SpeculationPolicy::default()
        },
        ..process_config(2, chaos, retry)
    };
    let (timed, totals) = run_job(&rows, ExecMode::Compiled, config);
    assert_eq!(timed, reference, "timeout recovery changed output bytes");
    assert!(
        totals.tasks_timed_out >= 1,
        "a 500ms straggler must trip an 80ms attempt timeout"
    );
    assert!(totals.workers_lost >= 1, "the preemption is a real SIGKILL");
}

/// Budgeted shuffles spill through the process backend too: chunks ship
/// to workers as extent images read back from the spill files, kills
/// mid-run leave no stray spill files behind, and teardown reaps every
/// worker (no zombie children linger).
#[test]
fn spills_and_workers_are_cleaned_up() {
    let spill_dir = std::env::temp_dir().join(format!("timr-backend-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    let rows = deterministic_rows(160);
    let stage = stage_name(ExecMode::Compiled);
    let retry = RetryPolicy::no_backoff(3);
    let (reference, _) = run_job(
        &rows,
        ExecMode::Compiled,
        process_config(2, ChaosPlan::none(), retry),
    );
    let chaos = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Reduce, 0)
        .corrupt(&stage, TaskPhase::Shuffle, 1);
    let config = ClusterConfig {
        memory_budget_bytes: Some(2 << 10),
        spill_dir: Some(spill_dir.clone()),
        ..process_config(2, chaos, retry)
    };
    let (spilled, totals) = run_job(&rows, ExecMode::Compiled, config);
    assert_eq!(spilled, reference, "spilled chaos run diverged");
    assert!(totals.workers_lost >= 1);
    let leftovers: Vec<_> = std::fs::read_dir(&spill_dir).unwrap().collect();
    assert!(leftovers.is_empty(), "spill files leaked: {leftovers:?}");
    std::fs::remove_dir_all(&spill_dir).ok();
    // No zombie children: every worker the backend forked has been
    // reaped. Poll briefly — concurrently running tests in this binary
    // fork workers of their own.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let zombies = zombie_children();
        if zombies.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "unreaped worker processes remain: {zombies:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A SIGKILL in every phase under a spill budget leaves nothing behind:
/// the process holds as many open descriptors, and as many socket
/// descriptors, as before the run, and the spill directory has as many
/// entries. Linux only (it reads `/proc/self/fd`); elsewhere the test is
/// compiled out.
#[cfg(target_os = "linux")]
#[test]
fn sigkill_chaos_leaks_no_fds_sockets_or_spill_files() {
    /// (open fds, socket fds, spill-dir entries).
    fn census(spill_dir: &std::path::Path) -> (usize, usize, usize) {
        let fds: Vec<std::path::PathBuf> = std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .flatten()
            .filter_map(|e| std::fs::read_link(e.path()).ok())
            .collect();
        let sockets = fds
            .iter()
            .filter(|t| t.to_string_lossy().starts_with("socket:"))
            .count();
        (
            fds.len(),
            sockets,
            std::fs::read_dir(spill_dir).unwrap().count(),
        )
    }

    let _exclusive = RESOURCES.write().unwrap_or_else(PoisonError::into_inner);
    let spill_dir =
        std::env::temp_dir().join(format!("timr-backend-census-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    let rows = deterministic_rows(160);
    let stage = stage_name(ExecMode::Compiled);
    let retry = RetryPolicy::no_backoff(3);
    let budgeted = |chaos: ChaosPlan| ClusterConfig {
        memory_budget_bytes: Some(2 << 10),
        spill_dir: Some(spill_dir.clone()),
        ..process_config(2, chaos, retry)
    };
    // A clean run first, so anything opened once per process is open
    // before the census starts.
    let (reference, _) = run_job_alone(&rows, ExecMode::Compiled, budgeted(ChaosPlan::none()));
    let before = census(&spill_dir);
    let chaos = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Map, 0)
        .kill_process(&stage, TaskPhase::Shuffle, 1)
        .kill_process(&stage, TaskPhase::Reduce, 2);
    let (killed, totals) = run_job_alone(&rows, ExecMode::Compiled, budgeted(chaos));
    let after = census(&spill_dir);
    std::fs::remove_dir_all(&spill_dir).ok();
    assert_eq!(killed, reference, "SIGKILL visible in output");
    assert!(
        totals.workers_lost >= 3,
        "expected three real worker deaths"
    );
    assert_eq!(
        after, before,
        "(fds, socket fds, spill entries) after the chaos run vs before"
    );
}

/// Child processes of this test binary in state Z (dead but not reaped).
fn zombie_children() -> Vec<i32> {
    let me = std::process::id() as i32;
    let mut zombies = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return zombies;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesized command: state, ppid, ...
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: i32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(-1);
        if ppid == me && state == "Z" {
            zombies.push(pid);
        }
    }
    zombies
}
