//! Property tests for map-side plan push-down (PR 9): compiling the
//! exchange-free prefix of a query — and, when the aggregate straddling
//! the exchange is combinable, a factor-window partial aggregation — into
//! mapper fragments must be *byte-identical*, per query, to the
//! reduce-only plan, in every DSMS execution mode, under seeded chaos,
//! and with shuffle spilling under a memory budget. Windows written both
//! inside the GroupApply and outside it (`hop → GroupApply{Aggregate}`,
//! the feature-selection shape) are covered. Plans the split must refuse
//! (non-combinable aggregates, partition keys the prefix renames away,
//! finer-keyed group-applies) are exercised negatively.

use proptest::prelude::*;
use std::time::Duration as WallDuration;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, ReduceInput, RetryPolicy,
};
use timr_suite::relation::column::ColumnBatch;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::ExecMode;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::{push_down, validate_mapper_plan, LogicalPlan, Operator};
use timr_suite::temporal::Query;
use timr_suite::timr::multi::MultiTimrJob;
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
        Field::new("V", ColumnType::Long),
    ])
}

/// Which aggregate the member's hopping window computes. `Count` and
/// `SumV` are combinable (the partial pushes map-side); `Avg` is not, so
/// only the stateless prefix may move.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AggKind {
    Count,
    SumV,
    Avg,
}

impl AggKind {
    fn aggs(self) -> Vec<(String, AggExpr)> {
        match self {
            AggKind::Count => vec![("N".to_string(), AggExpr::Count)],
            AggKind::SumV => vec![
                ("N".to_string(), AggExpr::Count),
                ("S".to_string(), AggExpr::Sum(col("V"))),
            ],
            AggKind::Avg => vec![("A".to_string(), AggExpr::Avg(col("V")))],
        }
    }
}

/// One member of the query set: click-filter prefix (pushable), an
/// optional narrowing projection (pushable, drops `StreamId`), a hopping
/// window over (user, ad) with a per-member aggregate, and a residual ad
/// filter that must stay reduce-side (it reads the aggregate's output).
/// `outer` writes the window before the GroupApply instead of inside it.
#[derive(Debug, Clone)]
struct Member {
    hop_mult: i64,
    width_mult: i64,
    ad: usize,
    agg: AggKind,
    narrow: bool,
    outer: bool,
}

fn member_plan(m: &Member) -> LogicalPlan {
    let q = Query::new();
    let mut clicks = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)));
    if m.narrow {
        clicks = clicks.project(vec![
            ("UserId".to_string(), col("UserId")),
            ("KwAdId".to_string(), col("KwAdId")),
            ("V".to_string(), col("V")),
        ]);
    }
    let aggs = m.agg.aggs();
    let (hop, width) = (10 * m.hop_mult, 10 * m.width_mult);
    let grouped = if m.outer {
        clicks
            .hop_window(hop, width)
            .group_apply(&["UserId", "KwAdId"], move |g| g.aggregate(aggs.clone()))
    } else {
        clicks.group_apply(&["UserId", "KwAdId"], move |g| {
            g.hop_window(hop, width).aggregate(aggs.clone())
        })
    };
    let out = grouped.filter(col("KwAdId").eq(lit(format!("ad{}", m.ad))));
    q.build(vec![out]).unwrap()
}

fn deterministic_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                i * 7 % 500,
                (1 + i % 2) as i32,
                format!("u{}", i % 11),
                format!("ad{}", i % 5),
                i % 50
            ]
        })
        .collect()
}

fn dfs_with(rows: &[Row]) -> Dfs {
    dfs_sliced(rows, 40)
}

/// The log as extents of `extent_rows` rows each.
fn dfs_sliced(rows: &[Row], extent_rows: usize) -> Dfs {
    let parts: Vec<Vec<Row>> = rows.chunks(extent_rows).map(|c| c.to_vec()).collect();
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::partitioned(EventEncoding::Point.dataset_schema(&payload()), parts),
    )
    .unwrap();
    dfs
}

fn job(members: &[Member], mode: ExecMode, push: bool) -> MultiTimrJob {
    MultiTimrJob::new("pd", members.iter().map(member_plan).collect())
        .with_key(ExchangeKey::keys(&["UserId"]))
        .with_machines(3)
        .with_exec_mode(mode)
        .with_push_down(push)
}

fn cluster(chaos: ChaosPlan, budget: Option<u64>) -> Cluster {
    Cluster::with_config(ClusterConfig {
        threads: 4,
        chaos,
        retry: RetryPolicy::no_backoff(4),
        memory_budget_bytes: budget,
        ..ClusterConfig::default()
    })
}

/// Raw output partitions of every query, with push-down on or off.
fn run_bytes(
    members: &[Member],
    rows: &[Row],
    mode: ExecMode,
    push: bool,
    chaos: ChaosPlan,
    budget: Option<u64>,
) -> Vec<Vec<Vec<Row>>> {
    run_sliced(members, &dfs_with(rows), mode, push, chaos, budget)
}

/// [`run_bytes`] over a prepared DFS.
fn run_sliced(
    members: &[Member],
    dfs: &Dfs,
    mode: ExecMode,
    push: bool,
    chaos: ChaosPlan,
    budget: Option<u64>,
) -> Vec<Vec<Vec<Row>>> {
    let out = job(members, mode, push)
        .run(dfs, &cluster(chaos, budget))
        .unwrap();
    out.datasets
        .iter()
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect()
}

fn arb_member() -> impl Strategy<Value = Member> {
    // Cadences mix harmonic (gcd 10) and co-prime (7·10) multiples so
    // some runs factor into one window group and some keep several;
    // aggregates mix combinable and not, so some members push partials
    // and some push only their stateless prefix.
    (
        1i64..5,
        1i64..5,
        0usize..3,
        0u8..3,
        any::<bool>(),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|(h, w, ad, agg, seven, (narrow, outer))| Member {
            hop_mult: if seven { 7 } else { h },
            width_mult: w + 1,
            ad,
            agg: match agg {
                0 => AggKind::Count,
                1 => AggKind::SumV,
                _ => AggKind::Avg,
            },
            narrow,
            outer,
        })
}

/// A member with its window outside the GroupApply.
fn arb_outer_member() -> impl Strategy<Value = Member> {
    arb_member().prop_map(|m| Member { outer: true, ..m })
}

/// Seeded chaos below the retry budget.
fn chaos(seed: u64) -> ChaosPlan {
    ChaosPlan::seeded(seed)
        .with_panics(0.15)
        .with_transients(0.15)
        .with_corruption(0.12)
        .with_delays(0.10, WallDuration::from_micros(200))
        .with_fault_cap(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Push-down is byte-identical to the reduce-only plan for every
    /// member query, in all four DSMS execution modes.
    #[test]
    fn push_down_matches_reduce_only_per_query(
        members in prop::collection::vec(arb_member(), 1..7),
        n in 60i64..140,
    ) {
        let rows = deterministic_rows(n);
        for mode in MODES {
            let on = run_bytes(&members, &rows, mode, true, ChaosPlan::none(), None);
            let off = run_bytes(&members, &rows, mode, false, ChaosPlan::none(), None);
            prop_assert_eq!(on.len(), members.len());
            for i in 0..members.len() {
                prop_assert_eq!(
                    &on[i], &off[i],
                    "query {} bytes differ with push-down under {:?}", i, mode
                );
            }
        }
    }

    /// Seeded chaos below the retry budget plus a tight shuffle memory
    /// budget (spilling partially-sorted runs) never change the bytes of
    /// a pushed plan relative to a clean reduce-only run.
    #[test]
    fn pushed_plans_survive_chaos_and_spill(
        members in prop::collection::vec(arb_member(), 2..6),
        seed in 0u64..1_000_000,
    ) {
        let rows = deterministic_rows(120);
        let baseline = run_bytes(
            &members, &rows, ExecMode::Compiled, false, ChaosPlan::none(), None,
        );
        let pushed = run_bytes(
            &members, &rows, ExecMode::Compiled, true, chaos(seed), Some(2048),
        );
        prop_assert_eq!(baseline, pushed, "chaos+spill changed pushed-plan bytes");
    }

    /// A window written outside the GroupApply pushes as a partial
    /// aggregate when the member is alone and combinable, and the bytes
    /// equal the reduce-only plan's in all four modes, for any slicing of
    /// the log into extents, and under chaos plus a spilling budget.
    #[test]
    fn outer_hop_partials_match_reduce_only(
        member in arb_outer_member(),
        n in 60i64..160,
        extent_rows in 7usize..70,
        seed in 0u64..1_000_000,
    ) {
        let members = [member];
        let compiled = job(&members, ExecMode::Compiled, true).compile().unwrap();
        let expect = usize::from(members[0].agg != AggKind::Avg);
        prop_assert_eq!(compiled.pushed_partials, expect);

        let dfs = dfs_sliced(&deterministic_rows(n), extent_rows);
        let baseline = run_sliced(
            &members, &dfs, ExecMode::Compiled, false, ChaosPlan::none(), None,
        );
        for mode in MODES {
            let on = run_sliced(&members, &dfs, mode, true, ChaosPlan::none(), None);
            let off = run_sliced(&members, &dfs, mode, false, ChaosPlan::none(), None);
            prop_assert_eq!(&on, &off, "outer-hop bytes differ under {:?}", mode);
            prop_assert_eq!(&on, &baseline, "{:?} differs from Compiled", mode);
        }
        let pushed = run_sliced(
            &members, &dfs, ExecMode::Compiled, true, chaos(seed), Some(2048),
        );
        prop_assert_eq!(&baseline, &pushed, "chaos+spill changed outer-hop bytes");
    }
}

/// Single-query path: a click-score-shaped job (filter → narrowing
/// project → combinable hopping aggregate, exchange annotated on the
/// filter's input edge) is byte-identical with push-down on and off in
/// all four modes, and the on-run's stats show fewer rows shuffled and
/// shuffle bytes saved.
#[test]
fn single_query_push_down_is_byte_identical_and_saves_shuffle() {
    let build = || {
        let q = Query::new();
        let out = q
            .source("logs", payload())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("UserId".to_string(), col("UserId")),
                ("KwAdId".to_string(), col("KwAdId")),
            ])
            .group_apply(&["UserId", "KwAdId"], |g| g.hop_window(10, 40).count("N"));
        q.build(vec![out]).unwrap()
    };
    let job = |push: bool, mode: ExecMode| {
        let plan = build();
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        TimrJob::new(if push { "pd_on" } else { "pd_off" }, plan)
            .with_annotation(Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId"])))
            .with_machines(3)
            .with_exec_mode(mode)
            .with_push_down(push)
    };
    let rows = deterministic_rows(160);
    for mode in MODES {
        let dfs = dfs_with(&rows);
        let on = job(true, mode)
            .run(&dfs, &cluster(ChaosPlan::none(), None))
            .unwrap();
        let off = job(false, mode)
            .run(&dfs, &cluster(ChaosPlan::none(), None))
            .unwrap();
        assert_eq!(
            dfs.get(&on.dataset).unwrap().partitions,
            dfs.get(&off.dataset).unwrap().partitions,
            "single-query bytes differ under {mode:?}"
        );
        let on_t = on.stats.map_totals();
        let off_t = off.stats.map_totals();
        assert!(on_t.shuffle_bytes_saved > 0, "push-down saved no bytes");
        assert!(
            on_t.shuffle_bytes < off_t.shuffle_bytes,
            "pushed shuffle ({}) not smaller than reduce-only ({})",
            on_t.shuffle_bytes,
            off_t.shuffle_bytes
        );
        assert_eq!(off_t.shuffle_bytes_saved, 0);
        assert_eq!(
            off_t.rows_in, off_t.rows_out,
            "reduce-only map tasks must ship rows unchanged"
        );
        assert!(
            on_t.rows_out < on_t.rows_in,
            "mapper fragments must shrink the shuffled row count"
        );
    }
}

/// A non-combinable aggregate keeps the reduction reduce-side — the
/// compiled job pushes the stateless prefix but zero partials — and
/// [`validate_mapper_plan`] refuses a mapper plan containing it.
#[test]
fn non_combinable_aggregate_stays_reduce_side() {
    let m = Member {
        hop_mult: 2,
        width_mult: 3,
        ad: 1,
        agg: AggKind::Avg,
        narrow: true,
        outer: false,
    };
    let compiled = job(&[m], ExecMode::Compiled, true).compile().unwrap();
    assert_eq!(
        compiled.pushed_partials, 0,
        "Avg must not partial-aggregate"
    );
    assert!(
        compiled.pushed_ops >= 1,
        "the stateless prefix still pushes"
    );

    let q = Query::new();
    let out = q.source("logs", payload()).group_apply(&["UserId"], |g| {
        g.hop_window(4, 8)
            .aggregate(vec![("A".to_string(), AggExpr::Avg(col("V")))])
    });
    let plan = q.build(vec![out]).unwrap();
    let err = validate_mapper_plan(&plan, None).unwrap_err();
    assert!(err.to_string().contains("not combinable"), "{err}");
}

/// A projection that renames the partition key away blocks the split
/// entirely when routing must be preserved, and the validator rejects
/// both a stateful mapper operator and a group-apply keyed finer than
/// the stage partitioner.
#[test]
fn renamed_key_finer_grouping_and_stateful_ops_are_refused() {
    // Rename UserId → Who: nothing may push on a UserId-partitioned stage.
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .project(vec![
            ("Who".to_string(), col("UserId")),
            ("V".to_string(), col("V")),
        ])
        .group_apply(&["Who"], |g| g.hop_window(10, 20).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let cols = vec!["UserId".to_string()];
    let pd = push_down(&plan, Some(&cols)).unwrap();
    assert!(!pd.any(), "key rename must block push-down");

    // GroupApply keyed (UserId) under a (UserId, KwAdId) partitioner.
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .group_apply(&["UserId"], |g| g.hop_window(10, 20).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let fine = vec!["UserId".to_string(), "KwAdId".to_string()];
    let err = validate_mapper_plan(&plan, Some(&fine)).unwrap_err();
    assert!(err.to_string().contains("finer"), "{err}");

    // A join can never run map-side.
    let q = Query::new();
    let a = q.source("a", payload());
    let b = q.source("b", payload());
    let plan = q
        .build(vec![a.anti_semi_join(b, &[("UserId", "UserId")])])
        .unwrap();
    let err = validate_mapper_plan(&plan, None).unwrap_err();
    assert!(err.to_string().contains("stateful"), "{err}");
}

/// The owning [`ReduceInput::into_rows`] decode path agrees with the
/// borrowing [`ReduceInput::to_rows`] for both arrival forms — the `Rows`
/// form moves without copying, the `Batch` form transposes to the same
/// row order the batch held.
#[test]
fn reduce_input_into_rows_matches_to_rows() {
    let schema = EventEncoding::Point.dataset_schema(&payload());
    let rows = deterministic_rows(50);
    let borrowed = ReduceInput::Rows(rows.clone()).to_rows();
    let owned = ReduceInput::Rows(rows.clone()).into_rows();
    assert_eq!(borrowed, owned);
    assert_eq!(owned, rows);

    let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
    let borrowed = ReduceInput::Batch(batch.clone()).to_rows();
    let owned = ReduceInput::Batch(batch).into_rows();
    assert_eq!(borrowed, owned);
    assert_eq!(owned, rows);
}
