//! Property tests for parallel GroupApply: fanning groups out on the
//! worker pool must be invisible in the output. For any plan, key set and
//! event bag — including distinct keys engineered to share an FxHash
//! value, and groups whose sub-plan output is empty — the event vector at
//! 2+ threads must be **byte-identical** (`events() ==`, not just the
//! same relation) to the sequential run. This is the repeatability
//! guarantee restarted reducers compare bytes against (paper §III-C.1).

use proptest::prelude::*;
use timr_suite::relation::hash::values_hash;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single_with_options, ExecMode, ExecOptions};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::{window_aggregate, LogicalPlan, Operator};
use timr_suite::temporal::{Event, EventStream, Lifetime, Query, StreamHandle};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("A", ColumnType::Long),
        Field::new("B", ColumnType::Long),
        Field::new("V", ColumnType::Long),
    ])
}

/// One Fx round: `state = (state <<< 5 ^ word) * SEED`.
fn fx_add(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Hash state after absorbing `[rank(Long), a, rank(Long)]` — everything
/// the key hash of `[Long(a), Long(b)]` mixes in before `b` itself.
fn prefix_state(a: i64) -> u64 {
    fx_add(fx_add(fx_add(0, 3), a as u64), 3)
}

/// Given the key `[Long(a1), Long(b1)]` and a different first column
/// `a2`, solve for the `b2` that makes `[Long(a2), Long(b2)]` collide on
/// the full 64-bit key hash. The final Fx round multiplies by an odd
/// (invertible) constant, so equal hashes reduce to equal pre-multiply
/// words: `rotl5(u1) ^ b1 = rotl5(u2) ^ b2`.
fn colliding_partner(a1: i64, b1: i64, a2: i64) -> i64 {
    (b1 as u64 ^ prefix_state(a1).rotate_left(5) ^ prefix_state(a2).rotate_left(5)) as i64
}

/// Key-pair palette: a few small `(a, b)` keys, each paired with a
/// distinct partner key constructed to share its 64-bit FxHash — so
/// random event bags routinely exercise the hash-then-compare collision
/// path in GroupApply's partitioner.
fn palette() -> Vec<(i64, i64)> {
    let mut pairs = Vec::new();
    for a in 0..3i64 {
        for b in 0..2i64 {
            let pa = a + 101;
            pairs.push((a, b));
            pairs.push((pa, colliding_partner(a, b, pa)));
        }
    }
    pairs
}

#[test]
fn palette_pairs_really_collide() {
    for chunk in palette().chunks(2) {
        let [(a1, b1), (a2, b2)] = chunk else {
            panic!("palette comes in pairs")
        };
        assert_ne!((a1, b1), (a2, b2));
        assert_eq!(
            values_hash(&[Value::Long(*a1), Value::Long(*b1)]),
            values_hash(&[Value::Long(*a2), Value::Long(*b2)]),
            "constructed partner must share the key hash"
        );
    }
}

/// A random GroupApply plan: 1- or 2-column key, one of three sub-plan
/// shapes (the filtered variant can leave groups with zero output).
fn build_plan(key_cols: usize, plan_kind: usize, w: i64) -> LogicalPlan {
    let keys: &[&str] = if key_cols == 1 { &["A"] } else { &["A", "B"] };
    let q = Query::new();
    let src = q.source("in", payload());
    let out = match plan_kind {
        0 => src.group_apply(keys, |g| g.window(w).count("N")),
        1 => src.group_apply(keys, |g| {
            g.aggregate(vec![
                ("S".into(), AggExpr::Sum(col("V"))),
                ("C".into(), AggExpr::Count),
            ])
        }),
        _ => src.group_apply(keys, |g| {
            // Groups where no event passes the filter produce no output.
            g.filter(col("V").ge(lit(25i64))).window(w).count("N")
        }),
    };
    q.build(vec![out]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel GroupApply at 2+ threads is byte-identical to the
    /// sequential run, for random plans, key widths and event bags —
    /// `0..` lengths include the empty input.
    #[test]
    fn parallel_group_apply_is_byte_identical(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..80),
        key_cols in 1usize..3,
        plan_kind in 0usize..3,
        w in 1i64..50,
    ) {
        let palette = palette();
        let stream = EventStream::new(
            payload(),
            events
                .iter()
                .map(|&(t, pi, v)| {
                    let (a, b) = palette[pi % palette.len()];
                    Event::point(t, row![a, b, v])
                })
                .collect(),
        );
        let plan = build_plan(key_cols, plan_kind, w);
        let srcs = bindings(vec![("in", stream)]);
        let sequential =
            execute_single_with_options(&plan, &srcs, &ExecOptions::default().threads(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                execute_single_with_options(&plan, &srcs, &ExecOptions::default().threads(threads))
                    .unwrap();
            prop_assert_eq!(
                sequential.events(),
                parallel.events(),
                "threads={} changed the output", threads
            );
        }
    }
}

fn wide_payload() -> Schema {
    Schema::new(vec![
        Field::new("A", ColumnType::Long),
        Field::new("B", ColumnType::Long),
        Field::new("V", ColumnType::Long),
        Field::new("D", ColumnType::Double),
    ])
}

/// The sub-plan's lifetime op: none, or one of each `LifetimeOp`. With
/// `b < a` the hopping window drops every event more than `b` ticks
/// before a report instant, which empties whole groups.
fn windowed(g: StreamHandle, kind: usize, a: i64, b: i64) -> StreamHandle {
    match kind % 6 {
        0 => g,
        1 => g.window(a),
        2 => g.hop_window(a, b),
        3 => g.shift(a - 25),
        4 => g.extend_back(b),
        _ => g.to_point(),
    }
}

fn agg_menu(idx: usize) -> AggExpr {
    match idx % 7 {
        0 => AggExpr::Count,
        1 => AggExpr::Sum(col("V")),
        2 => AggExpr::Sum(col("D")), // float order: sweep order must match
        3 => AggExpr::Min(col("V")),
        4 => AggExpr::Max(col("D")),
        5 => AggExpr::Avg(col("V")),
        _ => AggExpr::CountDistinct(col("V")),
    }
}

fn window_aggregate_plan(
    key_cols: usize,
    window: usize,
    a: i64,
    b: i64,
    aggs: &[usize],
    arg: Option<AggExpr>,
) -> LogicalPlan {
    let keys: &[&str] = if key_cols == 1 { &["A"] } else { &["A", "B"] };
    let mut aggs: Vec<(String, AggExpr)> = aggs
        .iter()
        .enumerate()
        .map(|(pos, &i)| (format!("G{pos}"), agg_menu(i)))
        .collect();
    aggs.extend(arg.map(|e| ("E".to_string(), e)));
    let q = Query::new();
    let out = q
        .source("in", wide_payload())
        .group_apply(keys, |g| windowed(g, window, a, b).aggregate(aggs));
    let plan = q.build(vec![out]).unwrap();
    let shape_matches = plan.nodes().iter().any(|n| {
        matches!(&n.op, Operator::GroupApply { subplan, .. } if window_aggregate(subplan).is_some())
    });
    assert!(shape_matches, "the plan must take the keyed sweep");
    plan
}

/// Interval events over the collision palette. `bad` plants payloads that
/// do not fit the declared `Long` column (a string or a boolean), which
/// the argument `V + 1` fails to evaluate; `V` is otherwise sometimes
/// null.
fn wide_stream(events: &[(i64, i64, usize, i64, u8)]) -> EventStream {
    let palette = palette();
    EventStream::new(
        wide_payload(),
        events
            .iter()
            .map(|&(t, len, pi, v, bad)| {
                let (a, b) = palette[pi % palette.len()];
                let v = match bad {
                    0 => Value::str("x"),
                    1 => Value::Bool(true),
                    _ if v == 0 => Value::Null,
                    _ => Value::Long(v),
                };
                let d = Value::Double(v_to_f64(&v) * 0.1 + 1e-3 * t as f64);
                let row =
                    timr_suite::relation::Row::new(vec![Value::Long(a), Value::Long(b), v, d]);
                Event::new(Lifetime::new(t, t + len), row)
            })
            .collect(),
    )
}

fn v_to_f64(v: &Value) -> f64 {
    match v {
        Value::Long(v) => *v as f64,
        _ => 0.5,
    }
}

fn arb_wide_events(bad_share: u8) -> impl Strategy<Value = Vec<(i64, i64, usize, i64, u8)>> {
    prop::collection::vec((0i64..400, 1i64..30, 0usize..64, 0i64..40, 0u8..100), 0..90).prop_map(
        move |v| {
            v.into_iter()
                // Map the bad draw to {0: string, 1: boolean, 2: fine}.
                .map(|(t, len, pi, v, bad)| {
                    let bad = if bad < bad_share { bad % 2 } else { 2 };
                    (t, len, pi, v, bad)
                })
                .collect()
        },
    )
}

/// Run `plan` in every mode at 1, 2 and 4 pool threads and require each
/// result — stream or error message — to equal Interpreted at 1 thread.
fn assert_modes_match_oracle(plan: &LogicalPlan, stream: EventStream) -> Result<(), TestCaseError> {
    let srcs = bindings(vec![("in", stream)]);
    let run = |mode: ExecMode, threads: usize| {
        let opts = ExecOptions::with_mode(mode).threads(threads);
        execute_single_with_options(plan, &srcs, &opts).map_err(|e| e.to_string())
    };
    let oracle = run(ExecMode::Interpreted, 1);
    for threads in [1usize, 2, 4] {
        for mode in [
            ExecMode::Interpreted,
            ExecMode::Compiled,
            ExecMode::Columnar,
            ExecMode::Fused,
        ] {
            prop_assert_eq!(
                &oracle,
                &run(mode, threads),
                "{:?} at {} threads",
                mode,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyed sweep equals the per-group sub-plan for every lifetime
    /// op and aggregate, over colliding keys, null arguments and groups a
    /// Hop empties.
    #[test]
    fn keyed_sweep_matches_per_group_oracle(
        events in arb_wide_events(0),
        key_cols in 1usize..3,
        window in 0usize..6,
        a in 1i64..60,
        b in 1i64..60,
        aggs in prop::collection::vec(0usize..7, 1..4),
    ) {
        let plan = window_aggregate_plan(key_cols, window, a, b, &aggs, None);
        assert_modes_match_oracle(&plan, wide_stream(&events))?;
    }

    /// An argument that fails to evaluate surfaces the oracle's error:
    /// the lowest failing group in key order, its first failing event in
    /// input order, and nothing from events a Hop dropped.
    #[test]
    fn keyed_sweep_reports_the_oracles_error(
        events in arb_wide_events(6),
        key_cols in 1usize..3,
        window in 0usize..6,
        a in 1i64..60,
        b in 1i64..60,
        aggs in prop::collection::vec(0usize..7, 0..3),
    ) {
        let arg = AggExpr::Sum(col("V").add(lit(1i64)));
        let plan = window_aggregate_plan(key_cols, window, a, b, &aggs, Some(arg));
        assert_modes_match_oracle(&plan, wide_stream(&events))?;
    }
}

#[test]
fn lowest_failing_group_decides_the_error() {
    // Group A=1 holds a string (first in input order), group A=0 a
    // boolean; the error must name the boolean in every mode and at every
    // pool size.
    let events = [(5, 3, 4, 0, 0), (1, 3, 0, 0, 1), (9, 3, 0, 7, 2)];
    let plan = window_aggregate_plan(
        1,
        1,
        10,
        10,
        &[0],
        Some(AggExpr::Sum(col("V").add(lit(1i64)))),
    );
    assert_modes_match_oracle(&plan, wide_stream(&events)).unwrap();
    let err = timr_suite::temporal::exec::execute_single_with_options(
        &plan,
        &bindings(vec![("in", wide_stream(&events))]),
        &ExecOptions::with_mode(ExecMode::Compiled).threads(2),
    )
    .unwrap_err();
    assert!(err.to_string().contains("bool"), "{err}");
}

#[test]
fn events_a_hop_drops_are_never_evaluated() {
    // hop 10, width 2: the string at t=3 reaches no report instant and
    // is dropped before the aggregate sees it, so no mode may fail on it.
    let events = [(3, 1, 0, 0, 0), (10, 1, 0, 7, 2)];
    let plan = window_aggregate_plan(
        1,
        2,
        10,
        2,
        &[0],
        Some(AggExpr::Sum(col("V").add(lit(1i64)))),
    );
    assert_modes_match_oracle(&plan, wide_stream(&events)).unwrap();
    let out = timr_suite::temporal::exec::execute_single_with_options(
        &plan,
        &bindings(vec![("in", wide_stream(&events))]),
        &ExecOptions::with_mode(ExecMode::Compiled),
    )
    .unwrap();
    assert_eq!(out.len(), 1);
}

#[test]
fn bt_profile_counts_take_the_keyed_sweep_and_bot_elimination_does_not() {
    use timr_suite::bt::params::BtParams;
    use timr_suite::bt::queries::{bot_elim, train_data};
    let params = BtParams::default();
    let group_applies = |plan: &LogicalPlan| -> Vec<bool> {
        plan.nodes()
            .iter()
            .filter_map(|n| match &n.op {
                Operator::GroupApply { subplan, .. } => Some(window_aggregate(subplan).is_some()),
                _ => None,
            })
            .collect()
    };
    // GenTrainData's only GroupApply is the UBP: Window(τ) → Count.
    assert_eq!(
        group_applies(&train_data::train_query(&params).plan),
        vec![true]
    );
    // BotElim multicasts its GroupInput into two filtered counts.
    assert_eq!(group_applies(&bot_elim::query(&params).plan), vec![false]);
}
