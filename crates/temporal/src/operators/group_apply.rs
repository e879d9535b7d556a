//! GroupApply: apply a sub-plan to each group (paper §II-A.2, Fig 4).
//!
//! The input is hash-partitioned on the grouping key; the sub-plan runs once
//! per group over that group's events; the grouping key columns are
//! prepended to every output row.
//!
//! Grouping is one routine, [`group_runs`]: events bucket by the 64-bit key
//! hash (no per-event key materialization, no allocation per group), hash
//! collisions between distinct keys are separated by comparing key cells
//! against each group's first event, the groups are ordered by comparing
//! key cells in place, and a counting sort lays the event indices out as
//! one contiguous run per group, in sorted-key order, each run in input
//! order.
//!
//! Two executions consume those runs:
//!
//! - [`group_apply`], the generic path, moves each run's events into a
//!   per-group stream and runs the sub-plan over it.
//! - [`group_aggregate`] handles the sub-plan shape `GroupInput →
//!   [AlterLifetime] → Aggregate` ([`crate::plan::window_aggregate`]) in
//!   one pass: no sub-plan, no per-group stream and no event copies. Each
//!   run's lifetimes are transformed into a reused buffer and swept by the
//!   same endpoint sweep the Aggregate operator uses, writing the key
//!   prefix and the aggregate values straight into each output row. The
//!   groups, their order, the per-group event order and the accumulators
//!   are the generic path's, so the output is byte-identical to it.
//!
//! Every group is independent, so groups fan out as tasks on the shared
//! [`WorkerPool`] (one group per task on the generic path, contiguous
//! chunks of runs on the aggregate path). Results are concatenated
//! **strictly in sorted-key order**, so the output event vector is
//! byte-identical to the sequential (one-thread) path regardless of thread
//! count or scheduling — the repeatability guarantee (paper §III) that
//! restarted reducers compare bytes against. Errors propagate from the
//! lowest group in sort order, keeping failure deterministic too.

use super::aggregate::{output_schema, Sweep};
use super::alter_lifetime::transform;
use crate::agg::AggExpr;
use crate::batch::EventBatch;
use crate::error::Result;
use crate::event::Event;
use crate::key::KeySelector;
use crate::plan::{LifetimeOp, LogicalPlan};
use crate::stream::EventStream;
use pool::WorkerPool;
use relation::{Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;

/// A stream's events grouped by key: event indices laid out as one
/// contiguous run per distinct key, runs in ascending key order, each run
/// in input order.
struct Runs {
    order: Vec<usize>,
    /// Run `r` is `order[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
}

impl Runs {
    /// Number of runs (distinct keys).
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The event indices of run `r`.
    fn run(&self, r: usize) -> &[usize] {
        &self.order[self.bounds[r]..self.bounds[r + 1]]
    }
}

/// Group `events` by the key of `sel`, hash-then-compare. `hashes`, when
/// given, holds each event's key hash precomputed column-major
/// (bit-identical to [`KeySelector::hash`], so grouping cannot differ).
///
/// Keys are distinct, so ordering the group representatives with an
/// unstable sort is deterministic, and the order equals that of the
/// materialized `Vec<Value>` keys.
fn group_runs(sel: &KeySelector, events: &[Event], hashes: Option<&[u64]>) -> Runs {
    const NONE: usize = usize::MAX;
    debug_assert!(hashes.is_none_or(|h| h.len() == events.len()));
    // One head group per hash; groups whose distinct keys share a hash
    // chain through `next`.
    let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
    let mut rep: Vec<usize> = Vec::new(); // group -> first event
    let mut next: Vec<usize> = Vec::new(); // group -> next group, same hash
    let mut size: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let h = hashes.map_or_else(|| sel.hash(&e.payload), |h| h[i]);
        let g = match heads.entry(h) {
            Entry::Vacant(v) => *v.insert(rep.len()),
            Entry::Occupied(o) => {
                let mut g = *o.get();
                loop {
                    if sel.matches_same(&events[rep[g]].payload, &e.payload) {
                        break g;
                    }
                    if next[g] == NONE {
                        next[g] = rep.len();
                        break rep.len();
                    }
                    g = next[g];
                }
            }
        };
        if g == rep.len() {
            rep.push(i);
            next.push(NONE);
            size.push(0);
        }
        size[g] += 1;
        group_of.push(g);
    }

    let mut sorted: Vec<usize> = (0..rep.len()).collect();
    sorted
        .sort_unstable_by(|&a, &b| sel.cmp_same(&events[rep[a]].payload, &events[rep[b]].payload));

    // Counting sort: each group's write cursor starts at its run's offset.
    let mut cursor = size; // reused: overwritten with run offsets below
    let mut bounds = Vec::with_capacity(sorted.len() + 1);
    let mut offset = 0;
    bounds.push(0);
    for &g in &sorted {
        let len = cursor[g];
        cursor[g] = offset;
        offset += len;
        bounds.push(offset);
    }
    let mut order = vec![0; events.len()];
    for (i, &g) in group_of.iter().enumerate() {
        order[cursor[g]] = i;
        cursor[g] += 1;
    }
    Runs { order, bounds }
}

/// GroupApply's output schema: the key fields, then the sub-plan's fields.
fn prefixed_schema(in_schema: &Schema, keys: &[String], sub_schema: &Schema) -> Result<Schema> {
    let mut fields = Vec::with_capacity(keys.len() + sub_schema.len());
    for k in keys {
        fields.push(in_schema.field(k)?.clone());
    }
    fields.extend(sub_schema.fields().iter().cloned());
    Ok(Schema::new(fields))
}

/// Run `subplan` per distinct value of `keys`, prepending the key columns to
/// output rows. `run_subplan` is supplied by the executor (it knows how to
/// evaluate a plan against a bound GroupInput); it must be `Sync` because
/// groups run concurrently on `pool`.
pub fn group_apply(
    input: EventStream,
    keys: &[String],
    subplan: &LogicalPlan,
    pool: &WorkerPool,
    run_subplan: &(dyn Fn(&LogicalPlan, EventStream) -> Result<EventStream> + Sync),
) -> Result<EventStream> {
    group_apply_inner(input, None, keys, subplan, pool, run_subplan)
}

/// Columnar entry: key hashes are computed straight off the payload
/// columns (no per-event row walk), then the events stream through the
/// same grouping as [`group_apply`] — groups, group order, and output are
/// byte-identical.
pub fn group_apply_batch(
    input: EventBatch,
    keys: &[String],
    subplan: &LogicalPlan,
    pool: &WorkerPool,
    run_subplan: &(dyn Fn(&LogicalPlan, EventStream) -> Result<EventStream> + Sync),
) -> Result<EventStream> {
    let (hashes, input) = batch_hashes(input, keys)?;
    group_apply_inner(input, Some(hashes), keys, subplan, pool, run_subplan)
}

/// Key hashes of a batch's events, hashed off the columns, and the batch
/// as a row stream.
fn batch_hashes(input: EventBatch, keys: &[String]) -> Result<(Vec<u64>, EventStream)> {
    let sel = KeySelector::new(input.schema(), keys)?;
    Ok((sel.hash_batch(input.payload()), input.into_stream()))
}

fn group_apply_inner(
    input: EventStream,
    hashes: Option<Vec<u64>>,
    keys: &[String],
    subplan: &LogicalPlan,
    pool: &WorkerPool,
    run_subplan: &(dyn Fn(&LogicalPlan, EventStream) -> Result<EventStream> + Sync),
) -> Result<EventStream> {
    let in_schema = input.schema().clone();
    let sel = KeySelector::new(&in_schema, keys)?;
    let out_schema = prefixed_schema(&in_schema, keys, subplan.schema_of(subplan.roots()[0]))?;

    // Move each run's events into its group, in sorted-key order, and
    // materialize one key per group for its output prefix.
    let runs = group_runs(&sel, input.events(), hashes.as_deref());
    let mut slots: Vec<Option<Event>> = input.into_events().into_iter().map(Some).collect();
    let ordered: Vec<(Vec<Value>, Vec<Event>)> = (0..runs.len())
        .map(|r| {
            let events: Vec<Event> = runs
                .run(r)
                .iter()
                .map(|&i| slots[i].take().expect("an event belongs to one run"))
                .collect();
            (sel.extract(&events[0].payload), events)
        })
        .collect();

    // Fan out: one pool task per group, each running the sub-plan and
    // prepending its group's key prefix.
    let group_results: Vec<Result<Vec<Event>>> = pool.map(ordered, |_, (prefix, events)| {
        let result = run_subplan(subplan, EventStream::new(in_schema.clone(), events))?;
        let mut out = Vec::with_capacity(result.len());
        for e in result.into_events() {
            let mut values = Vec::with_capacity(prefix.len() + e.payload.len());
            values.extend_from_slice(&prefix);
            values.extend(e.payload.into_values());
            out.push(Event::new(e.lifetime, Row::new(values)));
        }
        Ok(out)
    });
    concat_in_order(out_schema, group_results)
}

/// Merge per-task outputs strictly in task (= sorted-key) order,
/// pre-sizing the output to the exact total; the lowest task's error wins.
fn concat_in_order(schema: Schema, results: Vec<Result<Vec<Event>>>) -> Result<EventStream> {
    let mut parts = results.into_iter().collect::<Result<Vec<_>>>()?;
    if parts.len() == 1 {
        return Ok(EventStream::new(schema, parts.pop().expect("one part")));
    }
    let mut out_events = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out_events.extend(p);
    }
    Ok(EventStream::new(schema, out_events))
}

/// `GroupApply(keys){GroupInput → [AlterLifetime(window)] → Aggregate(aggs)}`
/// in one pass over per-key runs (see the module docs); byte-identical to
/// [`group_apply`] running that sub-plan, errors included.
pub fn group_aggregate(
    input: EventStream,
    keys: &[String],
    window: Option<&LifetimeOp>,
    aggs: &[(String, AggExpr)],
    pool: &WorkerPool,
) -> Result<EventStream> {
    group_aggregate_inner(input, None, keys, window, aggs, pool)
}

/// Columnar entry of [`group_aggregate`]: key hashes come off the payload
/// columns, as in [`group_apply_batch`].
pub fn group_aggregate_batch(
    input: EventBatch,
    keys: &[String],
    window: Option<&LifetimeOp>,
    aggs: &[(String, AggExpr)],
    pool: &WorkerPool,
) -> Result<EventStream> {
    let (hashes, input) = batch_hashes(input, keys)?;
    group_aggregate_inner(input, Some(hashes), keys, window, aggs, pool)
}

/// Chunks of runs per pool worker: enough to even out skewed run lengths,
/// few enough that each chunk's reused buffers pay off.
const CHUNKS_PER_THREAD: usize = 4;

fn group_aggregate_inner(
    input: EventStream,
    hashes: Option<Vec<u64>>,
    keys: &[String],
    window: Option<&LifetimeOp>,
    aggs: &[(String, AggExpr)],
    pool: &WorkerPool,
) -> Result<EventStream> {
    let in_schema = input.schema();
    let sel = KeySelector::new(in_schema, keys)?;
    let out_schema = prefixed_schema(in_schema, keys, &output_schema(aggs, in_schema)?)?;
    let events = input.events();
    let runs = group_runs(&sel, events, hashes.as_deref());
    let compiled: Vec<_> = aggs.iter().map(|(_, a)| a.compile_arg(in_schema)).collect();

    let chunks = if pool.threads() <= 1 {
        1
    } else {
        (pool.threads() * CHUNKS_PER_THREAD).min(runs.len())
    };
    let per_chunk = runs.len().div_ceil(chunks.max(1));
    let results: Vec<Result<Vec<Event>>> = pool.run(chunks, |chunk| {
        let mut sweep = Sweep::default();
        let (mut lifetimes, mut args, mut prefix) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        for r in chunk * per_chunk..((chunk + 1) * per_chunk).min(runs.len()) {
            // The sub-plan's AlterLifetime, then the Aggregate's argument
            // evaluation, over the run's surviving events in input order.
            lifetimes.clear();
            args.clear();
            let run = runs.run(r);
            for &i in run {
                let e = &events[i];
                let Some(lt) = window.map_or(Some(e.lifetime), |op| transform(e.lifetime, op))
                else {
                    continue;
                };
                lifetimes.push(lt);
                for arg in &compiled {
                    args.push(match arg {
                        None => Value::Null,
                        Some(arg) => arg.eval(&e.payload)?,
                    });
                }
            }
            if lifetimes.is_empty() {
                continue; // a Hop dropped the whole group
            }
            prefix.clear();
            prefix.extend(
                sel.indices()
                    .iter()
                    .map(|&k| events[run[0]].payload.get(k).clone()),
            );
            sweep.run(
                lifetimes.len(),
                |j| lifetimes[j],
                aggs,
                &args,
                &prefix,
                &mut out,
            );
        }
        Ok(out)
    });
    concat_in_order(out_schema, results)
}

#[cfg(test)]
mod tests {
    // GroupApply needs the executor to run its sub-plan; behavioral tests
    // live in `crate::exec` where the recursion is available. Here we test
    // only the partition-and-prepend mechanics with a stub sub-plan runner.
    use super::*;
    use crate::agg::AggExpr;
    use crate::expr::col;
    use crate::plan::Query;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn count_stub(_plan: &LogicalPlan, group: EventStream) -> Result<EventStream> {
        // Stub: emit one point event with the number of group events.
        let s = Schema::new(vec![Field::new("S", ColumnType::Long)]);
        Ok(EventStream::new(
            s,
            vec![Event::point(0, row![group.len() as i64])],
        ))
    }

    fn sum_plan(schema: &Schema) -> LogicalPlan {
        let q = Query::new();
        let out = q
            .source("x", schema.clone())
            .aggregate(vec![("S".into(), AggExpr::Sum(col("V")))]);
        q.build(vec![out]).unwrap()
    }

    #[test]
    fn partitions_and_prepends_keys() {
        let schema = Schema::new(vec![
            Field::new("Id", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ]);
        let input = EventStream::new(
            schema.clone(),
            vec![
                Event::point(1, row!["b", 10i64]),
                Event::point(2, row!["a", 20i64]),
                Event::point(3, row!["b", 30i64]),
            ],
        );
        let g = sum_plan(&schema);
        let out = group_apply(
            input,
            &["Id".to_string()],
            &g,
            &WorkerPool::sequential(),
            &count_stub,
        )
        .unwrap();
        assert_eq!(out.schema().names(), vec!["Id", "S"]);
        // Groups in sorted key order: "a" then "b".
        assert_eq!(out.events()[0].payload, row!["a", 1i64]);
        assert_eq!(out.events()[1].payload, row!["b", 2i64]);
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let schema = Schema::new(vec![
            Field::new("Id", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ]);
        let events: Vec<Event> = (0..200)
            .map(|i| Event::point(i as i64, row![format!("u{}", i % 17), i as i64]))
            .collect();
        let g = sum_plan(&schema);
        let run = |threads: usize| {
            group_apply(
                EventStream::new(schema.clone(), events.clone()),
                &["Id".to_string()],
                &g,
                &WorkerPool::new(threads),
                &count_stub,
            )
            .unwrap()
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            assert_eq!(sequential.events(), parallel.events(), "threads={threads}");
        }
    }
}
