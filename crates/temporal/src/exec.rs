//! Batch execution of CQ plans.
//!
//! Evaluates a [`LogicalPlan`] bottom-up over fully materialized input
//! streams, memoizing each node's output so DAG fan-out (Multicast) computes
//! shared sub-plans once. This is the engine TiMR embeds inside every
//! map-reduce reducer (paper §III-A step 4): the reducer binds its partition
//! of rows to the fragment's `Source` leaves and returns the root stream.
//!
//! Execution is consumer-count aware: every operator receives its inputs
//! **by value**. A single-consumer intermediate is moved straight into its
//! parent, so in-place operators (Filter, AlterLifetime, …) mutate it with
//! no copy; a Multicast result is cached with its remaining-consumer count,
//! handed out as O(1) Arc-backed clones, and *moved out* of the cache to
//! its final consumer — the last consumer gets uniquely-owned storage, not
//! a deep clone.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::operators;
use crate::plan::{self, LogicalPlan, NodeId, Operator};
use crate::stream::EventStream;
use pool::WorkerPool;
use relation::Schema;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Named input bindings for a plan's `Source` leaves.
pub type Bindings = FxHashMap<String, EventStream>;

/// Named input bindings in either physical layout (see [`StreamData`]).
pub type DataBindings = FxHashMap<String, StreamData>;

/// Event data in either physical layout.
///
/// `Rows` is the universal form every operator accepts; `Batch` is the
/// column-major form produced under [`ExecMode::Columnar`] and consumed by
/// the operators with columnar kernels (Filter, Project, AlterLifetime,
/// GroupApply key extraction). Operators without a kernel convert a batch
/// back to rows at their input — the automatic fallback that keeps every
/// plan runnable in every mode.
#[derive(Debug, Clone)]
pub enum StreamData {
    /// Row-major event storage.
    Rows(EventStream),
    /// Column-major event storage.
    Batch(EventBatch),
}

impl StreamData {
    /// Payload schema, whichever the layout.
    pub fn schema(&self) -> &Schema {
        match self {
            StreamData::Rows(s) => s.schema(),
            StreamData::Batch(b) => b.schema(),
        }
    }

    /// Convert to the row-major stream (free for `Rows`).
    pub fn into_stream(self) -> EventStream {
        match self {
            StreamData::Rows(s) => s,
            StreamData::Batch(b) => b.into_stream(),
        }
    }

    /// Convert to row form in place (used before a binding is shared, so
    /// every subsequent clone is an O(1) Arc bump instead of a deep batch
    /// copy).
    pub fn make_rows(&mut self) {
        if matches!(self, StreamData::Batch(_)) {
            let data = std::mem::replace(
                self,
                StreamData::Rows(EventStream::empty(Schema::new(Vec::new()))),
            );
            *self = StreamData::Rows(data.into_stream());
        }
    }
}

/// Wrap row bindings in the layout-agnostic form.
pub fn data_bindings(sources: Bindings) -> DataBindings {
    sources
        .into_iter()
        .map(|(n, s)| (n, StreamData::Rows(s)))
        .collect()
}

/// Which operator implementations the executor dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compiled: index-resolved expressions, hash-then-compare keys,
    /// in-place single-consumer execution (the default).
    #[default]
    Compiled,
    /// The PR 1 interpreted operators ([`operators::interpreted`]):
    /// per-row name resolution and clone-based streams. Kept as the
    /// benchmark baseline; output is byte-identical to `Compiled`.
    Interpreted,
    /// Compiled operators plus column-major execution: sources whose
    /// payloads fit their declared types are transposed into
    /// [`EventBatch`]es and flow through vectorized kernels, falling back
    /// to the row path per operator (and per source) whenever no columnar
    /// form applies. Output is byte-identical to `Compiled`.
    Columnar,
    /// Columnar execution plus fragment fusion: the plan is rewritten by
    /// [`crate::plan::fuse_plan`] so every maximal stateless chain (Filter
    /// / Project / AlterLifetime, including chains inside GroupApply
    /// sub-plans) runs as a single-pass [`Operator::FusedFragment`] on the
    /// SIMD kernel suite, with no intermediate batch between steps. Output
    /// is byte-identical to `Compiled`.
    Fused,
}

/// Execution choices threaded through the executor: which operator
/// implementations to dispatch to, and the worker pool GroupApply fans
/// groups out on.
///
/// The pool defaults to sequential, so plain `execute_*` calls behave
/// exactly as before. The TiMR reducer builds its options from the
/// cluster's [`ReducerContext`] pool handle, so standalone executions and
/// embedded reducers share one pool configuration end to end. Output is
/// byte-identical for every pool width (groups merge in sorted-key
/// order), so options only affect performance, never results.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Operator-implementation mode.
    pub mode: ExecMode,
    /// Worker pool for intra-operator (per-group) parallelism.
    pub pool: Arc<WorkerPool>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::default(),
            pool: Arc::new(WorkerPool::sequential()),
        }
    }
}

impl ExecOptions {
    /// Default options with an explicit mode.
    pub fn with_mode(mode: ExecMode) -> Self {
        ExecOptions {
            mode,
            ..ExecOptions::default()
        }
    }

    /// Replace the pool with a fresh one of `threads` workers.
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = Arc::new(WorkerPool::new(threads));
        self
    }

    /// Share an existing pool handle.
    pub fn on_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }
}

/// Build bindings from `(name, stream)` pairs.
pub fn bindings(pairs: Vec<(&str, EventStream)>) -> Bindings {
    pairs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// Execute `plan` against `sources`; returns one stream per plan output.
pub fn execute(plan: &LogicalPlan, sources: &Bindings) -> Result<Vec<EventStream>> {
    execute_with_mode(plan, sources, ExecMode::Compiled)
}

/// Execute `plan` with an explicit operator-implementation mode.
///
/// The caller keeps its bindings, so every source stream stays shared
/// (Arc-backed) and the first operator over each source copies survivors.
/// Callers that rebuild bindings per invocation — the embedded DSMS
/// reducer decodes a fresh partition every reduce call — should use
/// [`execute_owned`] instead to hand the executor unique storage.
pub fn execute_with_mode(
    plan: &LogicalPlan,
    sources: &Bindings,
    mode: ExecMode,
) -> Result<Vec<EventStream>> {
    execute_owned(plan, sources.clone(), mode) // O(1) per stream: Arc bumps
}

/// [`execute_with_mode`] with full [`ExecOptions`] (mode + worker pool).
pub fn execute_with_options(
    plan: &LogicalPlan,
    sources: &Bindings,
    options: &ExecOptions,
) -> Result<Vec<EventStream>> {
    execute_owned_with_options(plan, sources.clone(), options)
}

/// Execute `plan` taking **ownership** of the bindings. Each `Source`
/// stream is moved out of the map at its last reference in the plan, so
/// when the caller held the only handle, the first in-place operator
/// (Filter, AlterLifetime, …) mutates the decoded partition directly —
/// zero survivor clones.
pub fn execute_owned(
    plan: &LogicalPlan,
    sources: Bindings,
    mode: ExecMode,
) -> Result<Vec<EventStream>> {
    execute_owned_with_options(plan, sources, &ExecOptions::with_mode(mode))
}

/// [`execute_owned`] with full [`ExecOptions`] (mode + worker pool).
pub fn execute_owned_with_options(
    plan: &LogicalPlan,
    sources: Bindings,
    options: &ExecOptions,
) -> Result<Vec<EventStream>> {
    execute_owned_data(plan, data_bindings(sources), options)
}

/// Execute `plan` over layout-agnostic bindings: a binding may arrive
/// pre-transposed as a [`StreamData::Batch`] (the columnar reducer decodes
/// partitions straight into batches) or as plain rows. Under
/// [`ExecMode::Columnar`] row-form sources are transposed at their last
/// reference; in every other mode batches are converted back to rows
/// before use, so the mode alone decides the physical path.
pub fn execute_owned_data(
    plan: &LogicalPlan,
    sources: DataBindings,
    options: &ExecOptions,
) -> Result<Vec<EventStream>> {
    Ok(execute_data(plan, sources, options)?
        .into_iter()
        .map(StreamData::into_stream)
        .collect())
}

/// [`execute_owned_data`] without the final row conversion: each root is
/// returned in whatever physical layout it finished in. Batch-resident
/// callers — the binary-extent encoder, engine benchmarks — consume the
/// columnar root directly instead of paying a batch→rows→batch round trip.
pub fn execute_data(
    plan: &LogicalPlan,
    sources: DataBindings,
    options: &ExecOptions,
) -> Result<Vec<StreamData>> {
    // Fused mode rewrites the plan first (idempotent: a pre-fused plan —
    // e.g. one annotated at compile time — passes through unchanged).
    let fused;
    let plan = if options.mode == ExecMode::Fused {
        fused = crate::plan::fuse_plan(plan)?;
        &fused
    } else {
        plan
    };
    let mut exec = Executor {
        source_refs: source_refs(plan),
        sources,
        group_input: None,
        cache: FxHashMap::default(),
        counts: consumer_counts(plan),
        mode: options.mode,
        pool: Arc::clone(&options.pool),
    };
    plan.roots()
        .iter()
        .map(|&root| exec.eval(plan, root))
        .collect()
}

/// Execute a single-output plan and return its only stream.
pub fn execute_single(plan: &LogicalPlan, sources: &Bindings) -> Result<EventStream> {
    execute_single_with_mode(plan, sources, ExecMode::Compiled)
}

/// Execute a single-output plan with an explicit mode.
pub fn execute_single_with_mode(
    plan: &LogicalPlan,
    sources: &Bindings,
    mode: ExecMode,
) -> Result<EventStream> {
    single(execute_with_mode(plan, sources, mode)?)
}

/// Execute a single-output plan with full [`ExecOptions`].
pub fn execute_single_with_options(
    plan: &LogicalPlan,
    sources: &Bindings,
    options: &ExecOptions,
) -> Result<EventStream> {
    single(execute_with_options(plan, sources, options)?)
}

/// Execute a single-output plan taking ownership of the bindings
/// (see [`execute_owned`]).
pub fn execute_single_owned(
    plan: &LogicalPlan,
    sources: Bindings,
    mode: ExecMode,
) -> Result<EventStream> {
    single(execute_owned(plan, sources, mode)?)
}

/// Execute a single-output plan taking ownership of the bindings, with
/// full [`ExecOptions`].
pub fn execute_single_owned_with_options(
    plan: &LogicalPlan,
    sources: Bindings,
    options: &ExecOptions,
) -> Result<EventStream> {
    single(execute_owned_with_options(plan, sources, options)?)
}

/// Execute a single-output plan over layout-agnostic bindings and return
/// the root in whatever layout it finished in (see [`execute_data`]).
pub fn execute_single_data(
    plan: &LogicalPlan,
    sources: DataBindings,
    options: &ExecOptions,
) -> Result<StreamData> {
    let mut outputs = execute_data(plan, sources, options)?;
    if outputs.len() != 1 {
        return Err(TemporalError::Plan(format!(
            "expected a single-output plan, got {} outputs",
            outputs.len()
        )));
    }
    Ok(outputs.pop().unwrap())
}

/// Execute a single-output plan over layout-agnostic bindings
/// (see [`execute_owned_data`]).
pub fn execute_single_owned_data(
    plan: &LogicalPlan,
    sources: DataBindings,
    options: &ExecOptions,
) -> Result<EventStream> {
    single(execute_owned_data(plan, sources, options)?)
}

fn single(mut outputs: Vec<EventStream>) -> Result<EventStream> {
    if outputs.len() != 1 {
        return Err(TemporalError::Plan(format!(
            "expected a single-output plan, got {} outputs",
            outputs.len()
        )));
    }
    Ok(outputs.pop().unwrap())
}

struct Executor<'a> {
    /// Owned source bindings, drained as the plan consumes them: a stream
    /// is moved out at its last `Source` reference.
    sources: DataBindings,
    /// Remaining `Source`-node references per binding name. Names also
    /// referenced inside GroupApply sub-plans are pinned to `u32::MAX`
    /// (evaluated once per group — they must never be moved out).
    source_refs: FxHashMap<String, u32>,
    /// Bound stream for `GroupInput` when running a GroupApply sub-plan.
    group_input: Option<&'a EventStream>,
    /// Multicast results awaiting further consumers: stream + how many
    /// consumers have not taken it yet.
    cache: FxHashMap<NodeId, (EventStream, u32)>,
    counts: Vec<u32>,
    mode: ExecMode,
    /// Worker pool GroupApply fans groups out on (sequential by default).
    pool: Arc<WorkerPool>,
}

/// Number of consumers per node, **including plan roots** (each root is
/// consumed once by the caller). Only nodes with more than one consumer —
/// Multicast fan-out — need their results cached; single-consumer
/// intermediates are moved, not cloned, and the cached entry is moved out
/// on its last consumer.
fn consumer_counts(plan: &LogicalPlan) -> Vec<u32> {
    let mut counts = vec![0u32; plan.nodes().len()];
    for node in plan.nodes() {
        for &input in &node.inputs {
            counts[input] += 1;
        }
    }
    for &root in plan.roots() {
        counts[root] += 1;
    }
    counts
}

/// Remaining `Source` references per binding name, counted across the
/// whole plan. A name referenced inside a GroupApply sub-plan is pinned
/// to `u32::MAX`: the sub-plan runs once per group, so its sources can
/// never be drained from the outer bindings.
fn source_refs(plan: &LogicalPlan) -> FxHashMap<String, u32> {
    let mut refs = FxHashMap::default();
    collect_source_refs(plan, false, &mut refs);
    refs
}

fn collect_source_refs(plan: &LogicalPlan, pin: bool, refs: &mut FxHashMap<String, u32>) {
    for node in plan.nodes() {
        match &node.op {
            Operator::Source { name, .. } => {
                let entry = refs.entry(name.clone()).or_insert(0);
                *entry = if pin {
                    u32::MAX
                } else {
                    entry.saturating_add(1)
                };
            }
            Operator::GroupApply { subplan, .. } => {
                collect_source_refs(subplan, true, refs);
            }
            _ => {}
        }
    }
}

impl<'a> Executor<'a> {
    fn eval(&mut self, plan: &LogicalPlan, id: NodeId) -> Result<StreamData> {
        if let Some((stream, remaining)) = self.cache.get_mut(&id) {
            *remaining -= 1;
            if *remaining == 0 {
                // Last consumer: move the stream out instead of cloning,
                // so downstream in-place operators get unique ownership.
                let (stream, _) = self.cache.remove(&id).expect("entry just seen");
                return Ok(StreamData::Rows(stream));
            }
            return Ok(StreamData::Rows(stream.clone())); // O(1): Arc-backed storage
        }
        let node = plan.node(id);
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            inputs.push(self.eval(plan, input)?);
        }
        let out = self.apply(plan, &node.op, inputs)?;
        let consumers = self.counts.get(id).copied().unwrap_or(0);
        if consumers > 1 {
            // Multicast results are cached in row form so each further
            // consumer takes an O(1) Arc clone, never a deep batch copy.
            let stream = out.into_stream();
            self.cache.insert(id, (stream.clone(), consumers - 1));
            return Ok(StreamData::Rows(stream));
        }
        Ok(out)
    }

    fn apply(
        &mut self,
        _plan: &LogicalPlan,
        op: &Operator,
        mut inputs: Vec<StreamData>,
    ) -> Result<StreamData> {
        let interpreted = self.mode == ExecMode::Interpreted;
        Ok(match op {
            Operator::Source { name, schema } => {
                let data = self.sources.get(name).ok_or_else(|| {
                    TemporalError::Input(format!("no binding for source `{name}`"))
                })?;
                if data.schema() != schema {
                    return Err(TemporalError::Input(format!(
                        "source `{name}` bound with schema {}, plan expects {schema}",
                        data.schema()
                    )));
                }
                let remaining = self
                    .source_refs
                    .get_mut(name)
                    .expect("source_refs covers every Source in the plan");
                if *remaining != u32::MAX {
                    *remaining -= 1;
                }
                if *remaining == 0 {
                    // Last reference: move the binding out. When the caller
                    // gave up its handle (execute_owned), downstream
                    // in-place operators now own the storage outright.
                    let data = self.sources.remove(name).expect("binding just seen");
                    match (self.mode, data) {
                        // Columnar/Fused: transpose a row-form source at its
                        // last reference; payloads that don't fit their
                        // declared types stay rows (the fallback path).
                        (ExecMode::Columnar | ExecMode::Fused, StreamData::Rows(s)) => {
                            match EventBatch::from_stream(&s) {
                                Some(b) => StreamData::Batch(b),
                                None => StreamData::Rows(s),
                            }
                        }
                        (ExecMode::Columnar | ExecMode::Fused, data) => data,
                        // Row modes never see a batch: a pre-decoded one is
                        // converted right here.
                        (_, data) => StreamData::Rows(data.into_stream()),
                    }
                } else {
                    // Shared reference: force row form in place so this and
                    // every later clone is an O(1) Arc bump.
                    let data = self.sources.get_mut(name).expect("binding just seen");
                    data.make_rows();
                    data.clone()
                }
            }
            Operator::GroupInput { .. } => StreamData::Rows(
                self.group_input
                    .ok_or_else(|| {
                        TemporalError::Plan("GroupInput outside a GroupApply sub-plan".into())
                    })?
                    .clone(),
            ),
            Operator::Filter { predicate } => match inputs.pop().expect("filter has one input") {
                StreamData::Batch(b) => StreamData::Batch(operators::filter_batch(b, predicate)?),
                data => {
                    let input = data.into_stream();
                    StreamData::Rows(if interpreted {
                        operators::interpreted::filter(&input, predicate)?
                    } else {
                        operators::filter(input, predicate)?
                    })
                }
            },
            Operator::Project { exprs } => {
                match inputs.pop().expect("project has one input") {
                    StreamData::Batch(b) => match operators::project_batch(&b, exprs)? {
                        Some(out) => StreamData::Batch(out),
                        // Some expression's output has no dense column form
                        // (mixed runtime types): fall back to the row path.
                        None => StreamData::Rows(operators::project(b.into_stream(), exprs)?),
                    },
                    data => {
                        let input = data.into_stream();
                        StreamData::Rows(if interpreted {
                            operators::interpreted::project(&input, exprs)?
                        } else {
                            operators::project(input, exprs)?
                        })
                    }
                }
            }
            Operator::AlterLifetime { op } => {
                match inputs.pop().expect("alter_lifetime has one input") {
                    StreamData::Batch(b) => {
                        StreamData::Batch(operators::alter_lifetime_batch(b, op)?)
                    }
                    data => {
                        let input = data.into_stream();
                        StreamData::Rows(if interpreted {
                            operators::interpreted::alter_lifetime(&input, op)?
                        } else {
                            operators::alter_lifetime(input, op)?
                        })
                    }
                }
            }
            Operator::FusedFragment { steps } => {
                match inputs.pop().expect("fused fragment has one input") {
                    StreamData::Batch(b) => operators::fused_fragment_batch(b, steps)?,
                    data => {
                        StreamData::Rows(operators::fused_fragment_rows(data.into_stream(), steps)?)
                    }
                }
            }
            Operator::Aggregate { aggs } => {
                match inputs.pop().expect("aggregate has one input") {
                    // Batch input: arguments evaluate through the reusable
                    // scratch-row loop, lifetimes sweep straight off the
                    // columnar vectors — no stream materialization.
                    StreamData::Batch(b) => StreamData::Rows(operators::aggregate_batch(&b, aggs)?),
                    data => {
                        let input = data.into_stream();
                        StreamData::Rows(if interpreted {
                            operators::interpreted::aggregate(&input, aggs)?
                        } else {
                            operators::aggregate(&input, aggs)?
                        })
                    }
                }
            }
            Operator::GroupApply { keys, subplan } => {
                let input = inputs.pop().expect("group_apply has one input");
                // `GroupInput → [AlterLifetime] → Aggregate` runs as one
                // keyed endpoint sweep instead of a sub-plan per group;
                // Interpreted keeps the per-group sub-plan as the oracle.
                if let Some((window, aggs)) =
                    plan::window_aggregate(subplan).filter(|_| !interpreted)
                {
                    let pool = &self.pool;
                    return Ok(StreamData::Rows(match input {
                        StreamData::Batch(b) => {
                            operators::group_aggregate_batch(b, keys, window, aggs, pool)?
                        }
                        data => operators::group_aggregate(
                            data.into_stream(),
                            keys,
                            window,
                            aggs,
                            pool,
                        )?,
                    }));
                }
                // Hoisted out of the per-group closure: the ref/consumer
                // tables are recomputed per plan, not per group, and the
                // sub-bindings stay empty unless the sub-plan actually
                // names outer sources (rare — sub-plans read GroupInput).
                let sub_refs = source_refs(subplan);
                let sub_counts = consumer_counts(subplan);
                let sub_sources = if sub_refs.is_empty() {
                    DataBindings::default()
                } else {
                    // Shared once per group: force row form so the per-group
                    // clones below are O(1) Arc bumps.
                    let mut shared = self.sources.clone(); // O(1) per rows stream
                    for data in shared.values_mut() {
                        data.make_rows();
                    }
                    shared
                };
                let mode = self.mode;
                let pool = Arc::clone(&self.pool);
                // `Fn`, not `FnMut`: groups run concurrently on the pool,
                // each with its own inner Executor over shared (Arc-backed)
                // sub-bindings. Nested GroupApplies reuse the same pool
                // handle; its chunked scheduler just sees more tasks.
                let run = |sub: &LogicalPlan, group: EventStream| {
                    let mut inner = Executor {
                        sources: sub_sources.clone(),
                        source_refs: sub_refs.clone(),
                        group_input: Some(&group),
                        cache: FxHashMap::default(),
                        counts: sub_counts.clone(),
                        mode,
                        pool: Arc::clone(&pool),
                    };
                    inner.eval(sub, sub.roots()[0]).map(StreamData::into_stream)
                };
                StreamData::Rows(match input {
                    StreamData::Batch(b) => {
                        operators::group_apply_batch(b, keys, subplan, &pool, &run)?
                    }
                    data => {
                        let input = data.into_stream();
                        if interpreted {
                            let mut run = run;
                            operators::interpreted::group_apply(&input, keys, subplan, &mut run)?
                        } else {
                            operators::group_apply(input, keys, subplan, &pool, &run)?
                        }
                    }
                })
            }
            Operator::Union => {
                let inputs: Vec<EventStream> =
                    inputs.into_iter().map(StreamData::into_stream).collect();
                StreamData::Rows(if interpreted {
                    let refs: Vec<&EventStream> = inputs.iter().collect();
                    operators::interpreted::union(&refs)?
                } else {
                    operators::union(inputs)?
                })
            }
            Operator::TemporalJoin { keys, residual } => {
                let right = inputs
                    .pop()
                    .expect("temporal_join has two inputs")
                    .into_stream();
                let left = inputs
                    .pop()
                    .expect("temporal_join has two inputs")
                    .into_stream();
                StreamData::Rows(if interpreted {
                    operators::interpreted::temporal_join(&left, &right, keys, residual.as_ref())?
                } else {
                    operators::temporal_join(&left, &right, keys, residual.as_ref())?
                })
            }
            Operator::AntiSemiJoin { keys } => {
                let right = inputs
                    .pop()
                    .expect("anti_semi_join has two inputs")
                    .into_stream();
                let left = inputs
                    .pop()
                    .expect("anti_semi_join has two inputs")
                    .into_stream();
                StreamData::Rows(if interpreted {
                    operators::interpreted::anti_semi_join(&left, &right, keys)?
                } else {
                    operators::anti_semi_join(left, &right, keys)?
                })
            }
            Operator::HopUdo { hop, width, udo } => {
                let input = inputs.pop().expect("hop_udo has one input").into_stream();
                StreamData::Rows(if interpreted {
                    operators::interpreted::hop_udo(&input, *hop, *width, udo)?
                } else {
                    operators::hop_udo(input, *hop, *width, udo)?
                })
            }
            // One implementation for every mode: expansion rebuilds the
            // event vector either way, and a single code path keeps the
            // four modes byte-identical by construction.
            Operator::SpreadGrid { grid } => {
                let input = inputs
                    .pop()
                    .expect("spread_grid has one input")
                    .into_stream();
                StreamData::Rows(operators::spread_grid(input, *grid)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::event::Event;
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use crate::time::Lifetime;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn bt_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    fn sample_events() -> EventStream {
        // Clicks (StreamId=1) on two ads by two users, plus a search.
        EventStream::new(
            bt_schema(),
            vec![
                Event::point(10, row![10i64, 1i32, "u1", "adA"]),
                Event::point(20, row![20i64, 1i32, "u2", "adA"]),
                Event::point(25, row![25i64, 2i32, "u1", "cars"]),
                Event::point(200, row![200i64, 1i32, "u1", "adB"]),
            ],
        )
    }

    #[test]
    fn running_click_count_end_to_end() {
        // Example 1: per-ad click count over a 100-tick window.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("ClickCount"));
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        let n = result.normalize();
        assert_eq!(
            n.events(),
            &[
                Event::interval(10, 20, row!["adA", 1i64]),
                Event::interval(20, 110, row!["adA", 2i64]),
                Event::interval(110, 120, row!["adA", 1i64]),
                Event::interval(200, 300, row!["adB", 1i64]),
            ]
        );
    }

    #[test]
    fn multicast_subplans_run_once_and_agree() {
        // One source feeding two filters then a union: the source node must
        // be evaluated once (cache) and results must be consistent.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let out = clicks.union(searches);
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn multi_output_plans_return_each_root() {
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let plan = q.build(vec![clicks, searches]).unwrap();
        let outs = execute(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].len(), 3);
        assert_eq!(outs[1].len(), 1);
    }

    #[test]
    fn missing_binding_is_an_error() {
        let q = Query::new();
        let out = q.source("input", bt_schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        assert!(matches!(
            execute_single(&plan, &bindings(vec![])),
            Err(TemporalError::Input(_))
        ));
    }

    #[test]
    fn wrong_source_schema_is_an_error() {
        let q = Query::new();
        let out = q.source("input", bt_schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        let wrong = EventStream::empty(Schema::timestamped(vec![]));
        assert!(execute_single(&plan, &bindings(vec![("input", wrong)])).is_err());
    }

    #[test]
    fn nested_group_apply() {
        // Group by user, then inside each user group, group by keyword.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .group_apply(&["UserId"], |g| {
                g.group_apply(&["KwAdId"], |k| k.window(50).count("N"))
            });
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        let n = result.normalize();
        assert_eq!(n.schema().names(), vec!["UserId", "KwAdId", "N"]);
        assert!(n
            .events()
            .iter()
            .any(|e| e.payload == row!["u1", "cars", 1i64] && e.lifetime == Lifetime::new(25, 75)));
    }

    #[test]
    fn physical_order_does_not_change_results() {
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();

        let forward = sample_events();
        let mut reversed_events = forward.events().to_vec();
        reversed_events.reverse();
        let reversed = EventStream::new(bt_schema(), reversed_events);

        let a = execute_single(&plan, &bindings(vec![("input", forward)])).unwrap();
        let b = execute_single(&plan, &bindings(vec![("input", reversed)])).unwrap();
        assert!(a.same_relation(&b));
    }

    #[test]
    fn interpreted_and_compiled_modes_agree_exactly() {
        // Not just the same relation: byte-identical event vectors, the
        // repeatability requirement for restarted reducers.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let out = clicks
            .union(searches)
            .group_apply(&["UserId", "KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("input", sample_events())]);
        let compiled = execute_single_with_mode(&plan, &srcs, ExecMode::Compiled).unwrap();
        let interpreted = execute_single_with_mode(&plan, &srcs, ExecMode::Interpreted).unwrap();
        let columnar = execute_single_with_mode(&plan, &srcs, ExecMode::Columnar).unwrap();
        assert_eq!(compiled, interpreted);
        assert_eq!(compiled, columnar);
    }

    #[test]
    fn columnar_mode_agrees_on_single_chain_plans() {
        // Filter → project → window chain: the whole prefix runs on
        // batches under Columnar; outputs must be byte-identical.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("KwAdId".to_string(), col("KwAdId")),
                ("T2".to_string(), col("Time").add(lit(1i64))),
            ])
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("input", sample_events())]);
        let row = execute_single_with_mode(&plan, &srcs, ExecMode::Compiled).unwrap();
        let colr = execute_single_with_mode(&plan, &srcs, ExecMode::Columnar).unwrap();
        assert_eq!(row, colr);
    }

    #[test]
    fn columnar_mode_accepts_predecoded_batches() {
        // A binding handed over already in batch form flows straight
        // through the columnar kernels.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)));
        let plan = q.build(vec![out]).unwrap();
        let stream = sample_events();
        let batch = crate::batch::EventBatch::from_stream(&stream).unwrap();
        let mut srcs = DataBindings::default();
        srcs.insert("input".to_string(), StreamData::Batch(batch));
        let opts = ExecOptions::with_mode(ExecMode::Columnar);
        let out = single(execute_owned_data(&plan, srcs, &opts).unwrap()).unwrap();
        let expected = execute_single(&plan, &bindings(vec![("input", stream)])).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn multicast_cache_moves_out_on_last_consumer() {
        // A diamond (source → two filters → union) evaluated through the
        // counting cache must still produce the right result and leave the
        // cache empty (every entry moved out by its last consumer).
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let a = input.clone().filter(col("StreamId").eq(lit(1)));
        let b = input.filter(col("StreamId").ge(lit(1)));
        let out = a.union(b);
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("input", sample_events())]);
        let mut exec = Executor {
            source_refs: source_refs(&plan),
            sources: data_bindings(srcs),
            group_input: None,
            cache: FxHashMap::default(),
            counts: consumer_counts(&plan),
            mode: ExecMode::Compiled,
            pool: Arc::new(WorkerPool::sequential()),
        };
        let result = exec.eval(&plan, plan.roots()[0]).unwrap().into_stream();
        assert_eq!(result.len(), 7); // 3 clicks + all 4
        assert!(
            exec.cache.is_empty(),
            "all multicast entries should be moved out by their last consumer"
        );
    }
}
