//! Online aggregation (§4.2 AGGREGATE rule) with sketch state, bootstrap
//! trials, and registry publication.
//!
//! Certain input rows are folded into per-group *sketches* — the running
//! sum/count style compressed state of §4.2 ("any aggregate function that
//! can be computed using sub-linear space can maintain the state of
//! AGGREGATE space-efficiently using sketches"). Uncertain rows (the
//! upstream non-deterministic sets) are re-aggregated from scratch each
//! batch into a temporary sketch that is merged with the persistent one at
//! output time. When the aggregated expression itself reads uncertain
//! attributes, the input cannot be sketched (§4.2) and certain rows are
//! retained as rows and recomputed.
//!
//! Every batch the operator publishes each group's current value and
//! per-trial bootstrap values to the [`AggRegistry`], where downstream
//! lineage refs resolve them lazily and variation ranges are tracked.

use crate::channel::{BatchData, ORow};
use crate::ops::{BatchCtx, OnlineOp};
use crate::shard::{self, AccState, FoldFragment, FragKind, PartialGroup};
use iolap_engine::{Accumulator, AggCall, EngineError, RefMode};
use iolap_relation::{AggRef, Schema, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Cloneable box around a dynamic accumulator.
pub struct AccBox(pub Box<dyn Accumulator>);

impl Clone for AccBox {
    fn clone(&self) -> Self {
        AccBox(self.0.boxed_clone())
    }
}

impl fmt::Debug for AccBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccBox")
    }
}

/// Per-trial state for one aggregate call. SUM/COUNT/AVG — the sketchable
/// workhorses of §4.2 — use flat `f64` vectors (one slot per bootstrap
/// trial), which keeps the 100-trial piggyback close to the cost of a
/// vectorized pass instead of 100 boxed accumulator updates per row. Other
/// aggregates (UDAFs, VAR, MIN/MAX) fall back to boxed accumulators.
#[derive(Clone, Debug)]
enum TrialState {
    /// `a[t]` = Σ weight·x (or Σ weight for COUNT); `b[t]` = Σ weight over
    /// non-null inputs (presence/denominator).
    Fast {
        kind: FragKind,
        a: Vec<f64>,
        b: Vec<f64>,
    },
    Generic(Vec<AccBox>),
}

impl TrialState {
    fn new(kind: &iolap_engine::AggKind, trials: usize) -> TrialState {
        match FragKind::of(kind) {
            Some(kind) => TrialState::Fast {
                kind,
                a: vec![0.0; trials],
                b: vec![0.0; trials],
            },
            None => TrialState::Generic((0..trials).map(|_| AccBox(kind.accumulator())).collect()),
        }
    }

    /// Fold one row whose argument value is the same in every trial; only
    /// the Poisson weights differ — the vectorizable common case.
    fn update_value(&mut self, v: &Value, row: &ORow) {
        match self {
            TrialState::Fast { kind, a, b } => {
                let x = v.as_f64();
                if v.is_null() || (x.is_none() && *kind != FragKind::Count) {
                    return;
                }
                kind.fold_trials(a, b, x.unwrap_or(0.0), row);
            }
            TrialState::Generic(accs) => {
                for (t, acc) in accs.iter_mut().enumerate() {
                    acc.0.update(v, row.trial_weight(t));
                }
            }
        }
    }

    /// Fold one row whose argument value differs per trial (uncertain
    /// aggregate arguments resolved in `Trial(t)` mode).
    fn update_trial(&mut self, t: usize, v: &Value, w: f64) {
        match self {
            TrialState::Fast { kind, a, b } => {
                if v.is_null() {
                    return;
                }
                match kind {
                    FragKind::Count => a[t] += w,
                    FragKind::Sum | FragKind::Avg => {
                        if let Some(x) = v.as_f64() {
                            a[t] += w * x;
                            b[t] += w;
                        }
                    }
                }
            }
            TrialState::Generic(accs) => accs[t].0.update(v, w),
        }
    }

    /// Trial `t`'s output; `scale` applies to extensive kinds. NaN marks
    /// "no data in this resample" (filtered by range estimation).
    fn output_f64(&self, t: usize, scale: f64) -> f64 {
        match self {
            TrialState::Fast { kind, a, b } => match kind {
                FragKind::Count => a[t] * scale,
                // An empty resample of a SUM is genuinely 0 (every tuple
                // drawn 0 times), not missing — keeping it in the envelope
                // is what lets small groups' ranges honestly include 0.
                FragKind::Sum => a[t] * scale,
                FragKind::Avg => {
                    if b[t] > 0.0 {
                        a[t] / b[t]
                    } else {
                        f64::NAN
                    }
                }
            },
            TrialState::Generic(accs) => accs[t].0.output_f64(scale).unwrap_or(f64::NAN),
        }
    }

    fn merge(&mut self, other: &TrialState) -> Result<(), EngineError> {
        match (self, other) {
            (TrialState::Fast { a, b, .. }, TrialState::Fast { a: oa, b: ob, .. }) => {
                for (x, y) in a.iter_mut().zip(oa.iter()) {
                    *x += y;
                }
                for (x, y) in b.iter_mut().zip(ob.iter()) {
                    *x += y;
                }
                Ok(())
            }
            (TrialState::Generic(accs), TrialState::Generic(other)) => {
                for (x, y) in accs.iter_mut().zip(other.iter()) {
                    x.0.merge(y.0.as_ref())?;
                }
                Ok(())
            }
            // Trial-state kinds are fixed per aggregate call at plan time,
            // so merging mismatched kinds means the sketch maps diverged —
            // report it instead of panicking in the hot path.
            _ => Err(EngineError::Plan(
                "trial-state kind mismatch while merging aggregate sketches".to_string(),
            )),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            TrialState::Fast { a, b, .. } => (a.len() + b.len()) * 8,
            TrialState::Generic(accs) => accs.iter().map(|x| x.0.approx_bytes()).sum(),
        }
    }

    fn len(&self) -> usize {
        match self {
            TrialState::Fast { a, .. } => a.len(),
            TrialState::Generic(accs) => accs.len(),
        }
    }
}

/// Shard-dispatch instrumentation of one batch's `fold_rows` calls. Folds
/// run behind `&self` (workers and shard pools cannot write
/// `&mut Metrics`), so `process` records the totals after the folds.
#[derive(Clone, Copy, Debug, Default)]
struct FoldStats {
    /// Wall time of the shard-pool dispatch (0 when not offloaded).
    dispatch_ns: u64,
    /// Wall time of the coordinator-side partition-order merge.
    merge_ns: u64,
    /// Per-partition partials merged.
    partials: u64,
    /// Whether any fold of this batch went through the shard pool.
    offloaded: bool,
}

/// Group-key → sketch map, the working state of a fold.
type SketchMap = HashMap<Arc<[Value]>, GroupSketch>;

/// One grid partition's folded groups (keys distinct).
type PartitionGroups = Vec<(Arc<[Value]>, GroupSketch)>;

/// Merge `groups` into `into`: a group new to `into` moves in, an existing
/// one absorbs the incoming sketch.
fn merge_into(
    into: &mut SketchMap,
    groups: impl IntoIterator<Item = (Arc<[Value]>, GroupSketch)>,
) -> Result<(), EngineError> {
    for (key, group) in groups {
        match into.get_mut(&key) {
            Some(existing) => existing.merge(&group)?,
            None => {
                into.insert(key, group);
            }
        }
    }
    Ok(())
}

/// Per-group sketch: one main accumulator plus per-trial state, per
/// aggregate call.
#[derive(Clone, Debug)]
struct GroupSketch {
    /// `accs[call]` — main accumulators.
    accs: Vec<AccBox>,
    /// `trials[call]` — bootstrap trial state.
    trials: Vec<TrialState>,
    /// Whether any certain row contributed (drives output tuple
    /// uncertainty: `u#(t) = ⋀ u'#(t')`).
    has_certain: bool,
}

impl GroupSketch {
    fn new(aggs: &[AggCall], trials: usize) -> Self {
        GroupSketch {
            accs: aggs.iter().map(|a| AccBox(a.kind.accumulator())).collect(),
            trials: aggs
                .iter()
                .map(|a| TrialState::new(&a.kind, trials))
                .collect(),
            has_certain: false,
        }
    }

    fn merge(&mut self, other: &GroupSketch) -> Result<(), EngineError> {
        for (a, b) in self.accs.iter_mut().zip(other.accs.iter()) {
            a.0.merge(b.0.as_ref())?;
        }
        for (a, b) in self.trials.iter_mut().zip(other.trials.iter()) {
            a.merge(b)?;
        }
        self.has_certain |= other.has_certain;
        Ok(())
    }

    fn approx_bytes(&self) -> usize {
        self.accs.iter().map(|a| a.0.approx_bytes()).sum::<usize>()
            + self
                .trials
                .iter()
                .map(TrialState::approx_bytes)
                .sum::<usize>()
    }
}

/// Online AGGREGATE operator.
#[derive(Clone, Debug)]
pub struct AggregateOp {
    /// Input operator.
    pub child: Box<OnlineOp>,
    /// Group-by column indices in the input schema.
    pub group_cols: Vec<usize>,
    /// Aggregate calls.
    pub aggs: Vec<AggCall>,
    /// Output schema (group cols then aggregate cols).
    pub schema: Schema,
    /// Stable lineage-block id (`rel(γ)`, §6.1).
    pub agg_id: u32,
    /// Compile-time per-call flag: argument reads uncertain attributes.
    pub arg_uncertain: Vec<bool>,
    /// Compile-time: input rows can carry tuple uncertainty.
    pub input_tuple_uncertain: bool,
    /// Compile-time: subtree reads the streamed relation → extensive
    /// outputs are scaled by `m_i`.
    pub scale_stream: bool,
    sketch: SketchMap,
    /// Certain rows retained when sketching is impossible (uncertain
    /// aggregate arguments, §4.2).
    unsketchable_rows: Vec<ORow>,
    emitted_certain: HashSet<Arc<[Value]>>,
    /// Compiled fold of a vectorizable aggregate; `None` folds row at a
    /// time.
    frag: Option<FoldFragment>,
}

impl AggregateOp {
    /// New aggregate operator.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        child: OnlineOp,
        group_cols: Vec<usize>,
        aggs: Vec<AggCall>,
        schema: Schema,
        agg_id: u32,
        arg_uncertain: Vec<bool>,
        input_tuple_uncertain: bool,
        scale_stream: bool,
    ) -> Self {
        let frag = FoldFragment::compile(agg_id, &group_cols, &aggs, &arg_uncertain);
        AggregateOp {
            child: Box::new(child),
            group_cols,
            aggs,
            schema,
            agg_id,
            arg_uncertain,
            input_tuple_uncertain,
            scale_stream,
            sketch: HashMap::new(),
            unsketchable_rows: Vec::new(),
            emitted_certain: HashSet::new(),
            frag,
        }
    }

    fn push_outcomes(
        &self,
        key: &Arc<[Value]>,
        outcomes: Vec<iolap_bootstrap::RangeOutcome>,
        ctx: &mut BatchCtx<'_>,
    ) {
        for (c, o) in outcomes.into_iter().enumerate() {
            if matches!(o, iolap_bootstrap::RangeOutcome::Failure { .. }) {
                ctx.stats.failures += 1;
            }
            ctx.outcomes.push((
                AggRef {
                    agg: self.agg_id,
                    column: c as u16,
                    key: key.clone(),
                },
                o,
            ));
        }
    }

    fn sketchable(&self) -> bool {
        !self.arg_uncertain.iter().any(|b| *b)
    }

    /// Whether a fold fragment compiled for this aggregate. Exposed for
    /// the static verifier (V009): a fragment must never coexist with an
    /// uncertain aggregate argument.
    pub fn has_fragment(&self) -> bool {
        self.frag.is_some()
    }

    /// Bytes held in sketch + retained-row state.
    pub fn state_bytes(&self) -> usize {
        self.sketch
            .values()
            .map(GroupSketch::approx_bytes)
            .sum::<usize>()
            + self
                .unsketchable_rows
                .iter()
                .map(ORow::approx_bytes)
                .sum::<usize>()
    }

    fn fold_row(
        &self,
        sketch: &mut SketchMap,
        row: &ORow,
        certain: bool,
        registry: &crate::registry::AggRegistry,
        trials: usize,
    ) -> Result<(), EngineError> {
        let key = row.to_row().key(&self.group_cols);
        let entry = sketch
            .entry(key)
            .or_insert_with(|| GroupSketch::new(&self.aggs, trials));
        entry.has_certain |= certain;
        let r = row.to_row();
        let eval = iolap_engine::EvalContext::with_resolver(registry);
        for (c, call) in self.aggs.iter().enumerate() {
            if self.arg_uncertain[c] {
                // Argument reads lineage cells: per-trial argument values
                // differ, so evaluate in each mode.
                let v = call.input.eval(&r, &eval)?;
                entry.accs[c].0.update(&v, row.mult);
                for t in 0..trials {
                    let tv = call.input.eval(&r, &eval.with_mode(RefMode::Trial(t)))?;
                    entry.trials[c].update_trial(t, &tv, row.trial_weight(t));
                }
            } else {
                let v = call.input.eval(&r, &eval)?;
                entry.accs[c].0.update(&v, row.mult);
                entry.trials[c].update_value(&v, row);
            }
        }
        Ok(())
    }

    /// Fold one grid partition: through the fragment when one compiled
    /// and the partition carries no lineage cell in an argument column,
    /// row at a time otherwise.
    fn fold_partition(
        &self,
        rows: &[ORow],
        certain: bool,
        registry: &crate::registry::AggRegistry,
        trials: usize,
    ) -> Result<PartitionGroups, EngineError> {
        if let Some(groups) = self
            .frag
            .as_ref()
            .and_then(|f| shard::fold_partition(f, rows, certain))
        {
            return Ok(groups.into_iter().map(sketch_from_partial).collect());
        }
        let mut map = SketchMap::new();
        for row in rows {
            self.fold_row(&mut map, row, certain, registry, trials)?;
        }
        Ok(map.into_iter().collect())
    }

    /// Fold `rows` into per-group sketches over the partition-stable grid
    /// (`shard::PARTITION_ROWS`-row slices): each partition folds
    /// sequentially, partial maps merge in partition order. Because both
    /// the grid and the merge order derive only from the row count, the
    /// result is bit-identical whether the partitions run on this thread,
    /// across `ctx.parallelism` workers, or on remote shards via
    /// `ctx.shards` ("demonstrated … on over 100 machines" — §8's
    /// scale-up/scale-out equivalence). All three run the same fragment
    /// interpreter per partition.
    fn fold_rows(
        &self,
        rows: &[ORow],
        certain: bool,
        ctx: &BatchCtx<'_>,
        stats: &mut FoldStats,
    ) -> Result<SketchMap, EngineError> {
        let mut merged = SketchMap::new();
        if rows.is_empty() {
            return Ok(merged);
        }
        // Scale-out path: ship the fragment + rows to the shard pool and
        // merge the per-partition partials it returns. `Ok(None)` (the
        // pool cannot take this batch — lineage cells, unencodable rows)
        // falls through to the local fold of the *same* grid.
        if let Some(exec) = ctx.shards {
            if let Some(frag) = &self.frag {
                // An armed WorkerPanic fault fires here exactly once per
                // batch (the shard pool replaces the local worker threads);
                // catch it so it surfaces as the same `EngineError` the
                // local path's `join` conversion produces.
                if let Some(f) = ctx.faults {
                    let inject = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f.inject_worker_panic(ctx.batch_index)
                    }));
                    inject.map_err(worker_panicked)?;
                }
                let dispatch = crate::metrics::Span::start();
                // Forward the operator span as the fold's trace parent so
                // worker-side span summaries stitch under the right node.
                let trace_ctx = ctx.trace.map(|t| crate::shard::ShardTraceCtx {
                    tracer: t,
                    parent: ctx.cur_span,
                    batch: ctx.batch_index,
                });
                if let Some(mut partials) =
                    exec.fold_traced(frag, rows, certain, trace_ctx.as_ref())?
                {
                    stats.dispatch_ns += dispatch.elapsed().as_nanos() as u64;
                    stats.partials += partials.len() as u64;
                    stats.offloaded = true;
                    let merge = crate::metrics::Span::start();
                    partials.sort_by_key(|p| p.partition);
                    for part in partials {
                        merge_into(
                            &mut merged,
                            part.groups.into_iter().map(sketch_from_partial),
                        )?;
                    }
                    stats.merge_ns += merge.elapsed().as_nanos() as u64;
                    return Ok(merged);
                }
            }
        }
        // Local path: same grid, optionally spread over worker threads.
        // Workers own contiguous partition *blocks* but still fold and
        // ship one map per partition, so the coordinator-side merge tree
        // is the same with 1 worker or 8.
        let bounds: Vec<(usize, usize)> = shard::partition_bounds(rows.len()).collect();
        let registry: &crate::registry::AggRegistry = ctx.registry;
        let trials = ctx.trials;
        let fold_parts = |parts: &[(usize, usize)]| -> Result<Vec<_>, EngineError> {
            let mut out = Vec::with_capacity(parts.len());
            for &(s, e) in parts {
                out.push(self.fold_partition(&rows[s..e], certain, registry, trials)?);
            }
            Ok(out)
        };
        let workers = ctx.parallelism.max(1);
        type WorkerOut = Result<Vec<PartitionGroups>, EngineError>;
        let partials: Vec<WorkerOut> = if workers == 1 || rows.len() < 4 * workers {
            vec![fold_parts(&bounds)]
        } else {
            let per = bounds.len().div_ceil(workers);
            let faults = ctx.faults;
            let batch_index = ctx.batch_index;
            let fold_parts = &fold_parts;
            // A panicking worker (e.g. a poisoned UDAF) must not abort the
            // process: `scope` joins every handle, and a panic surfaces as
            // an `Err` from `join`, which we convert into an `EngineError`
            // so the driver can report a failed batch and keep going.
            std::thread::scope(|scope| {
                let handles: Vec<_> = bounds
                    .chunks(per)
                    .map(|parts| {
                        scope.spawn(move || {
                            if let Some(f) = faults {
                                f.inject_worker_panic(batch_index);
                            }
                            fold_parts(parts)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| Err(worker_panicked(p))))
                    .collect()
            })
        };
        for worker_parts in partials {
            for part in worker_parts? {
                merge_into(&mut merged, part)?;
            }
        }
        Ok(merged)
    }

    pub(crate) fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Aggregate");
        let input = self.child.process(ctx)?;
        ctx.stats.shipped_bytes += input.approx_bytes();
        let input_exhausted = input.exhausted;
        let mut out = BatchData::empty(self.schema.clone());
        if let Some(frag) = &mut self.frag {
            frag.trials = ctx.trials;
        }

        // Keys touched by this batch: fresh certain rows and everything on
        // the uncertain channel. Untouched groups only need their scale
        // refreshed in the registry (delta publication).
        let sketchable = self.sketchable();
        let mut shard_stats = FoldStats::default();
        let mut touched: HashSet<Arc<[Value]>>;
        if sketchable {
            // Fold fresh certain rows into the persistent sketch.
            // (Workers cannot write `&mut Metrics`, so folds are timed and
            // counted here, around the call.)
            let fold_span = crate::metrics::Span::start();
            let delta = self.fold_rows(&input.delta_certain, true, ctx, &mut shard_stats)?;
            fold_span.stop(&mut ctx.metrics, "agg.fold_ns");
            ctx.metrics
                .add("agg.fold_rows", input.delta_certain.len() as u64);
            // The delta map's key set is exactly the fresh rows' key set, so
            // reuse it instead of a second per-row key-allocation pass.
            touched = delta.keys().cloned().collect();
            merge_into(&mut self.sketch, delta)?;
        } else {
            self.unsketchable_rows
                .extend(input.delta_certain.iter().cloned());
            touched = input
                .delta_certain
                .iter()
                .map(|row| row.to_row().key(&self.group_cols))
                .collect();
        }

        // Temporary sketch over recomputed rows: the uncertain channel plus
        // (when unsketchable) all retained certain rows.
        let fold_span = crate::metrics::Span::start();
        let mut temp = self.fold_rows(&input.uncertain, false, ctx, &mut shard_stats)?;
        fold_span.stop(&mut ctx.metrics, "agg.fold_ns");
        ctx.metrics
            .add("agg.fold_rows", input.uncertain.len() as u64);
        if !sketchable {
            ctx.stats.recomputed_tuples += self.unsketchable_rows.len();
            let rows = std::mem::take(&mut self.unsketchable_rows);
            let refold_span = crate::metrics::Span::start();
            let certain_part = self.fold_rows(&rows, true, ctx, &mut shard_stats)?;
            refold_span.stop(&mut ctx.metrics, "agg.fold_ns");
            ctx.metrics.add("agg.refold_rows", rows.len() as u64);
            merge_into(&mut temp, certain_part)?;
            self.unsketchable_rows = rows;
        }
        touched.extend(temp.keys().cloned());

        // Scale-out instrumentation: only when a fold actually dispatched
        // to the shard pool, so un-sharded runs keep their metric set and
        // trace schema byte-identical.
        if shard_stats.offloaded {
            ctx.metrics
                .add("shard.dispatch_ns", shard_stats.dispatch_ns);
            ctx.metrics.add("shard.merge_ns", shard_stats.merge_ns);
            ctx.metrics.add("shard.partials", shard_stats.partials);
            ctx.trace_instant(
                "shard.dispatch",
                shard_stats.partials,
                "fragment dispatched to shard pool",
            );
            ctx.trace_instant(
                "shard.merge",
                shard_stats.partials,
                "partition-order partial merge",
            );
        }

        // Merge persistent ∪ temporary, publish, emit.
        let mut all_keys: Vec<Arc<[Value]>> = self.sketch.keys().cloned().collect();
        for k in temp.keys() {
            if !self.sketch.contains_key(k) {
                all_keys.push(k.clone());
            }
        }
        all_keys.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });

        let scale = if self.scale_stream { ctx.scale } else { 1.0 };
        let scales: Vec<f64> = self
            .aggs
            .iter()
            .map(|call| if call.kind.extensive() { scale } else { 1.0 })
            .collect();
        // Kind-based, not value-based: on the final batch m_i == 1.0 but
        // untouched groups still need their scale refreshed from the
        // previous batch's value.
        let any_extensive = self.scale_stream && self.aggs.iter().any(|c| c.kind.extensive());
        let mut emitted_uncertain = false;
        let publish_span = crate::metrics::Span::start();
        let mut groups_published = 0u64;
        let mut scale_refreshes = 0u64;
        for key in all_keys {
            if !touched.contains(&key) {
                // Delta publication: the group's unscaled sketch is
                // unchanged; only the extensive scale m_i moved. Refresh it
                // in O(1) per column.
                if any_extensive {
                    let outcomes =
                        ctx.registry
                            .refresh_scale(self.agg_id, &key, &scales, ctx.batch_index);
                    self.push_outcomes(&key, outcomes, ctx);
                    scale_refreshes += 1;
                }
                continue;
            }
            // Avoid cloning the persistent sketch when no uncertain rows
            // touched the group this batch.
            let mut merged_owned: Option<GroupSketch> = None;
            let merged: &GroupSketch = match (self.sketch.get(&key), temp.get(&key)) {
                (Some(p), Some(t)) => {
                    let mut m = p.clone();
                    m.merge(t)?;
                    merged_owned.get_or_insert(m)
                }
                (Some(p), None) => p,
                (None, Some(t)) => t,
                // `all_keys` is built from exactly these two maps, so a key
                // missing from both is sketch-bookkeeping corruption —
                // surface it as an engine error rather than aborting.
                (None, None) => {
                    return Err(EngineError::Plan(
                        "aggregate emitted a group key absent from both sketches".to_string(),
                    ))
                }
            };

            // Publish unscaled values + scales to the registry.
            let mut current = Vec::with_capacity(self.aggs.len());
            let mut trials_cols: Vec<Arc<[f64]>> = Vec::with_capacity(self.aggs.len());
            for (c, call) in self.aggs.iter().enumerate() {
                current.push(merged.accs[c].0.output(1.0));
                if call.kind.smooth() {
                    let n = merged.trials[c].len();
                    let tv: Vec<f64> = (0..n)
                        .map(|t| merged.trials[c].output_f64(t, 1.0))
                        .collect();
                    trials_cols.push(tv.into());
                } else {
                    // Non-smooth aggregates (MIN/MAX/COUNT DISTINCT, §3.3)
                    // get no bootstrap distribution: unbounded range,
                    // conservative classification.
                    trials_cols.push(Arc::from(Vec::<f64>::new()));
                }
            }
            let has_certain = merged.has_certain;
            let outcomes = ctx.registry.publish_at(
                self.agg_id,
                key.clone(),
                current.clone(),
                trials_cols,
                scales.clone(),
                ctx.slack,
                ctx.batch_index,
            );
            self.push_outcomes(&key, outcomes, ctx);
            groups_published += 1;

            // Emit the group row downstream.
            let emit_needed = !self.emitted_certain.contains(&key);
            if !emit_needed {
                continue;
            }
            let mut values: Vec<Value> = key.to_vec();
            for (c, sc) in scales.iter().enumerate() {
                let uncertain_out = self.input_tuple_uncertain || self.arg_uncertain[c];
                if uncertain_out {
                    values.push(Value::Ref(AggRef {
                        agg: self.agg_id,
                        column: c as u16,
                        key: key.clone(),
                    }));
                } else {
                    // Deterministic output (non-streamed subtree): the
                    // scale is 1, so unscaled == final.
                    debug_assert_eq!(*sc, 1.0);
                    values.push(current[c].clone());
                }
            }
            let row = ORow::new(values);
            if has_certain {
                out.delta_certain.push(row);
                self.emitted_certain.insert(key);
            } else {
                out.uncertain.push(row);
                emitted_uncertain = true;
            }
        }

        ctx.metrics.add("agg.groups_published", groups_published);
        ctx.metrics.add("agg.scale_refreshes", scale_refreshes);
        publish_span.stop(&mut ctx.metrics, "agg.publish_ns");

        // SQL semantics: a global aggregate over an empty input still yields
        // one row of "empty" outputs. Emit it transiently until real groups
        // appear.
        if self.group_cols.is_empty() && self.sketch.is_empty() && temp.is_empty() {
            let mut values = Vec::with_capacity(self.aggs.len());
            for call in &self.aggs {
                values.push(call.kind.accumulator().output(1.0));
            }
            out.uncertain.push(ORow::new(values));
            emitted_uncertain = true;
        }

        out.exhausted = if self.group_cols.is_empty() {
            // Global aggregate: one row, emitted; afterwards only the
            // registry changes.
            !self.emitted_certain.is_empty() && !emitted_uncertain
        } else {
            input_exhausted && !emitted_uncertain
        };
        ctx.close_op(sp, groups_published);
        Ok(out)
    }
}

/// A panicking fold worker (or an injected `WorkerPanic`) as the engine
/// error the driver recovers from.
fn worker_panicked(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    EngineError::Plan(format!(
        "aggregate fold worker panicked: {}",
        crate::faults::panic_message(payload)
    ))
}

/// Rebuild a fragment-folded partial group as a [`GroupSketch`] —
/// lossless: the partial already holds the engine accumulators (a wire
/// partial rebuilds them bit-for-bit via `from_state`), so a later
/// [`GroupSketch::merge`] adds exactly the floats a row-at-a-time fold of
/// the same partition would.
fn sketch_from_partial(pg: PartialGroup) -> (Arc<[Value]>, GroupSketch) {
    let key: Arc<[Value]> = pg.key.into();
    let mut accs = Vec::with_capacity(pg.calls.len());
    let mut trials = Vec::with_capacity(pg.calls.len());
    for call in pg.calls {
        let (acc, kind): (Box<dyn Accumulator>, FragKind) = match call.acc {
            AccState::Count(acc) => (Box::new(acc), FragKind::Count),
            AccState::Sum(acc) => (Box::new(acc), FragKind::Sum),
            AccState::Avg(acc) => (Box::new(acc), FragKind::Avg),
        };
        accs.push(AccBox(acc));
        trials.push(TrialState::Fast {
            kind,
            a: call.a,
            b: call.b,
        });
    }
    (
        key,
        GroupSketch {
            accs,
            trials,
            has_certain: pg.has_certain,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OnlineOp;
    use iolap_engine::{AggKind, BuiltinAgg, Expr};

    #[test]
    fn group_sketch_merge() {
        let aggs = vec![AggCall {
            kind: AggKind::Builtin(BuiltinAgg::Sum),
            input: Expr::Col(0),
            name: "s".into(),
        }];
        let mut a = GroupSketch::new(&aggs, 2);
        let mut b = GroupSketch::new(&aggs, 2);
        a.accs[0].0.update(&Value::Float(10.0), 1.0);
        b.accs[0].0.update(&Value::Float(5.0), 1.0);
        b.has_certain = true;
        a.merge(&b).unwrap();
        assert_eq!(a.accs[0].0.output(1.0), Value::Float(15.0));
        assert!(a.has_certain);
    }

    /// Main-accumulator state as raw bits (COUNT/SUM/AVG only).
    fn acc_bits(acc: &dyn Accumulator) -> Vec<u64> {
        use iolap_engine::{AvgAcc, CountAcc, SumAcc};
        let any = acc.as_any();
        if let Some(a) = any.downcast_ref::<CountAcc>() {
            vec![a.state().to_bits()]
        } else if let Some(a) = any.downcast_ref::<SumAcc>() {
            let (sum, seen) = a.state();
            vec![sum.to_bits(), u64::from(seen)]
        } else if let Some(a) = any.downcast_ref::<AvgAcc>() {
            let (sum, n) = a.state();
            vec![sum.to_bits(), n.to_bits()]
        } else {
            panic!("not a fragment accumulator")
        }
    }

    fn trial_bits(t: &TrialState) -> (FragKind, Vec<u64>) {
        let TrialState::Fast { kind, a, b } = t else {
            panic!("not a fragment trial state")
        };
        (
            *kind,
            a.iter().chain(b.iter()).map(|x| x.to_bits()).collect(),
        )
    }

    /// Fold `rows` as one partition through the fragment interpreter and
    /// through `fold_row`, assert the sketches are bit-identical, and
    /// return the interpreter's groups.
    fn fold_both_ways(group_cols: Vec<usize>, rows: &[ORow], certain: bool) -> SketchMap {
        const TRIALS: usize = 3;
        let call = |kind, input| AggCall {
            kind: AggKind::Builtin(kind),
            input,
            name: "a".into(),
        };
        let aggs = vec![
            call(BuiltinAgg::Count, Expr::Col(1)),
            call(BuiltinAgg::Sum, Expr::Col(1)),
            call(BuiltinAgg::Avg, Expr::Col(1)),
            call(BuiltinAgg::Count, Expr::Lit(Value::Int(1))),
        ];
        let n = aggs.len();
        let child = OnlineOp::Union(crate::ops::UnionOp::new(Vec::new()));
        let op = AggregateOp::new(
            child,
            group_cols,
            aggs,
            Schema::empty(),
            0,
            vec![false; n],
            false,
            true,
        );
        let mut frag = op.frag.clone().expect("COUNT/SUM/AVG over columns compile");
        frag.trials = TRIALS;
        let by_fragment: SketchMap = shard::fold_partition(&frag, rows, certain)
            .expect("no lineage cells")
            .into_iter()
            .map(sketch_from_partial)
            .collect();
        let registry = crate::registry::AggRegistry::new();
        let mut by_row = SketchMap::new();
        for row in rows {
            op.fold_row(&mut by_row, row, certain, &registry, TRIALS)
                .unwrap();
        }
        assert_eq!(by_fragment.len(), by_row.len());
        for (key, f) in &by_fragment {
            let r = &by_row[key];
            assert_eq!(f.has_certain, r.has_certain);
            for c in 0..n {
                assert_eq!(
                    acc_bits(f.accs[c].0.as_ref()),
                    acc_bits(r.accs[c].0.as_ref())
                );
                assert_eq!(
                    trial_bits(&f.trials[c]),
                    trial_bits(&r.trials[c]),
                    "{key:?} call {c}"
                );
            }
        }
        by_fragment
    }

    #[test]
    fn fragment_fold_is_bit_identical_to_the_row_fold() {
        // Arguments cover numbers, NULL and a string (folds only under
        // COUNT); rows alternate between weighted and unweighted.
        let args = [
            Value::Float(0.1),
            Value::Int(7),
            Value::Null,
            Value::str("x"),
            Value::Float(-2.5),
            Value::Float(1e16),
        ];
        let keys = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::str("k"),
            Value::Bool(true),
            Value::Null,
            Value::Int(-3),
        ];
        let rows: Vec<ORow> = (0..60)
            .map(|i| ORow {
                values: Arc::from(vec![
                    keys[i % keys.len()].clone(),
                    args[i % args.len()].clone(),
                    Value::Int(i as i64 % 2),
                ]),
                mult: 1.0 + (i % 3) as f64 * 0.5,
                weights: (i % 2 == 1).then(|| Arc::from(vec![0.0, 1.0, (i % 4) as f64])),
            })
            .collect();
        for certain in [true, false] {
            // Single-column keys of every variant: Int(1) and Float(1.0)
            // stay apart, NaN groups with itself.
            let single = fold_both_ways(vec![0], &rows, certain);
            assert_eq!(single.len(), keys.len());
            assert!(single.contains_key(&[Value::Int(1)][..]));
            assert!(single.contains_key(&[Value::Float(1.0)][..]));
            // Multi-column keys and the global (empty-key) group.
            assert_eq!(
                fold_both_ways(vec![0, 2], &rows, certain).len(),
                2 * keys.len()
            );
            assert_eq!(fold_both_ways(Vec::new(), &rows, certain).len(), 1);
        }
    }

    #[test]
    fn accbox_clone_is_deep() {
        let mut a = AccBox(AggKind::Builtin(BuiltinAgg::Sum).accumulator());
        a.0.update(&Value::Float(3.0), 1.0);
        let b = a.clone();
        a.0.update(&Value::Float(4.0), 1.0);
        assert_eq!(a.0.output(1.0), Value::Float(7.0));
        assert_eq!(b.0.output(1.0), Value::Float(3.0));
    }
}
