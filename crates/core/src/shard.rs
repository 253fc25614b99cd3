//! The aggregate fold: the partition-stable grid, the fold fragment and
//! its interpreter, and the [`ShardExec`] coordinator trait.
//!
//! A vectorizable online AGGREGATE (builtin COUNT/SUM/AVG over bare
//! columns or literals, no uncertain argument) compiles once into a
//! [`FoldFragment`]. Every fold of its rows runs the same function,
//! [`fold_partition`], one grid partition at a time: on the coordinator
//! thread, on the operator's `parallelism` workers, or on a shard pool
//! ([`fold_fragment_partition`] loops it over the grid for the pools).
//! The partials come back as [`PartialGroup`]s and the aggregate turns
//! them into sketches. Rows with a lineage cell in an argument column
//! need the registry, so their partition folds row at a time instead.
//!
//! The paper's §8 scale-out runs split every mini-batch across worker
//! nodes and merge partial aggregation state at the coordinator. The
//! load-bearing invariant here is **bit-identity across shard counts**:
//! the published reports of an N-shard run must equal the single-process
//! run byte for byte. Floating point addition is not associative, so that
//! only holds if the *merge tree* is fixed independently of N. Two rules
//! enforce it:
//!
//! 1. **Partition grid.** Fold partition boundaries derive only from the
//!    row count ([`PARTITION_ROWS`]-row slices), never from the shard or
//!    worker count. Every partition is folded sequentially, in row order.
//! 2. **Per-partition partials.** Shards ship one partial *per grid
//!    partition* — never pre-merged per-shard state — and the coordinator
//!    merges them in global partition order. `(p0+p1)+(p2+p3)` and
//!    `((p0+p1)+p2)+p3` differ in float; shipping per-partition keeps the
//!    tree left-leaning and shard-count-free.

use crate::channel::ORow;
use crate::trace::{SpanId, Tracer};
use iolap_engine::{
    Accumulator, AggCall, AggKind, AvgAcc, BuiltinAgg, CountAcc, EngineError, Expr, SumAcc,
};
use iolap_relation::kernels::fold::{
    fold_count_uniform, fold_count_weighted, fold_sum_uniform, fold_sum_weighted, gather_numeric,
};
use iolap_relation::{SelVec, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per fold partition. Fixed: the grid depends only on the row
/// count, so the merge tree — and therefore every float in the published
/// report — is independent of both `parallelism` and the shard count.
pub const PARTITION_ROWS: usize = 1024;

/// Half-open `(start, end)` row ranges of the partition grid over `n`
/// rows. Empty input yields no partitions.
pub fn partition_bounds(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n.div_ceil(PARTITION_ROWS)).map(move |p| {
        let start = p * PARTITION_ROWS;
        (start, (start + PARTITION_ROWS).min(n))
    })
}

/// Aggregate kind of one fragment call (the sketchable builtins of §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragKind {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
}

impl FragKind {
    /// The fragment kind of an aggregate; `None` for every aggregate
    /// without a vectorized form (MIN/MAX, VAR, COUNT DISTINCT, UDAFs).
    pub(crate) fn of(kind: &AggKind) -> Option<FragKind> {
        match kind {
            AggKind::Builtin(BuiltinAgg::Count) => Some(FragKind::Count),
            AggKind::Builtin(BuiltinAgg::Sum) => Some(FragKind::Sum),
            AggKind::Builtin(BuiltinAgg::Avg) => Some(FragKind::Avg),
            _ => None,
        }
    }

    /// Fold one participating row's argument `x` into every bootstrap
    /// trial slot: `a[t] += m·w[t]·x` (`m·w[t]` for COUNT) and
    /// `b[t] += m·w[t]`, with `w[t] = 1` for rows without weights.
    pub(crate) fn fold_trials(self, a: &mut [f64], b: &mut [f64], x: f64, row: &ORow) {
        match (self, &row.weights) {
            (FragKind::Count, None) => fold_count_uniform(a, row.mult),
            (FragKind::Count, Some(ws)) => fold_count_weighted(a, row.mult, ws),
            (FragKind::Sum | FragKind::Avg, None) => fold_sum_uniform(a, b, x, row.mult),
            (FragKind::Sum | FragKind::Avg, Some(ws)) => fold_sum_weighted(a, b, x, row.mult, ws),
        }
    }
}

/// Where one fragment call reads its argument from.
#[derive(Clone, Debug, PartialEq)]
pub enum FragSrc {
    /// Bare input column.
    Col(usize),
    /// Constant literal (lineage-free by construction).
    Lit(Value),
}

/// The compiled form of a vectorizable online AGGREGATE: everything the
/// fold needs without the plan tree, the registry, or any lineage context.
/// The aggregate operator folds its own grid partitions through it, and
/// shard pools receive it with the rows they fold.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldFragment {
    /// Stable lineage-block id of the owning aggregate (`rel(γ)`, §6.1) —
    /// identifies the fragment across RPC frames.
    pub agg_id: u32,
    /// Group-by column indices in the input row layout.
    pub group_cols: Vec<usize>,
    /// Kind of each aggregate call.
    pub kinds: Vec<FragKind>,
    /// Argument source of each aggregate call.
    pub srcs: Vec<FragSrc>,
    /// Bootstrap trial count (length of the per-call trial vectors).
    pub trials: usize,
}

impl FoldFragment {
    /// Compile an aggregate into a fragment: every call a builtin
    /// COUNT/SUM/AVG over a bare column or a lineage-free literal, and no
    /// argument reading uncertain attributes. `None` otherwise; such
    /// aggregates fold row at a time. `trials` starts at 0 and is set from
    /// the run's trial count before the first fold.
    pub(crate) fn compile(
        agg_id: u32,
        group_cols: &[usize],
        aggs: &[AggCall],
        arg_uncertain: &[bool],
    ) -> Option<FoldFragment> {
        if arg_uncertain.iter().any(|b| *b) {
            return None;
        }
        let mut kinds = Vec::with_capacity(aggs.len());
        let mut srcs = Vec::with_capacity(aggs.len());
        for call in aggs {
            kinds.push(FragKind::of(&call.kind)?);
            srcs.push(match &call.input {
                Expr::Col(i) => FragSrc::Col(*i),
                Expr::Lit(v) if !matches!(v, Value::Ref(_) | Value::Pending(_)) => {
                    FragSrc::Lit(v.clone())
                }
                _ => return None,
            });
        }
        Some(FoldFragment {
            agg_id,
            group_cols: group_cols.to_vec(),
            kinds,
            srcs,
            trials: 0,
        })
    }
}

/// Main-accumulator state of one call: the engine accumulator itself,
/// so the interpreter folds with exactly the float operations of the row
/// path. The wire ships its `state()` snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum AccState {
    /// `COUNT`: Σ weight over non-null inputs.
    Count(CountAcc),
    /// `SUM`: Σ x·weight plus the saw-any-numeric flag.
    Sum(SumAcc),
    /// `AVG`: running sum + running count sketch.
    Avg(AvgAcc),
}

impl AccState {
    fn new(kind: FragKind) -> AccState {
        match kind {
            FragKind::Count => AccState::Count(CountAcc::default()),
            FragKind::Sum => AccState::Sum(SumAcc::default()),
            FragKind::Avg => AccState::Avg(AvgAcc::default()),
        }
    }

    fn update(&mut self, v: &Value, weight: f64) {
        match self {
            AccState::Count(acc) => acc.update(v, weight),
            AccState::Sum(acc) => acc.update(v, weight),
            AccState::Avg(acc) => acc.update(v, weight),
        }
    }
}

/// One call's partial state: main accumulator plus the per-trial `a`/`b`
/// bootstrap vectors (see `TrialState::Fast`).
#[derive(Clone, Debug, PartialEq)]
pub struct PartialCall {
    /// Main-accumulator state.
    pub acc: AccState,
    /// Per-trial Σ weight·x (or Σ weight for COUNT).
    pub a: Vec<f64>,
    /// Per-trial Σ weight over non-null inputs (AVG denominator).
    pub b: Vec<f64>,
}

/// One group's partial state within a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialGroup {
    /// Group key (values of `group_cols`, in order).
    pub key: Vec<Value>,
    /// Whether any certain row contributed.
    pub has_certain: bool,
    /// Per-call partial state, aligned with the fragment's calls.
    pub calls: Vec<PartialCall>,
}

/// One grid partition's folded partial: every group that occurred in the
/// partition, in first-occurrence order.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldPartial {
    /// Global partition index on the [`PARTITION_ROWS`] grid.
    pub partition: usize,
    /// Per-group partials in first-occurrence order.
    pub groups: Vec<PartialGroup>,
}

impl FoldPartial {
    /// Rough serialized size (the in-process analogue of wire bytes): key
    /// cells at one word each plus 8 bytes per float slot.
    pub fn approx_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.key.len() * 8
                    + g.calls
                        .iter()
                        .map(|c| 24 + (c.a.len() + c.b.len()) * 8)
                        .sum::<usize>()
            })
            .sum()
    }
}

/// Trace context forwarded with a fold dispatch: the coordinator's
/// journal, the span the fold executes under (the aggregate's operator
/// span), and the mini-batch index. Pools that offload over a wire ship
/// `(parent, batch)` in the request frame, run a worker-local journal,
/// and stitch the worker's span summaries back under `parent` — always as
/// `shard.*`-named instants, so [`crate::trace::canonical_events`] can
/// strip them for cross-topology byte comparison.
#[derive(Clone, Copy)]
pub struct ShardTraceCtx<'a> {
    /// Coordinator journal the stitched worker events land in.
    pub tracer: &'a Tracer,
    /// Owning span of the fold (the aggregate operator span).
    pub parent: SpanId,
    /// Mini-batch index of the dispatch.
    pub batch: usize,
}

/// Per-worker counter snapshot, surfaced by [`ShardExec::worker_stats`]
/// so experiments can report fold traffic without a manual loopback probe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardWorkerStats {
    /// Worker shard index within the pool.
    pub shard: usize,
    /// Fold requests the worker served.
    pub folds: u64,
    /// Ack/ping round-trips the worker answered.
    pub acked: u64,
    /// Response bytes the worker shipped back (0 for in-process pools
    /// that only estimate via [`FoldPartial::approx_bytes`]).
    pub response_bytes: u64,
}

/// A pool of worker shards the aggregate fold can be dispatched to.
///
/// Contract: `fold` partitions `rows` on the [`partition_bounds`] grid,
/// runs the fragment interpreter ([`fold_fragment_partition`]) on each
/// partition, and returns one [`FoldPartial`] per partition — pre-merging
/// across partitions is forbidden (see the module docs for why). Returns
/// `Ok(None)` when the rows cannot be shipped (e.g. lineage cells on a
/// remote transport); the caller then folds locally.
pub trait ShardExec: Send + Sync {
    /// Number of worker shards in the pool.
    fn shards(&self) -> usize;

    /// Fold `rows` across the pool; one partial per grid partition.
    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError>;

    /// Cumulative bytes of partial state shipped shard→coordinator (the
    /// paper's "data shipped" axis). In-process pools estimate; TCP pools
    /// measure actual frame bytes.
    fn bytes_shipped(&self) -> u64;

    /// [`ShardExec::fold`] with an optional trace context. The default
    /// ignores the context and delegates, so existing pools keep working;
    /// tracing pools propagate `trace.parent`/`trace.batch` to workers
    /// and stitch their span summaries into `trace.tracer` as `shard.*`
    /// instants (never `Begin`/`End` — span-id allocation must stay
    /// topology-independent).
    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let _ = trace;
        self.fold(frag, rows, certain)
    }

    /// Per-worker counter snapshots, in shard order. Default: none (pools
    /// that predate the telemetry plane, or have nothing to report).
    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        Vec::new()
    }
}

/// Interpret `frag` over `rows`, one grid partition at a time; one
/// [`FoldPartial`] per partition.
///
/// Returns `None` — rows not interpretable — when a lineage cell
/// (`Ref`/`Pending`) shows up in an argument column; such rows need
/// registry access and must fold at the coordinator.
pub fn fold_fragment_partition(
    frag: &FoldFragment,
    rows: &[ORow],
    certain: bool,
) -> Option<Vec<FoldPartial>> {
    let mut out = Vec::with_capacity(rows.len().div_ceil(PARTITION_ROWS));
    for (partition, (start, end)) in partition_bounds(rows.len()).enumerate() {
        let groups = fold_partition(frag, &rows[start..end], certain)?;
        out.push(FoldPartial { partition, groups });
    }
    Some(out)
}

/// The aggregate fold: interpret `frag` over one grid partition (at most
/// [`PARTITION_ROWS`] rows) and return its groups in first-occurrence
/// order. Every (group, call) slot is updated in row order, through the
/// engine accumulators and the row path's trial update ([`FragKind::fold_trials`]), so the
/// result equals a row-at-a-time fold of the same rows bit for bit.
///
/// Returns `None`, before any state is built, when a lineage cell
/// (`Ref`/`Pending`) shows up in an argument column.
pub(crate) fn fold_partition(
    frag: &FoldFragment,
    rows: &[ORow],
    certain: bool,
) -> Option<Vec<PartialGroup>> {
    let ncalls = frag.srcs.len();
    // Pass A: gather argument columns.
    let mut xs: Vec<Vec<f64>> = vec![Vec::new(); ncalls];
    let mut sels: Vec<SelVec> = (0..ncalls)
        .map(|_| SelVec::with_capacity(rows.len()))
        .collect();
    for (c, src) in frag.srcs.iter().enumerate() {
        let count_kind = frag.kinds[c] == FragKind::Count;
        let ok = match src {
            FragSrc::Col(j) => gather_numeric(
                rows.iter().map(|r| &r.values[*j]),
                count_kind,
                &mut xs[c],
                &mut sels[c],
            ),
            FragSrc::Lit(v) => gather_numeric(
                std::iter::repeat_n(v, rows.len()),
                count_kind,
                &mut xs[c],
                &mut sels[c],
            ),
        };
        if !ok {
            return None;
        }
    }
    // Pass B: dense group codes in first-occurrence order, one probe per
    // row. Partitions are at most PARTITION_ROWS rows, so the u32 code
    // domain cannot overflow.
    let mut groups: Vec<PartialGroup> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(rows.len());
    let mut fresh = |key: Vec<Value>| {
        groups.push(PartialGroup {
            key,
            has_certain: certain,
            calls: frag
                .kinds
                .iter()
                .map(|k| PartialCall {
                    acc: AccState::new(*k),
                    a: vec![0.0; frag.trials],
                    b: vec![0.0; frag.trials],
                })
                .collect(),
        });
        (groups.len() - 1) as u32
    };
    match frag.group_cols.as_slice() {
        // Global aggregate: every row is the one (empty-key) group.
        [] => {
            if !rows.is_empty() {
                fresh(Vec::new());
                codes.resize(rows.len(), 0);
            }
        }
        [g] => single_col_codes(rows, *g, &mut codes, |v| fresh(vec![v.clone()])),
        cols => {
            let mut index: HashMap<Vec<Value>, u32> = HashMap::new();
            let mut scratch: Vec<Value> = Vec::with_capacity(cols.len());
            for row in rows {
                scratch.clear();
                scratch.extend(cols.iter().map(|&g| row.values[g].clone()));
                let code = match index.get(scratch.as_slice()) {
                    Some(&code) => code,
                    None => {
                        let code = fresh(scratch.clone());
                        index.insert(scratch.clone(), code);
                        code
                    }
                };
                codes.push(code);
            }
        }
    }
    // Pass C: fold per row by code — main accumulator on every row, trial
    // kernels on participating rows (per-call selection cursors).
    let mut cursors = vec![0usize; ncalls];
    for (i, row) in rows.iter().enumerate() {
        let g = &mut groups[codes[i] as usize];
        for c in 0..ncalls {
            let v: &Value = match &frag.srcs[c] {
                FragSrc::Col(j) => &row.values[*j],
                FragSrc::Lit(l) => l,
            };
            let call = &mut g.calls[c];
            call.acc.update(v, row.mult);
            let cur = cursors[c];
            if cur < sels[c].len() && sels[c].get(cur) == i {
                cursors[c] = cur + 1;
                frag.kinds[c].fold_trials(&mut call.a, &mut call.b, xs[c][cur], row);
            }
        }
    }
    Some(groups)
}

/// Group codes for a single-column key, probing by the cell's native
/// representation (`i64`, float bits, `str`) instead of cloning and
/// hashing a `Value` per row. Per-variant tables keep `Value` equality:
/// `Int(1)` and `Float(1.0)` stay apart, and floats (NaN included) group
/// by bit pattern. `fresh` creates the group for a first occurrence and
/// returns its code.
fn single_col_codes(
    rows: &[ORow],
    g: usize,
    codes: &mut Vec<u32>,
    mut fresh: impl FnMut(&Value) -> u32,
) {
    let mut ints: HashMap<i64, u32> = HashMap::new();
    let mut floats: HashMap<u64, u32> = HashMap::new();
    let mut strs: HashMap<Arc<str>, u32> = HashMap::new();
    let mut rest: HashMap<Value, u32> = HashMap::new();
    for row in rows {
        let v = &row.values[g];
        let code = match v {
            Value::Int(i) => *ints.entry(*i).or_insert_with(|| fresh(v)),
            Value::Float(f) => *floats.entry(f.to_bits()).or_insert_with(|| fresh(v)),
            Value::Str(s) => match strs.get(&**s) {
                Some(&code) => code,
                None => *strs.entry(s.clone()).or_insert(fresh(v)),
            },
            _ => match rest.get(v) {
                Some(&code) => code,
                None => *rest.entry(v.clone()).or_insert(fresh(v)),
            },
        };
        codes.push(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn row(vals: Vec<Value>, mult: f64, weights: Option<Vec<f64>>) -> ORow {
        ORow {
            values: Arc::from(vals),
            mult,
            weights: weights.map(Arc::from),
        }
    }

    fn frag() -> FoldFragment {
        FoldFragment {
            agg_id: 7,
            group_cols: vec![0],
            kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
            srcs: vec![FragSrc::Col(1), FragSrc::Col(1), FragSrc::Col(1)],
            trials: 2,
        }
    }

    #[test]
    fn grid_depends_only_on_row_count() {
        assert_eq!(partition_bounds(0).count(), 0);
        assert_eq!(partition_bounds(1).collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(partition_bounds(1024).collect::<Vec<_>>(), vec![(0, 1024)]);
        assert_eq!(
            partition_bounds(1025).collect::<Vec<_>>(),
            vec![(0, 1024), (1024, 1025)]
        );
        assert_eq!(partition_bounds(4096).count(), 4);
    }

    #[test]
    fn interpreter_folds_groups_in_first_occurrence_order() {
        let rows = vec![
            row(vec![Value::str("b"), Value::Float(2.0)], 1.0, None),
            row(vec![Value::str("a"), Value::Float(3.0)], 1.0, None),
            row(vec![Value::str("b"), Value::Float(5.0)], 1.0, None),
        ];
        let partials = fold_fragment_partition(&frag(), &rows, true).unwrap();
        assert_eq!(partials.len(), 1);
        let groups = &partials[0].groups;
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, vec![Value::str("b")]);
        assert_eq!(groups[1].key, vec![Value::str("a")]);
        assert!(groups[0].has_certain);
        // b: count 2, sum 7; a: count 1, sum 3.
        assert_eq!(
            groups[0].calls[0].acc,
            AccState::Count(CountAcc::from_state(2.0))
        );
        assert_eq!(
            groups[0].calls[1].acc,
            AccState::Sum(SumAcc::from_state(7.0, true))
        );
        assert_eq!(
            groups[1].calls[2].acc,
            AccState::Avg(AvgAcc::from_state(3.0, 1.0))
        );
        // Trial vectors: uniform weights fold mult into every slot.
        assert_eq!(groups[0].calls[0].a, vec![2.0, 2.0]);
        assert_eq!(groups[0].calls[1].a, vec![7.0, 7.0]);
    }

    #[test]
    fn interpreter_applies_poisson_weights_per_trial() {
        let rows = vec![row(
            vec![Value::Int(1), Value::Float(10.0)],
            1.0,
            Some(vec![0.0, 2.0]),
        )];
        let partials = fold_fragment_partition(&frag(), &rows, false).unwrap();
        let g = &partials[0].groups[0];
        assert!(!g.has_certain);
        // COUNT trials: m·w per slot.
        assert_eq!(g.calls[0].a, vec![0.0, 2.0]);
        // SUM trials: m·w·x ; denominator m·w.
        assert_eq!(g.calls[1].a, vec![0.0, 20.0]);
        assert_eq!(g.calls[1].b, vec![0.0, 2.0]);
        // Main accumulators use mult only (trial weights are resamples).
        assert_eq!(g.calls[0].acc, AccState::Count(CountAcc::from_state(1.0)));
    }

    #[test]
    fn interpreter_bails_on_lineage_cells() {
        let rows = vec![row(
            vec![
                Value::Int(1),
                Value::Ref(iolap_relation::AggRef {
                    agg: 0,
                    column: 0,
                    key: Arc::from(Vec::new()),
                }),
            ],
            1.0,
            None,
        )];
        assert_eq!(fold_fragment_partition(&frag(), &rows, true), None);
    }

    #[test]
    fn interpreter_splits_on_the_grid() {
        let rows: Vec<ORow> = (0..2050)
            .map(|i| row(vec![Value::Int(0), Value::Float(i as f64)], 1.0, None))
            .collect();
        let partials = fold_fragment_partition(&frag(), &rows, true).unwrap();
        assert_eq!(partials.len(), 3);
        assert_eq!(partials[0].partition, 0);
        assert_eq!(partials[2].partition, 2);
        let counts: Vec<f64> = partials
            .iter()
            .map(|p| match &p.groups[0].calls[0].acc {
                AccState::Count(acc) => acc.state(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(counts, vec![1024.0, 1024.0, 2.0]);
        assert!(partials[0].approx_bytes() > 0);
    }
}
