//! Shard pools: scale-out execution of aggregate fold fragments (§8).
//!
//! Two [`ShardExec`] implementations share one partitioning discipline
//! (the `iolap_core::shard` grid — see its module docs for the
//! bit-identity rules):
//!
//! * [`ThreadShardPool`] — in-process shards on scoped threads. Each
//!   shard owns a contiguous *block* of grid partitions and returns one
//!   partial per partition; "bytes shipped" is the estimated serialized
//!   size of those partials.
//! * [`TcpShardPool`] — the same topology over the NDJSON wire: worker
//!   processes run [`serve_shard`] accept loops, the coordinator holds
//!   one persistent connection per worker and dispatches
//!   `shard.fold` frames ([`wire::frag_json`] + [`wire::rows_json`]),
//!   receiving partial-state frames back ([`wire::partial_json`]).
//!   "Bytes shipped" is the measured byte length of the partial-state
//!   response lines — the paper's data-shipped axis.
//!
//! Both pools honor the `Ok(None)` fallback contract: anything that
//! cannot be shipped (lineage cells in a row, an unencodable literal)
//! makes `fold` return `Ok(None)` and the coordinator folds the same
//! grid locally. Shard-side failures (dead connection, malformed frame)
//! are `Err`: silently degrading to a different merge tree is exactly
//! what the determinism contract forbids, so the batch fails loudly
//! instead.

use crate::wire::{
    self, escape, frag_from_json, frag_json, partial_from_json, partial_json, rows_from_json,
    rows_json, JVal,
};
use iolap_core::shard::partition_bounds;
use iolap_core::trace::{SpanId, Tracer};
use iolap_core::{
    EngineError, FoldFragment, FoldPartial, ORow, ShardExec, ShardTraceCtx, ShardWorkerStats,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One worker-journal span summary, as shipped back over the wire:
/// `(name, payload count, detail)`. No timestamps cross the shard
/// boundary — the coordinator stitches these as instants under the
/// dispatching operator span, so normalized exports stay byte-stable.
type SpanSummary = (String, u64, String);

/// A remote fold's yield: `None` when the block cannot ride the wire and
/// the coordinator must fold locally on the same grid.
type RemoteFold = Result<Option<(Vec<FoldPartial>, Vec<SpanSummary>)>, EngineError>;

/// Map a wire span name back to the static name table. Unknown names
/// (a newer worker) degrade to a generic label instead of an error.
fn summary_name(name: &str) -> &'static str {
    match name {
        "shard.worker.fold" => "shard.worker.fold",
        "shard.worker.partials" => "shard.worker.partials",
        _ => "shard.worker.span",
    }
}

/// Stitch worker span summaries under the coordinator's trace context.
/// Called after *all* blocks have joined, in block order, so the journal
/// is deterministic for a fixed topology.
fn stitch_summaries(trace: &ShardTraceCtx<'_>, summaries: &[SpanSummary]) {
    for (name, n, detail) in summaries {
        trace.tracer.instant(
            summary_name(name),
            trace.batch,
            trace.parent,
            *n,
            detail.clone(),
        );
    }
}

// ---------------------------------------------------------------------------
// In-process pool
// ---------------------------------------------------------------------------

/// In-process shard pool: `n` scoped threads, each folding a contiguous
/// block of grid partitions via `fold_fragment_partition`. The partials
/// carry global partition indices, so the coordinator's partition-order
/// merge is identical to any other topology.
#[derive(Debug)]
pub struct ThreadShardPool {
    shards: usize,
    shipped: AtomicU64,
    stats: Mutex<Vec<ShardWorkerStats>>,
}

impl ThreadShardPool {
    /// A pool of `shards` workers (clamped to at least 1).
    pub fn new(shards: usize) -> ThreadShardPool {
        let shards = shards.max(1);
        ThreadShardPool {
            shards,
            shipped: AtomicU64::new(0),
            stats: Mutex::new(
                (0..shards)
                    .map(|shard| ShardWorkerStats {
                        shard,
                        ..ShardWorkerStats::default()
                    })
                    .collect(),
            ),
        }
    }

    /// Shared body of `fold`/`fold_traced`: fold every partition block
    /// (threaded when there is more than one), then — only on full
    /// success — account per-shard counters and stitch trace summaries
    /// in block order.
    fn fold_impl(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let bounds: Vec<(usize, usize)> = partition_bounds(rows.len()).collect();
        if bounds.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let per = bounds.len().div_ceil(self.shards).max(1);
        let blocks: Vec<&[(usize, usize)]> = bounds.chunks(per).collect();
        let results: Vec<Option<Vec<FoldPartial>>> = if blocks.len() == 1 {
            vec![fold_block(frag, rows, certain, blocks[0], 0)]
        } else {
            // One scoped thread per partition block. A panic in a shard
            // thread surfaces through `join` and becomes an EngineError,
            // mirroring the in-operator worker pool.
            std::thread::scope(|scope| {
                let handles: Vec<_> = blocks
                    .iter()
                    .enumerate()
                    .map(|(b, block)| {
                        scope.spawn(move || fold_block(frag, rows, certain, block, b * per))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => Ok(r),
                        Err(payload) => Err(EngineError::Plan(format!(
                            "shard worker panicked: {}",
                            iolap_core::faults::panic_message(payload)
                        ))),
                    })
                    .collect::<Result<Vec<_>, EngineError>>()
            })?
        };
        // Any unfoldable block means the whole fold falls back locally:
        // no counters move, exactly as if the pool was never consulted.
        let mut per_block = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Some(ps) => per_block.push(ps),
                None => return Ok(None),
            }
        }
        let mut out = Vec::with_capacity(bounds.len());
        let mut stats = lock_stats(&self.stats);
        for (b, mut ps) in per_block.into_iter().enumerate() {
            let bytes: u64 = ps.iter().map(|p| p.approx_bytes() as u64).sum();
            self.shipped.fetch_add(bytes, Ordering::Relaxed);
            let w = &mut stats[b];
            w.folds += 1;
            w.acked += ps.len() as u64;
            w.response_bytes += bytes;
            if let Some(t) = trace {
                t.tracer.instant(
                    "shard.worker.fold",
                    t.batch,
                    t.parent,
                    b as u64,
                    format!("partitions={} partials={}", blocks[b].len(), ps.len()),
                );
            }
            out.append(&mut ps);
        }
        Ok(Some(out))
    }
}

/// Poison-recovering stats lock: a panicked fold thread never holds this
/// (accounting happens after `join`), so the data is always consistent.
fn lock_stats(
    m: &Mutex<Vec<ShardWorkerStats>>,
) -> std::sync::MutexGuard<'_, Vec<ShardWorkerStats>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Fold a contiguous block of grid partitions; partials are re-indexed
/// from block-local to global partition numbers. `None` bubbles up from
/// any partition the interpreter cannot take (lineage cells).
fn fold_block(
    frag: &FoldFragment,
    rows: &[ORow],
    certain: bool,
    block: &[(usize, usize)],
    first_partition: usize,
) -> Option<Vec<FoldPartial>> {
    let mut out = Vec::with_capacity(block.len());
    for (off, &(s, e)) in block.iter().enumerate() {
        // One grid slice at a time: the interpreter sees ≤ PARTITION_ROWS
        // rows and labels the result partition 0; re-index to global.
        let mut partials = iolap_core::fold_fragment_partition(frag, &rows[s..e], certain)?;
        for p in &mut partials {
            p.partition = first_partition + off;
        }
        out.append(&mut partials);
    }
    Some(out)
}

impl ShardExec for ThreadShardPool {
    fn shards(&self) -> usize {
        self.shards
    }

    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.fold_impl(frag, rows, certain, None)
    }

    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.fold_impl(frag, rows, certain, trace)
    }

    fn bytes_shipped(&self) -> u64 {
        self.shipped.load(Ordering::Relaxed)
    }

    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        lock_stats(&self.stats).clone()
    }
}

// ---------------------------------------------------------------------------
// Worker side of the wire protocol
// ---------------------------------------------------------------------------

/// Per-connection worker-side counters, reported by `shard.stats`.
#[derive(Debug, Default)]
pub struct ShardWorkerState {
    /// `shard.fold` requests served.
    pub folds: u64,
    /// Partials acknowledged as merged by the coordinator (`shard.ack`).
    pub acked: u64,
    /// Bytes of response lines written back to the coordinator.
    pub response_bytes: u64,
}

fn err_frame(kind: &str, msg: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"msg\":\"{}\"}}}}",
        escape(kind),
        escape(msg)
    )
}

/// Handle one NDJSON request line of the shard worker protocol. Pure
/// dispatch over `state`, so it is unit-testable without sockets:
///
/// * `{"op":"shard.ping"}` → `{"ok":true,"pong":true}`
/// * `{"op":"shard.fold","base":B,"certain":C,"frag":F,"rows":R}` →
///   `{"ok":true,"partials":[...]}` — folds the rows on the grid and
///   returns one partial per partition, indices offset by `base` (the
///   global index of the block's first partition). An optional
///   `"trace":{"span":S,"batch":B}` member makes the worker run the fold
///   under a local journal and append `"spans":[{"name","n","d"}]`
///   summaries (no timestamps) for the coordinator to stitch.
/// * `{"op":"shard.ack","partials":N}` → `{"ok":true}` — coordinator
///   merged `N` partials from this connection.
/// * `{"op":"shard.stats"}` → `{"ok":true,"stats":{...}}`.
pub fn handle_shard_request(state: &mut ShardWorkerState, line: &str) -> String {
    let req = match wire::parse(line) {
        Ok(v) => v,
        Err(e) => return err_frame("bad_json", &e.to_string()),
    };
    match req.get("op").and_then(JVal::as_str) {
        Some("shard.ping") => "{\"ok\":true,\"pong\":true}".to_string(),
        Some("shard.stats") => format!(
            "{{\"ok\":true,\"stats\":{{\"folds\":{},\"acked\":{},\"response_bytes\":{}}}}}",
            state.folds, state.acked, state.response_bytes
        ),
        Some("shard.ack") => {
            state.acked += req
                .get("partials")
                .and_then(JVal::as_u64)
                .unwrap_or_default();
            "{\"ok\":true}".to_string()
        }
        Some("shard.fold") => {
            let Some(frag) = req.get("frag").and_then(frag_from_json) else {
                return err_frame("bad_request", "missing or malformed frag");
            };
            let Some(rows) = req.get("rows").and_then(rows_from_json) else {
                return err_frame("bad_request", "missing or malformed rows");
            };
            let Some(certain) = req.get("certain").and_then(JVal::as_bool) else {
                return err_frame("bad_request", "missing certain flag");
            };
            let base = match req.get("base").and_then(JVal::as_u64) {
                Some(b) => b as usize,
                None => return err_frame("bad_request", "missing base partition"),
            };
            // A traced fold runs under a worker-local journal: no shared
            // clock with the coordinator, so only name/count/detail (never
            // timestamps) flow back as compact span summaries.
            let trace_parent = req.get("trace").map(|t| {
                (
                    t.get("span").and_then(JVal::as_u64).unwrap_or(0),
                    t.get("batch").and_then(JVal::as_u64).unwrap_or(0) as usize,
                )
            });
            let journal = trace_parent.map(|(_, batch)| {
                let t = Tracer::new();
                let span = t.begin("shard.worker.fold", batch, SpanId::NONE);
                (t, span, batch)
            });
            let Some(mut partials) = iolap_core::fold_fragment_partition(&frag, &rows, certain)
            else {
                // Decoded rows can never carry lineage (the codec rejects
                // it), so this is defensive — but the coordinator must
                // hear "unfoldable", not a partial, to fall back.
                return err_frame("unfoldable", "fragment not interpretable over these rows");
            };
            state.folds += 1;
            let mut out = String::from("{\"ok\":true,\"partials\":[");
            for (i, p) in partials.iter_mut().enumerate() {
                p.partition += base;
                if i > 0 {
                    out.push(',');
                }
                match partial_json(p) {
                    Some(frame) => out.push_str(&frame),
                    None => return err_frame("unfoldable", "partial not encodable"),
                }
            }
            out.push(']');
            if let Some((t, span, batch)) = journal {
                t.instant(
                    "shard.worker.partials",
                    batch,
                    span,
                    partials.len() as u64,
                    format!("base={base}"),
                );
                t.end(
                    "shard.worker.fold",
                    batch,
                    span,
                    SpanId::NONE,
                    rows.len() as u64,
                );
                let spans = JVal::Arr(
                    t.events()
                        .iter()
                        .filter(|e| e.kind != iolap_core::trace::EventKind::Begin)
                        .map(|e| {
                            JVal::obj(vec![
                                ("name", JVal::str(e.name)),
                                ("n", JVal::Num(e.n as f64)),
                                ("d", JVal::str(&e.detail)),
                            ])
                        })
                        .collect(),
                );
                out.push_str(",\"spans\":");
                out.push_str(&spans.render());
            }
            out.push('}');
            out
        }
        _ => err_frame("bad_request", "unknown op"),
    }
}

/// Worker accept loop: one thread per coordinator connection, each line
/// through [`handle_shard_request`]. Runs until the listener errors.
pub fn serve_shard(listener: TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        std::thread::spawn(move || {
            let mut state = ShardWorkerState::default();
            let mut writer = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => return,
            };
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let mut response = handle_shard_request(&mut state, line.trim());
                state.response_bytes += response.len() as u64;
                // One write per line (see `tcp::handle_conn`).
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                    break;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Coordinator side of the wire protocol
// ---------------------------------------------------------------------------

/// How long the coordinator waits on a worker response before declaring
/// the shard dead. Bounded blocking: no indefinite `read_line`.
const SHARD_READ_TIMEOUT: Duration = Duration::from_secs(30);

struct ShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ShardConn {
    /// One request/response exchange. Returns the response line and its
    /// byte length (response bytes are the shipped partial state).
    fn exchange(&mut self, request: &str) -> Result<String, EngineError> {
        let io_err = |e: std::io::Error| EngineError::Plan(format!("shard connection: {e}"));
        // One write per line (see `tcp::handle_conn`).
        let mut frame = String::with_capacity(request.len() + 1);
        frame.push_str(request);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(io_err)?;
        if n == 0 {
            return Err(EngineError::Plan("shard connection closed".to_string()));
        }
        Ok(line)
    }
}

/// Coordinator-side pool over persistent TCP connections to
/// [`serve_shard`] workers. Partition blocks are assigned to workers
/// round-robin-contiguously (worker `i` gets block `i`), requests run
/// concurrently on scoped threads, and the measured response-line bytes
/// accumulate into [`ShardExec::bytes_shipped`].
pub struct TcpShardPool {
    conns: Vec<Mutex<ShardConn>>,
    shipped: AtomicU64,
    stats: Mutex<Vec<ShardWorkerStats>>,
}

impl TcpShardPool {
    /// Connect to every worker address; fails if any is unreachable.
    pub fn connect<A: std::net::ToSocketAddrs>(addrs: &[A]) -> std::io::Result<TcpShardPool> {
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(SHARD_READ_TIMEOUT))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            conns.push(Mutex::new(ShardConn {
                writer: stream,
                reader,
            }));
        }
        let stats = (0..conns.len())
            .map(|shard| ShardWorkerStats {
                shard,
                ..ShardWorkerStats::default()
            })
            .collect();
        Ok(TcpShardPool {
            conns,
            shipped: AtomicU64::new(0),
            stats: Mutex::new(stats),
        })
    }

    /// Round-trip a `shard.ping` on every connection.
    pub fn ping(&self) -> Result<(), EngineError> {
        for conn in &self.conns {
            let mut conn = conn
                .lock()
                .map_err(|_| EngineError::Plan("shard connection poisoned".to_string()))?;
            let line = conn.exchange("{\"op\":\"shard.ping\"}")?;
            let ok = wire::parse(line.trim())
                .ok()
                .and_then(|v| v.get("ok").and_then(JVal::as_bool))
                .unwrap_or(false);
            if !ok {
                return Err(EngineError::Plan("shard ping rejected".to_string()));
            }
        }
        Ok(())
    }

    /// Dispatch one partition block to one worker; parse the partials
    /// (and, when `trace_field` is set, the worker's span summaries).
    #[allow(clippy::too_many_arguments)] // internal dispatch plumbing
    fn fold_block_remote(
        &self,
        conn_idx: usize,
        frag_frame: &str,
        rows: &[ORow],
        certain: bool,
        block: &[(usize, usize)],
        first_partition: usize,
        trace_field: Option<&str>,
    ) -> RemoteFold {
        let (lo, hi) = (block[0].0, block[block.len() - 1].1);
        let Some(rows_frame) = rows_json(&rows[lo..hi]) else {
            return Ok(None); // lineage cell → coordinator folds locally
        };
        let trace = trace_field.unwrap_or("");
        let request = format!(
            "{{\"op\":\"shard.fold\",\"base\":{first_partition},\"certain\":{certain}{trace},\"frag\":{frag_frame},\"rows\":{rows_frame}}}"
        );
        // A poisoned lock means another dispatch thread died mid-exchange;
        // the stream may hold a half-written frame, so fail the fold
        // rather than panic (or worse, desync the line protocol).
        let mut conn = self.conns[conn_idx]
            .lock()
            .map_err(|_| EngineError::Plan("shard connection poisoned".to_string()))?;
        let line = conn.exchange(&request)?;
        // The response line *is* the shipped partial state.
        self.shipped.fetch_add(line.len() as u64, Ordering::Relaxed);
        let resp = wire::parse(line.trim())
            .map_err(|e| EngineError::Plan(format!("shard response: {e}")))?;
        if resp.get("ok").and_then(JVal::as_bool) != Some(true) {
            let kind = resp
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JVal::as_str)
                .unwrap_or("unknown");
            if kind == "unfoldable" {
                return Ok(None);
            }
            return Err(EngineError::Plan(format!("shard fold failed: {kind}")));
        }
        let Some(JVal::Arr(items)) = resp.get("partials") else {
            return Err(EngineError::Plan("shard response missing partials".into()));
        };
        let partials: Option<Vec<FoldPartial>> = items.iter().map(partial_from_json).collect();
        let partials =
            partials.ok_or_else(|| EngineError::Plan("malformed shard partial".to_string()))?;
        let summaries: Vec<SpanSummary> = match resp.get("spans") {
            Some(JVal::Arr(spans)) => spans
                .iter()
                .map(|s| {
                    (
                        s.get("name")
                            .and_then(JVal::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        s.get("n").and_then(JVal::as_u64).unwrap_or_default(),
                        s.get("d")
                            .and_then(JVal::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let n = partials.len();
        let ack = format!("{{\"op\":\"shard.ack\",\"partials\":{n}}}");
        conn.exchange(&ack)?;
        drop(conn);
        {
            let mut stats = lock_stats(&self.stats);
            let w = &mut stats[conn_idx];
            w.folds += 1;
            w.acked += n as u64;
            w.response_bytes += line.len() as u64;
        }
        Ok(Some((partials, summaries)))
    }

    /// Shared body of `fold`/`fold_traced` over the wire topology.
    fn fold_impl(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let Some(frag_frame) = frag_json(frag) else {
            return Ok(None);
        };
        let bounds: Vec<(usize, usize)> = partition_bounds(rows.len()).collect();
        if bounds.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let trace_field = trace.map(|t| {
            format!(
                ",\"trace\":{{\"span\":{},\"batch\":{}}}",
                t.parent.0, t.batch
            )
        });
        let per = bounds.len().div_ceil(self.conns.len());
        // All blocks in flight concurrently, one scoped thread per block;
        // every thread blocks on its own connection (bounded by the read
        // timeout), so wall clock is the slowest worker, not the sum.
        let results: Vec<RemoteFold> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .chunks(per)
                .enumerate()
                .map(|(b, block)| {
                    let frag_frame = &frag_frame;
                    let trace_field = trace_field.as_deref();
                    scope.spawn(move || {
                        self.fold_block_remote(
                            b % self.conns.len(),
                            frag_frame,
                            rows,
                            certain,
                            block,
                            b * per,
                            trace_field,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(EngineError::Plan(format!(
                        "shard dispatch panicked: {}",
                        iolap_core::faults::panic_message(payload)
                    ))),
                })
                .collect()
        });
        let mut out = Vec::with_capacity(bounds.len());
        let mut all_summaries = Vec::new();
        for r in results {
            match r? {
                Some((mut ps, summaries)) => {
                    out.append(&mut ps);
                    all_summaries.push(summaries);
                }
                None => return Ok(None),
            }
        }
        // Stitch after every block has joined, in block order: the trace
        // journal is deterministic for a fixed topology even though the
        // exchanges themselves raced.
        if let Some(t) = trace {
            for summaries in &all_summaries {
                stitch_summaries(t, summaries);
            }
        }
        Ok(Some(out))
    }
}

impl ShardExec for TcpShardPool {
    fn shards(&self) -> usize {
        self.conns.len()
    }

    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.fold_impl(frag, rows, certain, None)
    }

    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.fold_impl(frag, rows, certain, trace)
    }

    fn bytes_shipped(&self) -> u64 {
        self.shipped.load(Ordering::Relaxed)
    }

    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        lock_stats(&self.stats).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_core::{fold_fragment_partition, FragKind, FragSrc};
    use iolap_relation::Value;
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
            agg_id: 1,
            group_cols: vec![0],
            kinds: vec![FragKind::Count, FragKind::Sum],
            srcs: vec![FragSrc::Col(1), FragSrc::Col(1)],
            trials: 3,
        }
    }

    fn sample_rows(n: usize) -> Vec<ORow> {
        (0..n)
            .map(|i| {
                row(
                    vec![Value::Int((i % 5) as i64), Value::Float(i as f64 * 0.25)],
                    1.0,
                    Some(vec![1.0, 0.0, 2.0]),
                )
            })
            .collect()
    }

    /// Every topology must produce the same partials as the single-shard
    /// reference, bit for bit.
    #[test]
    fn thread_pool_partials_match_reference_for_all_shard_counts() {
        let rows = sample_rows(3000); // 3 partitions
        let reference = fold_fragment_partition(&frag(), &rows, true).unwrap();
        for shards in [1, 2, 4, 8] {
            let pool = ThreadShardPool::new(shards);
            let mut got = pool.fold(&frag(), &rows, true).unwrap().unwrap();
            got.sort_by_key(|p| p.partition);
            assert_eq!(got, reference, "shards={shards}");
            assert!(pool.bytes_shipped() > 0);
        }
    }

    /// Traced folds stitch per-worker span summaries under the parent
    /// span, account per-shard counters, and stay out of canonical
    /// exports (the `shard.` prefix is the strip marker).
    #[test]
    fn thread_pool_traced_fold_stitches_and_counts() {
        use iolap_core::trace::{canonical_events, Tracer};
        let rows = sample_rows(3000); // 3 partitions
        let pool = ThreadShardPool::new(2);
        let tracer = Tracer::new();
        let parent = tracer.begin("agg.fold", 0, iolap_core::SpanId::NONE);
        let ctx = iolap_core::ShardTraceCtx {
            tracer: &tracer,
            parent,
            batch: 0,
        };
        let got = pool
            .fold_traced(&frag(), &rows, true, Some(&ctx))
            .unwrap()
            .unwrap();
        assert!(!got.is_empty());
        let events = tracer.events();
        let worker_marks: Vec<_> = events
            .iter()
            .filter(|e| e.name == "shard.worker.fold")
            .collect();
        assert_eq!(worker_marks.len(), 2, "one summary per shard block");
        assert!(worker_marks.iter().all(|e| e.parent == parent));
        assert!(worker_marks[0].detail.contains("partitions="));
        // Canonical export strips every shard.* event.
        assert!(canonical_events(&events)
            .iter()
            .all(|e| !e.name.starts_with("shard.")));

        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|w| w.folds).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|w| w.acked).sum::<u64>(), got.len() as u64);
        assert!(stats.iter().all(|w| w.response_bytes > 0));
    }

    #[test]
    fn thread_pool_falls_back_on_lineage_rows() {
        let rows = vec![row(
            vec![
                Value::Int(0),
                Value::Ref(iolap_relation::AggRef {
                    agg: 0,
                    column: 0,
                    key: Arc::from(Vec::new()),
                }),
            ],
            1.0,
            None,
        )];
        let pool = ThreadShardPool::new(2);
        assert_eq!(pool.fold(&frag(), &rows, true).unwrap(), None);
        assert_eq!(pool.bytes_shipped(), 0);
    }

    #[test]
    fn worker_dispatch_folds_and_reindexes() {
        let mut state = ShardWorkerState::default();
        let rows = sample_rows(4);
        let request = format!(
            "{{\"op\":\"shard.fold\",\"base\":7,\"certain\":false,\"frag\":{},\"rows\":{}}}",
            frag_json(&frag()).unwrap(),
            rows_json(&rows).unwrap()
        );
        let response = handle_shard_request(&mut state, &request);
        let v = wire::parse(&response).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true));
        let Some(JVal::Arr(items)) = v.get("partials") else {
            panic!("no partials in {response}");
        };
        let partial = partial_from_json(&items[0]).unwrap();
        assert_eq!(partial.partition, 7, "base offset applied");
        assert_eq!(partial.groups.len(), 4);
        assert_eq!(state.folds, 1);
        // Ack round-trip updates the counter.
        let ack = handle_shard_request(&mut state, "{\"op\":\"shard.ack\",\"partials\":1}");
        assert_eq!(ack, "{\"ok\":true}");
        assert_eq!(state.acked, 1);
        let stats = handle_shard_request(&mut state, "{\"op\":\"shard.stats\"}");
        assert!(stats.contains("\"folds\":1"), "{stats}");
    }

    #[test]
    fn worker_dispatch_rejects_malformed_frames() {
        let mut state = ShardWorkerState::default();
        for (line, kind) in [
            ("not json", "bad_json"),
            ("{\"op\":\"nope\"}", "bad_request"),
            ("{\"op\":\"shard.fold\",\"rows\":[]}", "bad_request"),
        ] {
            let resp = handle_shard_request(&mut state, line);
            let v = wire::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{line}");
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JVal::as_str),
                Some(kind),
                "{line}"
            );
        }
        assert_eq!(state.folds, 0);
    }

    /// Loopback integration: a real worker process boundary. Skipped when
    /// the sandbox denies loopback sockets (mirrors tcp.rs tests).
    #[test]
    fn tcp_pool_matches_thread_pool_over_loopback() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback bind denied");
            return;
        };
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_shard(listener));

        let rows = sample_rows(2500); // 3 partitions
        let reference = fold_fragment_partition(&frag(), &rows, false).unwrap();

        let pool = TcpShardPool::connect(&[addr, addr]).unwrap();
        assert_eq!(pool.shards(), 2);
        pool.ping().unwrap();
        let mut got = pool.fold(&frag(), &rows, false).unwrap().unwrap();
        got.sort_by_key(|p| p.partition);
        assert_eq!(got, reference);
        assert!(pool.bytes_shipped() > 0, "response bytes must be measured");

        // Traced round-trip: the worker journal's summaries come back on
        // the wire and are stitched under the coordinator's parent span.
        let tracer = iolap_core::Tracer::new();
        let parent = tracer.begin("agg.fold", 1, iolap_core::SpanId::NONE);
        let ctx = iolap_core::ShardTraceCtx {
            tracer: &tracer,
            parent,
            batch: 1,
        };
        let mut traced = pool
            .fold_traced(&frag(), &rows, false, Some(&ctx))
            .unwrap()
            .unwrap();
        traced.sort_by_key(|p| p.partition);
        assert_eq!(traced, reference, "tracing must not change the partials");
        let events = tracer.events();
        assert!(
            events
                .iter()
                .any(|e| e.name == "shard.worker.fold" && e.parent == parent),
            "stitched worker span missing: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| e.name == "shard.worker.partials" && e.detail.starts_with("base=")));
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().map(|w| w.folds).sum::<u64>() >= 4);
        assert!(stats.iter().all(|w| w.response_bytes > 0));

        // The worker's own view: shard.stats now reports response bytes.
        let mut state = ShardWorkerState::default();
        handle_shard_request(&mut state, "{\"op\":\"shard.ping\"}");
        state.response_bytes = 42;
        let frame = handle_shard_request(&mut state, "{\"op\":\"shard.stats\"}");
        assert!(frame.contains("\"response_bytes\":42"), "{frame}");

        // Lineage rows cannot cross the wire: fallback, not error.
        let tainted = vec![row(
            vec![
                Value::Int(0),
                Value::Ref(iolap_relation::AggRef {
                    agg: 0,
                    column: 0,
                    key: Arc::from(Vec::new()),
                }),
            ],
            1.0,
            None,
        )];
        assert_eq!(pool.fold(&frag(), &tainted, true).unwrap(), None);
    }
}
