//! The client side of the AJX protocol: `READ` (Fig. 4), `WRITE` (Fig. 5),
//! garbage collection (Fig. 7), and the monitoring task (§3.10).
//!
//! All orchestration lives here, per the paper's "shift functionality to
//! clients" principle (§3). A [`Client`] is cheap and thread-safe: `&self`
//! methods may be called from many threads (the paper's "multiple threads,
//! one for each outstanding RPC call").

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::op::{Op, ReadOp, Step, WriteOp};
use crate::rebuild::RebuildReport;
use crate::recovery::{recover, RecoveryOutcome};
use crate::rpc::{call, call_many, retry};
use ajx_storage::{ClientId, LMode, NodeId, OpMode, Reply, Request, StripeId, Tid};
use ajx_transport::ClientEndpoint;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Garbage-collection bookkeeping (Fig. 7's client-side `gc[j]`/`old[j]`
/// lists, keyed additionally by stripe since one client writes many
/// stripes).
#[derive(Debug, Default)]
struct GcLists {
    /// Completed writes not yet moved to nodes' oldlists (phase 2 input).
    pending: BTreeMap<(StripeId, usize), Vec<Tid>>,
    /// Writes whose tids nodes moved to oldlist; next cycle drops them
    /// (phase 1 input).
    old: BTreeMap<(StripeId, usize), Vec<Tid>>,
}

/// Summary of one garbage-collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Tids moved from nodes' recentlists to oldlists (phase 2).
    pub moved_to_old: usize,
    /// Tids dropped from nodes' oldlists (phase 1).
    pub dropped: usize,
    /// RPCs that found a node busy (locked/INIT) and were skipped.
    pub skipped_busy: usize,
}

/// Summary of one monitoring sweep (§3.10).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorReport {
    /// Stripes for which this sweep ran recovery.
    pub recovered: Vec<StripeId>,
    /// Stripes found healthy.
    pub healthy: usize,
}

/// A protocol client bound to one [`ClientEndpoint`].
///
/// # Example
///
/// ```
/// use ajx_core::{Client, ProtocolConfig};
/// use ajx_transport::{Network, NetworkConfig};
/// use ajx_storage::ClientId;
///
/// # fn main() -> Result<(), ajx_core::ProtocolError> {
/// let cfg = ProtocolConfig::new(2, 4, 64).expect("valid code");
/// let net = Network::new(NetworkConfig {
///     n_nodes: cfg.n(),
///     block_size: cfg.block_size,
///     ..NetworkConfig::default()
/// });
/// let client = Client::new(net.client(ClientId(1)), cfg);
///
/// client.write_block(0, vec![42; 64])?;
/// assert_eq!(client.read_block(0)?, vec![42; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Client {
    endpoint: ClientEndpoint,
    cfg: ProtocolConfig,
    /// Tid sequence numbers, shared by all of this client's writes.
    seq: AtomicU64,
    /// The update strategy's rounds, computed once for every write.
    rounds: Vec<Vec<usize>>,
    gc: Mutex<GcLists>,
}

impl Client {
    /// Binds a client to its transport endpoint and protocol configuration.
    pub fn new(endpoint: ClientEndpoint, cfg: ProtocolConfig) -> Self {
        Client {
            endpoint,
            rounds: cfg.strategy.rounds(cfg.k(), cfg.n()),
            cfg,
            seq: AtomicU64::new(0),
            gc: Mutex::new(GcLists::default()),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.endpoint.id()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The underlying transport endpoint (stats, fault injection).
    pub fn endpoint(&self) -> &ClientEndpoint {
        &self.endpoint
    }

    /// The update strategy's rounds over the redundant indices.
    pub(crate) fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    /// A fresh sequence number for a write's tid.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn node_of(&self, stripe: StripeId, t: usize) -> NodeId {
        NodeId(self.cfg.layout.node_for(stripe.0, t) as u32)
    }

    /// The blocking and batched driver: runs `ops` to completion in
    /// lockstep, each round's `Send`s together with one message per node
    /// ([`Client::send_merged`]); other steps are carried out on the spot.
    /// Each op is fed exactly its own results; any it leaves unread are
    /// dropped before the next op's.
    fn drive<O: Op>(&self, ops: &mut [O]) {
        loop {
            let mut calls = Vec::new();
            let mut owners = Vec::new();
            for (x, op) in ops.iter_mut().enumerate() {
                loop {
                    match op.poll() {
                        Step::Send(c) => {
                            owners.push((x, c.len()));
                            if calls.is_empty() {
                                calls = c;
                            } else {
                                calls.extend(c);
                            }
                            break;
                        }
                        Step::Broadcast(c) => op.feed(&mut self.broadcast(c).into_iter()),
                        Step::Recover(s) => self.recover_stripe(s).unwrap_or_else(|e| op.fail(e)),
                        Step::Pause(d) => std::thread::sleep(d),
                        Step::Done => break,
                    }
                }
            }
            if owners.is_empty() {
                return;
            }
            let mut replies = self.send_merged(calls).into_iter();
            for &(x, m) in &owners {
                let mut own = replies.by_ref().take(m);
                ops[x].feed(&mut own);
                own.for_each(drop);
            }
        }
    }

    /// One `pfor` round with at most one message per node: requests bound
    /// for the same node travel as one [`Request::Batch`] (§3.11 batching),
    /// a lone request bare. Returns one result per request, in order.
    fn send_merged(&self, mut calls: Vec<(NodeId, Request)>) -> Vec<Result<Reply, ProtocolError>> {
        if let [_] = calls[..] {
            let (node, req) = calls.pop().expect("one call");
            return vec![call(&self.endpoint, &self.cfg, node, req)];
        }
        if (1..calls.len()).all(|x| calls[..x].iter().all(|(node, _)| *node != calls[x].0)) {
            return call_many(&self.endpoint, &self.cfg, calls);
        }
        let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for (x, &(node, _)) in calls.iter().enumerate() {
            match groups.iter_mut().find(|(g, _)| *g == node) {
                Some((_, xs)) => xs.push(x),
                None => groups.push((node, vec![x])),
            }
        }
        let mut reqs: Vec<Option<Request>> = calls.into_iter().map(|(_, r)| Some(r)).collect();
        let mut out = vec![None; reqs.len()];
        let mut take = |x: usize| reqs[x].take().expect("each request is in one group");
        let merged: Vec<(NodeId, Request)> = (groups.iter())
            .map(|(node, xs)| match xs[..] {
                [x] => (*node, take(x)),
                _ => (*node, Request::Batch(xs.iter().map(|&x| take(x)).collect())),
            })
            .collect();
        for ((_, xs), res) in groups
            .iter()
            .zip(call_many(&self.endpoint, &self.cfg, merged))
        {
            let parts = match res {
                res if xs.len() == 1 => vec![res],
                Ok(Reply::Batch(rs)) if rs.len() == xs.len() => rs.into_iter().map(Ok).collect(),
                Ok(other) => vec![Err(ProtocolError::unexpected("Reply::Batch", &other)); xs.len()],
                Err(e) => vec![Err(e); xs.len()],
            };
            for (&x, r) in xs.iter().zip(parts) {
                out[x] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("each request is in one group"))
            .collect()
    }

    /// §3.11 multicast under the [`crate::rpc::recourse`] rule.
    fn broadcast(&self, calls: Vec<(NodeId, Request)>) -> Vec<Result<Reply, ProtocolError>> {
        let targets = calls.clone();
        let ep = &self.endpoint;
        (ep.broadcast(calls).into_iter().zip(targets))
            .map(|(res, (node, req))| res.or_else(|e| retry(ep, &self.cfg, node, req, e)))
            .collect()
    }

    /// `READ` of a logical block (Fig. 4): one round trip to the data node
    /// in the failure-free case.
    ///
    /// # Errors
    ///
    /// Transport failures, [`ProtocolError::RetriesExhausted`] if another
    /// client's recovery never completes, or
    /// [`ProtocolError::Unrecoverable`] beyond the §4 failure bounds.
    pub fn read_block(&self, logical_block: u64) -> Result<Vec<u8>, ProtocolError> {
        let placement = self.cfg.layout.locate(logical_block);
        self.read_stripe_index(StripeId(placement.stripe), placement.index)
    }

    /// `READ` addressed by (stripe, data-block index).
    ///
    /// # Errors
    ///
    /// As [`Client::read_block`].
    pub fn read_stripe_index(&self, stripe: StripeId, i: usize) -> Result<Vec<u8>, ProtocolError> {
        let mut op = ReadOp::new(self, stripe, i);
        self.drive(std::slice::from_mut(&mut op));
        op.into_result()
    }

    /// Scatter-gather `READ`: fetches many logical blocks with one batched
    /// message per storage node (§3.11 batching) instead of one round trip
    /// per block.
    ///
    /// In the failure-free case every requested block is fetched exactly
    /// once and the whole call is a single `pfor` round over at most
    /// `min(len, n)` nodes — for a stripe-aligned sequential run of `m`
    /// blocks, `min(m, n)` round trips instead of `m`. A block the first
    /// round cannot serve (lost exchange, busy or INIT node) continues
    /// through the full [`Client::read_stripe_index`] protocol, degraded
    /// reads and recovery included, its later rounds still merged with
    /// the other blocks'.
    ///
    /// Returns the blocks in request order.
    ///
    /// # Errors
    ///
    /// As [`Client::read_block`].
    pub fn read_blocks(&self, lbs: &[u64]) -> Result<Vec<Vec<u8>>, ProtocolError> {
        let mut ops: Vec<ReadOp> = lbs
            .iter()
            .map(|&lb| {
                let pl = self.cfg.layout.locate(lb);
                ReadOp::new(self, StripeId(pl.stripe), pl.index)
            })
            .collect();
        self.drive(&mut ops);
        ops.into_iter().map(ReadOp::into_result).collect()
    }

    /// `WRITE` of a logical block (Fig. 5): in the failure-free case, one
    /// `swap` round trip to the data node plus one `add` per redundant node
    /// (batched per the configured [`UpdateStrategy`](crate::UpdateStrategy)).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadBlockSize`] for a wrong-sized value; otherwise
    /// as [`Client::read_block`].
    pub fn write_block(&self, logical_block: u64, value: Vec<u8>) -> Result<(), ProtocolError> {
        self.write_block_from(logical_block, &value)
    }

    /// [`write_block`](Client::write_block) from a borrowed slice: the
    /// caller keeps ownership and no staging copy is made until the `swap`
    /// payload itself is built. This is the natural entry point for
    /// callers that hold a large buffer and write it out block by block
    /// (e.g. the blockdev layer), where the `Vec` variant forced one extra
    /// whole-block copy per write.
    ///
    /// # Errors
    ///
    /// As [`Client::write_block`].
    pub fn write_block_from(&self, logical_block: u64, value: &[u8]) -> Result<(), ProtocolError> {
        self.check_block_size(value)?;
        let pl = self.cfg.layout.locate(logical_block);
        self.write_stripe(StripeId(pl.stripe), vec![(pl.index, value)])
    }

    fn check_block_size(&self, value: &[u8]) -> Result<(), ProtocolError> {
        if value.len() != self.cfg.block_size {
            return Err(ProtocolError::BadBlockSize {
                expected: self.cfg.block_size,
                got: value.len(),
            });
        }
        Ok(())
    }

    /// Runs one [`WriteOp`] over data blocks of `stripe`, recording its
    /// completed tids for garbage collection (Fig. 7's `gc[j]` lists).
    fn write_stripe(&self, s: StripeId, items: Vec<(usize, &[u8])>) -> Result<(), ProtocolError> {
        let items = items
            .into_iter()
            .map(|(i, v)| (i, Cow::Borrowed(v)))
            .collect();
        let mut op = WriteOp::new(self, s, items);
        self.drive(std::slice::from_mut(&mut op));
        let mut gc = self.gc.lock();
        for (key, tid) in op.gc_records() {
            gc.pending.entry(key).or_default().push(tid);
        }
        op.finish()
    }

    /// Scatter-gather `WRITE`: writes many logical blocks, grouping them by
    /// stripe so each stripe pays one `swap` round plus one *batched* `add`
    /// message per redundant node instead of one message per block, and
    /// pipelining independent stripes across a bounded scoped-thread pool
    /// of [`ProtocolConfig::pipeline_width`] workers.
    ///
    /// Atomicity is per block, exactly as with a loop of
    /// [`Client::write_block`]: the multi-block call itself is not atomic
    /// (the physical-disk contract), so on error some blocks may have been
    /// written. Duplicate logical blocks collapse to the last value given,
    /// matching the final state of the equivalent sequential loop.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadBlockSize`] if any value is not block-sized
    /// (checked before any RPC); otherwise the first per-block error, after
    /// the remaining stripes have been given their chance to complete.
    pub fn write_blocks(&self, writes: &[(u64, &[u8])]) -> Result<(), ProtocolError> {
        for &(_, value) in writes {
            self.check_block_size(value)?;
        }
        let mut by_stripe: BTreeMap<u64, BTreeMap<usize, &[u8]>> = BTreeMap::new();
        for &(lb, value) in writes {
            let pl = self.cfg.layout.locate(lb);
            by_stripe
                .entry(pl.stripe)
                .or_default()
                .insert(pl.index, value);
        }
        type StripeWork<'v> = (StripeId, Vec<(usize, &'v [u8])>);
        let work: Vec<StripeWork> = by_stripe
            .into_iter()
            .map(|(s, items)| (StripeId(s), items.into_iter().collect()))
            .collect();
        let width = self.cfg.pipeline_width.max(1).min(work.len());
        if width <= 1 {
            for (s, items) in work {
                self.write_stripe(s, items)?;
            }
            return Ok(());
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let first_err: Mutex<Option<ProtocolError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..width {
                // A failed stripe does not stop the others: atomicity is
                // per block, and finishing independent stripes leaves the
                // disk closer to the requested state.
                scope.spawn(|| {
                    while let Some((s, items)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if let Err(e) = self.write_stripe(*s, items.clone()) {
                            first_err.lock().get_or_insert(e);
                        }
                    }
                });
            }
        });
        first_err.into_inner().map_or(Ok(()), Err)
    }

    /// Runs recovery for `stripe` until it completes — either by this
    /// client or by the client we lost the race to (Fig. 4 line 4 /
    /// Fig. 5's `start_recovery`).
    ///
    /// # Errors
    ///
    /// As [`crate::recovery`] plus [`ProtocolError::RetriesExhausted`] when
    /// losing the race repeatedly without the stripe becoming readable.
    pub fn recover_stripe(&self, stripe: StripeId) -> Result<(), ProtocolError> {
        let mut backoff = crate::op::backoff(&self.cfg, self.id(), stripe, 4);
        for _ in 0..=self.cfg.busy_retry_limit {
            match recover(&self.endpoint, &self.cfg, self.id(), stripe)? {
                RecoveryOutcome::Completed => return Ok(()),
                RecoveryOutcome::LostRace => {
                    backoff.pause();
                    // If the other client finished, the stripe is usable
                    // again; probe cheaply via a node's lock mode.
                    if self.probe_stripe_released(stripe)? {
                        return Ok(());
                    }
                }
            }
        }
        Err(ProtocolError::RetriesExhausted {
            what: "recovery",
            attempts: self.cfg.busy_retry_limit + 1,
        })
    }

    /// Rebuilds the given stripes with the batched engine (see
    /// [`crate::RebuildReport`]): chunks of stripes are repaired with one
    /// batched lock / state / reconstruct / finalize round per storage
    /// node, decode plans come from the config's shared cache, and up to
    /// `cfg.rebuild_width` chunks run concurrently. Healthy stripes are
    /// probed first and skipped; anything the batched fast path cannot
    /// settle falls back to serial Fig. 6 recovery.
    ///
    /// # Errors
    ///
    /// The first error from a chunk, after every chunk has run — stripes
    /// in other chunks are still repaired.
    pub fn rebuild_stripes(&self, stripes: &[StripeId]) -> Result<RebuildReport, ProtocolError> {
        crate::rebuild::rebuild_stripes(self, stripes)
    }

    /// Rebuilds every stripe that lost a block to `node` failing: remaps
    /// the node (fresh INIT replacement) if it is still down, then runs
    /// [`Client::rebuild_stripes`] over stripes `0..stripe_count`. With as
    /// many storage nodes as in-stripe indices (the §3.11 rotated layout),
    /// every stripe had a block on the failed node, so the whole range is
    /// examined; stripes already repaired are probed and skipped cheaply.
    ///
    /// # Errors
    ///
    /// As [`Client::rebuild_stripes`].
    pub fn rebuild_node(
        &self,
        node: NodeId,
        stripe_count: u64,
    ) -> Result<RebuildReport, ProtocolError> {
        let network = self.endpoint.network();
        if !network.node_is_up(node) {
            network.remap_node(node, self.cfg.remap_garbage);
        }
        let stripes: Vec<StripeId> = (0..stripe_count).map(StripeId).collect();
        self.rebuild_stripes(&stripes)
    }

    /// Checks whether the recovery we lost the race to has finished and
    /// released the stripe.
    ///
    /// Asks the data nodes in index order and settles for the first one
    /// that answers: the probe must not be pinned to data node 0, because
    /// when *that* is the crashed node a transport error here used to abort
    /// the whole recovery retry loop. An unreachable node just means "ask
    /// the next one"; if nobody answers, the stripe is conservatively
    /// treated as still recovering.
    fn probe_stripe_released(&self, stripe: StripeId) -> Result<bool, ProtocolError> {
        for t in 0..self.cfg.n() {
            match call(
                &self.endpoint,
                &self.cfg,
                self.node_of(stripe, t),
                Request::Probe { stripe },
            ) {
                Ok(Reply::Probe { opmode, lmode, .. }) => {
                    return Ok(opmode == OpMode::Norm && lmode == LMode::Unl)
                }
                Ok(other) => return Err(ProtocolError::unexpected("Reply::Probe", &other)),
                Err(ProtocolError::Rpc(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// One garbage-collection cycle (Fig. 7's `collect_garbage` task).
    ///
    /// Phase 1 drops previously-moved tids from nodes' oldlists; phase 2
    /// moves this client's completed writes from recentlists to oldlists.
    /// Nodes that are busy (locked or INIT) are skipped and retried next
    /// cycle, matching the paper's `repeat ... until OK` with bounded
    /// patience.
    ///
    /// # Errors
    ///
    /// Transport failures only; a busy node is not an error. Entries whose
    /// RPC fails (or is still queued when one fails) stay in the client's
    /// lists for the next cycle — an aborted cycle must never leak tids,
    /// or the nodes' recent/old lists are never collected.
    pub fn collect_garbage(&self) -> Result<GcReport, ProtocolError> {
        let mut report = GcReport::default();
        // Phase 1 drops the oldlist tids, then phase 2 moves recent → old;
        // phase 2's successes graduate to the next cycle's phase 1.
        self.gc_phase(false, &mut report)?;
        self.gc_phase(true, &mut report)?;
        Ok(report)
    }

    /// One phase of a GC cycle: `GcRecent` over the pending list when
    /// `recent`, else `GcOld` over the old list. Each entry leaves the
    /// bookkeeping only for its own RPC and is restored on a refusal or
    /// any failure, so an error aborts the cycle without losing state.
    fn gc_phase(&self, recent: bool, report: &mut GcReport) -> Result<(), ProtocolError> {
        type List = BTreeMap<(StripeId, usize), Vec<Tid>>;
        let list: fn(&mut GcLists) -> &mut List = match recent {
            true => |gc| &mut gc.pending,
            false => |gc| &mut gc.old,
        };
        let keys: Vec<(StripeId, usize)> = list(&mut self.gc.lock()).keys().copied().collect();
        for key @ (stripe, j) in keys {
            let Some(tids) = list(&mut self.gc.lock()).remove(&key) else {
                continue; // another cycle got here first
            };
            let req = match recent {
                true => Request::GcRecent {
                    stripe,
                    tids: tids.clone(),
                },
                false => Request::GcOld {
                    stripe,
                    tids: tids.clone(),
                },
            };
            let res = call(&self.endpoint, &self.cfg, self.node_of(stripe, j), req);
            let mut gc = self.gc.lock();
            let err = match res {
                Ok(Reply::Gc(true)) if recent => {
                    report.moved_to_old += tids.len();
                    gc.old.entry(key).or_default().extend(tids);
                    continue;
                }
                Ok(Reply::Gc(true)) => {
                    report.dropped += tids.len();
                    continue;
                }
                Ok(Reply::Gc(false)) => {
                    report.skipped_busy += 1;
                    None
                }
                Ok(other) => Some(ProtocolError::unexpected("Reply::Gc", &other)),
                Err(e) => Some(e),
            };
            list(&mut gc).entry(key).or_default().extend(tids);
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// The monitoring sweep of §3.10: probes every node of the given
    /// stripes and triggers recovery where it finds INIT nodes or stale
    /// unfinished writes older than `age_threshold` node ticks.
    ///
    /// # Errors
    ///
    /// Transport failures, or recovery errors for stripes beyond repair.
    pub fn monitor(
        &self,
        stripes: &[StripeId],
        age_threshold: u64,
    ) -> Result<MonitorReport, ProtocolError> {
        let mut report = MonitorReport::default();
        for &stripe in stripes {
            let probes: Vec<_> = (0..self.cfg.n())
                .map(|t| (self.node_of(stripe, t), Request::Probe { stripe }))
                .collect();
            let mut needs_recovery = false;
            for res in call_many(&self.endpoint, &self.cfg, probes) {
                match res? {
                    Reply::Probe {
                        opmode,
                        oldest_pending_age,
                        ..
                    } => {
                        if opmode == OpMode::Init
                            || oldest_pending_age.is_some_and(|a| a >= age_threshold)
                        {
                            needs_recovery = true;
                        }
                    }
                    other => return Err(ProtocolError::unexpected("Reply::Probe", &other)),
                }
            }
            if needs_recovery {
                self.recover_stripe(stripe)?;
                report.recovered.push(stripe);
            } else {
                report.healthy += 1;
            }
        }
        Ok(report)
    }

    /// Number of tids awaiting garbage collection (both phases) — §6.5's
    /// client-side bookkeeping.
    pub fn gc_backlog(&self) -> usize {
        let gc = self.gc.lock();
        gc.pending.values().map(Vec::len).sum::<usize>()
            + gc.old.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_transport::{Network, NetworkConfig};

    fn client(k: usize, n: usize) -> Client {
        let cfg = ProtocolConfig::new(k, n, 16).unwrap();
        let net = Network::new(NetworkConfig {
            n_nodes: n,
            block_size: 16,
            ..NetworkConfig::default()
        });
        Client::new(net.client(ClientId(1)), cfg)
    }

    #[test]
    fn accessors_expose_identity_and_config() {
        let c = client(2, 4);
        assert_eq!(c.id(), ClientId(1));
        assert_eq!(c.config().k(), 2);
        assert_eq!(c.endpoint().id(), ClientId(1));
    }

    #[test]
    fn gc_backlog_grows_with_writes_and_drains_with_cycles() {
        let c = client(2, 4);
        assert_eq!(c.gc_backlog(), 0);
        c.write_block(0, vec![1; 16]).unwrap();
        c.write_block(1, vec![2; 16]).unwrap();
        // Each write records its tid for the data node + 2 redundant nodes.
        assert_eq!(c.gc_backlog(), 6);
        c.collect_garbage().unwrap();
        assert_eq!(c.gc_backlog(), 6, "phase 2 done; tids now await phase 1");
        c.collect_garbage().unwrap();
        assert_eq!(c.gc_backlog(), 0);
    }

    fn client_on_net(k: usize, n: usize, auto_remap: bool) -> (std::sync::Arc<Network>, Client) {
        let mut cfg = ProtocolConfig::new(k, n, 16).unwrap();
        cfg.auto_remap = auto_remap;
        let net = Network::new(NetworkConfig {
            n_nodes: n,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        (net, c)
    }

    #[test]
    fn gc_cycle_aborted_by_a_crashed_node_keeps_its_bookkeeping() {
        let (net, c) = client_on_net(2, 4, false);
        c.write_block(0, vec![1; 16]).unwrap();
        c.write_block(1, vec![2; 16]).unwrap();
        assert_eq!(c.gc_backlog(), 6);
        // Crash stripe 0's data node; with auto-remap off the GC cycle
        // aborts on the dead node's RPC error.
        let victim = c.node_of(StripeId(0), 0);
        net.crash_node(victim);
        assert!(c.collect_garbage().is_err());
        assert_eq!(
            c.gc_backlog(),
            6,
            "an aborted cycle must restore every in-flight tid"
        );
        // Replace the node and repair the affected stripe (reads alone no
        // longer repair anything — the degraded path serves them lock-free
        // and leaves repair to recovery/rebuild); the preserved backlog
        // then drains to zero over the usual two-phase cycles.
        net.remap_node(victim, 0xA5);
        c.recover_stripe(StripeId(0)).unwrap();
        c.read_block(0).unwrap();
        c.read_block(1).unwrap();
        while c.gc_backlog() > 0 {
            c.collect_garbage().unwrap();
        }
    }

    #[test]
    fn lost_race_probe_falls_past_a_crashed_data_node() {
        let (net, c) = client_on_net(2, 4, false);
        c.write_block(0, vec![3; 16]).unwrap();
        let stripe = StripeId(0);
        // Crash the first data node; the probe used to be hard-wired to it
        // and surfaced the transport error, aborting recovery's retry loop.
        net.crash_node(c.node_of(stripe, 0));
        assert!(
            c.probe_stripe_released(stripe).unwrap(),
            "an unreachable first node means: ask the next one"
        );
    }

    #[test]
    fn an_op_that_stops_reading_its_replies_does_not_shift_the_next() {
        use ajx_storage::{Epoch, GetStateReply, ReadReply};
        // A 2-of-5 code: block 0 of stripe 0 reads degraded, block 0 of
        // stripe 1 (logical block 2) normally, in one batched drive.
        let cfg = ProtocolConfig::new(2, 5, 16).unwrap();
        let net = Network::new(NetworkConfig {
            n_nodes: 5,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        c.write_block(2, vec![7; 16]).unwrap();
        let mut lost = ReadOp::new(&c, StripeId(0), 0);
        assert!(matches!(lost.poll(), Step::Send(_)));
        let none = ReadReply {
            block: None,
            lmode: LMode::Unl,
        };
        lost.feed(&mut vec![Ok(Reply::Read(none))].into_iter());
        assert!(matches!(lost.poll(), Step::Send(_)));
        // Round 1 of the degraded read: peers 1 and 2 do not answer, so
        // the plan is {3, 4}, both still to fetch. Their round-1 epoch is
        // one the nodes do not have: round 2's first reply fails the
        // drift check and the op stops reading there.
        let lost_reply = Err(ProtocolError::Rpc(ajx_transport::RpcError::Timeout(
            NodeId(0),
        )));
        let meta = Ok(Reply::GetState(GetStateReply {
            opmode: OpMode::Norm,
            recons_set: vec![],
            oldlist: vec![],
            recentlist: vec![],
            block: None,
            epoch: Epoch(1),
        }));
        let round1 = vec![lost_reply.clone(), lost_reply, meta.clone(), meta];
        lost.feed(&mut round1.into_iter());
        let mut ops = [lost, ReadOp::new(&c, StripeId(1), 0)];
        c.drive(&mut ops);
        let [lost, other] = ops;
        assert_eq!(other.into_result().unwrap(), vec![7; 16]);
        // The first op recovered the (healthy, unwritten) stripe and read.
        assert_eq!(lost.into_result().unwrap(), vec![0; 16]);
    }

    #[test]
    fn monitor_reports_healthy_stripes_without_recovery() {
        let c = client(2, 4);
        c.write_block(0, vec![1; 16]).unwrap();
        // Very generous age threshold: the just-written tid is not stale.
        let report = c.monitor(&[StripeId(0), StripeId(5)], u64::MAX).unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.healthy, 2);
    }

    #[test]
    fn monitor_on_no_stripes_is_empty() {
        let c = client(2, 4);
        let report = c.monitor(&[], 1).unwrap();
        assert_eq!(report, MonitorReport::default());
    }

    #[test]
    fn bad_block_size_rejected_before_any_rpc() {
        let c = client(2, 4);
        let before = c.endpoint().stats().snapshot();
        let err = c.write_block(0, vec![1; 15]).unwrap_err();
        assert!(matches!(err, ProtocolError::BadBlockSize { .. }));
        assert_eq!(
            c.endpoint().stats().snapshot().since(&before).msgs_sent,
            0,
            "validation happens client-side"
        );
    }

    #[test]
    #[should_panic(expected = "data index")]
    fn out_of_range_stripe_index_panics() {
        let c = client(2, 4);
        let _ = c.read_stripe_index(StripeId(0), 2);
    }

    #[test]
    fn explicit_recovery_on_a_healthy_stripe_is_a_noop_rewrite() {
        let c = client(2, 4);
        c.write_block(0, vec![9; 16]).unwrap();
        c.recover_stripe(StripeId(0)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), vec![9; 16]);
        // Running it again immediately is fine too (idempotent).
        c.recover_stripe(StripeId(0)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), vec![9; 16]);
    }

    #[test]
    fn sequence_numbers_are_unique_across_threads() {
        let c = std::sync::Arc::new(client(2, 4));
        crossbeam_scope_writes(&c);
        // 4 threads x 25 writes: every write got a distinct tid, so the
        // data node's recentlist (pre-GC) holds exactly 100 entries.
        let total: usize = (0..2u64)
            .map(|lb| {
                let node = c.node_of(StripeId(0), lb as usize);
                c.endpoint().network().with_node(node, |n| {
                    n.block_state(StripeId(0)).map_or(0, |b| b.pending_tids())
                })
            })
            .sum();
        assert_eq!(total, 100);
    }

    fn crossbeam_scope_writes(c: &std::sync::Arc<Client>) {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(c);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        c.write_block((t + i) % 2, vec![i as u8; 16]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batched_writes_and_reads_match_the_per_block_loop() {
        let c = client(2, 4);
        let blocks: Vec<Vec<u8>> = (0..8u8).map(|b| vec![b.wrapping_mul(31); 16]).collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(lb, v)| (lb as u64, v.as_slice()))
            .collect();
        c.write_blocks(&writes).unwrap();
        // Per-block reads see the batched writes...
        for (lb, v) in blocks.iter().enumerate() {
            assert_eq!(&c.read_block(lb as u64).unwrap(), v);
        }
        // ...and the batched read agrees, in request order (here shuffled).
        let lbs: Vec<u64> = vec![5, 0, 7, 2, 2, 4];
        let got = c.read_blocks(&lbs).unwrap();
        for (x, &lb) in lbs.iter().enumerate() {
            assert_eq!(got[x], blocks[lb as usize], "lb {lb}");
        }
        assert!(c.read_blocks(&[]).unwrap().is_empty());
        c.write_blocks(&[]).unwrap();
    }

    #[test]
    fn duplicate_blocks_in_a_batched_write_collapse_to_the_last_value() {
        let c = client(2, 4);
        let a = vec![1u8; 16];
        let b = vec![2u8; 16];
        c.write_blocks(&[(3, a.as_slice()), (3, b.as_slice())])
            .unwrap();
        assert_eq!(c.read_block(3).unwrap(), b);
    }

    #[test]
    fn batched_read_fetches_each_stripe_at_most_once() {
        let c = client(2, 4);
        let blocks: Vec<Vec<u8>> = (0..8u8).map(|b| vec![b + 1; 16]).collect();
        for (lb, v) in blocks.iter().enumerate() {
            c.write_block(lb as u64, v.clone()).unwrap();
        }
        let before = c.endpoint().stats().snapshot();
        let lbs: Vec<u64> = (0..8).collect();
        let got = c.read_blocks(&lbs).unwrap();
        let cost = c.endpoint().stats().snapshot().since(&before);
        for (x, v) in blocks.iter().enumerate() {
            assert_eq!(&got[x], v);
        }
        // 8 blocks over 4 stripes of a 2-of-4 code touch exactly 4 distinct
        // data nodes (rotated layout), each once with a 2-read batch: 4
        // round trips instead of the per-block loop's 8 — and never more
        // than one fetch per stripe.
        assert_eq!(cost.msgs_sent, 4);
        assert_eq!(cost.round_trips, 4);
    }

    #[test]
    fn batched_write_coalesces_adds_per_redundant_node() {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.pipeline_width = 1; // keep the message count deterministic
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        let a = vec![7u8; 16];
        let b = vec![8u8; 16];
        let before = c.endpoint().stats().snapshot();
        // Both data blocks of stripe 0: one swap per data node (2 messages)
        // plus ONE batched add per redundant node (2 messages) — the
        // sequential loop would send 2 x (1 swap + 2 adds) = 6.
        c.write_blocks(&[(0, a.as_slice()), (1, b.as_slice())])
            .unwrap();
        let cost = c.endpoint().stats().snapshot().since(&before);
        assert_eq!(cost.msgs_sent, 4);
        assert_eq!(cost.round_trips, 4);
        assert_eq!(c.read_block(0).unwrap(), a);
        assert_eq!(c.read_block(1).unwrap(), b);
        // Parity holds after the batched write.
        let stripe_blocks: Vec<Vec<u8>> = (0..4)
            .map(|t| {
                let node = c.node_of(StripeId(0), t);
                net.with_node(node, |sn| {
                    sn.block_state(StripeId(0))
                        .map_or(vec![0; 16], |blk| blk.raw_block().to_vec())
                })
            })
            .collect();
        assert!(c.config().code.verify_stripe(&stripe_blocks).unwrap());
    }

    #[test]
    fn pipelined_write_blocks_spans_many_stripes_concurrently() {
        let c = client(2, 4); // default pipeline_width = 8
        let blocks: Vec<Vec<u8>> = (0..32u8).map(|b| vec![b ^ 0x5A; 16]).collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(lb, v)| (lb as u64, v.as_slice()))
            .collect();
        c.write_blocks(&writes).unwrap();
        let got = c.read_blocks(&(0..32u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(got, blocks);
    }

    #[test]
    fn batched_write_rejects_bad_block_size_before_any_rpc() {
        let c = client(2, 4);
        let ok = vec![1u8; 16];
        let bad = vec![1u8; 15];
        let before = c.endpoint().stats().snapshot();
        let err = c
            .write_blocks(&[(0, ok.as_slice()), (1, bad.as_slice())])
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadBlockSize { .. }));
        let cost = c.endpoint().stats().snapshot().since(&before);
        assert_eq!(cost.msgs_sent, 0, "validation happens before any send");
    }
}
