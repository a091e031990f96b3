//! Connection-multiplexed many-client workload driver.
//!
//! The paper's Fig. 9 experiments stop at 8 closed-loop clients — one
//! blocked thread each. The `ext_many_clients` scale-out experiment pushes
//! the same k-of-n read/write mix to 1k–10k *logical* clients, which rules
//! out thread-per-client: here a handful of OS threads multiplex the whole
//! fleet over the transport's completion-queue path
//! ([`ajx_transport::ClientEndpoint::submit_call`] /
//! [`poll_call`](ajx_transport::ClientEndpoint::poll_call)).
//!
//! Each logical client is a [`Client`] plus the one `ReadOp`/`WriteOp`
//! (Figs. 4-5) it is running — the ops the blocking and batched paths
//! drive. A failed call gets the shared transport-error rule
//! ([`crate::rpc::recourse`]) against a per-operation budget; waits are
//! parked, not slept. Recovery runs the blocking [`Client::recover_stripe`],
//! stalling the driver thread only when a fault occurs. Clients write
//! disjoint stripe ranges, so the paper's cross-client ordering machinery
//! is never the bottleneck measured.

use crate::backoff::BackoffSession;
use crate::client::Client;
use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::op::{Op, ReadOp, Step, WriteOp};
use crate::rpc::{recourse, Budget, Recourse};
use ajx_storage::{ClientId, NodeId, Reply, Request, StripeId};
use ajx_transport::{ClientEndpoint, NetStats, Network, PendingCall, RpcError};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of a [`run_mux_workload`] run.
#[derive(Debug, Clone)]
pub struct MuxOptions {
    /// Number of logical clients.
    pub clients: usize,
    /// Closed-loop operations per client.
    pub ops_per_client: usize,
    /// Percentage of operations that are READs (the rest are WRITEs).
    pub read_pct: u32,
    /// Stripes in each client's private range (clients never share one).
    pub stripes_per_client: u64,
    /// OS threads driving the client fleet.
    pub driver_threads: usize,
}

impl Default for MuxOptions {
    fn default() -> Self {
        MuxOptions {
            clients: 8,
            ops_per_client: 100,
            read_pct: 50,
            stripes_per_client: 4,
            driver_threads: 1,
        }
    }
}

/// Aggregate outcome of a [`run_mux_workload`] run.
#[derive(Debug)]
pub struct MuxReport {
    /// Logical clients driven.
    pub clients: usize,
    /// Operations that completed successfully.
    pub completed_ops: u64,
    /// Operations abandoned on a non-retryable error.
    pub failed_ops: u64,
    /// `Busy` rejections absorbed by backoff-and-resubmit.
    pub busy_shed: u64,
    /// Operations abandoned because they exhausted the per-operation
    /// [`crate::BackoffPolicy::busy_retry_budget`] (a subset of
    /// [`failed_ops`](Self::failed_ops)) — the determinate "node is
    /// permanently saturated" signal.
    pub busy_exhausted: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Operation-level latency histogram (p50/p99 via
    /// [`NetStats::latency_percentile`]).
    pub op_stats: Arc<NetStats>,
}

impl MuxReport {
    /// Aggregate completed operations per second.
    pub fn iops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed_ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// The operation a logical client is running.
enum FleetOp<'a> {
    Read(ReadOp<'a>),
    Write(WriteOp<'a>),
}

impl FleetOp<'_> {
    fn op(&mut self) -> &mut dyn Op {
        match self {
            FleetOp::Read(op) => op,
            FleetOp::Write(op) => op,
        }
    }
}

/// One request of the step in flight.
struct Call {
    node: NodeId,
    /// The request to re-send: a copy only of an idempotent one; others
    /// come back from a door refusal ([`PendingCall::take_unsent`]).
    copy: Option<Request>,
    state: CallState,
    /// Already remapped once: the next failure surfaces.
    remapped: bool,
}

enum CallState {
    Pending(PendingCall),
    /// Waiting out a backoff before the re-send.
    Parked(Instant),
    Resolved(Result<Reply, ProtocolError>),
}

fn submit(ep: &ClientEndpoint, node: NodeId, req: Request, remapped: bool) -> Call {
    let copy = req.is_idempotent().then(|| req.clone());
    Call {
        node,
        copy,
        state: CallState::Pending(ep.submit_call(node, req)),
        remapped,
    }
}

/// The operation a logical client is running, with the re-sends it may
/// still spend (`busy_retry_budget`, `rpc_retry_budget`).
struct Running<'a> {
    op: FleetOp<'a>,
    started: Instant,
    budget: Budget,
    /// A `Busy` surfaced with the budget spent.
    busy_exhausted: bool,
}

/// One logical client: a [`Client`] plus the operation it is running.
struct LogicalClient<'a> {
    client: &'a Client,
    base_stripe: u64,
    op_idx: usize,
    run: Option<Running<'a>>,
    calls: Vec<Call>,
    /// End of a [`Step::Pause`] in progress.
    paused_until: Option<Instant>,
    /// Pacing for transport re-sends.
    backoff: BackoffSession,
}

/// Run-wide counters.
#[derive(Default)]
struct Tally {
    op_stats: Arc<NetStats>,
    completed: AtomicU64,
    failed: AtomicU64,
    busy: AtomicU64,
    exhausted: AtomicU64,
}

/// Drives `opts.clients` logical clients through a closed-loop read/write
/// mix over `net`, multiplexed onto `opts.driver_threads` OS threads.
///
/// Every client gets its own [`ajx_transport::ClientEndpoint`] (own
/// fault-decision stream, own stats) and a private stripe range. Client
/// `c`'s op `i` targets data index `i mod k` of stripe
/// `c · stripes_per_client + i mod stripes_per_client`; it is a READ when
/// `37 · i mod 100 < read_pct`, else a WRITE of the byte
/// `(i as u8) ^ (c as u8).rotate_left(3)`.
pub fn run_mux_workload(net: &Arc<Network>, cfg: &ProtocolConfig, opts: &MuxOptions) -> MuxReport {
    let tally = Tally::default();
    let clients: Vec<Client> = (0..opts.clients)
        .map(|c| Client::new(net.client(ClientId(c as u32)), cfg.clone()))
        .collect();
    let mut fleet: Vec<LogicalClient> = (clients.iter().enumerate())
        .map(|(c, client)| LogicalClient {
            client,
            base_stripe: c as u64 * opts.stripes_per_client,
            op_idx: 0,
            run: None,
            calls: Vec::new(),
            paused_until: None,
            backoff: cfg.backoff.session(0xDEAD_BEEF ^ (c as u64) << 8),
        })
        .collect();

    let started = Instant::now();
    let threads = opts.driver_threads.max(1).min(fleet.len().max(1));
    let chunk = fleet.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for slice in fleet.chunks_mut(chunk) {
            let tally = &tally;
            s.spawn(move || loop {
                let now = Instant::now();
                let mut live = false;
                let mut moved = false;
                for c in slice.iter_mut() {
                    if let Some(m) = step(c, cfg, opts, tally, now) {
                        live = true;
                        moved |= m;
                    }
                }
                if !live {
                    break;
                }
                if !moved {
                    std::thread::yield_now();
                }
            });
        }
    });

    MuxReport {
        clients: opts.clients,
        completed_ops: tally.completed.into_inner(),
        failed_ops: tally.failed.into_inner(),
        busy_shed: tally.busy.into_inner(),
        busy_exhausted: tally.exhausted.into_inner(),
        elapsed: started.elapsed(),
        op_stats: tally.op_stats,
    }
}

/// Advances one client: resolves its calls in flight, then polls its
/// operation (starting the next one when idle) until it must wait.
/// `None` once the client has finished all its operations, else whether
/// anything moved.
fn step(
    c: &mut LogicalClient<'_>,
    cfg: &ProtocolConfig,
    opts: &MuxOptions,
    tally: &Tally,
    now: Instant,
) -> Option<bool> {
    if !c.calls.is_empty() {
        let (moved, fed) = poll_calls(c, cfg, tally, now);
        if !fed {
            return Some(moved);
        }
    }
    if c.paused_until.is_some_and(|at| now < at) {
        return Some(false);
    }
    c.paused_until = None;
    loop {
        if c.run.is_none() {
            if c.op_idx >= opts.ops_per_client {
                return None;
            }
            start_op(c, cfg, opts, now);
        }
        let op = c.run.as_mut().expect("an op is running").op.op();
        match op.poll() {
            Step::Send(calls) | Step::Broadcast(calls) => {
                let ep = c.client.endpoint();
                c.calls.extend(
                    calls
                        .into_iter()
                        .map(|(node, req)| submit(ep, node, req, false)),
                );
                return Some(true);
            }
            Step::Recover(s) => c.client.recover_stripe(s).unwrap_or_else(|e| op.fail(e)),
            Step::Pause(d) if d.is_zero() => {}
            Step::Pause(d) => {
                c.paused_until = Some(now + d);
                return Some(true);
            }
            Step::Done => finish_op(c, tally, now),
        }
    }
}

/// Starts the next operation of the closed-loop schedule.
fn start_op(c: &mut LogicalClient<'_>, cfg: &ProtocolConfig, opts: &MuxOptions, now: Instant) {
    let stripe = StripeId(c.base_stripe + c.op_idx as u64 % opts.stripes_per_client);
    let i = c.op_idx % cfg.k();
    // Deterministic interleaved mix, e.g. read_pct 60 → ops 0-59 of every
    // hundred read. Spread by a stride so reads and writes mix.
    let op = if (c.op_idx as u32).wrapping_mul(37) % 100 < opts.read_pct {
        FleetOp::Read(ReadOp::new(c.client, stripe, i))
    } else {
        let fill = (c.op_idx as u8) ^ (c.client.id().0 as u8).rotate_left(3);
        let value = Cow::Owned(vec![fill; cfg.block_size]);
        let items = vec![(i, value)];
        FleetOp::Write(WriteOp::new(c.client, stripe, items))
    };
    let budget = Budget {
        busy: cfg.backoff.busy_retry_budget,
        lost: cfg.backoff.rpc_retry_budget,
    };
    c.run = Some(Running {
        op,
        started: now,
        budget,
        busy_exhausted: false,
    });
}

/// Polls the step's calls once, applying the transport-error rule to
/// failures; feeds the op once all have resolved. Whether anything moved,
/// and whether the op was fed.
fn poll_calls(
    c: &mut LogicalClient<'_>,
    cfg: &ProtocolConfig,
    tally: &Tally,
    now: Instant,
) -> (bool, bool) {
    let ep = c.client.endpoint();
    let run = c.run.as_mut().expect("calls belong to an op");
    let mut moved = false;
    for call in &mut c.calls {
        let (err, unsent) = match &mut call.state {
            CallState::Pending(pending) => match ep.poll_call(pending) {
                None => continue,
                Some(Ok(reply)) => {
                    call.state = CallState::Resolved(Ok(reply));
                    moved = true;
                    continue;
                }
                Some(Err(e)) => (e, pending.take_unsent()),
            },
            // A parked re-send is due.
            CallState::Parked(at) if now >= *at => {
                let req = call.copy.take().expect("a parked call keeps its request");
                *call = submit(ep, call.node, req, call.remapped);
                moved = true;
                continue;
            }
            _ => continue,
        };
        moved = true;
        let busy = matches!(err, RpcError::Busy(_));
        if busy {
            tally.busy.fetch_add(1, Ordering::Relaxed);
        }
        let resend = unsent.or_else(|| call.copy.take());
        let what = match &resend {
            Some(req) if !call.remapped => recourse(cfg, req, &err, &mut run.budget),
            _ => Recourse::Surface,
        };
        match (what, resend) {
            (Recourse::Remap, Some(req)) => {
                ep.network().remap_node(call.node, cfg.remap_garbage);
                *call = submit(ep, call.node, req, true);
            }
            (Recourse::Resend, Some(req)) => {
                call.copy = Some(req);
                call.state = CallState::Parked(now + c.backoff.next_delay());
            }
            _ => {
                run.busy_exhausted |= busy;
                call.state = CallState::Resolved(Err(err.into()));
            }
        }
    }
    if !c
        .calls
        .iter()
        .all(|call| matches!(call.state, CallState::Resolved(_)))
    {
        return (moved, false);
    }
    let mut replies = c.calls.drain(..).map(|call| match call.state {
        CallState::Resolved(res) => res,
        _ => unreachable!("all calls resolved"),
    });
    run.op.op().feed(&mut replies);
    (true, true)
}

fn finish_op(c: &mut LogicalClient<'_>, tally: &Tally, now: Instant) {
    let run = c.run.take().expect("an op finished");
    let ok = match run.op {
        FleetOp::Read(op) => op.into_result().is_ok(),
        // The fleet never runs Fig. 7 garbage collection.
        FleetOp::Write(op) => op.finish().is_ok(),
    };
    if ok {
        tally
            .op_stats
            .record_latency(now.saturating_duration_since(run.started));
        tally.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        tally.failed.fetch_add(1, Ordering::Relaxed);
        if run.busy_exhausted {
            tally.exhausted.fetch_add(1, Ordering::Relaxed);
        }
    }
    c.op_idx += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_transport::NetworkConfig;

    fn cfg_4_8(block: usize) -> ProtocolConfig {
        ProtocolConfig::new(4, 8, block).unwrap()
    }

    fn net_for(cfg: &ProtocolConfig, extra: impl FnOnce(&mut NetworkConfig)) -> Arc<Network> {
        let mut nc = NetworkConfig {
            n_nodes: cfg.n(),
            block_size: cfg.block_size,
            code: Some(cfg.code.clone()),
            ..NetworkConfig::default()
        };
        extra(&mut nc);
        Network::new(nc)
    }

    #[test]
    fn mixed_workload_completes_and_keeps_stripes_decodable() {
        let cfg = cfg_4_8(64);
        let net = net_for(&cfg, |_| {});
        let opts = MuxOptions {
            clients: 16,
            ops_per_client: 30,
            read_pct: 60,
            stripes_per_client: 4,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops + report.failed_ops, 16 * 30);
        assert_eq!(report.failed_ops, 0, "fault-free run must not abandon ops");
        assert!(report.op_stats.latency_percentile(0.5).is_some());

        // Every written stripe must still satisfy the code: collect the
        // n blocks of a few stripes and verify the parity relation.
        for stripe in [0u64, 5, 17, 63] {
            let blocks: Vec<Vec<u8>> = (0..cfg.n())
                .map(|t| {
                    let node = NodeId(cfg.layout.node_for(stripe, t) as u32);
                    net.with_node(node, |n| {
                        n.block_state(StripeId(stripe))
                            .map(|b| b.raw_block().to_vec())
                            .unwrap_or_else(|| vec![0; cfg.block_size])
                    })
                })
                .collect();
            assert!(
                cfg.code.verify_stripe(&blocks).unwrap(),
                "stripe {stripe} lost code consistency"
            );
        }
    }

    #[test]
    fn backpressured_run_sheds_and_still_completes_everything() {
        // A tiny queue forces Busy shedding; the driver's park-and-resubmit
        // must still complete every op (shed requests were never applied).
        let cfg = cfg_4_8(64);
        let net = net_for(&cfg, |nc| {
            nc.server_threads = 1;
            nc.node_queue_depth = Some(2);
        });
        let opts = MuxOptions {
            clients: 32,
            ops_per_client: 10,
            read_pct: 20,
            stripes_per_client: 2,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 32 * 10);
        assert_eq!(report.failed_ops, 0);
    }

    #[test]
    fn saturated_cluster_exhausts_busy_budget_and_terminates() {
        // Every node paused with its queue stuffed full: each fleet RPC is
        // shed with `Busy` forever. Before the budget existed this loop
        // parked and resubmitted without bound — the run never terminated.
        // Now each op absorbs `busy_retry_budget` sheds and then fails
        // determinately.
        let mut cfg = cfg_4_8(32);
        cfg.backoff.base = Duration::ZERO; // parks expire immediately
        cfg.backoff.busy_retry_budget = 4;
        let net = net_for(&cfg, |nc| {
            nc.server_threads = 1;
            nc.node_queue_depth = Some(1);
        });
        let filler = net.client(ClientId(999));
        for t in 0..cfg.n() {
            net.pause_node(NodeId(t as u32));
        }
        // Depth 1 plus the job the parked worker already pulled: two
        // submissions saturate a node, the third is shed. Wait for the
        // worker to pull the first before queueing the second, or a fleet
        // request could sneak into the queue and hang the run.
        let mut _held: Vec<_> = Vec::new();
        for t in 0..cfg.n() {
            let node = NodeId(t as u32);
            _held.push(filler.submit_call(
                node,
                Request::Read {
                    stripe: StripeId(0),
                },
            ));
            while net.node_queue_len(node) > 0 {
                std::thread::yield_now();
            }
            _held.push(filler.submit_call(
                node,
                Request::Read {
                    stripe: StripeId(0),
                },
            ));
            assert_eq!(net.node_queue_len(node), 1, "queue at capacity");
        }
        let opts = MuxOptions {
            clients: 4,
            ops_per_client: 3,
            read_pct: 100,
            stripes_per_client: 2,
            driver_threads: 1,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 0);
        assert_eq!(report.failed_ops, 4 * 3, "every op must fail determinately");
        assert_eq!(
            report.busy_exhausted,
            4 * 3,
            "every failure must be a budget exhaustion"
        );
        assert!(
            report.busy_shed >= report.busy_exhausted * 4,
            "each op must absorb its full budget before giving up"
        );
        for t in 0..cfg.n() {
            net.resume_node(NodeId(t as u32));
        }
    }

    #[test]
    fn many_clients_multiplex_on_few_threads() {
        let cfg = cfg_4_8(32);
        let net = net_for(&cfg, |_| {});
        let opts = MuxOptions {
            clients: 512,
            ops_per_client: 4,
            read_pct: 50,
            stripes_per_client: 2,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 512 * 4);
        assert!(report.iops() > 0.0);
    }
}
