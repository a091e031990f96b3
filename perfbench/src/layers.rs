//! The traced run's per-layer measurements.
//!
//! The program has no internal spans yet, so each layer is timed from
//! outside: the benchmark calls the crate's public functions directly on
//! the workload's own inputs (its code shape, block size and the blocks it
//! wrote) and counts what the cluster did around each measured phase.

use crate::oracle::fill_block;
use crate::report::{median, time_us, Outcome};
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{ClientId, Epoch, NodeId, Request, ShardedNode, StripeId, Tid};
use ajx_transport::{ClientEndpoint, NetSnapshot};
use std::time::Instant;

/// Repetitions of each timed layer call.
const REPS: usize = 400;

/// Node-side counters summed over every storage node.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeCounters {
    /// Requests handled.
    pub ops_handled: u64,
    /// Lock-protocol requests handled.
    pub lock_ops: u64,
    /// Shard-lock acquisitions that had to wait.
    pub contended: u64,
    /// Media writes.
    pub media_writes: u64,
}

/// Cluster-wide counters: node-side and network traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Node-side counters.
    pub node: NodeCounters,
    /// Network-wide traffic.
    pub net: NetSnapshot,
}

impl Counters {
    /// Reads every counter. Locks each node whole, so call it only while
    /// no operation is in flight.
    pub fn take(cluster: &Cluster) -> Self {
        let mut node = NodeCounters::default();
        for t in 0..cluster.config().n() {
            cluster.network().with_node(NodeId(t as u32), |v| {
                node.ops_handled += v.ops_handled();
                node.lock_ops += v.lock_ops();
                node.contended += v.contended_shard_locks();
                node.media_writes += v.media_writes();
            });
        }
        Counters {
            node,
            net: cluster.network().stats().snapshot(),
        }
    }

    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            node: NodeCounters {
                ops_handled: self.node.ops_handled - earlier.node.ops_handled,
                lock_ops: self.node.lock_ops - earlier.node.lock_ops,
                contended: self.node.contended - earlier.node.contended,
                media_writes: self.node.media_writes - earlier.node.media_writes,
            },
            net: self.net.since(&earlier.net),
        }
    }

    /// The counter-wise sum of two deltas.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            node: NodeCounters {
                ops_handled: self.node.ops_handled + other.node.ops_handled,
                lock_ops: self.node.lock_ops + other.node.lock_ops,
                contended: self.node.contended + other.node.contended,
                media_writes: self.node.media_writes + other.node.media_writes,
            },
            net: NetSnapshot {
                msgs_sent: self.net.msgs_sent + other.net.msgs_sent,
                bytes_sent: self.net.bytes_sent + other.net.bytes_sent,
                msgs_received: self.net.msgs_received + other.net.msgs_received,
                bytes_received: self.net.bytes_received + other.net.bytes_received,
                payload_sent: self.net.payload_sent + other.net.payload_sent,
                payload_received: self.net.payload_received + other.net.payload_received,
                round_trips: self.net.round_trips + other.net.round_trips,
            },
        }
    }

    /// Emits the per-op storage and transport counters of a measured phase
    /// that completed `ops` operations.
    pub fn emit(&self, out: &mut Outcome, ops: u64) {
        let per = |x: u64| x as f64 / ops.max(1) as f64;
        out.metric(
            "storage.ops_handled_per_op",
            per(self.node.ops_handled),
            "count",
        );
        out.metric("storage.lock_ops", per(self.node.lock_ops), "count");
        out.metric(
            "storage.shard_contention_ratio",
            self.node.contended as f64 / self.node.ops_handled.max(1) as f64,
            "ratio",
        );
        out.metric(
            "storage.media_writes_per_op",
            per(self.node.media_writes),
            "count",
        );
        out.metric("transport.msgs_per_op", per(self.net.total_msgs()), "count");
        out.metric(
            "transport.wire_bytes_per_op",
            per(self.net.bytes_sent + self.net.bytes_received),
            "B",
        );
        out.metric(
            "transport.payload_bytes_per_op",
            per(self.net.payload_sent + self.net.payload_received),
            "B",
        );
    }
}

/// Runs `f` and, when `traced`, returns the round trips it cost on `ep`
/// by snapshotting the endpoint's counters around it; 0 otherwise.
pub fn round_trips(traced: bool, ep: &ClientEndpoint, f: impl FnOnce()) -> u64 {
    if !traced {
        f();
        return 0;
    }
    let before = ep.stats().snapshot();
    f();
    ep.stats().snapshot().since(&before).round_trips
}

/// `ajx_gf::kernel::mul_add_assign` throughput on the active backend over
/// `len`-byte slices, in GB/s (median of several timed bursts).
pub fn gf_mul_add_gb_s(len: usize) -> f64 {
    let mut src = vec![0u8; len];
    fill_block(0x6f, 0, 0, &mut src);
    let mut dst = vec![0u8; len];
    let iters = (64 << 20) / len.max(1);
    let bursts: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for c in 0..iters {
                ajx_gf::kernel::mul_add_assign(&mut dst, (c as u8) | 2, &src);
            }
            std::hint::black_box(&dst);
            (iters * len) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&bursts)
}

/// One written block as the layer replays see it: which logical block,
/// and its content before and after the write.
pub struct WriteSample {
    /// Logical block.
    pub lb: u64,
    /// Content after the write.
    pub new: Vec<u8>,
    /// Content before the write.
    pub old: Vec<u8>,
}

/// Rebuilds the `(lb, version)` writes a workload made into content pairs.
pub fn write_samples(seed: u64, bs: usize, writes: &[(u64, u32)]) -> Vec<WriteSample> {
    writes
        .iter()
        .map(|&(lb, v)| {
            let mut new = vec![0u8; bs];
            let mut old = vec![0u8; bs];
            fill_block(seed, lb, v, &mut new);
            fill_block(seed, lb, v.saturating_sub(1), &mut old);
            WriteSample { lb, new, old }
        })
        .collect()
}

/// The erasure and storage layers, timed on the workload's code, block
/// size and written blocks; `lost` is the stripe index the workload loses
/// (or would lose first) to a node failure.
pub fn code_and_node(
    out: &mut Outcome,
    cfg: &ProtocolConfig,
    samples: &[WriteSample],
    lost: usize,
) {
    let (k, n, bs) = (cfg.k(), cfg.n(), cfg.block_size);
    let code = &cfg.code;

    // erasure: the n − k redundant deltas one block write computes.
    let mut delta = vec![0u8; bs];
    let mut per_write: Vec<f64> = Vec::with_capacity(samples.len());
    for s in samples.iter().cycle().take(REPS) {
        let i = cfg.layout.locate(s.lb).index;
        let t = Instant::now();
        for j in 0..n - k {
            code.delta_into_buf(j, i, &s.new, &s.old, &mut delta)
                .expect("block-sized buffers");
        }
        per_write.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(&delta);
    }
    out.metric("erasure.delta_us", median(&per_write), "us");

    // A real stripe of the workload's blocks: k data blocks plus parity.
    let data: Vec<Vec<u8>> = (0..k)
        .map(|x| samples[x % samples.len()].new.clone())
        .collect();
    let stripe = code.encode_stripe(&data).expect("block-sized data");
    let available: Vec<usize> = (0..n).filter(|&t| t != lost).collect();

    let survivors: Vec<usize> = code
        .select_decode_indices(&available)
        .expect("one loss is decodable");
    let plan = code.plan_decode(&survivors).expect("decodable survivors");
    let shares: Vec<&[u8]> = plan
        .indices()
        .iter()
        .map(|&t| stripe[t].as_slice())
        .collect();
    let mut outs = vec![vec![0u8; bs]; k];
    out.metric(
        "erasure.decode_us",
        time_us(REPS, || {
            let mut refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            plan.decode_into(&shares, &mut refs).expect("k shares");
        }),
        "us",
    );

    out.metric(
        "erasure.repair_plan_us",
        time_us(REPS, || {
            std::hint::black_box(code.repair_plan(lost, &available));
        }),
        "us",
    );
    let repair = code
        .repair_plan(lost, &available)
        .expect("one loss is repairable");
    out.metric(
        "erasure.repair_shares",
        repair.shares().len() as f64,
        "count",
    );
    let rshares: Vec<&[u8]> = repair.indices().map(|t| stripe[t].as_slice()).collect();
    let mut rebuilt = vec![0u8; bs];
    out.metric(
        "erasure.repair_reconstruct_us",
        time_us(REPS, || {
            repair
                .reconstruct_into(&rshares, &mut rebuilt)
                .expect("plan shares");
        }),
        "us",
    );
    assert_eq!(
        rebuilt, stripe[lost],
        "repair plan must rebuild the lost block"
    );
    out.metric(
        "erasure.plan_cache_entries",
        cfg.plan_cache.len() as f64,
        "count",
    );

    // storage: one standalone node replaying the requests these writes and
    // reads send, each timed around `ShardedNode::handle`.
    let node = ShardedNode::new(NodeId(0), bs, 8).with_code(code.clone());
    let stripe_of = |s: &WriteSample| StripeId(cfg.layout.locate(s.lb).stripe);
    let reps: Vec<&WriteSample> = samples.iter().cycle().take(REPS).collect();
    let mut seq = 0u64;
    let mut tid = |lb: u64| {
        seq += 1;
        Tid::new(seq, cfg.layout.locate(lb).index, ClientId(1))
    };
    let timed = |reqs: Vec<Request>| -> f64 {
        let v: Vec<f64> = reqs
            .into_iter()
            .map(|req| {
                let t = Instant::now();
                std::hint::black_box(node.handle(req));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&v)
    };
    let swaps: Vec<Request> = reps
        .iter()
        .map(|s| Request::Swap {
            stripe: stripe_of(s),
            value: s.new.clone(),
            ntid: tid(s.lb),
        })
        .collect();
    out.metric("storage.swap_us", timed(swaps), "us");
    let reads = reps
        .iter()
        .map(|s| Request::Read {
            stripe: stripe_of(s),
        })
        .collect();
    out.metric("storage.read_us", timed(reads), "us");
    let adds = reps
        .iter()
        .map(|s| Request::Add {
            stripe: stripe_of(s),
            delta: s.old.clone(),
            ntid: tid(s.lb),
            otid: None,
            epoch: Epoch(0),
            scale: None,
        })
        .collect();
    out.metric("storage.add_us", timed(adds), "us");
    // The batch a redundant node receives for a full-stripe write: the k
    // data blocks' adds in one message.
    let batches = reps
        .chunks(k)
        .filter(|c| c.len() == k)
        .map(|c| {
            let stripe = stripe_of(c[0]);
            Request::Batch(
                c.iter()
                    .map(|s| Request::Add {
                        stripe,
                        delta: s.old.clone(),
                        ntid: tid(s.lb),
                        otid: None,
                        epoch: Epoch(0),
                        scale: None,
                    })
                    .collect(),
            )
        })
        .collect();
    out.metric("storage.batch_us", timed(batches), "us");
    let states = reps
        .iter()
        .map(|s| Request::GetState {
            stripe: stripe_of(s),
        })
        .collect();
    out.metric("storage.get_state_us", timed(states), "us");
    let metas = reps
        .iter()
        .map(|s| Request::GetMeta {
            stripe: stripe_of(s),
        })
        .collect();
    out.metric("storage.get_meta_us", timed(metas), "us");
}

/// The transport layer on the idle cluster: one hop, a fan-out to all `n`
/// nodes, and one submit/poll exchange, each carrying a `Probe`.
pub fn transport(out: &mut Outcome, ep: &ClientEndpoint, n: usize) -> Hops {
    let probe = |t: usize| {
        (
            NodeId(t as u32),
            Request::Probe {
                stripe: StripeId(t as u64),
            },
        )
    };
    let mut t = 0usize;
    let hop = time_us(REPS * 2, || {
        t = (t + 1) % n;
        let (node, req) = probe(t);
        ep.call(node, req).expect("probe on a healthy cluster");
    });
    let fanout = time_us(REPS, || {
        let calls = (0..n).map(probe).collect();
        for r in ep.call_many(calls) {
            r.expect("probe on a healthy cluster");
        }
    });
    let poll = time_us(REPS * 2, || {
        t = (t + 1) % n;
        let (node, req) = probe(t);
        let mut call = ep.submit_call(node, req);
        loop {
            if let Some(r) = ep.poll_call(&mut call) {
                r.expect("probe on a healthy cluster");
                break;
            }
            std::hint::spin_loop();
        }
    });
    out.metric("transport.hop_us", hop, "us");
    out.metric("transport.fanout_us", fanout, "us");
    out.metric("transport.poll_hop_us", poll, "us");
    Hops { hop, fanout }
}

/// The transport times the layer sums are built from.
#[derive(Debug, Clone, Copy)]
pub struct Hops {
    /// One request/reply exchange.
    pub hop: f64,
    /// One exchange with every node at once.
    pub fanout: f64,
}

/// The value `name` was given in `out`'s checked metrics (0 if absent).
pub fn get(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Emits the layer sums and residuals of one read and one write kind and
/// the tracing overhead. `*_traced` are the traced run's p50s, `*_plain`
/// the untraced phase's.
pub fn residuals(
    out: &mut Outcome,
    read_layers: f64,
    write_layers: f64,
    read: (f64, f64),
    write: (f64, f64),
) {
    let (read_plain, read_traced) = read;
    let (write_plain, write_traced) = write;
    out.metric("core.read_layers_us", read_layers, "us");
    out.metric("core.write_layers_us", write_layers, "us");
    out.metric("core.read_residual_us", read_traced - read_layers, "us");
    out.metric("core.write_residual_us", write_traced - write_layers, "us");
    out.metric("trace.read_p50_us", read_traced, "us");
    out.metric("trace.write_p50_us", write_traced, "us");
    out.metric("trace.read_overhead_us", read_traced - read_plain, "us");
    out.metric("trace.write_overhead_us", write_traced - write_plain, "us");
}
