//! The multiplexed many-client driver meeting a remapped (INIT) node.
//!
//! `run_mux_workload` drives the same READ/WRITE ops as the blocking
//! client, so a node that lost its blocks is handled the way Figs. 4-5
//! say: a READ that gets no block recovers (or decodes around) the lost
//! block instead of completing empty, and a WRITE whose `add` meets an
//! INIT redundant node drops it, recovers the stripe and re-swaps,
//! instead of re-sending that `add` forever.

use ajx_cluster::Cluster;
use ajx_core::{run_mux_workload, Client, MuxOptions, MuxReport, ProtocolConfig};
use ajx_storage::{ClientId, NodeId, StripeId};
use std::sync::mpsc;
use std::time::Duration;

const BS: usize = 64;

fn node_of(cfg: &ProtocolConfig, stripe: u64, t: usize) -> NodeId {
    NodeId(cfg.layout.node_for(stripe, t) as u32)
}

/// `(stripe, data index)` that logical client `c`'s op `i` targets.
fn target(opts: &MuxOptions, k: usize, c: usize, i: usize) -> (u64, usize) {
    (c as u64 * opts.stripes_per_client + i as u64 % opts.stripes_per_client, i % k)
}

/// Runs the fleet on another thread; fails the test if it does not
/// return within `limit`.
fn run_with_watchdog(cluster: &Cluster, opts: &MuxOptions, limit: Duration) -> MuxReport {
    let (net, cfg, opts) = (cluster.network().clone(), cluster.config().clone(), opts.clone());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_mux_workload(&net, &cfg, &opts));
    });
    rx.recv_timeout(limit)
        .expect("run_mux_workload did not return: a fleet op is looping forever")
}

/// With degraded reads off, the only way a READ of a block whose data
/// node lost it can return the bytes is to recover the stripe first. So
/// every stripe such a READ touched must come out repaired, and read back
/// as written. A driver that counts the node's empty reply as a completed
/// READ leaves those stripes INIT.
#[test]
fn mux_read_of_a_lost_block_recovers_instead_of_completing_empty() {
    let mut cfg = ProtocolConfig::new(4, 8, BS).unwrap();
    cfg.degraded_reads = false;
    let k = cfg.k();
    let cluster = Cluster::new(cfg.clone(), 1);
    let opts = MuxOptions {
        clients: 4,
        ops_per_client: 16,
        read_pct: 100,
        stripes_per_client: 4,
        driver_threads: 1,
    };
    let blocks = opts.clients as u64 * opts.stripes_per_client * k as u64;
    let values: Vec<Vec<u8>> = (0..blocks).map(|lb| vec![lb as u8 ^ 0x3C; BS]).collect();
    let writes: Vec<(u64, &[u8])> = values
        .iter()
        .enumerate()
        .map(|(lb, v)| (lb as u64, v.as_slice()))
        .collect();
    // A writer outside the fleet's client ids, so no tid is shared.
    let writer = Client::new(cluster.network().client(ClientId(1000)), cfg.clone());
    writer.write_blocks(&writes).unwrap();

    // The data node of client 0's first READ loses every block it holds.
    let victim = node_of(&cfg, 0, 0);
    cluster.network().remap_node(victim, cfg.remap_garbage);

    let report = run_with_watchdog(&cluster, &opts, Duration::from_secs(60));
    assert_eq!(report.failed_ops, 0);
    assert_eq!(report.completed_ops, (opts.clients * opts.ops_per_client) as u64);

    let mut hit = 0;
    for c in 0..opts.clients {
        for i in 0..opts.ops_per_client {
            let (stripe, t) = target(&opts, k, c, i);
            if node_of(&cfg, stripe, t) == victim {
                hit += 1;
                assert!(
                    cluster.stripe_is_consistent(StripeId(stripe)),
                    "client {c} op {i} read stripe {stripe} from the INIT node without \
                     recovering it:\n{}",
                    cluster.stripe_forensics(StripeId(stripe))
                );
            }
        }
    }
    assert!(hit > 0, "the workload must read from the remapped node");
    let lbs: Vec<u64> = (0..blocks).collect();
    assert_eq!(writer.read_blocks(&lbs).unwrap(), values);
}

/// An `add` answered `Unavail` by an INIT redundant node must not be
/// re-sent forever: Fig. 5 drops the node from `T`, runs recovery (the
/// node is not `NORM` and unlocked) and re-swaps. The run must return with
/// no failed op, and every stripe must end repaired and hold the fleet's
/// last writes.
#[test]
fn mux_write_past_an_init_redundant_node_terminates_and_repairs() {
    let cfg = ProtocolConfig::new(4, 8, BS).unwrap();
    let k = cfg.k();
    let cluster = Cluster::new(cfg.clone(), 1);
    // Three stripes per client against four data indices: over 16 ops each
    // client writes every data index of every stripe of its range, so
    // every stripe meets the remapped node through a write.
    let opts = MuxOptions {
        clients: 8,
        ops_per_client: 16,
        read_pct: 0,
        stripes_per_client: 3,
        driver_threads: 1,
    };
    // A redundant node of client 0's first stripe.
    let victim = node_of(&cfg, 0, k);
    cluster.network().remap_node(victim, cfg.remap_garbage);

    let report = run_with_watchdog(&cluster, &opts, Duration::from_secs(60));
    assert_eq!(report.failed_ops, 0);
    assert_eq!(report.completed_ops, (opts.clients * opts.ops_per_client) as u64);

    let blocks = opts.clients as u64 * opts.stripes_per_client * k as u64;
    let mut expect = vec![vec![0u8; BS]; blocks as usize];
    for c in 0..opts.clients {
        for i in 0..opts.ops_per_client {
            let (stripe, t) = target(&opts, k, c, i);
            expect[stripe as usize * k + t] = vec![(i as u8) ^ (c as u8).rotate_left(3); BS];
        }
    }
    for s in 0..blocks / k as u64 {
        assert!(
            cluster.stripe_is_consistent(StripeId(s)),
            "stripe {s}:\n{}",
            cluster.stripe_forensics(StripeId(s))
        );
    }
    let lbs: Vec<u64> = (0..blocks).collect();
    assert_eq!(cluster.client(0).read_blocks(&lbs).unwrap(), expect);
}
