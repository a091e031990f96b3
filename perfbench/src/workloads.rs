//! The four workloads. Each builds its cluster (set-up, timed several
//! times), measures for the requested seconds, checks every result it
//! read, sweeps the cluster's ground truth, and fills an [`Outcome`]:
//! the end-to-end metrics untraced, or the per-layer metrics traced.

use crate::layers::{self, Counters, Hops};
use crate::mix::{self, Lane, MixStats, Phase};
use crate::oracle::{self, Rng, Shadow};
use crate::report::{median, peak_rss_mb, Lat, Outcome};
use ajx_blockdev::VirtualDisk;
use ajx_cluster::Cluster;
use ajx_core::{run_mux_workload, Client, MuxOptions, ProtocolConfig, RebuildReport};
use ajx_storage::{ClientId, NodeId};
use ajx_transport::NetworkConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How one run is asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Test-sized volumes and a single set-up.
    pub tiny: bool,
}

impl Opts {
    /// Whether measurement step `step` (a segment, cycle or round) is
    /// traced: in a per-layer run traced and untraced steps alternate, so
    /// both see the same host conditions.
    fn traced(&self, step: u64) -> bool {
        self.trace && step % 2 == 1
    }

    /// Whether to stop before step `step`, `measured` seconds in: once the
    /// time is up and, in a per-layer run, both kinds of step have run.
    fn finished(&self, measured: f64, step: u64) -> bool {
        measured >= self.seconds && (!self.trace || step >= 2)
    }

    fn setups(&self) -> usize {
        if self.tiny {
            1
        } else {
            SETUPS
        }
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Storage-node worker threads (the program's, not the benchmark's).
const SERVER_THREADS: usize = 4;
/// Stripe shards per storage node.
const STATE_SHARDS: usize = 8;
/// Read share of every point mix, in percent.
const READ_PCT: u64 = 70;
/// Length of one measured mix segment; garbage is collected between
/// segments.
const SEGMENT_S: f64 = 0.25;
/// The end-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "read_p50_us",
    "write_p50_us",
    "read_mb_s",
    "write_mb_s",
];
/// The per-layer metrics, as listed in `BENCHMARK.json`. A workload that
/// never runs the operation a count is about reports it as 0.
pub const PER_LAYER: [&str; 47] = [
    "gf.mul_add_4k_gb_s",
    "gf.mul_add_64k_gb_s",
    "gf.bytes_per_op",
    "erasure.delta_us",
    "erasure.decode_us",
    "erasure.repair_reconstruct_us",
    "erasure.repair_plan_us",
    "erasure.repair_shares",
    "erasure.plan_cache_entries",
    "storage.read_us",
    "storage.swap_us",
    "storage.add_us",
    "storage.batch_us",
    "storage.get_state_us",
    "storage.get_meta_us",
    "storage.ops_handled_per_op",
    "storage.lock_ops",
    "storage.shard_contention_ratio",
    "storage.media_writes_per_op",
    "transport.round_trips_per_read",
    "transport.round_trips_per_write",
    "transport.msgs_per_op",
    "transport.wire_bytes_per_op",
    "transport.payload_bytes_per_op",
    "transport.hop_us",
    "transport.fanout_us",
    "transport.poll_hop_us",
    "transport.busy_per_op",
    "transport.repair_bytes_per_lost_block",
    "core.read_layers_us",
    "core.write_layers_us",
    "core.read_residual_us",
    "core.write_residual_us",
    "core.degraded_round_trips_per_read",
    "core.rebuild_fastpath_ratio",
    "core.rebuild_round_trips_per_stripe",
    "core.mux_busy_exhausted",
    "blockdev.write_overhead_us",
    "blockdev.read_overhead_us",
    "trace.read_p50_us",
    "trace.write_p50_us",
    "trace.read_overhead_us",
    "trace.write_overhead_us",
    "trace.read_samples",
    "trace.write_samples",
    "trace.read_p99_us",
    "trace.write_p99_us",
];

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, o: &Opts) -> Option<Outcome> {
    let mut out = match name {
        "point_4k" => point_4k(o),
        "seq_64k" => seq_64k(o),
        "repair_lrc" => repair_lrc(o),
        "fleet_mux" => fleet_mux(o),
        _ => return None,
    };
    if o.trace {
        // Counts about operations this workload never runs read 0.
        for name in PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metric(name, 0.0, unit_of(name));
            }
        }
    }
    Some(out)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_gb_s") {
        "GB/s"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.contains("bytes") {
        "B"
    } else {
        "count"
    }
}

fn rs(k: usize, n: usize, bs: usize) -> ProtocolConfig {
    width_one(ProtocolConfig::new(k, n, bs).expect("valid Reed-Solomon shape"))
}

/// Stripe pipelining and rebuild pools run on the caller's thread: with
/// the benchmark's own threads they would exceed the two client-side
/// threads the host's two cores allow.
fn width_one(mut cfg: ProtocolConfig) -> ProtocolConfig {
    cfg.pipeline_width = 1;
    cfg.rebuild_width = 1;
    cfg
}

/// An unshaped in-memory cluster: no latency, no bandwidth limit.
fn cluster(cfg: &ProtocolConfig, clients: usize) -> Cluster {
    Cluster::with_network(
        cfg.clone(),
        clients,
        NetworkConfig {
            server_threads: SERVER_THREADS,
            state_shards: STATE_SHARDS,
            ..NetworkConfig::default()
        },
    )
}

/// Builds the workload's state `o.setups()` times, timing each build, and
/// keeps the last. Earlier builds are dropped before the next starts.
fn set_up<T>(o: &Opts, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..o.setups() {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

fn note_config(out: &mut Outcome, cfg: &ProtocolConfig, volume_blocks: u64, clients: usize) {
    out.note("config.k", cfg.k() as f64);
    out.note("config.n", cfg.n() as f64);
    out.note("config.block_size", cfg.block_size as f64);
    out.note("config.volume_blocks", volume_blocks as f64);
    out.note(
        "config.volume_mib",
        (volume_blocks * cfg.block_size as u64) as f64 / 1048576.0,
    );
    out.note(
        "config.stored_mib",
        (volume_blocks * cfg.block_size as u64 * cfg.n() as u64 / cfg.k() as u64) as f64
            / 1048576.0,
    );
    out.note("config.server_threads", SERVER_THREADS as f64);
    out.note(
        "config.node_worker_threads",
        (SERVER_THREADS * cfg.n()) as f64,
    );
    out.note("config.state_shards", STATE_SHARDS as f64);
    out.note("config.pipeline_width", cfg.pipeline_width as f64);
    out.note("config.rebuild_width", cfg.rebuild_width as f64);
    out.note("config.client_threads", clients as f64);
    out.note_str("config.code", &format!("{:?}", cfg.code.family_key()));
}

/// The end-to-end metrics every workload reports.
struct EndToEnd<'a> {
    setups: &'a [f64],
    ops_per_s: f64,
    reads: &'a Lat,
    writes: &'a Lat,
    read_mb_s: f64,
    write_mb_s: f64,
}

fn end_to_end(out: &mut Outcome, e: EndToEnd<'_>) {
    out.metric("setup_s", median(e.setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", e.ops_per_s, "1/s");
    out.metric("read_p50_us", e.reads.seg_pct_us(0.5), "us");
    out.metric("write_p50_us", e.writes.seg_pct_us(0.5), "us");
    out.metric("read_mb_s", e.read_mb_s, "MB/s");
    out.metric("write_mb_s", e.write_mb_s, "MB/s");
    for (i, s) in e.setups.iter().enumerate() {
        out.note(&format!("setup_{i}_s"), *s);
    }
    out.note_lat("read", e.reads);
    out.note_lat("write", e.writes);
}

/// Per-layer metrics shared by every workload: the GF kernels, the code
/// and node replays, the transport hops and the measured phase's counters.
fn common_layers(
    out: &mut Outcome,
    o: &Opts,
    cfg: &ProtocolConfig,
    ep: &ajx_transport::ClientEndpoint,
    writes: &[(u64, u32)],
    counters: &Counters,
    ops: u64,
) -> Hops {
    out.metric("gf.mul_add_4k_gb_s", layers::gf_mul_add_gb_s(4096), "GB/s");
    out.metric(
        "gf.mul_add_64k_gb_s",
        layers::gf_mul_add_gb_s(65536),
        "GB/s",
    );
    let samples = layers::write_samples(o.seed, cfg.block_size, writes);
    layers::code_and_node(out, cfg, &samples, 0);
    counters.emit(out, ops);
    layers::transport(out, ep, cfg.n())
}

/// Traced-run figures of a point mix: round trips per op kind, the
/// blocking-path layer sums and the residuals against the untraced p50s.
fn point_layers(
    out: &mut Outcome,
    cfg: &ProtocolConfig,
    hops: Hops,
    plain: &MixStats,
    traced: &MixStats,
) {
    let (k, n, bs) = (cfg.k(), cfg.n(), cfg.block_size);
    out.metric("gf.bytes_per_op", ((n - k) * bs) as f64, "B");
    out.metric(
        "transport.round_trips_per_read",
        traced.read_rts as f64 / traced.reads.len().max(1) as f64,
        "count",
    );
    out.metric(
        "transport.round_trips_per_write",
        traced.write_rts as f64 / traced.writes.len().max(1) as f64,
        "count",
    );
    let read_layers = hops.hop + layers::get(out, "storage.read_us");
    let write_layers = point_write_layers(out, hops);
    trace_lat(out, &traced.reads, &traced.writes);
    layers::residuals(
        out,
        read_layers,
        write_layers,
        (plain.reads.pct_us(0.5), traced.reads.pct_us(0.5)),
        (plain.writes.pct_us(0.5), traced.writes.pct_us(0.5)),
    );
}

/// The blocking path of one block write: the swap hop and handling, the
/// n − k deltas, then the parallel adds (one fan-out, one add handled).
fn point_write_layers(out: &Outcome, hops: Hops) -> f64 {
    hops.hop
        + layers::get(out, "storage.swap_us")
        + layers::get(out, "erasure.delta_us")
        + hops.fanout
        + layers::get(out, "storage.add_us")
}

fn trace_lat(out: &mut Outcome, reads: &Lat, writes: &Lat) {
    out.metric("trace.read_samples", reads.len() as f64, "count");
    out.metric("trace.write_samples", writes.len() as f64, "count");
    out.metric("trace.read_p99_us", reads.pct_us(0.99), "us");
    out.metric("trace.write_p99_us", writes.pct_us(0.99), "us");
}

fn mix_outcome(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.stats.ops();
    out.errors += phase.stats.errors + phase.gc_errors;
    out.wrong += phase.stats.wrong;
}

// ---------------------------------------------------------------- point_4k

/// `point_4k`: RS(4,8), 4 KiB blocks, two closed-loop threads, each with
/// its own client over a private 8192-block range, 70% reads.
fn point_4k(o: &Opts) -> Outcome {
    const THREADS: usize = 2;
    let per_thread: u64 = if o.tiny { 256 } else { 8192 };
    let cfg = rs(4, 8, 4096);
    let mut out = Outcome::default();
    note_config(&mut out, &cfg, per_thread * THREADS as u64, THREADS);

    let ((cl, mut lanes), setups) = set_up(o, || {
        let cl = cluster(&cfg, THREADS);
        let lanes: Vec<Lane> = std::thread::scope(|s| {
            let fills: Vec<_> = (0..THREADS)
                .map(|t| {
                    let client = cl.client(t);
                    s.spawn(move || {
                        let shadow = Shadow::new(o.seed, t as u64 * per_thread, per_thread);
                        oracle::fill(client, &shadow, 256).expect("set-up fill");
                        Lane {
                            shadow,
                            rng: Rng::new(o.seed, t as u64),
                        }
                    })
                })
                .collect();
            fills
                .into_iter()
                .map(|h| h.join().expect("fill thread panicked"))
                .collect()
        });
        (cl, lanes)
    });
    let clients: Vec<&Client> = (0..THREADS).map(|t| cl.client(t).as_ref()).collect();

    let mut phases = [Phase::default(), Phase::default()];
    let mut measured = 0.0;
    for seg in 0.. {
        if o.finished(measured, seg) {
            break;
        }
        let traced = o.traced(seg);
        let p = mix::measure(&cl, &clients, &mut lanes, READ_PCT, SEGMENT_S, traced);
        measured += p.segments.iter().map(|seg| seg.2).sum::<f64>();
        mix_outcome(&mut out, &p);
        phases[usize::from(traced)].absorb(p);
    }
    let [plain, traced] = &phases;
    if o.trace {
        let hops = common_layers(
            &mut out,
            o,
            &cfg,
            cl.client(0).endpoint(),
            &traced.stats.captured,
            &traced.counters,
            traced.stats.ops(),
        );
        point_layers(&mut out, &cfg, hops, &plain.stats, &traced.stats);
    } else {
        let (read_mb_s, write_mb_s) = plain.mb_s(cfg.block_size);
        end_to_end(
            &mut out,
            EndToEnd {
                setups: &setups,
                ops_per_s: plain.ops_per_s(),
                reads: &plain.stats.reads,
                writes: &plain.stats.writes,
                read_mb_s,
                write_mb_s,
            },
        );
    }

    let stripes = oracle::stripes_for(per_thread * THREADS as u64, cfg.k());
    out.wrong += oracle::inconsistent_stripes(&cl, 0..stripes);
    for (client, lane) in clients.iter().zip(&lanes) {
        let lbs: Vec<u64> = (lane.shadow.base..lane.shadow.base + lane.shadow.len()).collect();
        out.wrong += oracle::read_back(client, &lane.shadow, &lbs);
    }
    out
}

// ----------------------------------------------------------------- seq_64k

/// Blocks per extent: 16 × 64 KiB = 1 MiB.
const EXTENT_BLOCKS: u64 = 16;
/// Read passes per overwrite pass: a read pass runs ~8x faster than an
/// overwrite pass, so several keep the two comparable in measured time.
const READ_PASSES: usize = 4;
/// Extents per latency segment.
const SEGMENT_EXTENTS: u64 = 128;
/// Extents written between garbage collections.
const GC_EXTENTS: u64 = 64;
/// Extents per pass that a traced cycle also issues straight to
/// `Client::write_blocks` / `read_blocks`, for the blockdev overhead.
const DIRECT_EXTENTS: u64 = 64;

#[derive(Default)]
struct SeqLog {
    reads: Lat,
    writes: Lat,
    /// Per paired extent: `VirtualDisk` time minus direct client time, µs.
    read_overheads: Vec<f64>,
    write_overheads: Vec<f64>,
    read_rts: u64,
    write_rts: u64,
    captured: Vec<(u64, u32)>,
    counters: Counters,
}

/// Whether extent `e`'s transfers go through the client directly: only the
/// disk path, except for the first DIRECT_EXTENTS extents of a traced
/// cycle, which also go direct. The pair's order alternates, so neither
/// side always finds the other's data in the cache.
fn paired_order(traced: bool, e: u64) -> Vec<bool> {
    match (traced && e < DIRECT_EXTENTS, e % 2) {
        (false, _) => vec![false],
        (true, 0) => vec![false, true],
        (true, _) => vec![true, false],
    }
}

/// `seq_64k`: RS(4,8), 64 KiB blocks, one `VirtualDisk` over a 512 MiB
/// volume; overwrite passes alternate with read passes of 1 MiB extents.
fn seq_64k(o: &Opts) -> Outcome {
    let blocks: u64 = if o.tiny { 256 } else { 8192 };
    let cfg = rs(4, 8, 65536);
    let bs = cfg.block_size;
    let mut out = Outcome::default();
    note_config(&mut out, &cfg, blocks, 1);
    out.note("config.extent_bytes", (EXTENT_BLOCKS as usize * bs) as f64);
    out.note("config.read_passes_per_write_pass", READ_PASSES as f64);

    let ((cl, mut shadow), setups) = set_up(o, || {
        let cl = cluster(&cfg, 1);
        let shadow = Shadow::new(o.seed, 0, blocks);
        oracle::fill(cl.client(0), &shadow, 64).expect("set-up fill");
        (cl, shadow)
    });
    let client = cl.client(0);
    let disk = VirtualDisk::new(client.clone());
    let extents = blocks / EXTENT_BLOCKS;
    let ext_bytes = EXTENT_BLOCKS as usize * bs;
    let mut data = vec![0u8; ext_bytes];

    // One cycle is an overwrite pass and READ_PASSES read passes.
    let mut logs = [SeqLog::default(), SeqLog::default()];
    let mut measured = Duration::ZERO;
    for cycle in 0.. {
        if o.finished(measured.as_secs_f64(), cycle) {
            break;
        }
        let traced = o.traced(cycle);
        let log = &mut logs[usize::from(traced)];
        let ep = client.endpoint();

        let mut before = Counters::take(&cl);
        for e in 0..extents {
            let first = e * EXTENT_BLOCKS;
            let mut pair = [0.0; 2];
            for direct in paired_order(traced, e) {
                for (x, chunk) in data.chunks_mut(bs).enumerate() {
                    shadow.next_content(first + x as u64, chunk);
                }
                let writes: Vec<(u64, &[u8])> = data
                    .chunks(bs)
                    .enumerate()
                    .map(|(x, b)| (first + x as u64, b))
                    .collect();
                let t = Instant::now();
                let mut r = Ok(());
                let rts = layers::round_trips(traced, ep, || {
                    r = if direct {
                        client.write_blocks(&writes)
                    } else {
                        disk.write(first * bs as u64, &data)
                    }
                });
                let d = t.elapsed();
                pair[usize::from(direct)] = d.as_nanos() as f64 / 1e3;
                if !direct {
                    log.writes.push(d);
                    log.write_rts += rts;
                    measured += d;
                    if (e + 1) % SEGMENT_EXTENTS == 0 {
                        log.writes.cut();
                    }
                }
                out.attempted += 1;
                out.errors += u64::from(r.is_err());
                for lb in first..first + EXTENT_BLOCKS {
                    if r.is_ok() {
                        shadow.bump(lb);
                        if traced && log.captured.len() < 256 {
                            log.captured.push((lb, shadow.version(lb)));
                        }
                    } else {
                        shadow.forget(lb);
                    }
                }
            }
            if pair[1] > 0.0 {
                log.write_overheads.push(pair[0] - pair[1]);
            }
            // Garbage is collected outside the measured time and counters;
            // every GC_EXTENTS extents it bounds the old contents the
            // nodes keep for the pass's pending writes.
            if (e + 1) % GC_EXTENTS == 0 || e + 1 == extents {
                log.counters = log.counters.plus(&Counters::take(&cl).since(&before));
                out.errors += mix::collect_garbage(client);
                before = Counters::take(&cl);
            }
        }

        // Read passes, every extent checked against the shadow.
        for _ in 0..READ_PASSES {
            for e in 0..extents {
                let first = e * EXTENT_BLOCKS;
                let mut pair = [0.0; 2];
                for direct in paired_order(traced, e) {
                    let lbs: Vec<u64> = (first..first + EXTENT_BLOCKS).collect();
                    let t = Instant::now();
                    let mut r = None;
                    let rts = layers::round_trips(traced, ep, || {
                        r = Some(if direct {
                            client.read_blocks(&lbs).map(|b| b.concat())
                        } else {
                            disk.read(first * bs as u64, ext_bytes)
                        })
                    });
                    let d = t.elapsed();
                    pair[usize::from(direct)] = d.as_nanos() as f64 / 1e3;
                    if !direct {
                        log.reads.push(d);
                        log.read_rts += rts;
                        measured += d;
                        if (e + 1) % SEGMENT_EXTENTS == 0 {
                            log.reads.cut();
                        }
                    }
                    out.attempted += 1;
                    match r.expect("set by the closure") {
                        Ok(buf) => {
                            out.wrong += lbs
                                .iter()
                                .zip(buf.chunks(bs))
                                .filter(|&(&lb, b)| shadow.known(lb) && !shadow.matches(lb, b))
                                .count() as u64
                        }
                        Err(_) => out.errors += 1,
                    }
                }
                if pair[1] > 0.0 {
                    log.read_overheads.push(pair[0] - pair[1]);
                }
            }
        }
        log.counters = log.counters.plus(&Counters::take(&cl).since(&before));
    }

    let [plain, traced] = &logs;
    if o.trace {
        let ops = (traced.reads.len() + traced.writes.len()) as u64;
        let hops = common_layers(
            &mut out,
            o,
            &cfg,
            client.endpoint(),
            &traced.captured,
            &traced.counters,
            ops,
        );
        let (k, n) = (cfg.k() as u64, cfg.n() as u64);
        out.metric(
            "gf.bytes_per_op",
            (EXTENT_BLOCKS * (n - k) * bs as u64) as f64,
            "B",
        );
        out.metric(
            "transport.round_trips_per_read",
            traced.read_rts as f64 / traced.reads.len().max(1) as f64,
            "count",
        );
        out.metric(
            "transport.round_trips_per_write",
            traced.write_rts as f64 / traced.writes.len().max(1) as f64,
            "count",
        );
        let w_over = median(&traced.write_overheads);
        let r_over = median(&traced.read_overheads);
        out.metric("blockdev.write_overhead_us", w_over, "us");
        out.metric("blockdev.read_overhead_us", r_over, "us");
        let stripes_per_extent = (EXTENT_BLOCKS / k) as f64;
        let write_layers = w_over
            + stripes_per_extent
                * (2.0 * hops.fanout
                    + layers::get(&out, "storage.swap_us")
                    + k as f64 * layers::get(&out, "erasure.delta_us")
                    + layers::get(&out, "storage.batch_us"));
        let read_layers = r_over
            + hops.fanout
            + (EXTENT_BLOCKS as f64 / n as f64).max(1.0) * layers::get(&out, "storage.read_us");
        trace_lat(&mut out, &traced.reads, &traced.writes);
        layers::residuals(
            &mut out,
            read_layers,
            write_layers,
            (plain.reads.pct_us(0.5), traced.reads.pct_us(0.5)),
            (plain.writes.pct_us(0.5), traced.writes.pct_us(0.5)),
        );
    } else {
        // Rates of the median extent: on a shared host, interference
        // slows a share of the extents several-fold and moves any mean.
        let ext_mb = ext_bytes as f64 / 1e6;
        let (read_s, write_s) = (
            plain.reads.seg_pct_us(0.5) / 1e6,
            plain.writes.seg_pct_us(0.5) / 1e6,
        );
        let (read_mb_s, write_mb_s) = (ext_mb / read_s, ext_mb / write_s);
        // Extents per second at the measured read/write mix.
        let (nr, nw) = (plain.reads.len() as f64, plain.writes.len() as f64);
        let ops_per_s = (nr + nw) / (nr * read_s + nw * write_s);
        end_to_end(
            &mut out,
            EndToEnd {
                setups: &setups,
                ops_per_s,
                reads: &plain.reads,
                writes: &plain.writes,
                read_mb_s,
                write_mb_s,
            },
        );
        out.note("seq_read_mb_s", read_mb_s);
        out.note("seq_write_mb_s", write_mb_s);
    }

    out.wrong += oracle::inconsistent_stripes(&cl, 0..oracle::stripes_for(blocks, cfg.k()));
    let lbs: Vec<u64> = (0..blocks).collect();
    out.wrong += oracle::read_back(client, &shadow, &lbs);
    out
}

// -------------------------------------------------------------- repair_lrc

/// `repair_lrc`: LRC(12,3,1), 4 KiB blocks, 16 nodes. Each cycle crashes
/// one node, runs closed-loop degraded reads of its blocks, then rebuilds
/// it while one foreground thread runs the point mix; the victim rotates.
fn repair_lrc(o: &Opts) -> Outcome {
    let stripes: u64 = if o.tiny { 64 } else { 1024 };
    let degraded_s = if o.tiny { 0.05 } else { 0.2 };
    let mut cfg = width_one(ProtocolConfig::new_lrc(12, 3, 1, 4096).expect("valid LRC shape"));
    cfg.auto_remap = false;
    let (k, n, bs) = (cfg.k(), cfg.n(), cfg.block_size);
    let blocks = stripes * k as u64;
    let mut out = Outcome::default();
    note_config(&mut out, &cfg, blocks, 2);
    out.note("config.degraded_phase_s", degraded_s);

    // Client 0 reads degraded, client 1 rebuilds, client 2 runs the
    // foreground mix during the rebuild.
    let ((cl, mut lane), setups) = set_up(o, || {
        let cl = cluster(&cfg, 3);
        let shadow = Shadow::new(o.seed, 0, blocks);
        oracle::fill(cl.client(0), &shadow, 256).expect("set-up fill");
        let lane = Lane {
            shadow,
            rng: Rng::new(o.seed, 1),
        };
        (cl, lane)
    });
    let mut reader_rng = Rng::new(o.seed, 2);

    #[derive(Default)]
    struct Cycles {
        degraded: Lat,
        degraded_rts: u64,
        degraded_mb_s: Vec<f64>,
        fg: MixStats,
        fg_ops_per_s: Vec<f64>,
        rebuild_mb_s: Vec<f64>,
        reports: Vec<RebuildReport>,
        counters: Counters,
    }
    let mut runs = [Cycles::default(), Cycles::default()];
    let started = Instant::now();
    let mut cycle = 0u64;
    loop {
        if o.finished(started.elapsed().as_secs_f64(), cycle) {
            break;
        }
        let traced = o.traced(cycle);
        let c = &mut runs[usize::from(traced)];
        let victim = NodeId(((o.seed + cycle) % n as u64) as u32);
        cycle += 1;
        let lost: Vec<u64> = (0..blocks)
            .filter(|&lb| cfg.layout.locate(lb).node == victim.0 as usize)
            .collect();
        cl.crash_storage_node(victim);

        // Degraded reads: lock-free, so the lock counter must not move.
        let before = Counters::take(&cl);
        let reader = cl.client(0);
        let reads_before = c.degraded.len();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < degraded_s {
            let lb = lost[reader_rng.below(lost.len() as u64) as usize];
            let t = Instant::now();
            let mut r = None;
            c.degraded_rts += layers::round_trips(traced, reader.endpoint(), || {
                r = Some(reader.read_block(lb))
            });
            c.degraded.push(t.elapsed());
            out.attempted += 1;
            match r.expect("set by the closure") {
                Ok(v) if lane.shadow.matches(lb, &v) => {}
                Ok(_) => out.wrong += 1,
                Err(_) => out.errors += 1,
            }
        }
        let reads = (c.degraded.len() - reads_before) as f64;
        c.degraded_mb_s
            .push(reads * bs as f64 / t0.elapsed().as_secs_f64() / 1e6);
        c.degraded.cut();
        let delta = Counters::take(&cl).since(&before);
        if delta.node.lock_ops != 0 {
            out.wrong += 1;
            out.note("degraded_lock_ops", delta.node.lock_ops as f64);
        }
        c.counters = c.counters.plus(&delta);

        // Rebuild with the foreground mix alongside.
        cl.remap_storage_node(victim);
        let before = Counters::take(&cl);
        let done = AtomicBool::new(false);
        let t0 = Instant::now();
        let (report, rebuild_s, fg) = std::thread::scope(|s| {
            let rebuild = s.spawn(|| {
                let t = Instant::now();
                let r = cl.client(1).rebuild_node(victim, stripes);
                let secs = t.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                (r, secs)
            });
            let fg = s.spawn(|| {
                mix::run(cl.client(2), &mut lane, READ_PCT, traced, || {
                    done.load(Ordering::SeqCst)
                })
            });
            let (r, secs) = rebuild.join().expect("rebuild thread panicked");
            (r, secs, fg.join().expect("foreground thread panicked"))
        });
        c.fg_ops_per_s
            .push(fg.ops() as f64 / t0.elapsed().as_secs_f64());
        c.counters = c.counters.plus(&Counters::take(&cl).since(&before));
        out.attempted += 1 + fg.ops();
        out.errors += fg.errors;
        out.wrong += fg.wrong;
        c.fg.merge(fg);
        c.fg.reads.cut();
        c.fg.writes.cut();
        match report {
            Ok(r) => {
                c.rebuild_mb_s
                    .push((stripes * bs as u64) as f64 / rebuild_s / 1e6);
                c.reports.push(r);
            }
            Err(_) => out.errors += 1,
        }
        out.errors += mix::collect_garbage(cl.client(2));

        // Every rebuilt block reads back right, every stripe is whole.
        out.wrong += oracle::read_back(cl.client(0), &lane.shadow, &lost);
        out.wrong += oracle::inconsistent_stripes(&cl, 0..stripes);
    }
    out.note("cycles", cycle as f64);
    let lbs: Vec<u64> = (0..blocks).collect();
    out.wrong += oracle::read_back(cl.client(0), &lane.shadow, &lbs);

    let [plain, traced] = &runs;
    let mut fg_all = Lat::default();
    fg_all.extend(&plain.fg.reads);
    fg_all.extend(&plain.fg.writes);
    out.note_lat("degraded_read", &plain.degraded);
    out.note_lat("rebuild_fg", &fg_all);
    out.note("rebuild_mb_s", median(&plain.rebuild_mb_s));
    out.note("rebuild_cycles", plain.rebuild_mb_s.len() as f64);
    if o.trace {
        let ops = traced.degraded.len() as u64 + traced.fg.ops();
        let hops = common_layers(
            &mut out,
            o,
            &cfg,
            cl.client(0).endpoint(),
            &traced.fg.captured,
            &traced.counters,
            ops,
        );
        let sum = |f: fn(&RebuildReport) -> u64| traced.reports.iter().map(f).sum::<u64>() as f64;
        let lost_blocks = traced.reports.len() as f64 * stripes as f64;
        out.metric(
            "gf.bytes_per_op",
            layers::get(&out, "erasure.repair_shares") * bs as f64,
            "B",
        );
        let degraded_rts = traced.degraded_rts as f64 / traced.degraded.len().max(1) as f64;
        out.metric("transport.round_trips_per_read", degraded_rts, "count");
        out.metric("core.degraded_round_trips_per_read", degraded_rts, "count");
        out.metric(
            "transport.round_trips_per_write",
            traced.fg.write_rts as f64 / traced.fg.writes.len().max(1) as f64,
            "count",
        );
        out.metric(
            "transport.repair_bytes_per_lost_block",
            sum(|r| r.repair_bytes) / lost_blocks.max(1.0),
            "B",
        );
        let fast = sum(|r| r.rebuilt as u64);
        out.metric(
            "core.rebuild_fastpath_ratio",
            fast / (fast + sum(|r| r.recovered as u64)).max(1.0),
            "ratio",
        );
        out.metric(
            "core.rebuild_round_trips_per_stripe",
            sum(|r| r.round_trips) / sum(|r| r.stripes as u64).max(1.0),
            "count",
        );
        let read_layers = hops.fanout
            + layers::get(&out, "storage.get_state_us")
            + layers::get(&out, "erasure.repair_reconstruct_us");
        let write_layers = point_write_layers(&out, hops);
        trace_lat(&mut out, &traced.degraded, &traced.fg.writes);
        layers::residuals(
            &mut out,
            read_layers,
            write_layers,
            (plain.degraded.pct_us(0.5), traced.degraded.pct_us(0.5)),
            (plain.fg.writes.pct_us(0.5), traced.fg.writes.pct_us(0.5)),
        );
    } else {
        end_to_end(
            &mut out,
            EndToEnd {
                setups: &setups,
                ops_per_s: median(&plain.fg_ops_per_s),
                reads: &plain.degraded,
                writes: &plain.fg.writes,
                read_mb_s: median(&plain.degraded_mb_s),
                write_mb_s: median(&plain.rebuild_mb_s),
            },
        );
    }
    out
}

// --------------------------------------------------------------- fleet_mux

/// `fleet_mux`: RS(4,8), 4 KiB blocks, 256 logical clients multiplexed by
/// `run_mux_workload` on one thread, 70% reads, private 16-stripe
/// ranges; a probe client runs the point mix on a second thread to see the
/// latency an ordinary caller gets beside the fleet. Each round starts
/// from a fresh cluster, because the mux clients' write ids restart with
/// every call and the mux never collects garbage.
fn fleet_mux(o: &Opts) -> Outcome {
    let (fleet, ops_per_client): (usize, usize) = if o.tiny { (16, 32) } else { (256, 256) };
    const SPC: u64 = 16;
    let probe_blocks: u64 = if o.tiny { 256 } else { 2048 };
    let cfg = rs(4, 8, 4096);
    let k = cfg.k() as u64;
    let fleet_blocks = fleet as u64 * SPC * k;
    let mut out = Outcome::default();
    note_config(&mut out, &cfg, fleet_blocks + probe_blocks, 2);
    out.note("config.mux_clients", fleet as f64);
    out.note("config.mux_threads", 1.0);
    out.note("config.mux_ops_per_client", ops_per_client as f64);
    out.note("config.mux_stripes_per_client", SPC as f64);
    let opts = MuxOptions {
        clients: fleet,
        ops_per_client,
        read_pct: READ_PCT as u32,
        stripes_per_client: SPC,
        driver_threads: 1,
    };

    // Set-up: a fresh cluster and the probe's range, past the fleet's
    // stripes, filled with seeded content. The fleet's range starts
    // unwritten (zero), as the mux's own runs do.
    let build = |round: u64| {
        let cl = cluster(&cfg, 0);
        let probe = Client::new(cl.network().client(ClientId(1 << 20)), cfg.clone());
        let seed = o.seed ^ oracle::mix(round);
        let shadow = Shadow::new(seed, fleet_blocks, probe_blocks);
        oracle::fill(&probe, &shadow, 256).expect("set-up fill");
        let lane = Lane {
            shadow,
            rng: Rng::new(seed, 3),
        };
        (cl, probe, lane)
    };
    let mut round = 0u64;
    let mut setups = Vec::new();

    #[derive(Default)]
    struct Rounds {
        completed: u64,
        busy: u64,
        exhausted: u64,
        /// Per round: fleet ops/s, probe read MB/s, probe write MB/s.
        rates: Vec<(f64, f64, f64)>,
        probe: MixStats,
        counters: Counters,
    }
    let mut runs = [Rounds::default(), Rounds::default()];
    let mut last_traced = None;
    let mut measured = 0.0;
    loop {
        if o.finished(measured, round) {
            break;
        }
        let traced = o.traced(round);
        let r = &mut runs[usize::from(traced)];
        round += 1;
        let t = Instant::now();
        let (cl, probe, mut lane) = build(round);
        setups.push(t.elapsed().as_secs_f64());

        let before = Counters::take(&cl);
        let done = AtomicBool::new(false);
        let (report, stats) = std::thread::scope(|s| {
            let mux = s.spawn(|| {
                let rep = run_mux_workload(cl.network(), &cfg, &opts);
                done.store(true, Ordering::SeqCst);
                rep
            });
            let probe_thread = s.spawn(|| {
                mix::run(&probe, &mut lane, READ_PCT, traced, || {
                    done.load(Ordering::SeqCst)
                })
            });
            (
                mux.join().expect("mux thread panicked"),
                probe_thread.join().expect("probe thread panicked"),
            )
        });
        r.counters = r.counters.plus(&Counters::take(&cl).since(&before));
        r.completed += report.completed_ops;
        r.busy += report.busy_shed;
        r.exhausted += report.busy_exhausted;
        let secs = report.elapsed.as_secs_f64();
        measured += secs;
        r.rates.push((
            report.completed_ops as f64 / secs,
            (stats.reads.len() * cfg.block_size) as f64 / secs / 1e6,
            (stats.writes.len() * cfg.block_size) as f64 / secs / 1e6,
        ));
        out.attempted += report.completed_ops + report.failed_ops + stats.ops();
        out.errors += report.failed_ops + stats.errors;
        out.wrong += stats.wrong;
        r.probe.merge(stats);
        r.probe.reads.cut();
        r.probe.writes.cut();

        // Ground truth: every stripe whole, the probe's blocks as
        // written, the fleet's blocks as the mux's write pattern left
        // them.
        let stripes = oracle::stripes_for(fleet_blocks + probe_blocks, cfg.k());
        out.wrong += oracle::inconsistent_stripes(&cl, 0..stripes);
        let lbs: Vec<u64> = (fleet_blocks..fleet_blocks + probe_blocks).collect();
        out.wrong += oracle::read_back(&probe, &lane.shadow, &lbs);
        out.wrong += check_fleet(&probe, fleet_blocks, &cfg, &opts);
        if traced {
            last_traced = Some((cl, probe));
        }
    }

    let [plain, traced] = &runs;
    let rate =
        |f: fn(&(f64, f64, f64)) -> f64| median(&plain.rates.iter().map(f).collect::<Vec<_>>());
    out.note("mux_ops_per_s", rate(|r| r.0));
    out.note("mux_rounds", plain.rates.len() as f64);
    out.note("mux_busy_shed", plain.busy as f64);
    out.note("mux_busy_exhausted", plain.exhausted as f64);
    if o.trace {
        let (_cl, probe) = last_traced.as_ref().expect("a traced round ran");
        let ops = traced.completed + traced.probe.ops();
        let hops = common_layers(
            &mut out,
            o,
            &cfg,
            probe.endpoint(),
            &traced.probe.captured,
            &traced.counters,
            ops,
        );
        out.metric(
            "transport.busy_per_op",
            traced.busy as f64 / traced.completed.max(1) as f64,
            "count",
        );
        out.metric("core.mux_busy_exhausted", traced.exhausted as f64, "count");
        point_layers(&mut out, &cfg, hops, &plain.probe, &traced.probe);
    } else {
        end_to_end(
            &mut out,
            EndToEnd {
                setups: &setups,
                ops_per_s: rate(|r| r.0),
                reads: &plain.probe.reads,
                writes: &plain.probe.writes,
                read_mb_s: rate(|r| r.1),
                write_mb_s: rate(|r| r.2),
            },
        );
    }
    out
}

/// Reads the fleet's range back and counts blocks that differ from what
/// the mux's write pattern leaves: logical client `c`'s op `i` writes
/// data index `i mod k` of stripe `c·spc + i mod spc` when
/// `(37·i) mod 100 ≥ read_pct`, filling it with the byte
/// `(i as u8) ^ (c as u8).rotate_left(3)`; untouched blocks read zero.
fn check_fleet(client: &Client, blocks: u64, cfg: &ProtocolConfig, opts: &MuxOptions) -> u64 {
    let k = cfg.k() as u64;
    let mut last: Vec<u8> = vec![0; blocks as usize];
    for c in 0..opts.clients {
        for i in 0..opts.ops_per_client {
            if (i as u32).wrapping_mul(37) % 100 < opts.read_pct {
                continue;
            }
            let stripe = c as u64 * opts.stripes_per_client + i as u64 % opts.stripes_per_client;
            let lb = stripe * k + i as u64 % k;
            last[lb as usize] = (i as u8) ^ (c as u8).rotate_left(3);
        }
    }
    let lbs: Vec<u64> = (0..blocks).collect();
    lbs.chunks(256)
        .map(|chunk| match client.read_blocks(chunk) {
            Ok(blocks) => chunk
                .iter()
                .zip(&blocks)
                .filter(|&(&lb, b)| b.iter().any(|&x| x != last[lb as usize]))
                .count() as u64,
            Err(_) => chunk.len() as u64,
        })
        .sum()
}
