//! The closed-loop point mix: one thread, one client, uniform random
//! blocks of one range, `read_pct`% `read_block` and the rest
//! `write_block_from`, every read checked against the shadow.

use crate::layers::{self, Counters};
use crate::oracle::{Rng, Shadow};
use crate::report::{median, Lat};
use ajx_cluster::Cluster;
use ajx_core::Client;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Writes kept per mix for the traced run's layer replays.
const CAPTURE: usize = 256;

/// What one or more mix loops observed.
#[derive(Debug, Default)]
pub struct MixStats {
    /// `read_block` latencies.
    pub reads: Lat,
    /// `write_block_from` latencies.
    pub writes: Lat,
    /// Operations that returned an error.
    pub errors: u64,
    /// Reads whose bytes disagreed with the shadow.
    pub wrong: u64,
    /// Client round trips spent on reads (traced runs only).
    pub read_rts: u64,
    /// Client round trips spent on writes (traced runs only).
    pub write_rts: u64,
    /// `(block, version)` of the first writes (traced runs only).
    pub captured: Vec<(u64, u32)>,
}

impl MixStats {
    /// Operations issued.
    pub fn ops(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: MixStats) {
        self.reads.extend(&other.reads);
        self.writes.extend(&other.writes);
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.read_rts += other.read_rts;
        self.write_rts += other.write_rts;
        let room = CAPTURE.saturating_sub(self.captured.len());
        self.captured.extend(other.captured.into_iter().take(room));
    }
}

/// One lane of the mix: a shadowed block range and the lane's op stream.
#[derive(Debug)]
pub struct Lane {
    /// The lane's blocks and their versions.
    pub shadow: Shadow,
    /// The lane's op stream.
    pub rng: Rng,
}

/// Runs the mix on `client` over `lane` until `stop` says so. With
/// `traced`, each op's client round trips are counted and the first
/// writes captured; the counting sits inside the timed span, as a span
/// recorder would.
pub fn run(
    client: &Client,
    lane: &mut Lane,
    read_pct: u64,
    traced: bool,
    stop: impl Fn() -> bool,
) -> MixStats {
    let mut buf = vec![0u8; client.config().block_size];
    let mut st = MixStats::default();
    let ep = client.endpoint();
    while !stop() {
        let lb = lane.shadow.base + lane.rng.below(lane.shadow.len());
        let read = lane.rng.below(100) < read_pct;
        if !lane.shadow.known(lb) {
            continue;
        }
        if read {
            let t = Instant::now();
            let mut r = None;
            st.read_rts += layers::round_trips(traced, ep, || r = Some(client.read_block(lb)));
            st.reads.push(t.elapsed());
            match r.expect("set by the closure") {
                Ok(v) if lane.shadow.matches(lb, &v) => {}
                Ok(_) => st.wrong += 1,
                Err(_) => st.errors += 1,
            }
        } else {
            lane.shadow.next_content(lb, &mut buf);
            let t = Instant::now();
            let mut r = None;
            st.write_rts +=
                layers::round_trips(traced, ep, || r = Some(client.write_block_from(lb, &buf)));
            st.writes.push(t.elapsed());
            match r.expect("set by the closure") {
                Ok(()) => {
                    lane.shadow.bump(lb);
                    if traced && st.captured.len() < CAPTURE {
                        st.captured.push((lb, lane.shadow.version(lb)));
                    }
                }
                Err(_) => {
                    st.errors += 1;
                    lane.shadow.forget(lb);
                }
            }
        }
    }
    st
}

/// Two garbage-collection cycles: the first moves this client's finished
/// writes to the nodes' old lists, the second drops them (Fig. 7).
/// Returns the number of failed cycles.
pub fn collect_garbage(client: &Client) -> u64 {
    (0..2).filter(|_| client.collect_garbage().is_err()).count() as u64
}

/// A measured stretch of mix traffic.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every lane's observations, latencies cut per segment.
    pub stats: MixStats,
    /// `(reads, writes, measured seconds)` of each segment.
    pub segments: Vec<(u64, u64, f64)>,
    /// Cluster counters over the measured time only.
    pub counters: Counters,
    /// Garbage-collection cycles that failed.
    pub gc_errors: u64,
}

impl Phase {
    /// Folds a later stretch into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.stats.merge(other.stats);
        self.stats.reads.cut();
        self.stats.writes.cut();
        self.segments.extend(other.segments);
        self.counters = self.counters.plus(&other.counters);
        self.gc_errors += other.gc_errors;
    }

    /// Median over segments of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .segments
            .iter()
            .map(|&(r, w, s)| (r + w) as f64 / s)
            .collect();
        median(&v)
    }

    /// Median over segments of read and write payload MB/s.
    pub fn mb_s(&self, block_size: usize) -> (f64, f64) {
        let rate = |f: fn(&(u64, u64, f64)) -> u64| {
            let v: Vec<f64> = self
                .segments
                .iter()
                .map(|seg| (f(seg) * block_size as u64) as f64 / seg.2 / 1e6)
                .collect();
            median(&v)
        };
        (rate(|s| s.0), rate(|s| s.1))
    }
}

/// Runs one mix thread per lane (lane `i` on `clients[i]`) for one
/// segment of `seconds`. Then every thread collects its client's garbage,
/// outside the measured time and counters: a deployment runs it in the
/// background, and without it the nodes' tid lists grow with every write.
pub fn measure(
    cluster: &Cluster,
    clients: &[&Client],
    lanes: &mut [Lane],
    read_pct: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let before = Counters::take(cluster);
    // All lanes stop at the deadline; the counters are read before any
    // lane starts collecting garbage.
    let stopped = Barrier::new(clients.len() + 1);
    let counted = Barrier::new(clients.len() + 1);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (results, secs, after) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(lanes.iter_mut())
            .map(|(&client, lane)| {
                let (stopped, counted) = (&stopped, &counted);
                s.spawn(move || {
                    let st = run(client, lane, read_pct, traced, || {
                        Instant::now() >= deadline
                    });
                    stopped.wait();
                    counted.wait();
                    (st, collect_garbage(client))
                })
            })
            .collect();
        stopped.wait();
        let secs = start.elapsed().as_secs_f64();
        let after = Counters::take(cluster);
        counted.wait();
        let results: Vec<(MixStats, u64)> = handles
            .into_iter()
            .map(|h| h.join().expect("mix thread panicked"))
            .collect();
        (results, secs, after)
    });
    let mut phase = Phase {
        counters: after.since(&before),
        ..Phase::default()
    };
    let (mut reads, mut writes) = (0, 0);
    for (st, gc_errors) in results {
        reads += st.reads.len() as u64;
        writes += st.writes.len() as u64;
        phase.stats.merge(st);
        phase.gc_errors += gc_errors;
    }
    phase.stats.reads.cut();
    phase.stats.writes.cut();
    phase.segments.push((reads, writes, secs));
    phase
}
