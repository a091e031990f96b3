//! The benchmark's own checks: the oracle catches a corrupted block, every
//! workload runs clean at a tiny size, and the metric names agree with
//! `BENCHMARK.json`.

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_perfbench::oracle::{self, Shadow};
use ajx_perfbench::workloads::{self, Opts, END_TO_END, PER_LAYER};
use ajx_storage::{ClientId, NodeId, StripeId, Tid};

#[test]
fn oracle_reports_a_corrupted_block() {
    let cfg = ProtocolConfig::new(4, 8, 64).expect("valid code");
    let cluster = Cluster::new(cfg.clone(), 1);
    let shadow = Shadow::new(9, 0, 64);
    oracle::fill(cluster.client(0), &shadow, 16).expect("fill");
    let lbs: Vec<u64> = (0..64).collect();
    let stripes = oracle::stripes_for(64, cfg.k());
    assert_eq!(oracle::read_back(cluster.client(0), &shadow, &lbs), 0);
    assert_eq!(oracle::inconsistent_stripes(&cluster, 0..stripes), 0);

    // Overwrite block 13's bytes in node memory, behind the protocol's back.
    let victim = 13;
    let place = cfg.layout.locate(victim);
    let stripe = StripeId(place.stripe);
    cluster
        .network()
        .with_node(NodeId(place.node as u32), |node| {
            node.block_state_mut(stripe)
                .expect("filled block")
                .swap(vec![0x5a; 64], Tid::new(1 << 30, place.index, ClientId(77)));
        });

    assert_eq!(oracle::read_back(cluster.client(0), &shadow, &lbs), 1);
    assert_eq!(oracle::inconsistent_stripes(&cluster, 0..stripes), 1);
}

fn tiny(trace: bool) -> Opts {
    Opts {
        seed: 5,
        seconds: 0.3,
        trace,
        tiny: true,
    }
}

fn assert_clean(name: &str, trace: bool) {
    let out = workloads::run(name, &tiny(trace)).expect("known workload");
    assert!(out.attempted > 0, "{name}: no operation ran");
    assert_eq!(out.errors, 0, "{name}: operations failed");
    assert_eq!(out.wrong, 0, "{name}: wrong results");
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    want.sort_unstable();
    assert_eq!(names, want, "{name}: metric set");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        if !trace {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn point_4k_runs_clean() {
    assert_clean("point_4k", false);
    assert_clean("point_4k", true);
}

#[test]
fn seq_64k_runs_clean() {
    assert_clean("seq_64k", false);
    assert_clean("seq_64k", true);
}

#[test]
fn repair_lrc_runs_clean() {
    assert_clean("repair_lrc", false);
    assert_clean("repair_lrc", true);
}

#[test]
fn fleet_mux_runs_clean() {
    assert_clean("fleet_mux", false);
    assert_clean("fleet_mux", true);
}

#[test]
fn unknown_workload_is_refused() {
    assert!(workloads::run("nope", &tiny(false)).is_none());
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    assert_eq!(listed("end_to_end"), END_TO_END.to_vec());
    assert_eq!(listed("per_layer"), PER_LAYER.to_vec());
}
