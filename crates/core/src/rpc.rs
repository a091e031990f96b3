//! Typed RPC helpers over the transport: the one transport-error rule
//! ([`recourse`]: §3.5 auto-remap of crashed nodes, `Busy` and lost-reply
//! re-sends) and reply-variant unwrapping.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use ajx_storage::{NodeId, Reply, Request};
use ajx_transport::{ClientEndpoint, RpcError};

/// What to do about one failed RPC: remap the crashed node through the
/// directory and send once more, back off and send it again, or surface
/// the error to the protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recourse {
    Remap,
    Resend,
    Surface,
}

/// Re-sends a caller may still spend, on [`RpcError::Busy`] sheds and on
/// indeterminately lost idempotent requests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    pub(crate) busy: u32,
    pub(crate) lost: u32,
}

/// The one transport-error rule, shared by [`call`], [`call_many`], the
/// multicast of the blocking client and the multiplexed driver. A re-send
/// is charged to `budget`.
///
/// * `NodeDown` with `auto_remap`: a crash is determinate, so remap (§3.5:
///   "clients simply access some logical node, which gets remapped on
///   failures") without spending budget.
/// * `Busy` is shed *before* the node's queue — determinate, so even a
///   non-idempotent request is re-sent. No remap: the node is healthy.
/// * An indeterminate failure (timeout, lost reply, torn-down worker) is
///   re-sent only for an idempotent request: a `swap` or `add` may have
///   executed, and executing it twice corrupts the write.
pub(crate) fn recourse(
    cfg: &ProtocolConfig,
    req: &Request,
    err: &RpcError,
    budget: &mut Budget,
) -> Recourse {
    match err {
        RpcError::NodeDown(_) if cfg.auto_remap => Recourse::Remap,
        RpcError::Busy(_) if budget.busy > 0 => {
            budget.busy -= 1;
            Recourse::Resend
        }
        e if e.is_indeterminate() && req.is_idempotent() && budget.lost > 0 => {
            budget.lost -= 1;
            Recourse::Resend
        }
        _ => Recourse::Surface,
    }
}

/// Issues `req` under the [`recourse`] rule.
///
/// # Errors
///
/// Transport errors that remapping and the retry budget cannot fix
/// (client killed, unknown node, node crashed again immediately,
/// persistent timeouts).
pub(crate) fn call(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    node: NodeId,
    req: Request,
) -> Result<Reply, ProtocolError> {
    endpoint.call(node, req.clone()).or_else(|e| retry(endpoint, cfg, node, req, e))
}

/// Settles a failed send of `req` under the [`recourse`] rule: re-sends
/// with backoff within the blocking paths' budget (`rpc_retry_budget` of
/// each kind), or remaps and sends once more, raw.
pub(crate) fn retry(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    node: NodeId,
    req: Request,
    mut err: RpcError,
) -> Result<Reply, ProtocolError> {
    let mut backoff = cfg
        .backoff
        .session(u64::from(endpoint.id().0) << 32 | u64::from(node.0));
    let n = cfg.backoff.rpc_retry_budget;
    let mut budget = Budget { busy: n, lost: n };
    loop {
        match recourse(cfg, &req, &err, &mut budget) {
            Recourse::Remap => {
                endpoint.network().remap_node(node, cfg.remap_garbage);
                return endpoint.call(node, req).map_err(ProtocolError::from);
            }
            Recourse::Resend => backoff.pause(),
            Recourse::Surface => return Err(err.into()),
        }
        err = match endpoint.call(node, req.clone()) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
    }
}

/// Parallel fan-out (`pfor`); failed calls are settled by [`retry`]
/// serially after the batch — the slow path only exists under faults.
pub(crate) fn call_many(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    calls: Vec<(NodeId, Request)>,
) -> Vec<Result<Reply, ProtocolError>> {
    let retry_targets: Vec<(NodeId, Request)> = calls.clone();
    endpoint
        .call_many(calls)
        .into_iter()
        .zip(retry_targets)
        .map(|(res, (node, req))| res.or_else(|e| retry(endpoint, cfg, node, req, e)))
        .collect()
}

/// Unwraps a reply variant; a cross-variant mismatch returns
/// [`ProtocolError::UnexpectedReply`] from the enclosing function — a
/// malformed reply is a node-side fault and must not crash the client.
macro_rules! expect_reply {
    ($reply:expr, $variant:path) => {
        match $reply {
            $variant(inner) => inner,
            other => {
                return Err($crate::error::ProtocolError::unexpected(
                    stringify!($variant),
                    &other,
                ))
            }
        }
    };
}
pub(crate) use expect_reply;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ajx_storage::{ClientId, StripeId};
    use ajx_transport::{Network, NetworkConfig};

    fn setup(auto_remap: bool) -> (std::sync::Arc<Network>, ClientEndpoint, ProtocolConfig) {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.auto_remap = auto_remap;
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        (net, ep, cfg)
    }

    #[test]
    fn call_remaps_a_crashed_node_transparently() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(2));
        // The directory behaviour (§3.5): the call lands on the fresh
        // INIT replacement instead of erroring.
        let reply = call(&ep, &cfg, NodeId(2), Request::Read { stripe: StripeId(0) }).unwrap();
        match reply {
            Reply::Read(r) => assert!(r.block.is_none(), "INIT node returns ⊥"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(net.node_is_up(NodeId(2)));
    }

    #[test]
    fn call_without_auto_remap_surfaces_node_down() {
        let (net, ep, cfg) = setup(false);
        net.crash_node(NodeId(1));
        let err = call(&ep, &cfg, NodeId(1), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::NodeDown(_))
        ));
        assert!(!net.node_is_up(NodeId(1)), "no remap requested");
    }

    #[test]
    fn call_many_remaps_only_the_down_targets() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(0));
        net.crash_node(NodeId(3));
        let calls: Vec<_> = (0..4)
            .map(|i| (NodeId(i), Request::Read { stripe: StripeId(0) }))
            .collect();
        let replies = call_many(&ep, &cfg, calls);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(Result::is_ok));
        // Remapped nodes answer ⊥; healthy nodes answer content.
        for (i, r) in replies.into_iter().enumerate() {
            let Reply::Read(read) = r.unwrap() else { panic!() };
            if i == 0 || i == 3 {
                assert!(read.block.is_none(), "node {i} is INIT after remap");
            } else {
                assert!(read.block.is_some(), "node {i} untouched");
            }
        }
    }

    /// A network whose default link drops every request, with a short call
    /// timeout and a zero-sleep backoff policy carrying `budget` re-sends.
    fn setup_black_hole(
        budget: u32,
        auto_remap: bool,
    ) -> (std::sync::Arc<Network>, ClientEndpoint, ProtocolConfig) {
        use std::time::Duration;
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.auto_remap = auto_remap;
        cfg.backoff = crate::backoff::BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            multiplier: 2,
            jitter: crate::backoff::Jitter::None,
            rpc_retry_budget: budget,
            busy_retry_budget: budget,
        };
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            call_timeout: Some(Duration::from_millis(20)),
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        (net, ep, cfg)
    }

    fn drop_all_requests() -> ajx_transport::LinkFaults {
        ajx_transport::LinkFaults {
            drop_req: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn idempotent_timeout_is_retried_up_to_the_budget() {
        let (net, ep, cfg) = setup_black_hole(3, true);
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        net.faults().set_tracing(true);
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        let drops = net
            .faults()
            .take_trace()
            .iter()
            .filter(|l| l.contains("drop-req"))
            .count();
        assert_eq!(drops, 4, "initial send plus three budgeted re-sends");
    }

    #[test]
    fn non_idempotent_timeout_is_never_resent() {
        let (net, ep, cfg) = setup_black_hole(3, true);
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        net.faults().set_tracing(true);
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![7; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        let err = call(&ep, &cfg, NodeId(0), swap).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        let drops = net
            .faults()
            .take_trace()
            .iter()
            .filter(|l| l.contains("drop-req"))
            .count();
        assert_eq!(drops, 1, "a swap may already have executed; one send only");
    }

    #[test]
    fn timeout_is_not_misdiagnosed_as_a_crash_and_remapped() {
        let (net, ep, cfg) = setup_black_hole(1, true);
        // Seed node 0 with content before the link goes bad.
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![9; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        call(&ep, &cfg, NodeId(0), swap).unwrap();
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        // Heal the link: the node must still hold its block. A remap (the
        // old NodeDown handling) would have wiped it to an INIT replacement.
        net.faults().clear();
        let reply = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap();
        let Reply::Read(read) = reply else { panic!() };
        assert_eq!(read.block.as_deref(), Some(&[9u8; 16][..]));
    }

    #[test]
    fn busy_retries_even_non_idempotent_requests_then_succeeds() {
        use std::time::Duration;
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.backoff = crate::backoff::BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            multiplier: 2,
            jitter: crate::backoff::Jitter::None,
            rpc_retry_budget: 3,
            busy_retry_budget: 3,
        };
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            server_threads: 1,
            node_queue_depth: Some(1),
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        // Saturate node 0 deterministically: the paused worker holds one
        // job, a second fills the depth-1 queue.
        net.pause_node(NodeId(0));
        let mut held = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        while net.node_queue_len(NodeId(0)) > 0 {
            std::thread::yield_now();
        }
        let mut queued = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });

        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![7; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        let sent_before = ep.stats().snapshot().msgs_sent;
        // Busy is determinate, so even the non-idempotent swap burns the
        // whole retry budget (unlike a timeout, which sends it once) —
        // and surfaces as Busy, not as a remap-triggering NodeDown.
        let err = call(&ep, &cfg, NodeId(0), swap.clone()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Busy(_))
        ));
        assert_eq!(
            ep.stats().snapshot().msgs_sent - sent_before,
            4,
            "initial send plus three budgeted re-sends"
        );
        assert!(net.node_is_up(NodeId(0)), "saturation must not trigger remap");

        // Once the node drains, the same swap goes through.
        net.resume_node(NodeId(0));
        for call_slot in [&mut held, &mut queued] {
            while ep.poll_call(call_slot).is_none() {
                std::thread::yield_now();
            }
        }
        let reply = call(&ep, &cfg, NodeId(0), swap).unwrap();
        assert!(matches!(reply, Reply::Swap(_)));
    }

    #[test]
    fn killed_client_error_is_not_remapped_away() {
        let (_net, ep, cfg) = setup(true);
        ep.kill_after(0);
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::ClientKilled)
        ));
    }
}
