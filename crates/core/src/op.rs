//! Sans-IO client operations: the `READ` of Fig. 4 and the `WRITE` of
//! Fig. 5 as pure per-stripe state machines. An op touches no transport,
//! thread or clock: it tells its driver what to do next ([`Step`]) and is
//! fed the outcome. Three drivers run the ops (DESIGN.md §7 and §9): the
//! blocking [`Client`](crate::Client) methods, the batched `read_blocks` /
//! `write_blocks` (one message per node per step), and
//! [`run_mux_workload`](crate::run_mux_workload). Transport errors reach
//! an op only after the driver applied the one rule, [`crate::rpc::recourse`].

use crate::backoff::BackoffSession;
use crate::client::Client;
use crate::config::{ProtocolConfig, UpdateStrategy};
use crate::error::ProtocolError;
use crate::recovery::{degraded_plan, give_blocks};
use ajx_erasure::RepairPlan;
use ajx_storage::{
    AddReply, AddStatus, BlockState, CheckTidReply, ClientId, Epoch, GetStateReply, LMode, NodeId,
    OpMode, Reply, Request, StripeId, Tid,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// What an op asks its driver to do next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send these requests in one `pfor` round; [`Op::feed`] the results,
    /// one per request, in order.
    Send(Vec<(NodeId, Request)>),
    /// The same, as one §3.11 multicast (the payload is sent once).
    Broadcast(Vec<(NodeId, Request)>),
    /// Run Fig. 6 recovery on this stripe; on failure, [`Op::fail`].
    Recover(StripeId),
    /// Wait, then poll again.
    Pause(Duration),
    /// The op is finished; the driver takes its result out.
    Done,
}

/// One result per request of the last `Send`/`Broadcast`, in order. An op
/// may stop reading early; the driver drops what it left.
pub(crate) type Replies<'r> = &'r mut dyn Iterator<Item = Result<Reply, ProtocolError>>;

/// A client operation driven step by step.
pub(crate) trait Op {
    /// The next step; called again once it has been carried out.
    fn poll(&mut self) -> Step;
    /// Results of the last `Send`/`Broadcast`.
    fn feed(&mut self, replies: Replies<'_>);
    /// The recovery of a [`Step::Recover`] failed: the op ends with `err`.
    fn fail(&mut self, err: ProtocolError);
}

fn node_of(cfg: &ProtocolConfig, stripe: StripeId, t: usize) -> NodeId {
    NodeId(cfg.layout.node_for(stripe.0, t) as u32)
}

/// A backoff session seeded per (client, stripe, operation kind), so
/// competing clients draw different jitter but a run is reproducible.
pub(crate) fn backoff(cfg: &ProtocolConfig, c: ClientId, s: StripeId, salt: u64) -> BackoffSession {
    cfg.backoff
        .session((u64::from(c.0) << 40) ^ (s.0 << 8) ^ salt)
}

// ------------------------------------------------------------------ READ

/// The degraded read's second round: plan members round 1 did not fetch.
struct Repair {
    stuck: Option<ProtocolError>,
    states: Vec<GetStateReply>,
    plan: Arc<RepairPlan>,
    missing: Vec<usize>,
}

enum ReadPhase {
    /// Send (again) the Fig. 4 `read` to the data node.
    Read,
    /// Try the lock-free degraded read (DESIGN.md §8). If it cannot
    /// decode, surface `stuck`; `None` recovers instead.
    Degraded(Option<ProtocolError>),
    /// The steps in flight: the `read`, then the degraded read's rounds.
    AwaitRead,
    AwaitPeers(Option<ProtocolError>),
    AwaitFetch(Box<Repair>),
    Done(Result<Vec<u8>, ProtocolError>),
}

/// `READ` of data block `i` of one stripe (Fig. 4).
///
/// One round trip to the data node in the failure-free case. A reply
/// without a block means that the node lost it (INIT after a remap,
/// unlocked) or that a recovery holds the stripe's locks. The first case
/// is served by a lock-free degraded read from the peers when the tid
/// bookkeeping is unambiguous, and by Fig. 6 recovery otherwise; the
/// second backs off and reads again.
pub(crate) struct ReadOp<'a> {
    cfg: &'a ProtocolConfig,
    stripe: StripeId,
    i: usize,
    /// Data-node `read`s this op may still send.
    reads_left: u32,
    backoff: BackoffSession,
    phase: ReadPhase,
    /// A step decided by the last replies, taken before the phase resumes.
    next: Option<Step>,
}

impl<'a> ReadOp<'a> {
    /// A read by `client`. Panics if `i` is not a data index.
    pub(crate) fn new(client: &'a Client, stripe: StripeId, i: usize) -> Self {
        let cfg = client.config();
        assert!(i < cfg.k(), "data index {i} out of range");
        ReadOp {
            cfg,
            stripe,
            i,
            reads_left: cfg.busy_retry_limit + 1,
            backoff: backoff(cfg, client.id(), stripe, 1),
            phase: ReadPhase::Read,
            next: None,
        }
    }

    /// The block read, or why there is none.
    pub(crate) fn into_result(self) -> Result<Vec<u8>, ProtocolError> {
        let ReadPhase::Done(r) = self.phase else {
            unreachable!("ReadOp not done")
        };
        r
    }

    /// The degraded read cannot decode: surface `stuck`, or recover the
    /// stripe (Fig. 4 line 4) and read again.
    fn give_up(&mut self, stuck: Option<ProtocolError>) {
        match stuck {
            Some(e) => self.phase = ReadPhase::Done(Err(e)),
            None => self.next = Some(Step::Recover(self.stripe)),
        }
    }

    fn get(&self, t: usize, full: bool) -> (NodeId, Request) {
        let stripe = self.stripe;
        let req = if full {
            Request::GetState { stripe }
        } else {
            Request::GetMeta { stripe }
        };
        (node_of(self.cfg, stripe, t), req)
    }

    /// Degraded round 1: a full `GetState` to the code's cheapest repair
    /// set assuming every peer is healthy, `GetMeta` to the rest.
    fn peer_round(&self) -> Vec<(NodeId, Request)> {
        let peers: Vec<usize> = (0..self.cfg.n()).filter(|&t| t != self.i).collect();
        let optimistic: BTreeSet<usize> = (self.cfg.plan_cache)
            .repair(&self.cfg.code, self.i, &peers)
            .map(|p| p.indices().collect())
            .unwrap_or_default();
        peers
            .into_iter()
            .map(|t| self.get(t, optimistic.contains(&t)))
            .collect()
    }

    /// Round 1 is back: validate it and pick the cheapest repair inside
    /// the consistent set, fetching the plan members round 1 did not.
    fn plan_repair(&mut self, stuck: Option<ProtocolError>, replies: Replies<'_>) {
        // A peer that did not answer is not a candidate: it stands in as
        // the INIT node a remap would leave.
        let init = BlockState::after_fail_remap(Vec::new()).get_state();
        let mut states = vec![init; self.cfg.n()];
        for (t, res) in (0..self.cfg.n()).filter(|&t| t != self.i).zip(replies) {
            if let Ok(Reply::GetState(s)) = res {
                states[t] = s;
            }
        }
        let plan = degraded_plan(&states, self.cfg.k(), self.i)
            .and_then(|cset| self.cfg.plan_cache.repair(&self.cfg.code, self.i, &cset));
        let Some(plan) = plan else {
            give_blocks(&mut states);
            return self.give_up(stuck);
        };
        let missing: Vec<usize> = plan
            .indices()
            .filter(|&t| states[t].block.is_none())
            .collect();
        let calls: Vec<_> = missing.iter().map(|&t| self.get(t, true)).collect();
        let r = Repair {
            stuck,
            states,
            plan,
            missing,
        };
        if calls.is_empty() {
            return self.decode(r);
        }
        self.phase = ReadPhase::AwaitFetch(Box::new(r));
        self.next = Some(Step::Send(calls));
    }

    /// Round 2 is back. A late block is usable only if the node's tid
    /// bookkeeping did not move since the round `degraded_plan` validated —
    /// any drift means a write or recovery is interleaving.
    fn fetched(&mut self, mut r: Repair, replies: Replies<'_>) {
        for (&t, res) in r.missing.iter().zip(replies) {
            match res {
                Ok(Reply::GetState(s))
                    if s.opmode == r.states[t].opmode
                        && s.recentlist == r.states[t].recentlist
                        && s.oldlist == r.states[t].oldlist
                        && s.epoch == r.states[t].epoch =>
                {
                    r.states[t] = s;
                }
                _ => {
                    give_blocks(&mut r.states);
                    return self.give_up(r.stuck);
                }
            }
        }
        self.decode(r);
    }

    /// Client-side single-block decode from the validated plan members.
    /// A decode error (ragged or missing shares — not a state the protocol
    /// produces) is treated as any other ambiguity.
    fn decode(&mut self, mut r: Repair) {
        let shares: Vec<&[u8]> = r
            .plan
            .indices()
            .filter_map(|t| r.states[t].block.as_deref())
            .collect();
        let mut out = crate::pool::take(shares.first().map_or(0, |s| s.len()));
        let decoded = r.plan.reconstruct_into(&shares, &mut out);
        drop(shares);
        give_blocks(&mut r.states);
        match decoded {
            Ok(()) => self.phase = ReadPhase::Done(Ok(out)),
            Err(_) => {
                crate::pool::give(out);
                self.give_up(r.stuck);
            }
        }
    }
}

impl Op for ReadOp<'_> {
    fn poll(&mut self) -> Step {
        loop {
            if let Some(step) = self.next.take() {
                return step;
            }
            let calls = match std::mem::replace(&mut self.phase, ReadPhase::Read) {
                ReadPhase::Read if self.reads_left == 0 => {
                    let attempts = self.cfg.busy_retry_limit + 1;
                    let err = ProtocolError::RetriesExhausted {
                        what: "READ",
                        attempts,
                    };
                    self.phase = ReadPhase::Done(Err(err));
                    continue;
                }
                ReadPhase::Read => {
                    self.reads_left -= 1;
                    self.phase = ReadPhase::AwaitRead;
                    let stripe = self.stripe;
                    vec![(node_of(self.cfg, stripe, self.i), Request::Read { stripe })]
                }
                ReadPhase::Degraded(stuck) if self.cfg.degraded_reads => {
                    self.phase = ReadPhase::AwaitPeers(stuck);
                    self.peer_round()
                }
                ReadPhase::Degraded(stuck) => {
                    self.give_up(stuck);
                    continue;
                }
                done @ ReadPhase::Done(_) => {
                    self.phase = done;
                    return Step::Done;
                }
                _ => unreachable!("ReadOp polled while a step is in flight"),
            };
            return Step::Send(calls);
        }
    }

    fn feed(&mut self, replies: Replies<'_>) {
        let reply = match std::mem::replace(&mut self.phase, ReadPhase::Read) {
            ReadPhase::AwaitRead => replies.next(),
            ReadPhase::AwaitPeers(stuck) => return self.plan_repair(stuck, replies),
            ReadPhase::AwaitFetch(r) => return self.fetched(*r, replies),
            _ => unreachable!("ReadOp fed without a step in flight"),
        };
        self.phase = match reply {
            Some(Ok(Reply::Read(r))) => match r.block {
                Some(v) => ReadPhase::Done(Ok(v)),
                // The data node lost its block (INIT after a remap).
                None if r.lmode.allows_recovery_start() => ReadPhase::Degraded(None),
                // Another client's recovery holds the stripe.
                None => {
                    self.next = Some(Step::Pause(self.backoff.next_delay()));
                    ReadPhase::Read
                }
            },
            // The data node is unreachable (and, without auto-remap,
            // staying that way): try the peers before giving up.
            Some(Err(e @ ProtocolError::Rpc(_))) => ReadPhase::Degraded(Some(e)),
            Some(Err(e)) => ReadPhase::Done(Err(e)),
            other => ReadPhase::Done(Err(ProtocolError::unexpected("Reply::Read", &other))),
        };
    }

    fn fail(&mut self, err: ProtocolError) {
        self.phase = ReadPhase::Done(Err(err));
    }
}

// ----------------------------------------------------------------- WRITE

/// A set of in-stripe indices (`n ≤ 256`), kept inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Indices([u64; 4]);

impl Indices {
    fn insert(&mut self, t: usize) {
        self.0[t / 64] |= 1 << (t % 64);
    }

    fn remove(&mut self, t: usize) {
        self.0[t / 64] &= !(1 << (t % 64));
    }

    fn contains(&self, t: usize) -> bool {
        self.0[t / 64] & (1 << (t % 64)) != 0
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }
}

/// The add loop of Fig. 5 lines 7-21 for one block whose swap landed.
struct Adds {
    old: Vec<u8>,
    epoch: Epoch,
    otid: Option<Tid>,
    /// `T`: redundant nodes still to update.
    t: Indices,
    /// `D`: nodes done.
    d: Indices,
    order_rounds: u32,
    /// This pass saw an ORDER reply.
    order: bool,
    /// This pass saw a reply that calls for recovery.
    recover: bool,
}

impl Adds {
    /// Fig. 5 lines 8-13 for one add reply: `OK` moves the node from `T`
    /// to `D`; ORDER keeps it in `T`; `Unavail` keeps it only while the
    /// node is not `UNL`/`L0`. An expired lock, a non-`NORM` unlocked node
    /// or a hopeless ORDER calls for recovery.
    fn note(&mut self, j: usize, r: &AddReply, order_limit: u32) {
        match r.status {
            AddStatus::Ok => {
                self.t.remove(j);
                self.d.insert(j);
            }
            AddStatus::Order => self.order = true,
            // A stale epoch or an INIT node (UNL/L0) is dropped from T;
            // the next attempt re-swaps if needed.
            AddStatus::Unavail if matches!(r.lmode, LMode::Unl | LMode::L0) => self.t.remove(j),
            AddStatus::Unavail => {}
        }
        self.recover |= r.lmode == LMode::Exp
            || (r.opmode != OpMode::Norm && r.lmode == LMode::Unl)
            || (r.status == AddStatus::Order && self.order_rounds >= order_limit);
    }
}

enum SlotState {
    /// Waiting for (another) swap, with this many sends left in this
    /// attempt (Fig. 5 lines 3-6).
    Swapping(u32),
    Adding(Adds),
    /// Complete: the write reached every node in `D`.
    Done(Indices),
    Failed,
}

/// One data block of a [`WriteOp`].
struct Slot<'a> {
    i: usize,
    value: Cow<'a, [u8]>,
    ntid: Tid,
    state: SlotState,
}

/// Where a [`WriteOp`] is: an attempt (Fig. 5 lines 1/22) swaps, then
/// sends add passes round by round until `Retire` ends each finished
/// block's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WritePhase {
    Attempt,
    Swap,
    Add(usize),
    Retire,
    Done,
}

/// `WRITE` of one or more data blocks of one stripe (Fig. 5).
///
/// Per attempt: a `swap` at each block's data node (one round — distinct
/// data indices live on distinct nodes), then `add` passes in the update
/// strategy's rounds, each carrying every pending block's increment for
/// that node, with each reply classified as in Fig. 5 ([`Adds::note`]).
/// A block whose loop ends with `D ≠ {i} ∪ {k..n}` is re-swapped with a
/// fresh tid, up to `write_attempt_limit` attempts. An error fails its
/// block; the others still finish, and the op reports the first error.
pub(crate) struct WriteOp<'a> {
    client: &'a Client,
    cfg: &'a ProtocolConfig,
    stripe: StripeId,
    slots: Vec<Slot<'a>>,
    attempts: u32,
    backoff: BackoffSession,
    phase: WritePhase,
    /// Steps decided by the last replies, taken before the phase resumes.
    queue: VecDeque<Step>,
    /// `(slot, in-stripe index)` per request in flight.
    inflight: Vec<(usize, usize)>,
    err: Option<ProtocolError>,
}

impl<'a> WriteOp<'a> {
    /// A write by `client`. `items` are `(data index, value)` pairs with
    /// distinct indices and block-sized values (the caller validates
    /// sizes). Panics on an index that is not a data index.
    pub(crate) fn new(
        client: &'a Client,
        stripe: StripeId,
        items: Vec<(usize, Cow<'a, [u8]>)>,
    ) -> Self {
        let cfg = client.config();
        let slot = |(i, value)| {
            assert!(i < cfg.k(), "data index {i} out of range");
            let ntid = Tid::new(0, i, client.id());
            let state = SlotState::Swapping(0);
            Slot {
                i,
                value,
                ntid,
                state,
            }
        };
        WriteOp {
            client,
            cfg,
            stripe,
            slots: items.into_iter().map(slot).collect(),
            attempts: 0,
            backoff: backoff(cfg, client.id(), stripe, 2),
            phase: WritePhase::Attempt,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            err: None,
        }
    }

    /// `((stripe, j), tid)` for every node a completed block's write
    /// reached — Fig. 7's garbage-collection input.
    pub(crate) fn gc_records(&self) -> impl Iterator<Item = ((StripeId, usize), Tid)> + '_ {
        let n = self.cfg.n();
        let stripe = self.stripe;
        self.slots.iter().flat_map(move |slot| {
            let d = match slot.state {
                SlotState::Done(d) => d,
                _ => Indices::default(),
            };
            (0..n)
                .filter(move |&j| d.contains(j))
                .map(move |j| ((stripe, j), slot.ntid))
        })
    }

    /// The write's outcome.
    pub(crate) fn finish(self) -> Result<(), ProtocolError> {
        let done = |s: &Slot| matches!(s.state, SlotState::Done(_));
        match self.err {
            Some(e) => Err(e),
            None if self.slots.iter().all(done) => Ok(()),
            None => Err(ProtocolError::RetriesExhausted {
                what: "WRITE",
                attempts: self.cfg.write_attempt_limit,
            }),
        }
    }

    fn fail_slot(&mut self, x: usize, e: ProtocolError) {
        let state = std::mem::replace(&mut self.slots[x].state, SlotState::Failed);
        if let SlotState::Adding(a) = state {
            crate::pool::give(a.old);
        }
        self.err.get_or_insert(e);
    }

    /// Swaps for every block waiting for one.
    fn swap_calls(&mut self) -> Vec<(NodeId, Request)> {
        let mut calls = Vec::new();
        for x in 0..self.slots.len() {
            let slot = &mut self.slots[x];
            match slot.state {
                SlotState::Swapping(0) => {
                    let attempts = self.cfg.busy_retry_limit + 1;
                    self.fail_slot(
                        x,
                        ProtocolError::RetriesExhausted {
                            what: "swap",
                            attempts,
                        },
                    );
                }
                SlotState::Swapping(ref mut left) => {
                    *left -= 1;
                    // A pool-backed copy: no allocation in steady state.
                    let mut value = crate::pool::take(0);
                    value.extend_from_slice(&slot.value);
                    let req = Request::Swap {
                        stripe: self.stripe,
                        value,
                        ntid: slot.ntid,
                    };
                    calls.push((node_of(self.cfg, self.stripe, slot.i), req));
                    self.inflight.push((x, slot.i));
                }
                _ => {}
            }
        }
        calls
    }

    /// One strategy round of `add`s. Under [`UpdateStrategy::Broadcast`]
    /// a single block multicasts `v − w` once and nodes scale it by their
    /// own `α_ji` (§3.11); several blocks send client-scaled increments,
    /// since per-node batches cannot share one payload anyway.
    fn add_step(&mut self, round: usize) -> Step {
        let k = self.cfg.k();
        let code = &self.cfg.code;
        let multicast = self.cfg.strategy == UpdateStrategy::Broadcast && self.slots.len() == 1;
        let sized = "swap replies are block-sized";
        let mut calls = Vec::new();
        for &j in &self.client.rounds()[round] {
            for (x, slot) in self.slots.iter().enumerate() {
                let SlotState::Adding(a) = &slot.state else {
                    continue;
                };
                if !a.t.contains(j) {
                    continue;
                }
                let (delta, scale) = if multicast {
                    let diff = code.broadcast_delta(&slot.value, &a.old).expect(sized);
                    (diff, Some((j - k, slot.i)))
                } else {
                    let mut delta = crate::pool::take(slot.value.len());
                    code.delta_into_buf(j - k, slot.i, &slot.value, &a.old, &mut delta)
                        .expect(sized);
                    (delta, None)
                };
                let req = Request::Add {
                    stripe: self.stripe,
                    delta,
                    ntid: slot.ntid,
                    otid: a.otid,
                    epoch: a.epoch,
                    scale,
                };
                calls.push((node_of(self.cfg, self.stripe, j), req));
                self.inflight.push((x, j));
            }
        }
        match multicast {
            true => Step::Broadcast(calls),
            false => Step::Send(calls),
        }
    }

    /// Fig. 5 lines 14-19 after an add pass: recovery if a reply called
    /// for it; after ORDER, a `checktid` probe at the done nodes (has the
    /// predecessor write been collected, or has a done node lost the
    /// write?) and a pause before the retry.
    fn end_pass(&mut self) {
        let mut recover = false;
        let mut order = false;
        let mut checks = Vec::new();
        for (x, slot) in self.slots.iter_mut().enumerate() {
            let SlotState::Adding(a) = &mut slot.state else {
                continue;
            };
            recover |= std::mem::take(&mut a.recover);
            if !std::mem::take(&mut a.order) {
                continue;
            }
            a.order_rounds += 1;
            order = true;
            let Some(otid) = a.otid else {
                continue;
            };
            for j in (0..self.cfg.n()).filter(|&j| a.d.contains(j)) {
                let req = Request::CheckTid {
                    stripe: self.stripe,
                    ntid: slot.ntid,
                    otid,
                };
                checks.push((node_of(self.cfg, self.stripe, j), req));
                self.inflight.push((x, j));
            }
        }
        if recover {
            self.queue.push_back(Step::Recover(self.stripe));
        }
        if !checks.is_empty() {
            self.queue.push_back(Step::Send(checks));
        }
        if order {
            self.queue.push_back(Step::Pause(self.backoff.next_delay()));
        }
    }

    /// Ends each block's add loop once `T` or `D` is empty: a complete
    /// block is done, an incomplete one waits for the next attempt's
    /// re-swap. Whether any block loops on.
    fn retire(&mut self) -> bool {
        let full = 1 + self.cfg.n() - self.cfg.k();
        let mut looping = false;
        for slot in &mut self.slots {
            let SlotState::Adding(a) = &mut slot.state else {
                continue;
            };
            if !a.t.is_empty() && !a.d.is_empty() {
                looping = true;
                continue;
            }
            let d = a.d;
            // The old block has served its deltas; recycle it.
            crate::pool::give(std::mem::take(&mut a.old));
            // D ⊆ {i} ∪ {k..n}, so a full count means D is the full set.
            slot.state = match d.len() == full {
                true => SlotState::Done(d),
                false => SlotState::Swapping(0),
            };
        }
        looping
    }
}

impl Op for WriteOp<'_> {
    fn poll(&mut self) -> Step {
        if let Some(step) = self.queue.pop_front() {
            return step;
        }
        self.inflight.clear();
        loop {
            match self.phase {
                WritePhase::Done => return Step::Done,
                WritePhase::Attempt => {
                    let waiting = |s: &Slot| matches!(s.state, SlotState::Swapping(_));
                    let limit = self.cfg.write_attempt_limit;
                    if !self.slots.iter().any(waiting) || self.attempts == limit {
                        self.phase = WritePhase::Done;
                        continue;
                    }
                    self.attempts += 1;
                    for slot in self.slots.iter_mut().filter(|s| waiting(s)) {
                        slot.ntid = Tid::new(self.client.next_seq(), slot.i, self.client.id());
                        slot.state = SlotState::Swapping(self.cfg.busy_retry_limit + 1);
                    }
                    self.phase = WritePhase::Swap;
                }
                WritePhase::Swap => {
                    let calls = self.swap_calls();
                    if !calls.is_empty() {
                        return Step::Send(calls);
                    }
                    self.phase = WritePhase::Add(0);
                }
                WritePhase::Add(round) if round == self.client.rounds().len() => {
                    self.phase = WritePhase::Retire;
                    self.end_pass();
                    if let Some(step) = self.queue.pop_front() {
                        return step;
                    }
                }
                WritePhase::Add(round) => {
                    self.phase = WritePhase::Add(round + 1);
                    match self.add_step(round) {
                        Step::Send(c) | Step::Broadcast(c) if c.is_empty() => {}
                        step => return step,
                    }
                }
                WritePhase::Retire => {
                    self.phase = match self.retire() {
                        true => WritePhase::Add(0),
                        false => WritePhase::Attempt,
                    };
                }
            }
        }
    }

    fn feed(&mut self, replies: Replies<'_>) {
        let mut recover = false;
        let mut pause = false;
        let order_limit = self.cfg.order_retry_limit;
        let mut inflight = std::mem::take(&mut self.inflight);
        for ((x, j), res) in inflight.drain(..).zip(replies) {
            let block_size = self.slots[x].value.len();
            let a = match &mut self.slots[x].state {
                SlotState::Done(_) | SlotState::Failed => continue,
                SlotState::Adding(a) => Some(a),
                SlotState::Swapping(_) => None,
            };
            match (a, res) {
                (None, Ok(Reply::Swap(r))) => match r.block {
                    Some(old) if old.len() == block_size => {
                        let mut d = Indices::default();
                        d.insert(j);
                        let mut t = Indices::default();
                        (self.cfg.k()..self.cfg.n()).for_each(|r| t.insert(r));
                        self.slots[x].state = SlotState::Adding(Adds {
                            old,
                            epoch: r.epoch,
                            otid: r.otid,
                            t,
                            d,
                            order_rounds: 0,
                            order: false,
                            recover: false,
                        });
                    }
                    Some(old) => {
                        let got = format!("a {}-byte old block", old.len());
                        self.fail_slot(x, ProtocolError::unexpected("Reply::Swap", &got));
                    }
                    // Busy or INIT node: nothing was recorded, so the same
                    // tid is swapped again — after recovery if the block
                    // is unavailable but unlocked, else after a pause.
                    None if r.lmode.allows_recovery_start() => recover = true,
                    None => pause = true,
                },
                (Some(a), Ok(Reply::Add(r))) if matches!(self.phase, WritePhase::Add(_)) => {
                    a.note(j, &r, order_limit);
                }
                (Some(a), Ok(Reply::CheckTid(c))) if self.phase == WritePhase::Retire => match c {
                    CheckTidReply::Gc => a.otid = None,
                    CheckTidReply::Init => a.d.remove(j),
                    CheckTidReply::NoChange => {}
                },
                // A lost swap or add may have executed: the block surfaces
                // the error rather than re-sending.
                (_, Err(e)) => self.fail_slot(x, e),
                (_, Ok(other)) => {
                    self.fail_slot(x, ProtocolError::unexpected("its reply variant", &other));
                }
            }
        }
        self.inflight = inflight;
        if recover {
            self.queue.push_back(Step::Recover(self.stripe));
        } else if pause {
            self.queue.push_back(Step::Pause(self.backoff.next_delay()));
        }
    }

    fn fail(&mut self, err: ProtocolError) {
        for x in 0..self.slots.len() {
            self.fail_slot(x, err.clone());
        }
        self.err = Some(err);
        self.queue.clear();
        self.phase = WritePhase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::{ReadReply, SwapReply};
    use ajx_transport::{Network, NetworkConfig};

    const BS: usize = 8;

    /// A 2-of-4 client on a network the ops never touch.
    fn client_with(tweak: impl FnOnce(&mut ProtocolConfig)) -> Client {
        let mut cfg = ProtocolConfig::new(2, 4, BS).unwrap();
        cfg.backoff = crate::BackoffPolicy::none();
        tweak(&mut cfg);
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: BS,
            ..NetworkConfig::default()
        });
        Client::new(net.client(ClientId(1)), cfg)
    }

    fn client() -> Client {
        client_with(|_| {})
    }

    fn sent(step: Step) -> Vec<(NodeId, Request)> {
        match step {
            Step::Send(calls) => calls,
            other => panic!("expected Send, got {other:?}"),
        }
    }

    fn swap_ok(otid: Option<Tid>) -> Result<Reply, ProtocolError> {
        Ok(Reply::Swap(SwapReply {
            block: Some(vec![0; BS]),
            epoch: Epoch(0),
            otid,
            lmode: LMode::Unl,
        }))
    }

    fn add(status: AddStatus, opmode: OpMode, lmode: LMode) -> Result<Reply, ProtocolError> {
        Ok(Reply::Add(AddReply {
            status,
            opmode,
            lmode,
        }))
    }

    fn add_ok() -> Result<Reply, ProtocolError> {
        add(AddStatus::Ok, OpMode::Norm, LMode::Unl)
    }

    fn read(block: Option<Vec<u8>>, lmode: LMode) -> Result<Reply, ProtocolError> {
        Ok(Reply::Read(ReadReply { block, lmode }))
    }

    #[test]
    fn failure_free_write_is_one_swap_then_one_add_round() {
        let c = client();
        let value = [5u8; BS];
        let items = vec![(0, Cow::Borrowed(&value[..]))];
        let mut op = WriteOp::new(&c, StripeId(0), items);
        let swap = sent(op.poll());
        assert!(matches!(&swap[..], [(NodeId(0), Request::Swap { .. })]));
        op.feed(&mut vec![swap_ok(None)].into_iter());
        let adds = sent(op.poll());
        let nodes: Vec<NodeId> = adds.iter().map(|(n, _)| *n).collect();
        assert_eq!(nodes, [NodeId(2), NodeId(3)]);
        assert!(adds
            .iter()
            .all(|(_, r)| matches!(r, Request::Add { scale: None, .. })));
        op.feed(&mut vec![add_ok(), add_ok()].into_iter());
        assert!(matches!(op.poll(), Step::Done));
        let tid = Tid::new(0, 0, ClientId(1));
        let s = StripeId(0);
        let gc: Vec<_> = op.gc_records().collect();
        assert_eq!(gc, [((s, 0), tid), ((s, 2), tid), ((s, 3), tid)]);
        op.finish().unwrap();
    }

    #[test]
    fn unavail_add_from_an_init_node_recovers_and_reswaps() {
        let c = client();
        let value = [5u8; BS];
        let items = vec![(1, Cow::Borrowed(&value[..]))];
        let mut op = WriteOp::new(&c, StripeId(0), items);
        sent(op.poll());
        op.feed(&mut vec![swap_ok(None)].into_iter());
        sent(op.poll());
        // Redundant node 3 was remapped: INIT, unlocked. The add is not
        // retried (the node is dropped from T); the stripe is recovered.
        let init = add(AddStatus::Unavail, OpMode::Init, LMode::Unl);
        op.feed(&mut vec![add_ok(), init].into_iter());
        assert!(matches!(op.poll(), Step::Recover(StripeId(0))));
        // D = {1, 2} is incomplete: the next attempt re-swaps, fresh tid.
        let swap = sent(op.poll());
        assert!(matches!(
            &swap[..],
            [(_, Request::Swap { ntid, .. })] if ntid.seq == 1
        ));
        op.feed(&mut vec![swap_ok(None)].into_iter());
        sent(op.poll());
        op.feed(&mut vec![add_ok(), add_ok()].into_iter());
        assert!(matches!(op.poll(), Step::Done));
        assert_eq!(op.gc_records().count(), 3);
    }

    #[test]
    fn order_probes_checktid_at_done_nodes_then_retries_after_a_pause() {
        let c = client();
        let value = [5u8; BS];
        let otid = Tid::new(9, 0, ClientId(2));
        let items = vec![(0, Cow::Borrowed(&value[..]))];
        let mut op = WriteOp::new(&c, StripeId(0), items);
        sent(op.poll());
        op.feed(&mut vec![swap_ok(Some(otid))].into_iter());
        sent(op.poll());
        let order = add(AddStatus::Order, OpMode::Norm, LMode::Unl);
        op.feed(&mut vec![order, add_ok()].into_iter());
        let checks = sent(op.poll());
        let nodes: Vec<NodeId> = checks.iter().map(|(n, _)| *n).collect();
        assert_eq!(nodes, [NodeId(0), NodeId(3)], "D = {{0, 3}}");
        op.feed(&mut vec![Ok(Reply::CheckTid(CheckTidReply::NoChange)); 2].into_iter());
        assert!(matches!(op.poll(), Step::Pause(_)));
        let retry = sent(op.poll());
        assert!(matches!(&retry[..], [(NodeId(2), Request::Add { .. })]));
    }

    #[test]
    fn transport_error_fails_the_write_without_resending() {
        let c = client();
        let value = [5u8; BS];
        let items = vec![(0, Cow::Borrowed(&value[..]))];
        let mut op = WriteOp::new(&c, StripeId(0), items);
        sent(op.poll());
        let lost = ProtocolError::Rpc(ajx_transport::RpcError::Timeout(NodeId(0)));
        op.feed(&mut vec![Err(lost.clone())].into_iter());
        assert!(matches!(op.poll(), Step::Done));
        assert_eq!(op.gc_records().count(), 0);
        assert_eq!(op.finish(), Err(lost));
    }

    #[test]
    fn read_without_a_block_never_completes_empty() {
        let c = client_with(|cfg| cfg.degraded_reads = false);
        let mut op = ReadOp::new(&c, StripeId(0), 0);
        sent(op.poll());
        // Locked by a recovery: back off and read again.
        op.feed(&mut vec![read(None, LMode::L1)].into_iter());
        assert!(matches!(op.poll(), Step::Pause(_)));
        sent(op.poll());
        // Lost (INIT, unlocked): recover, then read again.
        op.feed(&mut vec![read(None, LMode::Unl)].into_iter());
        assert!(matches!(op.poll(), Step::Recover(StripeId(0))));
        sent(op.poll());
        op.feed(&mut vec![read(Some(vec![3; BS]), LMode::Unl)].into_iter());
        assert!(matches!(op.poll(), Step::Done));
        assert_eq!(op.into_result().unwrap(), vec![3; BS]);
    }

    #[test]
    fn lost_block_is_decoded_from_the_peers_without_locks() {
        let c = client();
        let mut op = ReadOp::new(&c, StripeId(0), 0);
        sent(op.poll());
        op.feed(&mut vec![read(None, LMode::Unl)].into_iter());
        let peers = sent(op.poll());
        assert_eq!(peers.len(), 3);
        // A never-written stripe: every peer NORM, zero blocks, no tids.
        let replies: Vec<Result<Reply, ProtocolError>> = peers
            .iter()
            .map(|(_, req)| {
                Ok(Reply::GetState(GetStateReply {
                    opmode: OpMode::Norm,
                    recons_set: vec![],
                    oldlist: vec![],
                    recentlist: vec![],
                    block: matches!(req, Request::GetState { .. }).then(|| vec![0; BS]),
                    epoch: Epoch(0),
                }))
            })
            .collect();
        op.feed(&mut replies.into_iter());
        assert!(matches!(op.poll(), Step::Done));
        assert_eq!(op.into_result().unwrap(), vec![0; BS]);
    }
}
