//! The poll-based reactor hosting every node actor in one thread.
//!
//! The previous runtime spent two OS threads per TCP connection plus
//! one scoped thread per in-flight sub-payment, capping clusters at
//! tens of nodes. This module replaces all of it with a single-threaded
//! event loop over non-blocking sockets — no external async runtime,
//! just readiness polling:
//!
//! * one non-blocking [`TcpListener`] per node (bound before any
//!   traffic flows, so the address book is complete),
//! * loopback connections opened on first send, whose inbound end is
//!   accepted on the spot and paired with the outbound end,
//! * inbound connections feeding a [`FrameDecoder`] each,
//! * outbound connections with explicit write buffers flushed as the
//!   kernel accepts bytes,
//! * a [`NodeState`] per node executing the protocol state machine,
//! * a request table correlating client-injected messages with their
//!   terminal replies by `trans_id`.
//!
//! Because the loop owns both ends of every connection, it keeps exact
//! byte accounting: each successful write is credited to the paired
//! inbound end's `in_flight` count and each read debits it.
//! [`EventLoop::poll_once`] makes one pass — read + dispatch the
//! connections with bytes in flight, flush — and reports how much
//! progress it made; idle sockets cost no syscall.
//! [`EventLoop::quiescent`] is exact: nothing awaits dispatch, every
//! outbound buffer is flushed and every open inbound end has read all
//! that was written to it. From there no frame can arrive until the
//! next request, so [`EventLoop::run_requests`] returns at quiescence
//! instead of waiting out the timeout of a reply that can never come;
//! the wall deadline is only a backstop for kernel delivery lag.
//!
//! # Threading contract
//!
//! The loop is `!Sync` by construction — one thread drives it at a
//! time. [`Cluster`](crate::Cluster) wraps it in a `Mutex` so its
//! public API stays `&self` and callers may still race payments from
//! multiple threads; they serialize at the lock, which preserves the
//! exactly-one-wins behaviour of conflicting commits.
//!
//! # Determinism
//!
//! Scan order is fixed: inbound connections with bytes in flight, then
//! outbound buffers, each in creation order; inbound ends opened since
//! the previous pass join the scan ordered by owning node, then connect
//! order, as a pass over the listeners would accept them. Dispatch is
//! FIFO per pass. Wall time enters only through [`crate::wall_now`]
//! (lint rule D1) and is used exclusively for timeouts — never for
//! ordering decisions.

use crate::fault::FaultPlan;
use crate::node::{NodeCounters, NodeState, Outbox, MSG_TYPES};
use crate::transport::FrameDecoder;
use crate::wall::WallInstant;
use crate::wire::Message;
use pcn_types::{PcnError, Result};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The inbound end of a loopback connection, owned by the listening
/// node.
struct InConn {
    /// The node whose listener accepted this connection.
    owner: u32,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Index of the paired outbound end in `out_conns`.
    peer: usize,
    /// Bytes the outbound end wrote that this end has not read yet.
    in_flight: u64,
    open: bool,
}

/// A persistent outbound connection with an explicit write buffer.
struct OutConn {
    /// Sending node (its counters track the queue depth).
    from: u32,
    stream: TcpStream,
    /// Index of the paired inbound end in `in_conns`.
    peer: usize,
    /// Encoded frames awaiting the kernel.
    buf: Vec<u8>,
    /// How much of `buf` has been written.
    cursor: usize,
    /// End offset of each queued frame, for queue-depth accounting.
    frame_ends: VecDeque<usize>,
    open: bool,
}

impl OutConn {
    /// Marks the connection dead and retires its unflushed frames from
    /// the sender's queue depth: they will never reach the wire.
    fn close(&mut self, counters: &mut NodeCounters) {
        self.open = false;
        counters.queue_depth = counters
            .queue_depth
            .saturating_sub(self.frame_ends.len() as u64);
        self.frame_ends.clear();
    }
}

/// What [`EventLoop::shutdown`] found while winding down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Frames still queued on outbound buffers after the final drain.
    pub unflushed_frames: u64,
    /// Bytes of partial frames stuck in open inbound decoders (a
    /// poisoned connection counts as a transport error instead).
    pub undecoded_bytes: u64,
    /// Requests begun but never answered (timed out or abandoned).
    pub unanswered_requests: u64,
    /// Sockets that failed mid-run (connect/read/write errors).
    pub transport_errors: u64,
}

impl ShutdownReport {
    /// Whether the loop wound down with nothing left behind.
    pub fn is_clean(&self) -> bool {
        self.unflushed_frames == 0 && self.undecoded_bytes == 0 && self.transport_errors == 0
    }
}

/// The single-threaded reactor. See the module docs for the contract.
pub struct EventLoop {
    nodes: Vec<NodeState>,
    /// One listener per node, accepted from only when a connection to
    /// that node is opened.
    listeners: Vec<TcpListener>,
    in_conns: Vec<InConn>,
    /// `in_conns[scanned..]` were opened since the last pass began and
    /// have not taken their place in the scan order yet.
    scanned: usize,
    out_conns: Vec<OutConn>,
    /// `(from, to)` → index into `out_conns`.
    out_index: HashMap<(u32, u32), usize>,
    /// Open request slots: `None` until the terminal reply arrives.
    pending: HashMap<u64, Option<Message>>,
    /// Messages decoded this pass, awaiting dispatch (FIFO).
    scratch: VecDeque<(u32, Message)>,
    faults: FaultPlan,
    transport_errors: u64,
    bytes_written: u64,
    bytes_read: u64,
    shut: bool,
}

impl EventLoop {
    /// Binds one non-blocking listener per node and installs the
    /// initial outgoing balances. `balances[i]` maps neighbor id →
    /// micro-units for node `i`. No traffic flows until the first
    /// [`EventLoop::poll_once`].
    pub fn new(balances: Vec<HashMap<u32, u64>>, faults: FaultPlan) -> Result<Self> {
        let mut nodes = Vec::with_capacity(balances.len());
        let mut listeners = Vec::with_capacity(balances.len());
        for (id, bal) in balances.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            listeners.push(listener);
            nodes.push(NodeState::new(id as u32, bal));
        }
        Ok(EventLoop {
            nodes,
            listeners,
            in_conns: Vec::new(),
            scanned: 0,
            out_conns: Vec::new(),
            out_index: HashMap::new(),
            pending: HashMap::new(),
            scratch: VecDeque::new(),
            faults,
            transport_errors: 0,
            bytes_written: 0,
            bytes_read: 0,
            shut: false,
        })
    }

    /// Number of hosted nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (balances, counters).
    pub fn node(&self, id: u32) -> &NodeState {
        &self.nodes[id as usize]
    }

    /// Telemetry snapshot for every node.
    pub fn counters(&self) -> Vec<NodeCounters> {
        self.nodes.iter().map(|n| n.counters().clone()).collect()
    }

    /// Sum of all outgoing balances across the cluster (conservation
    /// checks; meaningful at quiescence, when nothing is escrowed).
    pub fn total_funds(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_outgoing()).sum()
    }

    /// Messages the fault plan dropped so far.
    pub fn dropped(&self) -> u64 {
        self.faults.dropped()
    }

    /// Bytes written to and read from loopback sockets so far. The two
    /// are equal at quiescence unless a connection was closed with
    /// bytes still in flight.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_written, self.bytes_read)
    }

    // ----- churn ---------------------------------------------------

    /// Crashes or revives a node (see [`NodeState::set_down`]).
    pub fn set_node_down(&mut self, node: u32, down: bool) {
        self.nodes[node as usize].set_down(down);
    }

    /// Freezes or reopens one channel direction `u → v`.
    pub fn set_channel_closed(&mut self, u: u32, v: u32, closed: bool) {
        self.nodes[u as usize].set_closed_to(v, closed);
    }

    /// Drains up to `amount` from `u → v`; when `credit_reverse`, the
    /// moved funds land on `v → u` (conserving totals), otherwise they
    /// leave the channel system. Returns the amount moved.
    pub fn drain_channel(&mut self, u: u32, v: u32, amount: u64, credit_reverse: bool) -> u64 {
        let moved = self.nodes[u as usize].drain_to(v, amount);
        if credit_reverse {
            self.nodes[v as usize].credit_to(u, moved);
        }
        moved
    }

    // ----- requests ------------------------------------------------

    /// Opens a reply slot for `msg.trans_id` and dispatches `msg` at
    /// its originating node (`path[pos]`). The terminal reply — or a
    /// timeout — is later retrieved with [`EventLoop::take_reply`].
    pub fn begin_request(&mut self, msg: Message) -> Result<u64> {
        let origin = msg
            .current()
            .ok_or_else(|| PcnError::Transport("message with empty path".into()))?;
        if origin as usize >= self.nodes.len() {
            return Err(PcnError::Transport(format!("no node {origin}")));
        }
        let id = msg.trans_id;
        self.pending.insert(id, None);
        self.dispatch(origin, msg);
        Ok(id)
    }

    /// Pumps the loop until every listed request has a reply, the loop
    /// is quiescent (no reply can arrive any more), or the timeout
    /// elapses. Requests not in `ids` are serviced too — the loop is
    /// global — but only the listed ones gate completion.
    pub fn run_requests(&mut self, ids: &[u64], timeout: Duration) {
        let wall_deadline = crate::wall_now() + timeout;
        self.pump_until(wall_deadline, |ev| {
            ids.iter()
                .all(|id| !matches!(ev.pending.get(id), Some(None)))
                || ev.quiescent()
        });
    }

    /// Removes and returns the reply for a finished request. `None`
    /// means the request was never answered (a late reply arriving
    /// after this call is dropped on the floor, like the old
    /// channel-based correlation).
    pub fn take_reply(&mut self, trans_id: u64) -> Option<Message> {
        self.pending.remove(&trans_id).flatten()
    }

    // ----- the reactor ---------------------------------------------

    /// One pass: read + dispatch every connection with bytes in flight,
    /// then flush outbound buffers. Returns a progress count (0 ⇒ the
    /// pass observed nothing to do).
    pub fn poll_once(&mut self) -> usize {
        self.order_new_inbound();
        self.poll_reads() + self.flush_writes()
    }

    /// Whether nothing is in flight: no decoded message awaits
    /// dispatch, every open outbound buffer is flushed and every open
    /// inbound connection has read all bytes written to it.
    pub fn quiescent(&self) -> bool {
        self.scratch.is_empty()
            && self
                .out_conns
                .iter()
                .all(|c| !c.open || c.cursor == c.buf.len())
            && self.in_conns.iter().all(|c| !c.open || c.in_flight == 0)
    }

    /// Pumps until [`EventLoop::quiescent`] or the wall deadline.
    /// Returns true when quiescence was reached.
    pub fn drain(&mut self, wall_deadline: WallInstant) -> bool {
        self.pump_until(wall_deadline, Self::quiescent)
    }

    /// Polls until `done` holds (true) or the wall deadline passes
    /// first (false). A pass without progress means bytes written but
    /// not yet readable, so the loop backs off briefly.
    fn pump_until(&mut self, wall_deadline: WallInstant, done: impl Fn(&Self) -> bool) -> bool {
        while !done(self) {
            if self.poll_once() == 0 {
                if crate::wall_now() >= wall_deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        true
    }

    /// Gives the inbound ends opened since the previous pass their
    /// place in the scan order: by owning node, then connect order, as
    /// one pass over the listeners would accept them.
    fn order_new_inbound(&mut self) {
        let scanned = self.scanned;
        self.in_conns[scanned..].sort_by_key(|c| c.owner);
        for (i, conn) in self.in_conns.iter().enumerate().skip(scanned) {
            self.out_conns[conn.peer].peer = i;
        }
        self.scanned = self.in_conns.len();
    }

    fn poll_reads(&mut self) -> usize {
        let mut read_buf = [0u8; 4096];
        // Phase 1: read the bytes owed to each connection into its
        // decoder and collect complete frames. Counting msgs_in happens
        // here, at the wire boundary.
        for i in 0..self.in_conns.len() {
            let conn = &mut self.in_conns[i];
            if !conn.open || conn.in_flight == 0 {
                continue;
            }
            let mut failed = false;
            while conn.in_flight > 0 && !failed {
                match conn.stream.read(&mut read_buf) {
                    Ok(n) if n > 0 => {
                        conn.in_flight = conn.in_flight.saturating_sub(n as u64);
                        self.bytes_read += n as u64;
                        conn.decoder.feed(&read_buf[..n]);
                    }
                    // Written but not readable yet: retry next pass.
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // EOF or a socket error with bytes still owed.
                    _ => failed = true,
                }
            }
            loop {
                match conn.decoder.next_message() {
                    Ok(Some(msg)) => {
                        let c = &mut self.nodes[conn.owner as usize].counters;
                        c.msgs_in[msg.msg_type as usize] += 1;
                        self.scratch.push_back((conn.owner, msg));
                    }
                    Ok(None) => break,
                    // A malformed frame poisons the connection.
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                self.transport_errors += 1;
                self.close_pair(i);
            }
        }
        // Phase 2: run the state machines. Handlers may emit new sends,
        // which queue_send buffers for the flush phase.
        let mut dispatched = 0;
        while let Some((node, msg)) = self.scratch.pop_front() {
            self.dispatch(node, msg);
            dispatched += 1;
        }
        dispatched
    }

    /// Closes inbound connection `i` together with its outbound end, so
    /// the sender's next frame reconnects instead of writing into a
    /// socket nobody reads.
    fn close_pair(&mut self, i: usize) {
        let conn = &mut self.in_conns[i];
        conn.open = false;
        let out = &mut self.out_conns[conn.peer];
        out.close(&mut self.nodes[out.from as usize].counters);
    }

    /// Runs one message through its node's state machine and executes
    /// the outbox: terminal replies fill their request slot, sends are
    /// queued on outbound connections.
    fn dispatch(&mut self, node: u32, msg: Message) {
        let mut out = Outbox::default();
        self.nodes[node as usize].handle(msg, &mut out);
        for reply in out.deliveries {
            if let Some(slot) = self.pending.get_mut(&reply.trans_id) {
                *slot = Some(reply);
            }
            // No slot: a late reply after timeout — dropped, as before.
        }
        for (to, m) in out.sends {
            self.queue_send(node, to, m);
        }
    }

    /// Buffers one frame on the `from → to` connection, connecting on
    /// first use. Under an active fault plan the frame may be dropped
    /// before it is counted or queued — a lossy wire, invisible to the
    /// sender.
    fn queue_send(&mut self, from: u32, to: u32, msg: Message) {
        if self.faults.should_drop() {
            return;
        }
        let idx = match self.out_index.get(&(from, to)) {
            Some(&i) if self.out_conns[i].open => i,
            _ => match self.connect(from, to) {
                Ok(i) => i,
                Err(_) => {
                    self.transport_errors += 1;
                    return;
                }
            },
        };
        let counters = &mut self.nodes[from as usize].counters;
        counters.msgs_out[msg.msg_type as usize] += 1;
        counters.queue_depth += 1;
        counters.queue_high_water = counters.queue_high_water.max(counters.queue_depth);
        let conn = &mut self.out_conns[idx];
        conn.buf.extend_from_slice(&msg.encode());
        conn.frame_ends.push_back(conn.buf.len());
    }

    /// Opens `from → to` and pairs it with its inbound end, accepted
    /// from `to`'s listener on the spot: a loopback connect completes
    /// the handshake before it returns, so the peer end already waits
    /// in the backlog. Any other connection found there is a stray,
    /// counted as a transport error and dropped. Returns the index of
    /// the new outbound connection.
    fn connect(&mut self, from: u32, to: u32) -> io::Result<usize> {
        let listener = self
            .listeners
            .get(to as usize)
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "no listener for node"))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let local = stream.local_addr()?;
        let wall_deadline = crate::wall_now() + Duration::from_secs(1);
        let inbound = loop {
            match listener.accept() {
                Ok((inbound, peer)) if peer == local => break inbound,
                Ok(_) => self.transport_errors += 1,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock && crate::wall_now() < wall_deadline =>
                {
                    std::thread::yield_now()
                }
                Err(e) => return Err(e),
            }
        };
        for s in [&stream, &inbound] {
            s.set_nonblocking(true)?;
            s.set_nodelay(true)?;
        }
        let (out_idx, in_idx) = (self.out_conns.len(), self.in_conns.len());
        self.in_conns.push(InConn {
            owner: to,
            stream: inbound,
            decoder: FrameDecoder::new(),
            peer: out_idx,
            in_flight: 0,
            open: true,
        });
        self.out_conns.push(OutConn {
            from,
            stream,
            peer: in_idx,
            buf: Vec::new(),
            cursor: 0,
            frame_ends: VecDeque::new(),
            open: true,
        });
        self.out_index.insert((from, to), out_idx);
        Ok(out_idx)
    }

    fn flush_writes(&mut self) -> usize {
        let mut progressed = 0;
        for conn in self.out_conns.iter_mut().filter(|c| c.open) {
            let mut failed = false;
            while conn.cursor < conn.buf.len() && !failed {
                match conn.stream.write(&conn.buf[conn.cursor..]) {
                    Ok(n) if n > 0 => {
                        conn.cursor += n;
                        self.in_conns[conn.peer].in_flight += n as u64;
                        self.bytes_written += n as u64;
                        progressed += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    _ => failed = true,
                }
            }
            // Retire fully written frames from the owner's queue depth.
            let counters = &mut self.nodes[conn.from as usize].counters;
            while conn
                .frame_ends
                .front()
                .is_some_and(|&end| end <= conn.cursor)
            {
                conn.frame_ends.pop_front();
                counters.queue_depth = counters.queue_depth.saturating_sub(1);
            }
            if conn.cursor == conn.buf.len() && conn.cursor > 0 {
                conn.buf.clear();
                conn.cursor = 0;
            }
            if failed {
                conn.close(counters);
                self.transport_errors += 1;
            }
        }
        progressed
    }

    // ----- teardown ------------------------------------------------

    /// Winds the loop down deterministically: drains until quiescent
    /// (bounded by a 2-second wall deadline), then closes every socket
    /// by dropping it and reports anything left behind. Safe to call
    /// twice; the second call is a no-op returning a clean report.
    pub fn shutdown(&mut self) -> ShutdownReport {
        if self.shut {
            return ShutdownReport::default();
        }
        let wall_deadline = crate::wall_now() + Duration::from_secs(2);
        self.drain(wall_deadline);
        let report = ShutdownReport {
            unflushed_frames: self
                .out_conns
                .iter()
                .map(|c| c.frame_ends.len() as u64)
                .sum(),
            undecoded_bytes: self
                .in_conns
                .iter()
                .filter(|c| c.open)
                .map(|c| c.decoder.pending_bytes() as u64)
                .sum(),
            unanswered_requests: self.pending.values().filter(|v| v.is_none()).count() as u64,
            transport_errors: self.transport_errors,
        };
        // Deterministic FD close: every socket dies here, in order.
        self.out_conns.clear();
        self.in_conns.clear();
        self.scanned = 0;
        self.out_index.clear();
        self.listeners.clear();
        self.pending.clear();
        self.shut = true;
        report
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if self.shut {
            return;
        }
        let report = self.shutdown();
        // Faulty runs legitimately strand requests and half-frames; a
        // fault-free loop must wind down clean — be loud otherwise.
        if !self.faults.enabled() && !report.is_clean() {
            eprintln!("EventLoop dropped unclean: {report:?}");
            debug_assert!(false, "EventLoop dropped unclean: {report:?}");
        }
    }
}

/// Re-exported so reports can size per-type arrays without reaching
/// into [`crate::node`].
pub const WIRE_MSG_TYPES: usize = MSG_TYPES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgType;

    /// 0 ↔ 1 ↔ 2 line with 10 units per direction.
    fn line3() -> EventLoop {
        let u = 10_000_000u64;
        EventLoop::new(
            vec![
                HashMap::from([(1, u)]),
                HashMap::from([(0, u), (2, u)]),
                HashMap::from([(1, u)]),
            ],
            FaultPlan::none(),
        )
        .unwrap()
    }

    fn request(ev: &mut EventLoop, msg: Message) -> Option<Message> {
        let id = ev.begin_request(msg).unwrap();
        ev.run_requests(&[id], Duration::from_secs(5));
        ev.take_reply(id)
    }

    #[test]
    fn probe_round_trip_over_the_loop() {
        let mut ev = line3();
        let got = request(&mut ev, Message::new(1, MsgType::Probe, vec![0, 1, 2])).unwrap();
        assert_eq!(got.msg_type, MsgType::ProbeAck);
        assert_eq!(got.capacities, vec![10_000_000, 10_000_000]);
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn full_payment_settles_and_conserves() {
        let mut ev = line3();
        let before = ev.total_funds();
        let mut commit = Message::new(2, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 4_000_000;
        assert_eq!(
            request(&mut ev, commit).unwrap().msg_type,
            MsgType::CommitAck
        );
        let mut confirm = Message::new(3, MsgType::Confirm, vec![0, 1, 2]);
        confirm.commit = 4_000_000;
        assert_eq!(
            request(&mut ev, confirm).unwrap().msg_type,
            MsgType::ConfirmAck
        );
        assert_eq!(ev.total_funds(), before, "settlement conserves funds");
        assert_eq!(ev.node(0).balance_to(1), 6_000_000);
        assert_eq!(ev.node(2).balance_to(1), 14_000_000);
        // Quiescent and fault-free: every wire frame sent was received.
        let counters = ev.counters();
        let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
        let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn dropped_probe_times_out() {
        let u = 10_000_000u64;
        let mut ev = EventLoop::new(
            vec![
                HashMap::from([(1, u)]),
                HashMap::from([(0, u), (2, u)]),
                HashMap::from([(1, u)]),
            ],
            FaultPlan::with_drop_prob(1.0, 7),
        )
        .unwrap();
        let id = ev
            .begin_request(Message::new(9, MsgType::Probe, vec![0, 1, 2]))
            .unwrap();
        ev.run_requests(&[id], Duration::from_millis(100));
        assert!(ev.take_reply(id).is_none(), "dropped probe must time out");
        assert!(ev.dropped() > 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_everything() {
        let mut ev = line3();
        request(&mut ev, Message::new(4, MsgType::Probe, vec![0, 1, 2])).unwrap();
        let first = ev.shutdown();
        assert!(first.is_clean(), "{first:?}");
        let second = ev.shutdown();
        assert_eq!(second, ShutdownReport::default());
        assert!(ev.in_conns.is_empty() && ev.out_conns.is_empty() && ev.listeners.is_empty());
    }

    #[test]
    fn queue_depth_returns_to_zero_at_quiescence() {
        let mut ev = line3();
        for id in 10..20 {
            request(&mut ev, Message::new(id, MsgType::Probe, vec![0, 1, 2])).unwrap();
        }
        for c in ev.counters() {
            assert_eq!(c.queue_depth, 0);
        }
        assert!(ev.counters().iter().any(|c| c.queue_high_water > 0));
        assert!(ev.quiescent());
        assert!(ev.in_conns.iter().all(|c| c.in_flight == 0));
        let (written, read) = ev.wire_bytes();
        assert!(written > 0);
        assert_eq!(written, read, "every byte written was read");
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn unanswerable_request_returns_at_quiescence() {
        let mut ev = line3();
        ev.set_node_down(1, true);
        let wall_start = crate::wall_now();
        let id = ev
            .begin_request(Message::new(5, MsgType::Probe, vec![0, 1, 2]))
            .unwrap();
        ev.run_requests(&[id], Duration::from_secs(10));
        assert!(ev.take_reply(id).is_none(), "a downed relay drops probes");
        assert!(
            wall_start.elapsed() < Duration::from_secs(1),
            "no reply can arrive once quiescent; waiting out the timeout wastes it"
        );
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn poisoned_connection_closes_its_pair_and_reconnects() {
        let mut ev = line3();
        request(&mut ev, Message::new(6, MsgType::Probe, vec![0, 1, 2])).unwrap();
        let poisoned = ev.out_index[&(0, 1)];
        // A zero-length frame is malformed on the wire.
        ev.out_conns[poisoned].buf.extend_from_slice(&[0, 0, 0, 0]);
        assert!(ev.drain(crate::wall_now() + Duration::from_secs(5)));
        assert_eq!(ev.transport_errors, 1);
        assert!(!ev.out_conns[poisoned].open, "the sender's end closes too");
        let got = request(&mut ev, Message::new(7, MsgType::Probe, vec![0, 1, 2])).unwrap();
        assert_eq!(got.msg_type, MsgType::ProbeAck);
        assert_ne!(ev.out_index[&(0, 1)], poisoned, "the next send reconnected");
        assert!(ev.counters().iter().all(|c| c.queue_depth == 0));
        let report = ev.shutdown();
        assert_eq!(report.transport_errors, 1);
        assert_eq!((report.unflushed_frames, report.undecoded_bytes), (0, 0));
    }
}
