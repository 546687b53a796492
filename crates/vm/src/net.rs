//! Simulated network substrate.
//!
//! The paper drives Jetty with `httperf` over a LAN; this module is the
//! closest in-process equivalent: line-oriented connections between
//! host-side clients (the workload drivers, written in Rust) and guest
//! servers (written in MJ, blocking in `Net.accept`/`Net.readLine`).
//! Latency and throughput measured across this substrate have the same
//! *comparative* meaning as the paper's Figure 5 — the same requests cross
//! the same queues in every configuration.

use std::collections::{HashMap, VecDeque};

/// Identifier of a guest listener (returned by `Net.listen`).
pub type ListenerId = usize;
/// Identifier of a connection (shared by guest and client sides).
pub type ConnId = usize;

/// Outcome of a guest-side read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestRead {
    /// A line was dequeued.
    Line(String),
    /// The client closed its end and the queue is drained.
    Eof,
    /// Nothing available yet: the guest thread must block.
    WouldBlock,
}

#[derive(Debug, Default)]
struct Listener {
    backlog: VecDeque<ConnId>,
}

/// One bidirectional, line-oriented connection.
#[derive(Debug, Default)]
struct Conn {
    to_guest: VecDeque<String>,
    to_client: VecDeque<String>,
    closed_by_guest: bool,
    closed_by_client: bool,
}

impl Conn {
    /// Both ends closed and the client has taken every reply: nothing can
    /// be written any more and nobody is left to read.
    fn finished(&self) -> bool {
        self.closed_by_guest && self.closed_by_client && self.to_client.is_empty()
    }

    /// Frees both queues once the connection is finished. The slot itself
    /// stays (ids are never reused) and keeps answering: reads see EOF,
    /// writes are ignored.
    fn release_if_finished(&mut self) {
        if self.finished() {
            self.to_guest = VecDeque::new();
            self.to_client = VecDeque::new();
        }
    }
}

/// The network: listeners, backlogs and connections.
#[derive(Debug, Default)]
pub struct Net {
    by_port: HashMap<u16, ListenerId>,
    listeners: Vec<Listener>,
    conns: Vec<Conn>,
}

impl Net {
    /// Creates an empty network.
    pub fn new() -> Self {
        Net::default()
    }

    // ---- guest side ------------------------------------------------------

    /// Guest `Net.listen(port)`: registers a listener. Listening twice on a
    /// port returns the same listener.
    pub fn listen(&mut self, port: u16) -> ListenerId {
        if let Some(&id) = self.by_port.get(&port) {
            return id;
        }
        let id = self.listeners.len();
        self.listeners.push(Listener::default());
        self.by_port.insert(port, id);
        id
    }

    /// Guest `Net.accept`: takes a pending connection, if any.
    pub fn try_accept(&mut self, listener: ListenerId) -> Option<ConnId> {
        self.listeners.get_mut(listener)?.backlog.pop_front()
    }

    /// Whether a listener has a pending connection (scheduler wake check).
    pub fn has_pending(&self, listener: ListenerId) -> bool {
        self.listeners.get(listener).is_some_and(|l| !l.backlog.is_empty())
    }

    /// Guest `Net.readLine`.
    pub fn guest_read(&mut self, conn: ConnId) -> GuestRead {
        let Some(c) = self.conns.get_mut(conn) else { return GuestRead::WouldBlock };
        match c.to_guest.pop_front() {
            Some(line) => GuestRead::Line(line),
            None if c.closed_by_client => GuestRead::Eof,
            None => GuestRead::WouldBlock,
        }
    }

    /// Puts a line back at the front of the guest's queue (used when the
    /// VM must retry a read after a GC).
    pub fn guest_unread(&mut self, conn: ConnId, line: String) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.to_guest.push_front(line);
        }
    }

    /// Whether a guest read would make progress (wake check).
    pub fn guest_readable(&self, conn: ConnId) -> bool {
        self.conns
            .get(conn)
            .is_some_and(|c| !c.to_guest.is_empty() || c.closed_by_client)
    }

    /// Guest `Net.write`: the line is copied out of the guest heap here,
    /// at the host boundary.
    pub fn guest_write(&mut self, conn: ConnId, line: &str) {
        if let Some(c) = self.conns.get_mut(conn) {
            if !c.closed_by_guest {
                c.to_client.push_back(line.to_owned());
            }
        }
    }

    /// Guest `Net.close`.
    pub fn guest_close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.closed_by_guest = true;
            c.release_if_finished();
        }
    }

    // ---- client (host/workload) side ---------------------------------------

    /// Whether something listens on `port`.
    pub fn has_listener(&self, port: u16) -> bool {
        self.by_port.contains_key(&port)
    }

    /// Connects a client to `port`. Returns `None` when nothing listens.
    pub fn client_connect(&mut self, port: u16) -> Option<ConnId> {
        let &listener = self.by_port.get(&port)?;
        let id = self.conns.len();
        self.conns.push(Conn::default());
        self.listeners[listener].backlog.push_back(id);
        Some(id)
    }

    /// Sends a line to the guest.
    pub fn client_send(&mut self, conn: ConnId, line: impl Into<String>) {
        if let Some(c) = self.conns.get_mut(conn) {
            if !c.closed_by_client {
                c.to_guest.push_back(line.into());
            }
        }
    }

    /// Receives a line from the guest, if one is queued.
    pub fn client_recv(&mut self, conn: ConnId) -> Option<String> {
        let c = self.conns.get_mut(conn)?;
        let line = c.to_client.pop_front();
        c.release_if_finished();
        line
    }

    /// Whether the guest has closed its end (and output is drained).
    pub fn client_at_eof(&self, conn: ConnId) -> bool {
        self.conns
            .get(conn)
            .is_some_and(|c| c.closed_by_guest && c.to_client.is_empty())
    }

    /// Closes the client end.
    pub fn client_close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.closed_by_client = true;
            c.release_if_finished();
        }
    }

    /// Total connections ever created (diagnostics).
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Connections not yet finished — an end still open, or a reply the
    /// client has not taken (diagnostics; walks every slot).
    pub fn open_connections(&self) -> usize {
        self.conns.iter().filter(|c| !c.finished()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_accept_exchange() {
        let mut net = Net::new();
        let l = net.listen(8080);
        assert!(net.try_accept(l).is_none());
        let c = net.client_connect(8080).unwrap();
        assert!(net.has_pending(l));
        let g = net.try_accept(l).unwrap();
        assert_eq!(g, c);

        net.client_send(c, "GET /");
        assert_eq!(net.guest_read(g), GuestRead::Line("GET /".to_string()));
        assert_eq!(net.guest_read(g), GuestRead::WouldBlock, "no data: guest must block");

        net.guest_write(g, "200 OK");
        assert_eq!(net.client_recv(c), Some("200 OK".to_string()));
        assert_eq!(net.client_recv(c), None);
    }

    #[test]
    fn connect_without_listener_fails() {
        let mut net = Net::new();
        assert!(net.client_connect(9999).is_none());
    }

    #[test]
    fn close_semantics() {
        let mut net = Net::new();
        net.listen(1);
        let c = net.client_connect(1).unwrap();
        net.client_send(c, "last");
        net.client_close(c);
        // Guest drains the queue, then observes EOF.
        assert_eq!(net.guest_read(c), GuestRead::Line("last".to_string()));
        assert_eq!(net.guest_read(c), GuestRead::Eof);

        net.guest_write(c, "ignored?");
        net.guest_close(c);
        assert!(!net.client_at_eof(c), "pending output first");
        net.client_recv(c);
        assert!(net.client_at_eof(c));
    }

    #[test]
    fn finished_connections_hold_no_queue_memory() {
        let mut net = Net::new();
        let l = net.listen(7);
        for cycle in 0..100_000 {
            let c = net.client_connect(7).unwrap();
            let g = net.try_accept(l).unwrap();
            net.client_send(c, "GET /");
            // Alternate who closes first, and leave a line unread on odd
            // cycles: a finished connection drops that too.
            if cycle % 2 == 0 {
                assert_eq!(net.guest_read(g), GuestRead::Line("GET /".to_string()));
            }
            net.guest_write(g, "200 OK");
            // `open_connections` walks every slot: watch the first cycles
            // step by step, the rest through the total below.
            let watched = cycle < 1_000;
            if cycle % 4 < 2 {
                net.guest_close(g);
                assert!(!watched || net.open_connections() == 1, "reply not taken yet");
                assert_eq!(net.client_recv(c).as_deref(), Some("200 OK"));
                net.client_close(c);
            } else {
                assert_eq!(net.client_recv(c).as_deref(), Some("200 OK"));
                net.client_close(c);
                assert!(!watched || net.open_connections() == 1, "guest end still open");
                net.guest_close(g);
            }
            assert!(!watched || net.open_connections() == 0);
        }
        assert_eq!(net.open_connections(), 0);
        assert_eq!(net.connection_count(), 100_000);
        let queued: usize =
            net.conns.iter().map(|c| c.to_guest.capacity() + c.to_client.capacity()).sum();
        assert_eq!(queued, 0, "every finished connection freed both queues");
        // Old ids keep answering as a closed, drained connection does.
        assert!(net.client_at_eof(0));
        assert_eq!(net.guest_read(1), GuestRead::Eof);
        assert_eq!(net.client_recv(1), None);
        net.guest_write(1, "late");
        assert_eq!(net.client_recv(1), None);
    }

    #[test]
    fn listen_twice_same_port_shares_listener() {
        let mut net = Net::new();
        assert_eq!(net.listen(80), net.listen(80));
    }

    #[test]
    fn guest_readable_reflects_state() {
        let mut net = Net::new();
        net.listen(2);
        let c = net.client_connect(2).unwrap();
        assert!(!net.guest_readable(c));
        net.client_send(c, "x");
        assert!(net.guest_readable(c));
    }
}
