//! One pipelining protocol connection with exact ack accounting.
//!
//! Unlike `obase_serve::ServeClient`, which waits for one id at a time,
//! this hands out answers in arrival order, which a closed loop with many
//! submissions in flight needs. Every submission must be answered exactly
//! once: an answer for an unknown or already-answered id is an error.

use obase_exec::Program;
use obase_ser::Json;
use obase_serve::wire::{self, Frame};
use obase_serve::PROTOCOL_VERSION;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Instant;

/// Client-side counts over a connection's life.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Submissions sent.
    pub submitted: u64,
    /// Acked as committed.
    pub committed: u64,
    /// Acked as admitted but given up after the retry budget.
    pub gave_up: u64,
    /// Refused at admission.
    pub rejected: u64,
}

impl Tally {
    /// Adds `other`'s counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.submitted += other.submitted;
        self.committed += other.committed;
        self.gave_up += other.gave_up;
        self.rejected += other.rejected;
    }
}

/// One answer from the server.
pub enum Event {
    /// A `Result` frame.
    Ack {
        /// Whether the transaction committed.
        committed: bool,
        /// Server-reported admission-to-settlement time, microseconds.
        server_us: u64,
        /// When the submission was sent.
        sent: Instant,
    },
    /// A `Reject` frame.
    Rejected,
    /// A `StatusReport` frame.
    Status(Json),
}

/// A handshaken connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Send instant per submission id (`id - 1` indexes); `None` once
    /// answered.
    sent: Vec<Option<Instant>>,
    outstanding: usize,
    tally: Tally,
}

impl Conn {
    /// Connects to the loopback server on `port` and completes the
    /// hello/welcome handshake.
    pub fn connect(port: u16) -> Result<Conn, String> {
        let writer = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("cannot connect to port {port}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("cannot clone the stream: {e}"))?,
        );
        let mut conn = Conn {
            reader,
            writer,
            sent: Vec::new(),
            outstanding: 0,
            tally: Tally::default(),
        };
        conn.send(&Frame::Hello {
            client: "servebench".into(),
            protocol: PROTOCOL_VERSION,
        })?;
        match conn.read()? {
            Frame::Welcome { .. } => Ok(conn),
            other => Err(format!("expected welcome, got {:?}", other.tag())),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        wire::write_frame(&mut self.writer, frame).map_err(|e| format!("send failed: {e}"))
    }

    fn read(&mut self) -> Result<Frame, String> {
        wire::read_frame(&mut self.reader).map_err(|e| format!("receive failed: {e}"))
    }

    /// Sends one submission without waiting for its answer.
    pub fn submit(&mut self, body: Program) -> Result<(), String> {
        let id = self.sent.len() as u64 + 1;
        self.send(&Frame::Submit {
            id,
            name: "t".into(),
            body,
        })?;
        self.sent.push(Some(Instant::now()));
        self.outstanding += 1;
        self.tally.submitted += 1;
        Ok(())
    }

    /// Asks for the status document; it arrives as an [`Event::Status`].
    pub fn request_status(&mut self) -> Result<(), String> {
        self.send(&Frame::Status)
    }

    /// Submissions not yet answered.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Client-side counts so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Marks submission `id` answered, returning when it was sent.
    fn answer(&mut self, id: u64) -> Result<Instant, String> {
        let sent = usize::try_from(id)
            .ok()
            .and_then(|i| i.checked_sub(1))
            .and_then(|i| self.sent.get_mut(i))
            .and_then(Option::take)
            .ok_or_else(|| format!("answer for unknown or already answered submission {id}"))?;
        self.outstanding -= 1;
        Ok(sent)
    }

    /// Blocks for the next answer.
    pub fn next_event(&mut self) -> Result<Event, String> {
        match self.read()? {
            Frame::Result {
                id,
                committed,
                latency_us,
            } => {
                let sent = self.answer(id)?;
                if committed {
                    self.tally.committed += 1;
                } else {
                    self.tally.gave_up += 1;
                }
                Ok(Event::Ack {
                    committed,
                    server_us: latency_us,
                    sent,
                })
            }
            Frame::Reject { id, .. } => {
                self.answer(id)?;
                self.tally.rejected += 1;
                Ok(Event::Rejected)
            }
            Frame::StatusReport { body } => Ok(Event::Status(body)),
            Frame::Error { code, detail } => Err(format!("server error {code}: {detail}")),
            other => Err(format!("unexpected {:?} frame", other.tag())),
        }
    }

    /// Requests a status document and waits for it. Only valid with
    /// nothing outstanding.
    pub fn status(&mut self) -> Result<Json, String> {
        if self.outstanding != 0 {
            return Err("status requested with submissions outstanding".into());
        }
        self.request_status()?;
        match self.next_event()? {
            Event::Status(body) => Ok(body),
            _ => Err("expected a status report".into()),
        }
    }
}
