//! The two closed-loop phases the load generator drives against a server.
//!
//! * `saturated`: each connection keeps [`PIPELINE`] submissions in
//!   flight, so with two connections the admission queue always holds a
//!   full batch and the executor never waits on a lockstep round trip.
//! * `solo`: one connection, one outstanding submission.
//!
//! Both run an excluded warm-up before their measured window. Every answer
//! in the window is kept raw (send and arrival instants, nanosecond
//! resolution), and the window is cut into [`SLICE`]-long slices, each
//! with the CPU-steal share the host's hypervisor took during it, so the
//! reported figures can come from the answers and slices the host
//! disturbed least (see [`Phase::quiet`]).

use crate::conn::{Conn, Event};
use crate::host::{self, CpuTicks};
use crate::workload::TxnStream;
use obase_ser::Json;
use std::time::{Duration, Instant};

/// Submissions each connection keeps in flight in the saturated phase.
pub const PIPELINE: usize = 128;

/// Target length of one steal-accounting slice.
const SLICE: Duration = Duration::from_millis(250);

/// How long after a window closes the phase waits for outstanding answers
/// before declaring them lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// A measured window: answers arriving in `[start, end)` count.
#[derive(Clone, Copy)]
pub struct Window {
    /// End of the warm-up.
    pub start: Instant,
    /// End of the measurement.
    pub end: Instant,
}

impl Window {
    /// A window opening `warmup` from now and lasting `length`.
    pub fn after(warmup: Duration, length: Duration) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + length,
        }
    }

    fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }
}

/// One answered submission.
struct Ack {
    /// When it was sent.
    sent: Instant,
    /// When the answer arrived.
    at: Instant,
    /// Server-reported admission-to-settlement time, microseconds.
    server_us: f64,
    /// Whether it committed.
    committed: bool,
}

impl Ack {
    /// Client-observed submit-to-result time, microseconds.
    fn client_us(&self) -> f64 {
        (self.at - self.sent).as_nanos() as f64 / 1e3
    }
}

/// One cut through a window: the host's CPU counters and, at the window's
/// edges, the server's CPU time and status document, all taken at one
/// instant.
pub struct Cut {
    /// When the cut was taken (and its status requested).
    pub at: Instant,
    ticks: CpuTicks,
    /// Server process CPU time, microseconds (edges only).
    pub server_cpu_us: f64,
    /// The status document answering the request sent at the cut (edges
    /// only).
    pub status: Option<Json>,
}

/// Takes cuts at event times about [`SLICE`] apart: at the first event
/// inside the window, then every [`SLICE`], then at the first event past
/// its end. The first and last cuts also read the server's CPU time and,
/// over the connection, request a status document.
struct Slicer {
    server: u32,
    cuts: Vec<Cut>,
    requested: usize,
    answered: usize,
}

impl Slicer {
    fn new(server: u32) -> Slicer {
        Slicer {
            server,
            cuts: Vec::new(),
            requested: 0,
            answered: 0,
        }
    }

    fn tick(&mut self, conn: &mut Conn, window: &Window, now: Instant) -> Result<(), String> {
        let due = match self.cuts.last() {
            None => now >= window.start,
            Some(last) => last.at < window.end && (now - last.at >= SLICE || now >= window.end),
        };
        if !due {
            return Ok(());
        }
        let ticks = host::cpu_ticks().ok_or("cannot read /proc/stat")?;
        let edge = self.cuts.is_empty() || now >= window.end;
        let mut server_cpu_us = 0.0;
        if edge {
            server_cpu_us = host::process_cpu_us(self.server)?;
            conn.request_status()?;
            self.requested += 1;
        }
        self.cuts.push(Cut {
            at: now,
            ticks,
            server_cpu_us,
            status: None,
        });
        Ok(())
    }

    fn answer(&mut self, status: Json) -> Result<(), String> {
        let cut = match self.answered {
            0 => self.cuts.first_mut(),
            1 => self.cuts.last_mut().filter(|c| c.status.is_none()),
            _ => None,
        };
        cut.ok_or("unrequested status report")?.status = Some(status);
        self.answered += 1;
        Ok(())
    }

    /// The window is closed and every status request answered.
    fn done(&self, window: &Window) -> bool {
        self.cuts.last().is_some_and(|c| c.at >= window.end) && self.answered == self.requested
    }
}

/// Everything one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Answers that arrived inside the window.
    acks: Vec<Ack>,
    /// The cuts through the window; consecutive cuts bound a slice.
    cuts: Vec<Cut>,
}

/// Figures over part of a phase.
pub struct View {
    /// Length of the slices the commits are counted over, seconds.
    pub seconds: f64,
    /// Time-weighted steal share over those slices.
    pub slice_steal: f64,
    /// Committed answers that arrived in those slices.
    pub committed: u64,
    /// Mean steal exposure of the answers the latencies come from.
    pub ack_steal: f64,
    /// Client-observed latencies, microseconds.
    pub client_us: Vec<f64>,
    /// Server-reported latencies of the same answers, microseconds.
    pub server_us: Vec<f64>,
}

impl View {
    /// Committed answers per second.
    pub fn commits_per_s(&self) -> f64 {
        self.committed as f64 / self.seconds
    }

    /// Client-observed minus server-reported time per answer: the wire,
    /// the codec and the session threads, microseconds.
    pub fn wire_us(&self) -> Vec<f64> {
        self.client_us
            .iter()
            .zip(&self.server_us)
            .map(|(c, s)| c - s)
            .collect()
    }
}

/// How many of `n` items make up `share` of them (at least one).
fn share_of(n: usize, share: f64) -> usize {
    ((n as f64 * share).ceil() as usize).clamp(1, n.max(1))
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.acks.extend(other.acks);
        if self.cuts.is_empty() {
            self.cuts = other.cuts;
        }
    }

    /// The first and last cuts, which bound the window.
    pub fn edges(&self) -> Result<(&Cut, &Cut), String> {
        match (self.cuts.first(), self.cuts.last()) {
            (Some(first), Some(last)) if self.cuts.len() >= 2 => Ok((first, last)),
            _ => Err("the window was never cut".into()),
        }
    }

    /// Cumulative (stolen, total) CPU ticks at `t`, interpolated between
    /// the surrounding cuts; `None` outside the cut range.
    fn counters_at(&self, t: Instant) -> Option<(f64, f64)> {
        let i = self.cuts.partition_point(|cut| cut.at <= t);
        let (a, b) = (self.cuts.get(i.checked_sub(1)?)?, self.cuts.get(i)?);
        let (ta, tb) = (a.ticks, b.ticks);
        let f = (t - a.at).as_secs_f64() / (b.at - a.at).as_secs_f64();
        let lerp = |x: u64, y: u64| x as f64 + f * (y as f64 - x as f64);
        Some((lerp(ta.steal, tb.steal), lerp(ta.total, tb.total)))
    }

    /// The share of CPU time the host stole while `ack` was in flight.
    fn exposure(&self, ack: &Ack) -> Option<f64> {
        let (s0, t0) = self.counters_at(ack.sent)?;
        let (s1, t1) = self.counters_at(ack.at)?;
        Some(if t1 > t0 { (s1 - s0) / (t1 - t0) } else { 0.0 })
    }

    /// Figures over the whole window.
    pub fn whole(&self) -> View {
        self.quiet(1.0)
    }

    /// Figures over the part of the window the host disturbed least:
    /// commits per second over the `share` of slices with the lowest steal
    /// share, and latencies of the `share` of answers with the lowest steal
    /// exposure while in flight. What qualifies is decided by the host's
    /// steal counter alone, never by what the program did.
    pub fn quiet(&self, share: f64) -> View {
        let mut slices: Vec<(&Cut, &Cut, f64)> = self
            .cuts
            .windows(2)
            .map(|pair| {
                let (a, b) = (&pair[0], &pair[1]);
                (a, b, a.ticks.steal_share_until(&b.ticks).unwrap_or(0.0))
            })
            .collect();
        slices.sort_by(|a, b| a.2.total_cmp(&b.2));
        slices.truncate(share_of(slices.len(), share));
        let length = |(a, b, _): &(&Cut, &Cut, f64)| (b.at - a.at).as_secs_f64();
        let seconds: f64 = slices.iter().map(length).sum();
        let slice_steal = slices.iter().map(|s| s.2 * length(s)).sum::<f64>() / seconds;
        let committed = self
            .acks
            .iter()
            .filter(|a| a.committed && slices.iter().any(|s| a.at >= s.0.at && a.at < s.1.at))
            .count() as u64;

        let mut exposed: Vec<(f64, &Ack)> = self
            .acks
            .iter()
            .filter_map(|a| Some((self.exposure(a)?, a)))
            .collect();
        exposed.sort_by(|a, b| a.0.total_cmp(&b.0));
        exposed.truncate(share_of(exposed.len(), share));
        View {
            seconds,
            slice_steal,
            committed,
            ack_steal: exposed.iter().map(|e| e.0).sum::<f64>() / exposed.len() as f64,
            client_us: exposed.iter().map(|e| e.1.client_us()).collect(),
            server_us: exposed.iter().map(|e| e.1.server_us).collect(),
        }
    }
}

fn ack(committed: bool, server_us: u64, sent: Instant, at: Instant) -> Ack {
    Ack {
        sent,
        at,
        server_us: server_us as f64,
        committed,
    }
}

/// Drives connection `primary` (and `secondary`, on a second thread)
/// through the saturated phase: [`PIPELINE`] submissions in flight on each
/// until `window.end`, then every answer drained. The primary also takes
/// the cuts, with the CPU time and status of the server process `server`
/// at the window's edges.
pub fn saturated(
    primary: (&mut Conn, &mut TxnStream),
    secondary: (&mut Conn, &mut TxnStream),
    window: Window,
    server: u32,
) -> Result<Phase, String> {
    let (mine, theirs) = std::thread::scope(|s| {
        let other = s.spawn(|| drive(secondary.0, secondary.1, window, None));
        let mine = drive(primary.0, primary.1, window, Some(Slicer::new(server)));
        (mine, other.join())
    });
    let mut phase = mine?;
    phase.absorb(theirs.map_err(|_| "load thread panicked")??);
    Ok(phase)
}

fn drive(
    conn: &mut Conn,
    stream: &mut TxnStream,
    window: Window,
    mut slicer: Option<Slicer>,
) -> Result<Phase, String> {
    let mut acks = Vec::new();
    for _ in 0..PIPELINE {
        conn.submit(stream.next_body())?;
    }
    loop {
        let now = Instant::now();
        if let Some(s) = slicer.as_mut() {
            s.tick(conn, &window, now)?;
        }
        let cut = slicer.as_ref().is_none_or(|s| s.done(&window));
        if now >= window.end && conn.outstanding() == 0 && cut {
            let cuts = slicer.map(|s| s.cuts).unwrap_or_default();
            return Ok(Phase { acks, cuts });
        }
        if now >= window.end + DRAIN_LIMIT {
            return Err(format!(
                "{} submissions unanswered {}s after the window closed",
                conn.outstanding(),
                DRAIN_LIMIT.as_secs()
            ));
        }
        let event = conn.next_event()?;
        let at = Instant::now();
        match event {
            Event::Ack {
                committed,
                server_us,
                sent,
            } => {
                if window.contains(at) {
                    acks.push(ack(committed, server_us, sent, at));
                }
            }
            Event::Rejected => {}
            Event::Status(body) => match slicer.as_mut() {
                Some(s) => s.answer(body)?,
                None => return Err("unrequested status report".into()),
            },
        }
        if at < window.end && conn.outstanding() < PIPELINE {
            conn.submit(stream.next_body())?;
        }
    }
}

/// Drives one connection through the solo phase: one submission at a time
/// until `window.end`. The cuts take the CPU time and status of the server
/// process `server` at the window's edges.
pub fn solo(
    conn: &mut Conn,
    stream: &mut TxnStream,
    window: Window,
    server: u32,
) -> Result<Phase, String> {
    let mut acks = Vec::new();
    let mut slicer = Slicer::new(server);
    loop {
        let now = Instant::now();
        slicer.tick(conn, &window, now)?;
        if now >= window.end {
            while !slicer.done(&window) {
                match conn.next_event()? {
                    Event::Status(body) => slicer.answer(body)?,
                    _ => return Err("unexpected answer after the solo window".into()),
                }
            }
            return Ok(Phase {
                acks,
                cuts: slicer.cuts,
            });
        }
        conn.submit(stream.next_body())?;
        loop {
            let event = conn.next_event()?;
            let at = Instant::now();
            match event {
                Event::Ack {
                    committed,
                    server_us,
                    sent,
                } => {
                    if window.contains(at) {
                        acks.push(ack(committed, server_us, sent, at));
                    }
                    break;
                }
                Event::Rejected => break,
                Event::Status(body) => slicer.answer(body)?,
            }
        }
    }
}
