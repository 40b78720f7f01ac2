//! Log framing, the group-commit writer and the torn-tail reader.
//!
//! ## Frame format
//!
//! The log is a flat sequence of frames, each
//!
//! ```text
//! [len: u32 LE] [checksum: u32 LE] [payload: len bytes]
//! ```
//!
//! where `payload` is the UTF-8 JSON text of one [`WalRecord`] and
//! `checksum` is FNV-1a/32 over the payload. A frame whose header runs past
//! the end of the file, whose length is implausible, whose checksum does not
//! match, or whose payload fails to parse ends the log: everything before it
//! is the *surviving prefix*, everything from it on is a torn tail — the
//! normal shape of a log whose writer died mid-append. A single flipped
//! payload byte always changes the FNV-1a digest (each round is injective in
//! the accumulator), so corruption is detected, not replayed.
//!
//! ## Group commit
//!
//! [`WalWriter`] buffers appends in userspace and fsyncs once per *window*
//! of commit records (`group_commit` of them) instead of once per commit —
//! the classic throughput/durability trade: a window of `n` risks the last
//! `< n` commits on power loss but divides the dominant per-commit fsync
//! cost by `n`. `group_commit == 1` is fsync-per-commit, `0` never fsyncs
//! (a baseline for the durability benchmarks; crash durability is then
//! whatever the OS page cache survives).

use crate::codec::WalRecord;
use obase_obs::{ObsEvent, ObsLane};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// File name of the log inside a durable backend's directory.
pub const LOG_FILE: &str = "obase.wal";

/// Frame-header size: length word plus checksum word.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single record's payload; a length word above this is
/// treated as corruption rather than an instruction to allocate.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// The log file inside a durable backend's directory.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

/// FNV-1a/32 over a byte slice — the frame checksum.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encodes one record as a complete frame (header plus payload).
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut frame = vec![0; FRAME_HEADER];
    record.encode(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    let header = [
        (payload.len() as u32).to_le_bytes(),
        checksum(payload).to_le_bytes(),
    ];
    frame[..FRAME_HEADER].copy_from_slice(header.as_flattened());
    frame
}

/// Appending side of the log: buffered writes, fsync per commit window.
#[derive(Debug)]
pub struct WalWriter {
    writer: BufWriter<File>,
    group_commit: usize,
    pending_commits: usize,
    records: u64,
    syncs: u64,
    obs: ObsLane,
}

impl WalWriter {
    /// Creates (truncating) the log file. `group_commit` is the number of
    /// commit records batched per fsync; `0` disables fsync entirely.
    pub fn create(path: &Path, group_commit: usize) -> io::Result<Self> {
        Ok(WalWriter {
            writer: BufWriter::new(File::create(path)?),
            group_commit,
            pending_commits: 0,
            records: 0,
            syncs: 0,
            obs: ObsLane::off(),
        })
    }

    /// Attaches an observability lane: every fsync is emitted as a
    /// begin/end span (the `"wal"` lane of a traced durable run).
    pub fn set_observer(&mut self, lane: ObsLane) {
        self.obs = lane;
    }

    /// Appends one record; on a commit record, fsyncs if the window is full.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.writer.write_all(&encode_frame(record))?;
        self.records += 1;
        if matches!(record, WalRecord::CommitTop { .. }) {
            self.pending_commits += 1;
            if self.group_commit >= 1 && self.pending_commits >= self.group_commit {
                self.sync()?;
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.obs.emit(ObsEvent::FsyncBegin);
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.obs.emit(ObsEvent::FsyncEnd);
        self.pending_commits = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Fsyncs issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Flushes userspace buffers and, unless fsync is disabled, syncs the
    /// tail window. Returns the total number of fsyncs issued.
    pub fn finish(mut self) -> io::Result<u64> {
        if self.group_commit >= 1 {
            self.obs.emit(ObsEvent::FsyncBegin);
            self.writer.flush()?;
            self.writer.get_ref().sync_data()?;
            self.obs.emit(ObsEvent::FsyncEnd);
            self.syncs += 1;
        } else {
            self.writer.flush()?;
        }
        self.obs.flush();
        Ok(self.syncs)
    }
}

/// The outcome of scanning a log: the decoded surviving prefix and where it
/// ends.
#[derive(Debug)]
pub struct LogScan {
    /// Decoded records of the surviving prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past each surviving record — `frame_ends[i]` is
    /// where record `i`'s frame ends. Crash tests use these as the universe
    /// of "clean cut" points.
    pub frame_ends: Vec<u64>,
    /// Total bytes in the file.
    pub file_len: u64,
    /// `true` if a torn or corrupt tail was discarded (the file extends past
    /// the last surviving frame).
    pub torn: bool,
}

/// Scans a log file, decoding frames until the first torn or corrupt one.
/// Never fails on log *content* — only on I/O.
pub fn scan(path: &Path) -> io::Result<LogScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut records = Vec::new();
    let mut frame_ends = Vec::new();
    let mut at = 0usize;
    let intact = loop {
        if at == bytes.len() {
            break true; // clean end of log
        }
        if bytes.len() - at < FRAME_HEADER {
            break false; // torn header
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let sum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD || bytes.len() - at - FRAME_HEADER < len as usize {
            break false; // implausible length or torn payload
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len as usize];
        if checksum(payload) != sum {
            break false; // corrupt payload
        }
        let record = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| WalRecord::decode(text).ok());
        match record {
            Some(r) => {
                at += FRAME_HEADER + len as usize;
                records.push(r);
                frame_ends.push(at as u64);
            }
            None => break false, // checksummed but undecodable
        }
    };
    Ok(LogScan {
        records,
        frame_ends,
        file_len: bytes.len() as u64,
        torn: !intact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::ids::ExecId;

    fn sample_records(n: u32) -> Vec<WalRecord> {
        (0..n)
            .flat_map(|i| {
                [
                    WalRecord::BeginTop {
                        exec: ExecId(i),
                        name: format!("T{i}"),
                    },
                    WalRecord::CommitTop { exec: ExecId(i) },
                ]
            })
            .collect()
    }

    #[test]
    fn write_then_scan_round_trips() {
        let dir = crate::scratch_dir("log-roundtrip");
        let path = log_path(&dir);
        let recs = sample_records(5);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        assert_eq!(w.records(), recs.len() as u64);
        let syncs = w.finish().unwrap();
        assert_eq!(syncs, 6); // one per commit + the finish sync
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, recs);
        assert!(!scan.torn);
        assert_eq!(*scan.frame_ends.last().unwrap(), scan.file_len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = crate::scratch_dir("log-group");
        let path = log_path(&dir);
        let mut w = WalWriter::create(&path, 4).unwrap();
        for r in sample_records(10) {
            w.append(&r).unwrap();
        }
        // 10 commits at a window of 4 → syncs after the 4th and 8th, then
        // one final sync covering the tail 2.
        assert_eq!(w.syncs(), 2);
        assert_eq!(w.finish().unwrap(), 3);

        let mut w = WalWriter::create(&path, 0).unwrap();
        for r in sample_records(10) {
            w.append(&r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 0, "group_commit 0 never fsyncs");
    }

    #[test]
    fn truncation_at_every_byte_yields_a_prefix() {
        let dir = crate::scratch_dir("log-trunc");
        let path = log_path(&dir);
        let recs = sample_records(3);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        let ends = scan(&path).unwrap().frame_ends;
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let s = scan(&path).unwrap();
            // The surviving records are exactly the frames wholly inside the
            // cut, and torn-ness is exact.
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(s.records.len(), expect, "cut at {cut}");
            assert_eq!(s.records[..], recs[..expect], "cut at {cut}");
            let clean = expect
                .checked_sub(1)
                .map_or(cut == 0, |i| ends[i] == cut as u64);
            assert_eq!(s.torn, !clean, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_byte_corruption_is_always_detected() {
        let dir = crate::scratch_dir("log-corrupt");
        let path = log_path(&dir);
        let recs = sample_records(2);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let s = scan(&path).unwrap();
            // Corruption may only shorten the log, never alter a record.
            assert!(s.records.len() <= recs.len(), "byte {at}");
            assert_eq!(s.records[..], recs[..s.records.len()], "byte {at}");
            assert!(
                s.torn || s.records.len() == recs.len(),
                "byte {at}: silently dropped records"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
