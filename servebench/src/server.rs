//! The server side: the `serve` subcommand that runs in its own process,
//! and the handle the load generator uses to spawn and stop it.

use crate::conn::Conn;
use crate::workload::Workload;
use obase_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The served configuration: the serve defaults, without history
/// retention (the per-batch oracle still runs; only the merged history
/// for an end-of-life check is dropped).
pub fn config() -> ServeConfig {
    ServeConfig {
        keep_history: false,
        ..ServeConfig::default()
    }
}

/// Body of the `serve` subcommand: binds an ephemeral loopback port,
/// announces it as `port N` on stdout, and serves until stdin closes.
pub fn serve(workload: Workload) -> Result<(), String> {
    let server = Server::bind(workload.world(), config(), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "port {}", server.addr().port())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot announce the port: {e}"))?;
    drop(out);
    // The parent holds our stdin open for as long as it wants us; its exit,
    // crash included, closes the pipe.
    let _ = std::io::stdin().lock().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}

/// A running server process.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    port: u16,
}

impl ServerProcess {
    /// Spawns a server for `workload` from this executable and completes a
    /// handshake. Returns the process, the handshaken connection, and the
    /// set-up time: from spawning the process to receiving its `Welcome`.
    pub fn spawn(workload: Workload) -> Result<(ServerProcess, Conn, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| format!("no current executable: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--workload", workload.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the server process: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut process = ServerProcess {
            stdin: child.stdin.take(),
            child,
            port: 0,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the server's port: {e}"))?;
        process.port = line
            .trim()
            .strip_prefix("port ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("server announced {line:?} instead of its port"))?;
        let conn = Conn::connect(process.port)?;
        Ok((process, conn, started.elapsed()))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The loopback port it serves on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Asks the server to shut down and waits for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        if self.stdin.take().is_none() {
            return Ok(());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server process exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server process did not shut down; killed it".into());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}
