//! The `zt-serve` daemon as a child process, and the benchmark's own
//! blocking HTTP/1.1 client (kept apart from the daemon's crate so a
//! change to the program cannot change how it is measured).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::Spans;

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `bin` with default flags on an ephemeral loopback port and
    /// wait until `/healthz` answers. Returns the daemon and the seconds
    /// from spawn to the first healthy reply.
    pub fn boot(bin: &Path) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .env_remove("ZT_TELEMETRY")
            .env_remove("ZT_STRICT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the guard owns the child, so every exit path reaps it.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        if read.is_err() || line.is_empty() {
            return Err("zt-serve exited before announcing its address".into());
        }
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected zt-serve banner `{}`", line.trim()))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(r) = request(daemon.addr, "GET", "/healthz", "", None) {
                if r.status == 200 {
                    return Ok((daemon, t.elapsed().as_secs_f64()));
                }
            }
            if Instant::now() > deadline {
                return Err("zt-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stop (`SIGSTOP`) or continue (`SIGCONT`) the daemon's process, so
    /// the host-speed calibration runs while none of its threads can.
    pub fn pause(&self, stop: bool) -> Result<(), String> {
        let sig = if stop { "-STOP" } else { "-CONT" };
        let status = Command::new("kill")
            .args([sig, &self.pid().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run kill {sig}: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("kill {sig} on zt-serve failed: {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Whether the daemon answered a `/predict` from its response cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTag {
    Hit,
    Miss,
    Absent,
}

pub struct Reply {
    pub status: u16,
    pub cache: CacheTag,
    pub body: String,
}

/// One `Connection: close` request. With `spans`, the client-side phases
/// (connect, send, wait for the first response byte, read the rest) are
/// recorded.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    spans: Option<&Spans>,
) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let t1 = Instant::now();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let t2 = Instant::now();
    let mut raw = Vec::with_capacity(512);
    let mut first = [0u8; 1];
    if stream.read(&mut first)? == 1 {
        raw.push(first[0]);
    }
    let t3 = Instant::now();
    stream.read_to_end(&mut raw)?;
    if let Some(s) = spans {
        s.record("client.connect", t1 - t0);
        s.record("client.send", t2 - t1);
        s.record("client.wait_first_byte", t3 - t2);
        s.record("client.read_rest", t3.elapsed());
    }
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> std::io::Result<Reply> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head not terminated"))?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut cache = CacheTag::Absent;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("x-zt-cache") {
                cache = match v.trim() {
                    "hit" => CacheTag::Hit,
                    "miss" => CacheTag::Miss,
                    _ => CacheTag::Absent,
                };
            }
        }
    }
    let body = String::from_utf8(raw[end + 4..].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Reply {
        status,
        cache,
        body,
    })
}
