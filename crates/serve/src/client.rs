//! Client library for the campaign server.
//!
//! A thin, retrying wrapper over the JSON-lines protocol: connects with
//! bounded exponential backoff (a daemon restarting after a crash is the
//! expected case, not an error), applies socket timeouts so a wedged
//! server can't hang the caller, and surfaces the server's explicit
//! load-shed rejections as their own error variant so callers can back
//! off rather than treat shedding as failure.

use crate::wire::{self, CampaignSpec, Event, PointResult, Request, StatusReply};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection and retry policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connection attempts before giving up (each request that hits an
    /// I/O error also reconnects up to this many times).
    pub connect_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Socket read/write timeout — a stuck server surfaces as an error,
    /// never a hang. Watch streams use it per event, so it must exceed
    /// the expected gap between events.
    pub timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_retries: 5,
            backoff: Duration::from_millis(50),
            timeout: Duration::from_secs(120),
        }
    }
}

/// How a client call fails.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure after exhausting retries.
    Io(io::Error),
    /// The server load-shed the request (admission control): valid,
    /// explicit back-pressure — retry later or at lower volume.
    Shed(String),
    /// The server rejected the request (unknown campaign, bad spec,
    /// quarantined tenant, name conflict, ...).
    Rejected(String),
    /// The server answered with something the protocol doesn't allow.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Shed(m) => write!(f, "load shed: {m}"),
            ClientError::Rejected(m) => write!(f, "rejected: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected campaign-server client.
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    reader: BufReader<TcpStream>,
}

fn connect_once(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses resolved");
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                // Request lines are tiny: without this, Nagle holds a
                // segment for the peer's delayed ACK (tens of ms).
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl Client {
    /// Connect to `addr` with bounded retry/backoff: attempts are spaced
    /// `backoff`, `2*backoff`, `4*backoff`, ... so a daemon still coming
    /// up (or restarting after a kill) is tolerated without spinning.
    pub fn connect(addr: &str, cfg: ClientConfig) -> io::Result<Client> {
        let mut delay = cfg.backoff;
        let mut attempt = 0;
        loop {
            match connect_once(addr, cfg.timeout) {
                Ok(stream) => {
                    return Ok(Client {
                        addr: addr.to_string(),
                        cfg,
                        reader: BufReader::new(stream),
                    })
                }
                Err(_) if attempt < cfg.connect_retries => {
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connect with the default config.
    pub fn connect_default(addr: &str) -> io::Result<Client> {
        Client::connect(addr, ClientConfig::default())
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write per request, so the line leaves as one segment.
        let stream = self.reader.get_mut();
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// One request/reply exchange, reconnecting (bounded, backed off) on
    /// transport errors. Safe because every request in the protocol is
    /// idempotent — a replayed submit attaches to the already-admitted
    /// campaign instead of duplicating it.
    fn exchange(&mut self, request: &Request) -> io::Result<String> {
        let line = request.encode();
        let mut delay = self.cfg.backoff;
        let mut attempt = 0;
        loop {
            let result = self.send_line(&line).and_then(|()| self.read_line());
            match result {
                Ok(reply) => return Ok(reply),
                Err(_) if attempt < self.cfg.connect_retries => {
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    if let Ok(stream) = connect_once(&self.addr, self.cfg.timeout) {
                        self.reader = BufReader::new(stream);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn expect_status(reply: &str) -> Result<StatusReply, ClientError> {
        StatusReply::parse(reply).map_err(|e| {
            if wire::is_shed(reply) {
                ClientError::Shed(e)
            } else {
                ClientError::Rejected(e)
            }
        })
    }

    /// Submit a campaign. Returns its admission-time status (which
    /// already reflects journal-resumed points). Re-submitting an
    /// identical spec attaches to the existing campaign.
    pub fn submit(
        &mut self,
        tenant: &str,
        campaign: &str,
        spec: &CampaignSpec,
    ) -> Result<StatusReply, ClientError> {
        let reply = self.exchange(&Request::Submit {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
            spec: spec.clone(),
        })?;
        Client::expect_status(&reply)
    }

    /// Progress counters for a campaign.
    pub fn status(&mut self, tenant: &str, campaign: &str) -> Result<StatusReply, ClientError> {
        let reply = self.exchange(&Request::Status {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
        })?;
        Client::expect_status(&reply)
    }

    /// Per-point results (cycles, quarantine diagnostics, or pending
    /// markers for a still-running campaign), plus the status header.
    pub fn results(
        &mut self,
        tenant: &str,
        campaign: &str,
    ) -> Result<(StatusReply, Vec<PointResult>), ClientError> {
        let reply = self.exchange(&Request::Results {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
        })?;
        let header = Client::expect_status(&reply)?;
        let mut points = Vec::with_capacity(header.points as usize);
        loop {
            let line = self.read_line()?;
            if gex::journal::field_u64(&line, "end") == Some(1) {
                return Ok((header, points));
            }
            points.push(PointResult::parse(&line).map_err(ClientError::Protocol)?);
        }
    }

    /// Cancel a campaign; returns its post-cancel status.
    pub fn cancel(&mut self, tenant: &str, campaign: &str) -> Result<StatusReply, ClientError> {
        let reply = self.exchange(&Request::Cancel {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
        })?;
        Client::expect_status(&reply)
    }

    /// Stream a campaign's events into `on_event` until it reaches a
    /// terminal state (returned). Events already emitted before the watch
    /// attached are replayed first, so a late watcher still sees every
    /// completed point.
    pub fn watch(
        &mut self,
        tenant: &str,
        campaign: &str,
        mut on_event: impl FnMut(&Event),
    ) -> Result<String, ClientError> {
        let reply = self.exchange(&Request::Watch {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
        })?;
        if gex::journal::field_str(&reply, "watching").is_none() {
            return Err(if wire::is_shed(&reply) {
                ClientError::Shed(wire::error_of(&reply))
            } else {
                ClientError::Rejected(wire::error_of(&reply))
            });
        }
        loop {
            let line = self.read_line()?;
            let event = Event::parse(&line).map_err(ClientError::Protocol)?;
            on_event(&event);
            if let Event::State { state } = &event {
                if wire::state::is_terminal(state) {
                    return Ok(state.clone());
                }
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let reply = self.exchange(&Request::Ping)?;
        if gex::journal::field_u64(&reply, "pong") == Some(1) {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("unexpected ping reply: {reply}")))
        }
    }

    /// Ask the daemon to stop (in-flight waves finish and journal).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        // No reconnect-retry here: replaying shutdown against a daemon
        // that just restarted would kill the fresh instance.
        self.send_line(&Request::Shutdown.encode())?;
        let _ = self.read_line();
        Ok(())
    }

    /// Block until the campaign is terminal, polling `status` every
    /// `interval`; returns the final status.
    pub fn wait(
        &mut self,
        tenant: &str,
        campaign: &str,
        interval: Duration,
    ) -> Result<StatusReply, ClientError> {
        loop {
            let s = self.status(tenant, campaign)?;
            if wire::state::is_terminal(&s.state) {
                return Ok(s);
            }
            std::thread::sleep(interval);
        }
    }
}
