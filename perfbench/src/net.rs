//! Loopback plumbing: an NDJSON client connection and a line-forwarding
//! proxy that times each request/response exchange it relays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a client waits for one response line before the request
/// counts as timed out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One NDJSON client connection: a request line out, a response line in.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with the read timeout set.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Send `request` as one line (a single write) and read one response
    /// line, returned without its newline.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// What a [`start_proxy`] proxy saw, across all its connections.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Whether exchanges are being recorded (the caller toggles it between
    /// runs so only the runs it means to measure land here).
    pub recording: bool,
    /// Request-line bytes (newline included).
    pub request_bytes: u64,
    /// Per exchange: request forwarded → full response line received, ms.
    pub rtt_ms: Vec<f64>,
    /// Up to [`FRAME_CAP`] recorded request lines, for handler replay.
    pub frames: Vec<String>,
}

/// Request lines a proxy keeps for replay (fold frames are up to about a
/// megabyte each).
pub const FRAME_CAP: usize = 64;

/// Start a proxy on a fresh loopback port forwarding each accepted
/// connection line by line to `upstream`. The proxy's own sockets run
/// with `TCP_NODELAY` and forward each line in one write, so the round
/// trip it times is the upstream exchange alone.
pub fn start_proxy(
    upstream: SocketAddr,
    stats: Arc<Mutex<ProxyStats>>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { break };
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                if let Err(e) = forward(client, upstream, &stats) {
                    eprintln!("perfbench: proxy connection ended: {e}");
                }
            });
        }
    });
    Ok(addr)
}

fn forward(
    client: TcpStream,
    upstream: SocketAddr,
    stats: &Mutex<ProxyStats>,
) -> std::io::Result<()> {
    let up = TcpStream::connect(upstream)?;
    up.set_nodelay(true)?;
    up.set_read_timeout(Some(READ_TIMEOUT))?;
    client.set_nodelay(true)?;
    let mut up_reader = BufReader::new(up.try_clone()?);
    let mut up_writer = up;
    let mut client_reader = BufReader::new(client.try_clone()?);
    let mut client_writer = client;
    let mut request = String::new();
    let mut response = String::new();
    loop {
        request.clear();
        if client_reader.read_line(&mut request)? == 0 {
            return Ok(());
        }
        let start = Instant::now();
        up_writer.write_all(request.as_bytes())?;
        response.clear();
        if up_reader.read_line(&mut response)? == 0 {
            return Ok(());
        }
        let rtt = start.elapsed();
        client_writer.write_all(response.as_bytes())?;
        let mut st = stats.lock().expect("proxy stats lock poisoned");
        if st.recording {
            st.request_bytes += request.len() as u64;
            st.rtt_ms.push(rtt.as_secs_f64() * 1e3);
            if st.frames.len() < FRAME_CAP {
                st.frames.push(request.trim_end().to_string());
            }
        }
    }
}
