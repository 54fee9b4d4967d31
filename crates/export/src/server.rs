//! Thin `std::net` scrape server plus the snapshot-consistency rule.
//!
//! The server never touches live system state: it serves an immutable
//! [`RenderedSnapshot`] published through a [`SnapshotHandle`]. Callers
//! render a fresh snapshot only at quiescent points (after a collector
//! pump / engine poll completes), then swap it in atomically — so a
//! scrape can never observe a torn read mid-pump, and two scrapes
//! between publishes are byte-identical. Rendering happens *outside*
//! the handle's lock; the lock only guards the `Arc` swap.

use crate::otel::render_otel;
use crate::prom::render_prometheus;
use crate::registry::MetricRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One immutable, fully-rendered scrape payload pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedSnapshot {
    /// Prometheus text exposition v0.0.4 body.
    pub prometheus: String,
    /// OTel-shaped (OTLP/JSON) body.
    pub otel: String,
    /// Sim-time nanos the snapshot was rendered at.
    pub rendered_at_ns: u64,
}

impl RenderedSnapshot {
    /// Render both encodings from a registry at one sim-time instant.
    pub fn render(reg: &MetricRegistry, start_ns: u64, now_ns: u64) -> Self {
        RenderedSnapshot {
            prometheus: render_prometheus(reg),
            otel: render_otel(reg, start_ns, now_ns),
            rendered_at_ns: now_ns,
        }
    }

    fn empty() -> Self {
        RenderedSnapshot {
            prometheus: String::new(),
            otel: "{\"resourceMetrics\":[]}".to_string(),
            rendered_at_ns: 0,
        }
    }
}

/// Shared handle the scrape thread reads from and the simulation
/// publishes into. Cloning shares the underlying slot.
#[derive(Clone)]
pub struct SnapshotHandle {
    slot: Arc<Mutex<Arc<RenderedSnapshot>>>,
}

impl Default for SnapshotHandle {
    fn default() -> Self {
        SnapshotHandle::new()
    }
}

impl SnapshotHandle {
    /// Create a handle holding an empty snapshot.
    pub fn new() -> Self {
        SnapshotHandle { slot: Arc::new(Mutex::new(Arc::new(RenderedSnapshot::empty()))) }
    }

    /// Atomically publish a new snapshot (render first, swap under the
    /// lock — the lock is held only for the pointer swap).
    pub fn publish(&self, snap: RenderedSnapshot) {
        let snap = Arc::new(snap);
        *self.slot.lock().expect("snapshot slot poisoned") = snap;
    }

    /// The currently published snapshot.
    pub(crate) fn current(&self) -> Arc<RenderedSnapshot> {
        Arc::clone(&self.slot.lock().expect("snapshot slot poisoned"))
    }
}

/// A minimal HTTP/1.0-ish scrape endpoint serving `/metrics` and
/// `/otel` from a [`SnapshotHandle`].
pub struct ExportServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ExportServer {
    /// Bind to `127.0.0.1:0` and start the accept loop on a thread.
    pub fn bind(handle: SnapshotHandle) -> std::io::Result<ExportServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread =
            std::thread::Builder::new().name("fet-export-scrape".to_string()).spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection; a scrape endpoint
                        // doesn't need keep-alive. Errors on a single
                        // connection never take the server down.
                        let _ = serve_one(stream, &handle);
                    }
                }
            })?;
        Ok(ExportServer { addr, stop, thread: Some(thread) })
    }

    /// The bound address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ExportServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
        }
    }
}

fn serve_one(mut stream: TcpStream, handle: &SnapshotHandle) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let req = String::from_utf8_lossy(&buf[..n]);
    let path = req
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    let snap = handle.current();
    let (status, ctype, body): (&str, &str, &str) = match path.as_str() {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", &snap.prometheus),
        "/otel" => ("200 OK", "application/json", &snap.otel),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Scrape `path` from a running [`ExportServer`] over a plain
/// `TcpStream`, returning the response body. Test/example helper — the
/// "curl ourselves" side of the loop.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    match resp.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "no header terminator")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_snapshot(tag: u64) -> RenderedSnapshot {
        let mut reg = MetricRegistry::default();
        reg.counter_add("fet_demo_total", "Demo counter.", &[], tag);
        RenderedSnapshot::render(&reg, 0, tag)
    }

    #[test]
    fn serves_metrics_and_otel_and_404() {
        let handle = SnapshotHandle::new();
        handle.publish(demo_snapshot(7));
        let server = ExportServer::bind(handle).unwrap();
        let addr = server.addr();
        let metrics = http_get(addr, "/metrics").unwrap();
        assert!(metrics.contains("fet_demo_total 7"), "{metrics}");
        let otel = http_get(addr, "/otel").unwrap();
        assert!(otel.contains("\"asInt\":\"7\""), "{otel}");
        let missing = http_get(addr, "/nope").unwrap();
        assert!(missing.contains("not found"));
        server.stop();
    }

    #[test]
    fn scrapes_between_publishes_are_identical() {
        let handle = SnapshotHandle::new();
        handle.publish(demo_snapshot(1));
        let server = ExportServer::bind(handle.clone()).unwrap();
        let a = http_get(server.addr(), "/metrics").unwrap();
        let b = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(a, b, "no publish between scrapes => identical bodies");
        handle.publish(demo_snapshot(2));
        let c = http_get(server.addr(), "/metrics").unwrap();
        assert!(c.contains("fet_demo_total 2"));
        server.stop();
    }
}
