//! A keep-alive HTTP/1.1 client over one socket, framed by
//! `Content-Length`, that reconnects when the server announces close.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first one.
    pub reconnects: u64,
    /// Connection attempts that failed.
    pub failed_connects: u64,
    opened: u64,
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(8192),
            reconnects: 0,
            failed_connects: 0,
            opened: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let opened = TcpStream::connect(self.addr).and_then(|s| {
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.set_nodelay(true)?;
            Ok(s)
        });
        match opened {
            Ok(s) => {
                if self.opened > 0 {
                    self.reconnects += 1;
                }
                self.opened += 1;
                self.buf.clear();
                self.stream = Some(s);
                Ok(())
            }
            Err(e) => {
                self.failed_connects += 1;
                Err(e)
            }
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| invalid("not connected"))?;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "closed")),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and reads its response: `(status, body)`. On an
    /// I/O error the connection is dropped, so the next call reconnects.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            self.connect()?;
        }
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: poolbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .as_mut()
            .expect("connected above")
            .write_all(request.as_bytes())?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((key, value)) = line.split_once(':') {
                let key = key.trim();
                if key.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if key.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| invalid("no Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let payload = String::from_utf8_lossy(&self.buf[start..start + length]).into_owned();
        self.buf.drain(..start + length);
        if close {
            self.stream = None;
        }
        Ok((status, payload))
    }
}
