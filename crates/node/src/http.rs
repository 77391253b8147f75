//! A from-scratch incremental HTTP/1.1 server-side message layer — just
//! enough of RFC 9112 for the read-only query API: `GET`, no bodies,
//! keep-alive, pipelining, and hard caps on every dimension an
//! untrusted client controls.
//!
//! Bytes arrive in arbitrary splits from a nonblocking socket;
//! [`RequestParser::push`] buffers them and [`RequestParser::next_request`]
//! yields complete requests as they form, leaving partial data in place.
//! Responses are rendered by [`write_response`] with no `Date` header, so
//! a response's bytes are a pure function of the request and the ledger
//! state — the oracle tests compare them byte-for-byte.

use std::fmt;

/// Upper bound on the request line (`GET /path?query HTTP/1.1`).
pub const MAX_REQUEST_LINE: usize = 1_024;
/// Upper bound on a single header line.
pub const MAX_HEADER_LINE: usize = 1_024;
/// Upper bound on the number of header lines per request.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a buffered-but-incomplete request head. A client that
/// sends this much without a blank line is killed rather than fed RAM.
pub const MAX_HEAD_BYTES: usize = 16 * 1_024;

/// Why a request could not be parsed. Every variant maps to one `400`
/// (or `431`) response followed by connection close — a peer that spoke
/// garbage once gets no second request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Request line was not `METHOD SP TARGET SP VERSION`.
    BadRequestLine,
    /// Version was not `HTTP/1.0` or `HTTP/1.1`.
    BadVersion,
    /// A header line had no colon or a malformed name.
    BadHeader,
    /// The target contained bytes outside printable ASCII.
    BadTarget,
    /// Request line or a header line exceeded its cap.
    TooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// The head never terminated within [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The request declared a body (`Content-Length` / chunked); the
    /// query API is GET-only and accepts none.
    BodyNotAllowed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            HttpError::BadRequestLine => "malformed request line",
            HttpError::BadVersion => "unsupported http version",
            HttpError::BadHeader => "malformed header",
            HttpError::BadTarget => "malformed request target",
            HttpError::TooLong => "request or header line too long",
            HttpError::TooManyHeaders => "too many headers",
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyNotAllowed => "request bodies not accepted",
        };
        f.write_str(msg)
    }
}

impl HttpError {
    /// The status line this error answers with before the close.
    pub fn status(self) -> (u16, &'static str) {
        match self {
            HttpError::TooLong | HttpError::HeadTooLarge | HttpError::TooManyHeaders => {
                (431, "Request Header Fields Too Large")
            }
            _ => (400, "Bad Request"),
        }
    }
}

/// One parsed request head. The target is split at `?` into path and
/// raw query; headers beyond connection semantics are dropped (the API
/// ignores them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method token, verbatim (`GET`, `HEAD`, `POST`, …).
    pub method: String,
    /// Path component of the target, up to the first `?`.
    pub path: String,
    /// Raw query string after the first `?`, empty when absent.
    pub query: String,
    /// Whether the connection survives this response (HTTP/1.1 default
    /// yes, HTTP/1.0 default no, `Connection:` overrides either way).
    pub keep_alive: bool,
}

impl Request {
    /// Looks up a `key=value` pair in the query string, first match wins.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Incremental parser: a byte buffer plus the caps above. One instance
/// per connection; completed requests are drained in arrival order
/// (pipelining), partial tails wait for more bytes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered (complete or partial).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends freshly read socket bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError::HeadTooLarge`] when the buffer would exceed
    /// [`MAX_HEAD_BYTES`] without containing a complete head — the caller
    /// must answer `431` and close.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), HttpError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() > MAX_HEAD_BYTES && find_head_end(&self.buf).is_none() {
            return Err(HttpError::HeadTooLarge);
        }
        Ok(())
    }

    /// Parses and consumes the next complete request, `Ok(None)` when the
    /// buffer holds only a partial head.
    ///
    /// # Errors
    ///
    /// Any [`HttpError`]; the buffer is left as-is and the caller must
    /// respond once and close (no resynchronization with a peer that
    /// sent garbage).
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            // No blank line yet; cheap incremental cap checks so a slow
            // trickle of an oversized line fails early, not at 16 KiB.
            if first_line_len(&self.buf).is_none() && self.buf.len() > MAX_REQUEST_LINE {
                return Err(HttpError::TooLong);
            }
            return Ok(None);
        };
        let head = &self.buf[..head_end];
        let request = parse_head(head)?;
        self.buf.drain(..head_end + 4);
        Ok(Some(request))
    }
}

/// Index of the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Length of the first `\r\n`-terminated line, if complete.
fn first_line_len(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let mut lines = split_crlf(head);
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::TooLong);
    }
    let (method, target, version) = parse_request_line(request_line)?;

    let mut keep_alive = version_keeps_alive(version)?;
    let mut headers = 0usize;
    for line in lines {
        if line.is_empty() {
            return Err(HttpError::BadHeader); // bare CRLF inside the head
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(HttpError::TooLong);
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = parse_header_line(line)?;
        if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            if value.trim() != "0" {
                return Err(HttpError::BodyNotAllowed);
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::BodyNotAllowed);
        }
    }

    let target = std::str::from_utf8(target).map_err(|_| HttpError::BadTarget)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: String::from_utf8(method.to_vec()).expect("validated ascii"),
        path: path.to_string(),
        query: query.to_string(),
        keep_alive,
    })
}

/// Iterator over `\r\n`-separated lines of a head (terminator excluded).
fn split_crlf(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = head;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        match rest.windows(2).position(|w| w == b"\r\n") {
            Some(i) => {
                let line = &rest[..i];
                rest = &rest[i + 2..];
                Some(line)
            }
            None => {
                let line = rest;
                rest = &rest[rest.len()..];
                Some(line)
            }
        }
    })
}

/// `(method, target, version)` slices of a request line.
type RequestLineParts<'a> = (&'a [u8], &'a [u8], &'a [u8]);

fn parse_request_line(line: &[u8]) -> Result<RequestLineParts<'_>, HttpError> {
    let mut parts = line.split(|&b| b == b' ');
    let method = parts.next().ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine);
    }
    if method.is_empty() || !method.iter().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequestLine);
    }
    if target.first() != Some(&b'/')
        || !target.iter().all(|&b| (0x21..=0x7e).contains(&b))
    {
        return Err(HttpError::BadTarget);
    }
    Ok((method, target, version))
}

fn version_keeps_alive(version: &[u8]) -> Result<bool, HttpError> {
    match version {
        b"HTTP/1.1" => Ok(true),
        b"HTTP/1.0" => Ok(false),
        _ => Err(HttpError::BadVersion),
    }
}

fn parse_header_line(line: &[u8]) -> Result<(&str, &str), HttpError> {
    let colon = line
        .iter()
        .position(|&b| b == b':')
        .ok_or(HttpError::BadHeader)?;
    let (name, value) = line.split_at(colon);
    let value = &value[1..];
    if name.is_empty()
        || !name
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(HttpError::BadHeader);
    }
    let value = std::str::from_utf8(value).map_err(|_| HttpError::BadHeader)?;
    let name = std::str::from_utf8(name).expect("validated ascii");
    Ok((name, value))
}

/// Renders one response into `out`. Deliberately no `Date` header: the
/// bytes depend only on the arguments, which is what lets the oracle
/// tests demand byte-identical answers from the live server.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    use std::io::Write as _;
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    )
    .expect("write to Vec");
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n"
    } else {
        b"Connection: close\r\n"
    });
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Vec<Request>, HttpError> {
        let mut p = RequestParser::new();
        p.push(bytes)?;
        let mut out = Vec::new();
        while let Some(r) = p.next_request()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn simple_get() {
        let reqs = parse_all(b"GET /v1/tips HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/v1/tips");
        assert_eq!(reqs[0].query, "");
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn query_params_split() {
        let reqs =
            parse_all(b"GET /v1/credit/ab?at_ms=1500&x=2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(reqs[0].path, "/v1/credit/ab");
        assert_eq!(reqs[0].query_param("at_ms"), Some("1500"));
        assert_eq!(reqs[0].query_param("x"), Some("2"));
        assert_eq!(reqs[0].query_param("missing"), None);
    }

    #[test]
    fn byte_at_a_time_arrival() {
        let raw = b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, b) in raw.iter().enumerate() {
            p.push(&[*b]).unwrap();
            let r = p.next_request().unwrap();
            if i + 1 < raw.len() {
                assert!(r.is_none(), "complete at byte {i}?");
            } else {
                let r = r.unwrap();
                assert_eq!(r.path, "/v1/stats");
                assert!(!r.keep_alive);
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let reqs = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(
            reqs.iter().map(|r| r.path.as_str()).collect::<Vec<_>>(),
            ["/a", "/b", "/c"]
        );
        assert!(reqs[0].keep_alive && reqs[1].keep_alive && !reqs[2].keep_alive);
    }

    #[test]
    fn http10_keep_alive_opt_in() {
        let reqs =
            parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert_eq!(parse_all(b"GET/HTTP/1.1\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse_all(b"GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::BadVersion)
        );
        assert_eq!(
            parse_all(b"GET nothing HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadTarget)
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            parse_all(b"G ET / HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
    }

    #[test]
    fn bodies_are_refused() {
        assert_eq!(
            parse_all(b"POST /v1/tips HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::BodyNotAllowed)
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BodyNotAllowed)
        );
        // Explicit zero-length body is harmless.
        assert!(parse_all(b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn oversized_request_line_fails_before_head_completes() {
        let mut p = RequestParser::new();
        p.push(b"GET /").unwrap();
        p.push(&vec![b'a'; MAX_REQUEST_LINE + 8]).unwrap();
        assert_eq!(p.next_request(), Err(HttpError::TooLong));
    }

    #[test]
    fn unterminated_head_hits_byte_cap() {
        let mut p = RequestParser::new();
        let mut err = None;
        // Header lines keep coming but the blank line never does.
        for i in 0..10_000 {
            if let Err(e) = p.push(format!("X-{i}: y\r\n").as_bytes()) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(HttpError::HeadTooLarge));
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse_all(&raw), Err(HttpError::TooManyHeaders));
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_response(&mut a, 200, "OK", "application/json", b"{}", true);
        write_response(&mut b, 200, "OK", "application/json", b"{}", true);
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(!text.contains("Date:"), "Date would break determinism");
    }
}
