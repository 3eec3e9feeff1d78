//! Dependency-free HTTP/1.1 message framing.
//!
//! Implements exactly the subset the service needs: request parsing with
//! `Content-Length` bodies (no chunked transfer coding), keep-alive
//! semantics, and response serialization. Two parsing surfaces share the
//! same grammar helpers:
//!
//! - [`read_request`] pulls one request off a blocking [`BufRead`] — the
//!   shape tests and simple clients want;
//! - [`parse_request_bytes`] is the reactor's incremental form: given
//!   whatever bytes have arrived so far, it either yields one complete
//!   request plus the number of bytes it consumed, reports that more
//!   bytes are needed, or rejects the prefix. Calling it repeatedly on a
//!   growing buffer parses pipelined requests one at a time without ever
//!   blocking, regardless of how the bytes were split across reads.

use std::io::{self, BufRead, Write};

use impact_support::json::Json;

/// Hard cap on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a request body (`.impact` programs are text; the largest
/// bundled workload prints well under 1 MB).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as received (path plus optional query).
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header fields, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close).
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying transport failed (includes read timeouts).
    Io(io::Error),
    /// The bytes were not a well-formed request; the string is safe to
    /// echo in a 400 response.
    Malformed(String),
    /// Head or body exceeded its size cap; respond 431/413 and close.
    TooLarge(&'static str),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
        }
    }
}

/// Parses `METHOD TARGET VERSION`; returns `(method, target, http11)`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line: {line:?}"))),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol version {v:?}"
            )))
        }
    };
    Ok((method.to_string(), target.to_string(), http11))
}

/// Parses `Name: value` into a lowercased-name pair.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed(format!("bad header line: {line:?}")));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Validates transfer framing and returns the declared body length.
fn body_length(req: &Request) -> Result<usize, HttpError> {
    if req
        .headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send Content-Length".to_string(),
        ));
    }
    // RFC 9112 §6.3: every Content-Length must be a plain run of digits
    // (no sign, no list), and repeated fields must agree. Taking only the
    // first of two conflicting values would frame the rest of the body
    // as a second, smuggled request.
    let mut body_len = None;
    for (_, v) in req.headers.iter().filter(|(n, _)| n == "content-length") {
        let len = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(HttpError::Malformed(format!("bad Content-Length: {v:?}"))),
        };
        if body_len.is_some_and(|prev| prev != len) {
            return Err(HttpError::Malformed(
                "conflicting Content-Length values".to_string(),
            ));
        }
        body_len = Some(len);
    }
    let body_len = body_len.unwrap_or(0);
    if body_len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }
    Ok(body_len)
}

/// One line ending in `\n` (CRLF tolerated), or `None` on clean EOF.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let mut chunk = io::Read::take(&mut *reader, *budget as u64 + 1);
    let n = chunk.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(HttpError::TooLarge("request head"));
    }
    *budget -= n;
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".to_string()))
}

/// Reads one request off the connection.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending a request line (the normal end of a keep-alive session).
///
/// # Errors
///
/// [`HttpError::Io`] on transport errors (including read timeouts),
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] on invalid input.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(line) = read_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let (method, target, http11) = parse_request_line(&line)?;

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, &mut budget)? else {
            return Err(HttpError::Malformed(
                "connection closed inside the header block".to_string(),
            ));
        };
        if line.is_empty() {
            break;
        }
        headers.push(parse_header_line(&line)?);
    }

    let mut req = Request {
        method,
        target,
        http11,
        headers,
        body: Vec::new(),
    };
    let body_len = body_length(&req)?;
    req.body = vec![0; body_len];
    reader.read_exact(&mut req.body)?;
    Ok(Some(req))
}

/// Byte offset just past the blank line terminating the request head,
/// if the head is complete within `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` starts with a
/// whole request (`consumed` bytes of it — the caller drains those and
/// may call again for the next pipelined request), and `Ok(None)` when
/// the bytes so far are a valid prefix that needs more input.
///
/// # Errors
///
/// [`HttpError::Malformed`] when the prefix can never become a valid
/// request, [`HttpError::TooLarge`] when the head exceeds
/// [`MAX_HEAD_BYTES`] (respond `431`) or the declared body exceeds
/// [`MAX_BODY_BYTES`] (respond `413`). Never returns [`HttpError::Io`].
pub fn parse_request_bytes(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_len) = head_end(buf) else {
        // An unterminated head can only be tolerated while it still
        // fits the budget; past that it is a slowloris or junk.
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("request head"));
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge("request head"));
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".to_string()))?;

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let (method, target, http11) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        headers.push(parse_header_line(line)?);
    }

    let mut req = Request {
        method,
        target,
        http11,
        headers,
        body: Vec::new(),
    };
    let body_len = body_length(&req)?;
    let total = head_len + body_len;
    if buf.len() < total {
        return Ok(None);
    }
    req.body = buf[head_len..total].to_vec();
    Ok(Some((req, total)))
}

/// Standard reason phrase for the statuses the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the framing set (`Content-Type` included
    /// by the constructors; `Content-Length`/`Connection` are written by
    /// [`Response::write`]).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A pretty-printed JSON response (trailing newline, curl-friendly).
    #[must_use]
    pub fn json(status: u16, doc: &Json) -> Self {
        let mut body = doc.to_string_pretty();
        body.push('\n');
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(
            status,
            &Json::Obj(vec![("error".to_string(), Json::Str(message.into()))]),
        )
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response, including framing headers.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (including write timeouts).
    pub fn write(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nServer: impact-serve\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write per response: splitting head and body into separate
        // segments interacts badly with Nagle + delayed ACK.
        let mut frame = head.into_bytes();
        frame.extend_from_slice(&self.body);
        w.write_all(&frame)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /v1/lint?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/lint");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive());
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn keep_alive_honors_connection_header_and_version() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive());
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive());
        let old_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(old_ka.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Truncated body surfaces as an I/O error.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn signed_content_length_is_rejected() {
        // A sign is not a digit, even though `"+5".parse::<usize>()` is Ok.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
        // The later value conflicting is just as bad as the earlier one.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 50\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
        // A comma list is not a run of digits either.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn identical_duplicate_content_lengths_are_accepted() {
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge(_))));
        let body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&body), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn responses_serialize_with_framing() {
        let resp = Response::json(200, &Json::Obj(vec![])).with_header("Retry-After", "1");
        let mut out = Vec::new();
        resp.write(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}\n"), "{text}");
    }
}
