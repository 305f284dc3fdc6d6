//! Simulated HTTP requests and responses.
//!
//! Bodies carry a *declared size* driving the network/bandwidth model, and
//! optionally real bytes for small payloads where tests assert content
//! integrity end-to-end. Large synthetic objects stay size-only so an hour
//! of simulated traffic does not allocate gigabytes.

use std::fmt;

use crate::bytes::Bytes;
use crate::url::Url;

/// HTTP method (the paper's workloads only GET cacheable objects, but the
/// interceptor must recognize non-GETs to pass them through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Retrieve an object.
    #[default]
    Get,
    /// Submit data (never cacheable).
    Post,
}

impl Method {
    /// The method token as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status code subset used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// 200.
    #[default]
    Ok,
    /// 404.
    NotFound,
    /// 504 — upstream fetch failed (used for failure injection).
    GatewayTimeout,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotFound => 404,
            Status::GatewayTimeout => 504,
        }
    }

    /// Whether this is a success status.
    pub fn is_success(self) -> bool {
        matches!(self, Status::Ok)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A response body: declared size plus optional real content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    declared_size: u64,
    content: Option<Bytes>,
}

impl Body {
    /// An empty body.
    pub fn empty() -> Self {
        Body {
            declared_size: 0,
            content: None,
        }
    }

    /// A synthetic body of `size` bytes (no real content allocated).
    pub fn synthetic(size: u64) -> Self {
        Body {
            declared_size: size,
            content: None,
        }
    }

    /// A body with real content.
    pub fn from_bytes(content: impl Into<Bytes>) -> Self {
        let content = content.into();
        Body {
            declared_size: content.len() as u64,
            content: Some(content),
        }
    }

    /// Size in bytes as seen by the network model.
    pub fn size(&self) -> u64 {
        self.declared_size
    }

    /// The real content, if this body carries any.
    pub fn content(&self) -> Option<&Bytes> {
        self.content.as_ref()
    }
}

/// A simulated HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Target URL.
    pub url: Url,
}

impl HttpRequest {
    /// A GET for `url`.
    pub fn get(url: Url) -> Self {
        HttpRequest {
            method: Method::Get,
            url,
        }
    }

    /// Approximate on-the-wire size: request line + minimal headers.
    pub fn wire_size(&self) -> usize {
        self.method.as_str().len() + self.url.text_len() + 64
    }
}

/// A simulated HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: Status,
    /// Response body.
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with the given body.
    pub fn ok(body: Body) -> Self {
        HttpResponse {
            status: Status::Ok,
            body,
        }
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        HttpResponse {
            status: Status::NotFound,
            body: Body::empty(),
        }
    }

    /// A 504 response (upstream failure).
    pub fn gateway_timeout() -> Self {
        HttpResponse {
            status: Status::GatewayTimeout,
            body: Body::empty(),
        }
    }

    /// Approximate on-the-wire size: status line + headers + body.
    pub fn wire_size(&self) -> usize {
        96 + self.body.size() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn synthetic_body_has_size_but_no_content() {
        let b = Body::synthetic(80_000);
        assert_eq!(b.size(), 80_000);
        assert!(b.content().is_none());
    }

    #[test]
    fn real_body_size_matches_content() {
        let b = Body::from_bytes(&b"hello"[..]);
        assert_eq!(b.size(), 5);
        assert_eq!(b.content().unwrap().as_ref(), b"hello");
    }

    #[test]
    fn empty_body() {
        let b = Body::empty();
        assert_eq!(b.size(), 0);
        assert!(b.content().is_none());
    }

    #[test]
    fn request_wire_size_scales_with_url() {
        let short = HttpRequest::get(url("http://a.b/x"));
        let long = HttpRequest::get(url("http://a.b/a-much-longer-path?with=query&p=2"));
        assert!(long.wire_size() > short.wire_size());
        assert_eq!(short.method, Method::Get);
    }

    #[test]
    fn response_wire_size_includes_body() {
        let small = HttpResponse::ok(Body::synthetic(10));
        let big = HttpResponse::ok(Body::synthetic(10_000));
        assert_eq!(big.wire_size() - small.wire_size(), 9_990);
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::GatewayTimeout.code(), 504);
        assert!(Status::Ok.is_success());
        assert!(!Status::NotFound.is_success());
        assert_eq!(HttpResponse::not_found().status, Status::NotFound);
        assert_eq!(
            HttpResponse::gateway_timeout().status,
            Status::GatewayTimeout
        );
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Get.to_string(), "GET");
        assert_eq!(Method::Post.to_string(), "POST");
        assert_eq!(Status::Ok.to_string(), "200");
    }
}
