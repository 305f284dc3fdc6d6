//! # ape-httpsim — simulated HTTP layer for APE-CACHE
//!
//! URLs, requests and responses exchanged by the simulated client, AP and
//! server runtimes. [`Url::base_id`] mirrors the paper's `Cacheable.id`
//! ("basic URLs without parameters"); [`Url::hash`] produces the full-URL
//! hash carried in DNS-Cache tuples.
//!
//! ## Example
//!
//! ```
//! use ape_httpsim::{Body, HttpRequest, HttpResponse, Url};
//!
//! let url: Url = "http://api.movie.example/thumb?id=42".parse()?;
//! let request = HttpRequest::get(url);
//! let response = HttpResponse::ok(Body::synthetic(80_000));
//! assert!(response.wire_size() > request.wire_size());
//! # Ok::<(), ape_httpsim::ParseUrlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod url;

pub use http::{Body, HttpRequest, HttpResponse, Method, Status};
pub use url::{ParseUrlError, Scheme, Url};
