//! Wire protocol: versioned newline-delimited JSON requests/responses.
//!
//! One request per line over a plain TCP stream. Every request carries
//! the protocol version (`"v": 1`) and an optional client correlation
//! id (`"id"`), echoed verbatim in the response. The full grammar is
//! documented in DESIGN.md §12 (heat-map streaming in §17); the shapes
//! in brief:
//!
//! ```text
//! {"v":1,"id":7,"op":"best"}
//! {"v":1,"op":"top_k","k":3}
//! {"v":1,"op":"influence_of","candidate":12}
//! {"v":1,"op":"solve","algo":"pin-vo"}
//! {"v":1,"op":"heatmap","resolution":64}
//! {"v":1,"op":"top_region","k":5,"resolution":64}
//! {"v":1,"op":"stats"}            {"v":1,"op":"ping"}
//! {"v":1,"op":"insert_object","object":5,"positions":[[1.0,2.0]]}
//! {"v":1,"op":"append_position","object":5,"x":1.5,"y":2.0}
//! {"v":1,"op":"remove_object","object":5}
//! {"v":1,"op":"insert_candidate","candidate":3,"x":0.5,"y":0.25}
//! {"v":1,"op":"remove_candidate","candidate":3}
//! {"v":1,"op":"shutdown"}
//! ```
//!
//! Success responses are `{"id":…,"ok":true,"epoch":E,…}`; failures are
//! `{"id":…,"ok":false,"error":{"code":…,"message":…}}`. Error messages
//! always render through [`std::fmt::Display`] — the typed solver and
//! builder errors convert via [`From`], so a `Debug` representation can
//! never leak onto the wire.
//!
//! ## Response framing: single-line and streamed
//!
//! Every op except `heatmap` answers with **exactly one** response
//! line. `heatmap` answers with a **stream**: zero or more batch lines
//! followed by exactly one terminal line, all computed against one
//! epoch snapshot:
//!
//! ```text
//! {"id":…,"ok":true,"epoch":E,"op":"heatmap","offset":0,"tiles":[[lo,hi,sample],…]}
//! {"id":…,"ok":true,"epoch":E,"op":"heatmap","offset":512,"tiles":[…]}
//! {"id":…,"ok":true,"epoch":E,"op":"heatmap","done":true,"resolution":R,
//!  "frame":[x0,y0,x1,y1],"tiles_total":T,"batches":B,…}
//! ```
//!
//! Batches hold at most [`TILES_PER_BATCH`] row-major tiles
//! (`offset` is the row-major index of the first one), so each line
//! stays far below the 1 MiB framing cap. The contract every client
//! must honour: **the correlation id and epoch are echoed on every
//! batch, and the stream ends with the one line carrying
//! `"done":true`** — batch lines never carry it. Responses to *other*
//! requests pipelined on the same connection may interleave between
//! the batches of a stream (workers answer concurrently); the echoed
//! id is what ties a stream together, so streaming clients should
//! always send an id. A failed `heatmap` emits a single ordinary
//! error line and no batches.
//!
//! The protocol is **shard-transparent**: a server running an
//! object-partitioned topology ([`ShardedWorld`](crate::ShardedWorld))
//! answers every query identically to an unsharded one, bit for bit —
//! with one calibrated exception: a streamed tile's `[lo, hi]` band is
//! descent-dependent, so a sharded server may report different (still
//! sound, still `lo ≤ sample ≤ hi`) bands than an unsharded one. Tile
//! `sample` values, `top_region` answers, and every other op stay
//! bit-identical. The only other shard-visible surface is the `stats`
//! response, which additionally reports per-shard counters as
//! `"shards":[{"shard":0,"objects":…,"candidates":…,"updates_routed":…},…]`
//! (one entry per shard; the unsharded server reports the trivial
//! 1-shard topology).

use pinocchio_core::{Algorithm, BuildError, SolveError};
use pinocchio_geo::Point;
use pinocchio_heatmap::HeatmapError;
use serde_json::{json, Value};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Maximum tiles per streamed `heatmap` batch line. 512 tiles render
/// to roughly 20 KiB of JSON — comfortably under the 1 MiB line cap
/// even for clients that mirror the server's request framing limit.
pub const TILES_PER_BATCH: usize = 512;

/// Largest `resolution` accepted on the wire (tiles per axis, power of
/// two). Tighter than the solver's own cap: a 512² grid streams ~9 MiB
/// of tiles, which is already a raster export, not a dashboard query.
pub const MAX_WIRE_RESOLUTION: u32 = 512;

/// A read-only query, answered by the worker pool against one epoch
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// The current optimal candidate.
    Best,
    /// The `k` highest-influence candidates.
    TopK {
        /// Number of entries requested (`>= 1`).
        k: usize,
    },
    /// Exact influence of one candidate (wire id).
    InfluenceOf {
        /// The candidate's wire id.
        candidate: u64,
    },
    /// From-scratch solve of the snapshot with a named algorithm —
    /// dispatched to the existing solvers, shared across a batch.
    Solve {
        /// Which solver to run.
        algorithm: Algorithm,
    },
    /// The influence heat map of the frame, streamed as tile batches
    /// (the one multi-line response in the protocol; see the module
    /// docs for the framing contract).
    Heatmap {
        /// Tiles per axis (power of two, `<= MAX_WIRE_RESOLUTION`).
        resolution: u32,
    },
    /// The `k` highest-influence tiles of the (virtual) heat map at
    /// `resolution`, by exact centre count.
    TopRegion {
        /// Number of tiles requested (`>= 1`).
        k: usize,
        /// Tiles per axis (power of two, `<= MAX_WIRE_RESOLUTION`).
        resolution: u32,
    },
    /// The server's [`ServeStats`](crate::ServeStats) counter block.
    Stats,
    /// Liveness probe; returns the current epoch.
    Ping,
}

/// A state mutation, applied by the single writer thread in arrival
/// order. Object/candidate ids are client-chosen `u64`s, stable across
/// the connection and unrelated to internal slot handles.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert a new moving object with its initial trajectory.
    InsertObject {
        /// Client-chosen object id (must be fresh).
        object: u64,
        /// Initial positions (at least one, all finite).
        positions: Vec<Point>,
    },
    /// Append one freshly observed position to an object.
    AppendPosition {
        /// Target object id.
        object: u64,
        /// The new position (finite).
        position: Point,
    },
    /// Remove an object.
    RemoveObject {
        /// Target object id.
        object: u64,
    },
    /// Insert a candidate location.
    InsertCandidate {
        /// Client-chosen candidate id (must be fresh).
        candidate: u64,
        /// The candidate's location (finite).
        location: Point,
    },
    /// Remove a candidate.
    RemoveCandidate {
        /// Target candidate id.
        candidate: u64,
    },
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A read-only query.
    Query {
        /// Client correlation id, echoed in the response.
        id: Option<u64>,
        /// The query.
        op: QueryOp,
    },
    /// A state mutation.
    Update {
        /// Client correlation id, echoed in the response.
        id: Option<u64>,
        /// The mutation.
        op: UpdateOp,
    },
    /// Graceful-shutdown control command.
    Shutdown {
        /// Client correlation id, echoed in the response.
        id: Option<u64>,
    },
}

impl Request {
    /// The request's correlation id, whichever variant it is.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Query { id, .. } | Request::Update { id, .. } | Request::Shutdown { id } => {
                *id
            }
        }
    }
}

/// Machine-readable failure categories carried in error responses.
///
/// `#[non_exhaustive]` mirrors the core error enums: clients must treat
/// unknown codes as retriable-or-report, so the protocol can grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The line was not a valid request (JSON, shape, or argument).
    Malformed,
    /// The request named a protocol version this build does not speak.
    UnsupportedVersion,
    /// The bounded admission/ingest queue was full — explicit load
    /// shedding; retry later.
    Overloaded,
    /// The server is draining; no further requests are admitted.
    ShuttingDown,
    /// An update referenced an object id that is not live.
    UnknownObject,
    /// A query/update referenced a candidate id that is not live.
    UnknownCandidate,
    /// An insert reused a live object id.
    DuplicateObject,
    /// An insert reused a live candidate id.
    DuplicateCandidate,
    /// A coordinate was NaN or infinite.
    NonFinite,
    /// The query needs live state the snapshot does not have (e.g.
    /// `best` with no candidates).
    Empty,
    /// A from-scratch solve could not be assembled ([`BuildError`]).
    Build,
    /// A dispatched solver reported a [`SolveError`].
    Solve,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::UnknownObject => "unknown_object",
            ErrorCode::UnknownCandidate => "unknown_candidate",
            ErrorCode::DuplicateObject => "duplicate_object",
            ErrorCode::DuplicateCandidate => "duplicate_candidate",
            ErrorCode::NonFinite => "non_finite",
            ErrorCode::Empty => "empty",
            ErrorCode::Build => "build",
            ErrorCode::Solve => "solve",
        }
    }
}

/// A typed wire-layer failure: code plus human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (Display-rendered, never Debug).
    pub message: String,
}

impl WireError {
    /// Builds an error from its parts.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for a malformed-request error.
    pub fn malformed(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::Malformed, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<SolveError> for WireError {
    /// The shared conversion for solver failures: the wildcard arm keeps
    /// this total as `SolveError` (non-exhaustive) grows, and the
    /// message is the error's `Display` rendering.
    fn from(e: SolveError) -> Self {
        WireError::new(ErrorCode::Solve, e.to_string())
    }
}

impl From<BuildError> for WireError {
    /// Same contract as the [`SolveError`] conversion, for problem
    /// assembly failures.
    fn from(e: BuildError) -> Self {
        WireError::new(ErrorCode::Build, e.to_string())
    }
}

impl From<HeatmapError> for WireError {
    /// Heat-map rejections: argument problems are `malformed` (the
    /// parse-time validation normally catches them first, so hitting
    /// this arm means a serve-internal caller passed bad arguments);
    /// an underivable frame is the same `empty` a `best` on a
    /// candidate-less world reports. The wildcard keeps this total as
    /// the non-exhaustive `HeatmapError` grows.
    fn from(e: HeatmapError) -> Self {
        let code = match e {
            HeatmapError::Resolution(_) | HeatmapError::ZeroK => ErrorCode::Malformed,
            HeatmapError::EmptyFrame => ErrorCode::Empty,
            _ => ErrorCode::Malformed,
        };
        WireError::new(code, e.to_string())
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = serde_json::from_str(line).map_err(|_| WireError::malformed("invalid JSON"))?;
    let obj = value
        .as_object()
        .ok_or_else(|| WireError::malformed("request must be a JSON object"))?;
    match obj.get("v").and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(v) => {
            return Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                format!(
                    "protocol version {v} not supported (this build speaks {PROTOCOL_VERSION})"
                ),
            ))
        }
        None => return Err(WireError::malformed("missing protocol version field \"v\"")),
    }
    let id = obj.get("id").and_then(Value::as_u64);
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::malformed("missing \"op\" field"))?;
    let query = |op: QueryOp| Ok(Request::Query { id, op });
    match op {
        "best" => query(QueryOp::Best),
        "stats" => query(QueryOp::Stats),
        "ping" => query(QueryOp::Ping),
        "top_k" => {
            let k = require_u64(obj.get("k"), "k")? as usize;
            if k == 0 {
                return Err(WireError::malformed("\"k\" must be at least 1"));
            }
            query(QueryOp::TopK { k })
        }
        "influence_of" => query(QueryOp::InfluenceOf {
            candidate: require_u64(obj.get("candidate"), "candidate")?,
        }),
        "heatmap" => query(QueryOp::Heatmap {
            resolution: require_resolution(obj)?,
        }),
        "top_region" => {
            let k = require_u64(obj.get("k"), "k")? as usize;
            if k == 0 {
                return Err(WireError::malformed("\"k\" must be at least 1"));
            }
            query(QueryOp::TopRegion {
                k,
                resolution: require_resolution(obj)?,
            })
        }
        "solve" => {
            let algo = obj.get("algo").and_then(Value::as_str).unwrap_or("pin-vo");
            let algorithm = parse_algorithm(algo)?;
            query(QueryOp::Solve { algorithm })
        }
        "insert_object" => {
            let object = require_u64(obj.get("object"), "object")?;
            let raw = obj
                .get("positions")
                .and_then(Value::as_array)
                .ok_or_else(|| WireError::malformed("missing \"positions\" array"))?;
            if raw.is_empty() {
                return Err(WireError::malformed("\"positions\" must be non-empty"));
            }
            let positions = raw
                .iter()
                .map(parse_point_pair)
                .collect::<Result<Vec<Point>, WireError>>()?;
            Ok(Request::Update {
                id,
                op: UpdateOp::InsertObject { object, positions },
            })
        }
        "append_position" => Ok(Request::Update {
            id,
            op: UpdateOp::AppendPosition {
                object: require_u64(obj.get("object"), "object")?,
                position: parse_point_fields(obj)?,
            },
        }),
        "remove_object" => Ok(Request::Update {
            id,
            op: UpdateOp::RemoveObject {
                object: require_u64(obj.get("object"), "object")?,
            },
        }),
        "insert_candidate" => Ok(Request::Update {
            id,
            op: UpdateOp::InsertCandidate {
                candidate: require_u64(obj.get("candidate"), "candidate")?,
                location: parse_point_fields(obj)?,
            },
        }),
        "remove_candidate" => Ok(Request::Update {
            id,
            op: UpdateOp::RemoveCandidate {
                candidate: require_u64(obj.get("candidate"), "candidate")?,
            },
        }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(WireError::malformed(format!("unknown op \"{other}\""))),
    }
}

fn require_u64(value: Option<&Value>, field: &str) -> Result<u64, WireError> {
    value
        .and_then(Value::as_u64)
        .ok_or_else(|| WireError::malformed(format!("missing or invalid \"{field}\"")))
}

/// Parses and validates the `resolution` field of a heat-map query.
fn require_resolution(obj: &serde_json::Map) -> Result<u32, WireError> {
    let raw = require_u64(obj.get("resolution"), "resolution")?;
    let resolution = u32::try_from(raw).unwrap_or(u32::MAX);
    if resolution == 0 || !resolution.is_power_of_two() || resolution > MAX_WIRE_RESOLUTION {
        return Err(WireError::malformed(format!(
            "\"resolution\" must be a power of two in 1..={MAX_WIRE_RESOLUTION}, got {raw}"
        )));
    }
    Ok(resolution)
}

fn require_f64(value: Option<&Value>, field: &str) -> Result<f64, WireError> {
    let v = value
        .and_then(Value::as_f64)
        .ok_or_else(|| WireError::malformed(format!("missing or invalid \"{field}\"")))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(WireError::new(
            ErrorCode::NonFinite,
            format!("\"{field}\" must be finite"),
        ))
    }
}

/// Parses `{"x":…,"y":…}` coordinate fields off a request object.
fn parse_point_fields(obj: &serde_json::Map) -> Result<Point, WireError> {
    Ok(Point::new(
        require_f64(obj.get("x"), "x")?,
        require_f64(obj.get("y"), "y")?,
    ))
}

/// Parses one `[x, y]` pair of a `positions` array.
fn parse_point_pair(value: &Value) -> Result<Point, WireError> {
    let pair = value
        .as_array()
        .ok_or_else(|| WireError::malformed("positions entries must be [x, y] pairs"))?;
    match pair {
        [x, y] => {
            let (x, y) = (
                require_f64(Some(x), "positions[].x")?,
                require_f64(Some(y), "positions[].y")?,
            );
            Ok(Point::new(x, y))
        }
        _ => Err(WireError::malformed(
            "positions entries must be [x, y] pairs",
        )),
    }
}

/// Parses the CLI's algorithm spelling (shared with `--algo`). PIN-JOIN
/// is not selectable: it loses to PIN-VO on every measured workload, so
/// `pin-join` is an unknown algorithm like any other name.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, WireError> {
    match name {
        "na" => Ok(Algorithm::Naive),
        "pin" => Ok(Algorithm::Pinocchio),
        "pin-vo" => Ok(Algorithm::PinocchioVo),
        "pin-vo*" => Ok(Algorithm::PinocchioVoStar),
        other => Err(WireError::malformed(format!(
            "unknown algorithm \"{other}\""
        ))),
    }
}

/// Renders a success response line (no trailing newline).
pub fn response_ok(id: Option<u64>, epoch: u64, body: serde_json::Map) -> String {
    let mut map = serde_json::Map::new();
    if let Some(id) = id {
        map.insert("id".to_string(), json!(id));
    }
    map.insert("ok".to_string(), json!(true));
    map.insert("epoch".to_string(), json!(epoch));
    for (k, v) in body.iter() {
        map.insert(k.clone(), v.clone());
    }
    render(Value::Object(map))
}

/// Renders a failure response line (no trailing newline).
pub fn response_err(id: Option<u64>, error: &WireError) -> String {
    let mut map = serde_json::Map::new();
    if let Some(id) = id {
        map.insert("id".to_string(), json!(id));
    }
    map.insert("ok".to_string(), json!(false));
    map.insert(
        "error".to_string(),
        json!({
            "code": error.code.as_str(),
            "message": error.message.clone(),
        }),
    );
    render(Value::Object(map))
}

fn render(value: Value) -> String {
    // The stand-in serialiser is infallible; the Result exists for
    // signature compatibility with real serde_json.
    serde_json::to_string(&value).unwrap_or_else(|_| "{\"ok\":false}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_query_shape() {
        assert_eq!(
            parse_request(r#"{"v":1,"id":7,"op":"best"}"#),
            Ok(Request::Query {
                id: Some(7),
                op: QueryOp::Best
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"top_k","k":3}"#),
            Ok(Request::Query {
                id: None,
                op: QueryOp::TopK { k: 3 }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"influence_of","candidate":12}"#),
            Ok(Request::Query {
                id: None,
                op: QueryOp::InfluenceOf { candidate: 12 }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"solve","algo":"na"}"#),
            Ok(Request::Query {
                id: None,
                op: QueryOp::Solve {
                    algorithm: Algorithm::Naive
                }
            })
        );
        // "solve" defaults to PIN-VO.
        assert_eq!(
            parse_request(r#"{"v":1,"op":"solve"}"#),
            Ok(Request::Query {
                id: None,
                op: QueryOp::Solve {
                    algorithm: Algorithm::PinocchioVo
                }
            })
        );
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"stats"}"#),
            Ok(Request::Query {
                op: QueryOp::Stats,
                ..
            })
        ));
        assert_eq!(
            parse_request(r#"{"v":1,"id":9,"op":"heatmap","resolution":64}"#),
            Ok(Request::Query {
                id: Some(9),
                op: QueryOp::Heatmap { resolution: 64 }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"top_region","k":5,"resolution":128}"#),
            Ok(Request::Query {
                id: None,
                op: QueryOp::TopRegion {
                    k: 5,
                    resolution: 128
                }
            })
        );
    }

    #[test]
    fn heatmap_resolution_is_validated_at_parse_time() {
        let code = |line: &str| parse_request(line).unwrap_err().code;
        // Not a power of two, zero, over the wire cap, missing.
        assert_eq!(
            code(r#"{"v":1,"op":"heatmap","resolution":48}"#),
            ErrorCode::Malformed
        );
        assert_eq!(
            code(r#"{"v":1,"op":"heatmap","resolution":0}"#),
            ErrorCode::Malformed
        );
        assert_eq!(
            code(r#"{"v":1,"op":"heatmap","resolution":1024}"#),
            ErrorCode::Malformed
        );
        assert_eq!(code(r#"{"v":1,"op":"heatmap"}"#), ErrorCode::Malformed);
        // A resolution past u32 must not wrap into a valid one.
        assert_eq!(
            code(r#"{"v":1,"op":"heatmap","resolution":4294967297}"#),
            ErrorCode::Malformed
        );
        assert_eq!(
            code(r#"{"v":1,"op":"top_region","k":0,"resolution":64}"#),
            ErrorCode::Malformed
        );
        assert_eq!(
            code(r#"{"v":1,"op":"top_region","resolution":64}"#),
            ErrorCode::Malformed
        );
        // The wire cap is accepted exactly.
        assert!(parse_request(&format!(
            r#"{{"v":1,"op":"heatmap","resolution":{MAX_WIRE_RESOLUTION}}}"#
        ))
        .is_ok());
    }

    #[test]
    fn heatmap_errors_convert_with_typed_codes() {
        let w: WireError = HeatmapError::Resolution(48).into();
        assert_eq!(w.code, ErrorCode::Malformed);
        assert_eq!(w.message, HeatmapError::Resolution(48).to_string());
        let w: WireError = HeatmapError::EmptyFrame.into();
        assert_eq!(w.code, ErrorCode::Empty);
        let w: WireError = HeatmapError::ZeroK.into();
        assert_eq!(w.code, ErrorCode::Malformed);
    }

    #[test]
    fn parses_every_update_shape() {
        assert_eq!(
            parse_request(
                r#"{"v":1,"op":"insert_object","object":5,"positions":[[1.0,2.0],[3,4]]}"#
            ),
            Ok(Request::Update {
                id: None,
                op: UpdateOp::InsertObject {
                    object: 5,
                    positions: vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)],
                }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"id":1,"op":"append_position","object":5,"x":1.5,"y":-2.0}"#),
            Ok(Request::Update {
                id: Some(1),
                op: UpdateOp::AppendPosition {
                    object: 5,
                    position: Point::new(1.5, -2.0),
                }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"insert_candidate","candidate":3,"x":0.5,"y":0.25}"#),
            Ok(Request::Update {
                id: None,
                op: UpdateOp::InsertCandidate {
                    candidate: 3,
                    location: Point::new(0.5, 0.25),
                }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"remove_object","object":9}"#),
            Ok(Request::Update {
                id: None,
                op: UpdateOp::RemoveObject { object: 9 }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"op":"remove_candidate","candidate":9}"#),
            Ok(Request::Update {
                id: None,
                op: UpdateOp::RemoveCandidate { candidate: 9 }
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"id":2,"op":"shutdown"}"#),
            Ok(Request::Shutdown { id: Some(2) })
        );
    }

    #[test]
    fn rejects_bad_requests_with_typed_codes() {
        let code = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(code("not json"), ErrorCode::Malformed);
        assert_eq!(code(r#"[1,2]"#), ErrorCode::Malformed);
        assert_eq!(code(r#"{"op":"best"}"#), ErrorCode::Malformed);
        assert_eq!(
            code(r#"{"v":2,"op":"best"}"#),
            ErrorCode::UnsupportedVersion
        );
        assert_eq!(code(r#"{"v":1,"op":"warp"}"#), ErrorCode::Malformed);
        assert_eq!(code(r#"{"v":1,"op":"top_k","k":0}"#), ErrorCode::Malformed);
        assert_eq!(code(r#"{"v":1,"op":"top_k"}"#), ErrorCode::Malformed);
        assert_eq!(
            code(r#"{"v":1,"op":"solve","algo":"magic"}"#),
            ErrorCode::Malformed
        );
        // PIN-JOIN is not selectable.
        let join = parse_request(r#"{"v":1,"op":"solve","algo":"pin-join"}"#).unwrap_err();
        assert_eq!(join.code, ErrorCode::Malformed);
        assert_eq!(join.message, r#"unknown algorithm "pin-join""#);
        assert_eq!(
            code(r#"{"v":1,"op":"insert_object","object":1,"positions":[]}"#),
            ErrorCode::Malformed
        );
        assert_eq!(
            code(r#"{"v":1,"op":"insert_object","object":1,"positions":[[1,2,3]]}"#),
            ErrorCode::Malformed
        );
    }

    #[test]
    fn non_finite_coordinates_get_their_own_code() {
        // JSON has no literal NaN/Infinity, but exponent overflow
        // produces one at parse time.
        let err = parse_request(r#"{"v":1,"op":"append_position","object":1,"x":1e999,"y":0}"#)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NonFinite);
    }

    #[test]
    fn core_errors_convert_through_display_not_debug() {
        let w: WireError = SolveError::ZeroThreads.into();
        assert_eq!(w.code, ErrorCode::Solve);
        assert_eq!(w.message, SolveError::ZeroThreads.to_string());
        // Not the Debug spelling:
        assert_ne!(w.message, format!("{:?}", SolveError::ZeroThreads));

        let w: WireError = BuildError::NoCandidates.into();
        assert_eq!(w.code, ErrorCode::Build);
        assert_eq!(w.message, BuildError::NoCandidates.to_string());
        assert_ne!(w.message, format!("{:?}", BuildError::NoCandidates));
    }

    #[test]
    fn responses_round_trip_through_the_parser() {
        let mut body = serde_json::Map::new();
        body.insert("influence".to_string(), json!(9));
        let line = response_ok(Some(4), 17, body);
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(17));
        assert_eq!(v.get("influence").and_then(Value::as_u64), Some(9));
        assert!(!line.contains('\n'), "one response per line");

        let err = WireError::new(ErrorCode::Overloaded, "queue full (64/64)");
        let line = response_err(None, &err);
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("overloaded")
        );
    }
}
