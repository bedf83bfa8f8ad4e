//! Traces: the interleaved event sequence, with a self-contained JSONL
//! on-disk format.
//!
//! A trace file opens with a header line describing the object catalog
//! (sizes in bytes), followed by one JSON event per line. Files written by
//! the generator can be replayed byte-identically by the bench harness, so
//! every figure is regenerable from an artifact.

use crate::event::Event;
use delta_storage::ObjectCatalog;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The interleaved query/update event sequence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Events ordered by sequence number.
    pub events: Vec<Event>,
}

impl Trace {
    /// Wraps an event vector (must be seq-ordered).
    ///
    /// # Panics
    /// Panics if events are not ordered by `seq`.
    pub fn new(events: Vec<Event>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].seq() <= w[1].seq()),
            "trace events must be seq-ordered"
        );
        Self { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events in order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of query events.
    pub fn n_queries(&self) -> usize {
        self.events.iter().filter(|e| e.is_query()).count()
    }

    /// Number of update events.
    pub fn n_updates(&self) -> usize {
        self.events.len() - self.n_queries()
    }

    /// Total result bytes over all queries (the NoCache yardstick's cost).
    pub fn total_query_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.is_query())
            .map(Event::ship_bytes)
            .sum()
    }

    /// Total update bytes (the Replica yardstick's cost).
    pub fn total_update_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| !e.is_query())
            .map(Event::ship_bytes)
            .sum()
    }

    /// A sub-trace with only the first `n` events (for quick experiments).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            events: self.events[..n.min(self.events.len())].to_vec(),
        }
    }
}

/// Header line of a trace file: everything needed to rebuild the catalog.
#[derive(Clone, Debug)]
pub struct TraceHeader {
    /// Format version.
    pub version: u32,
    /// Object sizes in bytes, by object id.
    pub object_sizes: Vec<u64>,
    /// Free-form description (config echo).
    pub description: String,
}

impl serde_json::ToJson for TraceHeader {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("version".into(), self.version.to_json()),
            ("object_sizes".into(), self.object_sizes.to_json()),
            ("description".into(), self.description.to_json()),
        ])
    }
}

impl serde_json::FromJson for TraceHeader {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde_json::Error::msg(format!("missing field `{name}`")))
        };
        Ok(TraceHeader {
            version: u32::from_json(field("version")?)?,
            object_sizes: Vec::<u64>::from_json(field("object_sizes")?)?,
            description: String::from_json(field("description")?)?,
        })
    }
}

/// Current trace-file format version.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Writes `(catalog, trace)` as JSONL: header line, then one event per
/// line.
pub fn write_jsonl(
    path: &Path,
    catalog: &ObjectCatalog,
    trace: &Trace,
    description: &str,
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    let header = TraceHeader {
        version: TRACE_FORMAT_VERSION,
        object_sizes: catalog.iter().map(|o| o.size_bytes).collect(),
        description: description.to_string(),
    };
    serde_json::to_writer(&mut w, &header)?;
    w.write_all(b"\n")?;
    for e in &trace.events {
        serde_json::to_writer(&mut w, e)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Reads a trace file back into a catalog and trace.
pub fn read_jsonl(path: &Path) -> std::io::Result<(ObjectCatalog, Trace)> {
    read_jsonl_with_header(path).map(|(c, t, _)| (c, t))
}

/// Like [`read_jsonl`], also returning the file's header (description,
/// format version) for tooling that reports provenance.
///
/// # Errors
/// Fails on I/O errors, a malformed header/event line, or an unsupported
/// format version.
pub fn read_jsonl_with_header(path: &Path) -> std::io::Result<(ObjectCatalog, Trace, TraceHeader)> {
    let f = std::fs::File::open(path)?;
    let mut lines = BufReader::new(f).lines();
    let header_line = lines.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "empty trace file")
    })??;
    let header: TraceHeader = serde_json::from_str(&header_line)?;
    if header.version != TRACE_FORMAT_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unsupported trace version {}", header.version),
        ));
    }
    let catalog = ObjectCatalog::from_sizes(&header.object_sizes);
    let mut events = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(serde_json::from_str(&line)?);
    }
    Ok((catalog, Trace::new(events), header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{QueryEvent, QueryKind, UpdateEvent};
    use delta_storage::ObjectId;

    fn sample_trace() -> (ObjectCatalog, Trace) {
        let catalog = ObjectCatalog::from_sizes(&[100, 200, 300]);
        let trace = Trace::new(vec![
            Event::Query(QueryEvent {
                seq: 0,
                objects: vec![ObjectId(0), ObjectId(2)],
                result_bytes: 50,
                tolerance: 0,
                kind: QueryKind::Cone,
            }),
            Event::Update(UpdateEvent {
                seq: 1,
                object: ObjectId(1),
                bytes: 7,
            }),
            Event::Query(QueryEvent {
                seq: 2,
                objects: vec![ObjectId(1)],
                result_bytes: 20,
                tolerance: 5,
                kind: QueryKind::Selection,
            }),
        ]);
        (catalog, trace)
    }

    #[test]
    fn totals() {
        let (_, t) = sample_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.n_queries(), 2);
        assert_eq!(t.n_updates(), 1);
        assert_eq!(t.total_query_bytes(), 70);
        assert_eq!(t.total_update_bytes(), 7);
        assert_eq!(t.truncated(1).len(), 1);
        assert_eq!(t.truncated(100).len(), 3);
    }

    #[test]
    #[should_panic(expected = "seq-ordered")]
    fn unordered_events_rejected() {
        let _ = Trace::new(vec![
            Event::Update(UpdateEvent {
                seq: 5,
                object: ObjectId(0),
                bytes: 1,
            }),
            Event::Update(UpdateEvent {
                seq: 3,
                object: ObjectId(0),
                bytes: 1,
            }),
        ]);
    }

    #[test]
    fn jsonl_round_trip() {
        let (catalog, trace) = sample_trace();
        let dir = std::env::temp_dir().join("delta_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &catalog, &trace, "unit test").unwrap();
        let (cat2, trace2) = read_jsonl(&path).unwrap();
        assert_eq!(trace, trace2);
        assert_eq!(catalog.total_bytes(), cat2.total_bytes());
        assert_eq!(catalog.len(), cat2.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_bad_version() {
        let dir = std::env::temp_dir().join("delta_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(
            &path,
            "{\"version\":99,\"object_sizes\":[1],\"description\":\"\"}\n",
        )
        .unwrap();
        assert!(read_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
