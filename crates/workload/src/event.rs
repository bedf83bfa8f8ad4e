//! Trace events: the interleaved query/update sequence of the paper's §6.
//!
//! The paper's experimental unit is a *query-update event sequence* —
//! 250,000 queries (a two-month SkyServer trace) interleaved with 250,000
//! synthetic updates. Event sequence numbers double as the time axis, so a
//! tolerance-for-staleness `t(q)` is expressed in event ticks.

use delta_storage::ObjectId;

/// The SQL shape of a query, as classified in §6.1 ("range queries,
/// spatial self-join queries, simple selection queries, as well as
/// aggregation queries").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Cone search around a position.
    Cone,
    /// RA/Dec rectangle range scan.
    Range,
    /// Spatial self-join (neighbourhood pairs).
    SelfJoin,
    /// Aggregation over a wide region.
    Aggregate,
    /// Survey-style scan along a great-circle stripe.
    Scan,
    /// Point selection on a single object.
    Selection,
}

/// A read-only user query arriving at the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryEvent {
    /// Global event sequence number (the time axis).
    pub seq: u64,
    /// The set of data objects the query accesses — the paper's `B(q)`.
    pub objects: Vec<ObjectId>,
    /// Size of the query's result — its shipping cost ν(q).
    pub result_bytes: u64,
    /// Tolerance for staleness `t(q)` in event ticks (0 = must be fully
    /// current).
    pub tolerance: u64,
    /// Query shape (for workload statistics; policies ignore it).
    pub kind: QueryKind,
}

/// A data update arriving at the repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateEvent {
    /// Global event sequence number.
    pub seq: u64,
    /// The single object the update affects — the paper's `o(u)`.
    pub object: ObjectId,
    /// Size of the update's content — its shipping cost ν(u).
    pub bytes: u64,
}

/// One event of the interleaved trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A user query at the cache.
    Query(QueryEvent),
    /// A repository update.
    Update(UpdateEvent),
}

impl Event {
    /// Global sequence number of the event.
    pub fn seq(&self) -> u64 {
        match self {
            Event::Query(q) => q.seq,
            Event::Update(u) => u.seq,
        }
    }

    /// Whether this is a query event.
    pub fn is_query(&self) -> bool {
        matches!(self, Event::Query(_))
    }

    /// The network bytes this event would cost if shipped in isolation.
    pub fn ship_bytes(&self) -> u64 {
        match self {
            Event::Query(q) => q.result_bytes,
            Event::Update(u) => u.bytes,
        }
    }
}

mod json {
    //! Hand-written JSON codecs, matching serde's conventional shape:
    //! newtype ids as bare numbers, unit enum variants as strings,
    //! data-carrying variants externally tagged.

    use super::{Event, QueryEvent, QueryKind, UpdateEvent};
    use delta_storage::ObjectId;
    use serde_json::{Error, FromJson, ToJson, Value};

    fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, Error> {
        v.get(name)
            .ok_or_else(|| Error::msg(format!("missing field `{name}`")))
    }

    impl ToJson for QueryKind {
        fn to_json(&self) -> Value {
            let name = match self {
                QueryKind::Cone => "Cone",
                QueryKind::Range => "Range",
                QueryKind::SelfJoin => "SelfJoin",
                QueryKind::Aggregate => "Aggregate",
                QueryKind::Scan => "Scan",
                QueryKind::Selection => "Selection",
            };
            Value::String(name.to_string())
        }
    }

    impl FromJson for QueryKind {
        fn from_json(v: &Value) -> Result<Self, Error> {
            match v.as_str() {
                Some("Cone") => Ok(QueryKind::Cone),
                Some("Range") => Ok(QueryKind::Range),
                Some("SelfJoin") => Ok(QueryKind::SelfJoin),
                Some("Aggregate") => Ok(QueryKind::Aggregate),
                Some("Scan") => Ok(QueryKind::Scan),
                Some("Selection") => Ok(QueryKind::Selection),
                _ => Err(Error::msg("unknown QueryKind")),
            }
        }
    }

    impl ToJson for QueryEvent {
        fn to_json(&self) -> Value {
            Value::Object(vec![
                ("seq".into(), self.seq.to_json()),
                (
                    "objects".into(),
                    Value::Array(self.objects.iter().map(|o| o.0.to_json()).collect()),
                ),
                ("result_bytes".into(), self.result_bytes.to_json()),
                ("tolerance".into(), self.tolerance.to_json()),
                ("kind".into(), self.kind.to_json()),
            ])
        }
    }

    impl FromJson for QueryEvent {
        fn from_json(v: &Value) -> Result<Self, Error> {
            Ok(QueryEvent {
                seq: u64::from_json(field(v, "seq")?)?,
                objects: Vec::<u32>::from_json(field(v, "objects")?)?
                    .into_iter()
                    .map(ObjectId)
                    .collect(),
                result_bytes: u64::from_json(field(v, "result_bytes")?)?,
                tolerance: u64::from_json(field(v, "tolerance")?)?,
                kind: QueryKind::from_json(field(v, "kind")?)?,
            })
        }
    }

    impl ToJson for UpdateEvent {
        fn to_json(&self) -> Value {
            Value::Object(vec![
                ("seq".into(), self.seq.to_json()),
                ("object".into(), self.object.0.to_json()),
                ("bytes".into(), self.bytes.to_json()),
            ])
        }
    }

    impl FromJson for UpdateEvent {
        fn from_json(v: &Value) -> Result<Self, Error> {
            Ok(UpdateEvent {
                seq: u64::from_json(field(v, "seq")?)?,
                object: ObjectId(u32::from_json(field(v, "object")?)?),
                bytes: u64::from_json(field(v, "bytes")?)?,
            })
        }
    }

    impl ToJson for Event {
        fn to_json(&self) -> Value {
            match self {
                Event::Query(q) => Value::Object(vec![("Query".into(), q.to_json())]),
                Event::Update(u) => Value::Object(vec![("Update".into(), u.to_json())]),
            }
        }
    }

    impl FromJson for Event {
        fn from_json(v: &Value) -> Result<Self, Error> {
            if let Some(q) = v.get("Query") {
                Ok(Event::Query(QueryEvent::from_json(q)?))
            } else if let Some(u) = v.get("Update") {
                Ok(Event::Update(UpdateEvent::from_json(u)?))
            } else {
                Err(Error::msg("expected externally tagged Event"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let q = Event::Query(QueryEvent {
            seq: 5,
            objects: vec![ObjectId(1), ObjectId(2)],
            result_bytes: 100,
            tolerance: 0,
            kind: QueryKind::Cone,
        });
        let u = Event::Update(UpdateEvent {
            seq: 6,
            object: ObjectId(1),
            bytes: 9,
        });
        assert_eq!(q.seq(), 5);
        assert!(q.is_query());
        assert_eq!(q.ship_bytes(), 100);
        assert_eq!(u.seq(), 6);
        assert!(!u.is_query());
        assert_eq!(u.ship_bytes(), 9);
    }
}
