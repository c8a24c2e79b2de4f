//! Wire-protocol decoding: JSON request fragments → core types.

use graphflow_core::json::Json;
use graphflow_graph::{EdgeLabel, PropValue, Update, VertexId, VertexLabel};

/// Decode one member of a `POST /txn` `updates` array into an [`Update`].
///
/// Accepted shapes (labels default to `0`):
/// `{"op": "insert_vertex", "label": 0}`,
/// `{"op": "insert_edge", "src": 1, "dst": 2, "label": 0}`,
/// `{"op": "delete_edge", "src": 1, "dst": 2, "label": 0}`,
/// `{"op": "set_vertex_prop", "v": 1, "key": "age", "value": 42}`,
/// `{"op": "set_edge_prop", "src": 1, "dst": 2, "label": 0, "key": "w", "value": 1.5}`.
pub fn parse_update(json: &Json) -> Result<Update, String> {
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    let vertex = |key: &str| -> Result<VertexId, String> {
        json.get(key)
            .and_then(Json::as_i64)
            .filter(|&v| (0..=u32::MAX as i64).contains(&v))
            .map(|v| v as VertexId)
            .ok_or_else(|| format!("missing or invalid \"{key}\""))
    };
    let label = |key: &str| -> Result<u16, String> {
        match json.get(key) {
            None => Ok(0),
            Some(j) => j
                .as_i64()
                .filter(|&v| (0..=u16::MAX as i64).contains(&v))
                .map(|v| v as u16)
                .ok_or_else(|| format!("invalid \"{key}\"")),
        }
    };
    let key = || -> Result<String, String> {
        json.get("key")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing \"key\"".to_string())
    };
    let value = || -> Result<PropValue, String> {
        parse_prop_value(json.get("value").ok_or("missing \"value\"")?)
    };
    match op {
        "insert_vertex" => Ok(Update::InsertVertex {
            label: VertexLabel(label("label")?),
        }),
        "insert_edge" => Ok(Update::InsertEdge {
            src: vertex("src")?,
            dst: vertex("dst")?,
            label: EdgeLabel(label("label")?),
        }),
        "delete_edge" => Ok(Update::DeleteEdge {
            src: vertex("src")?,
            dst: vertex("dst")?,
            label: EdgeLabel(label("label")?),
        }),
        "set_vertex_prop" => Ok(Update::SetVertexProp {
            v: vertex("v")?,
            key: key()?,
            value: value()?,
        }),
        "set_edge_prop" => Ok(Update::SetEdgeProp {
            src: vertex("src")?,
            dst: vertex("dst")?,
            label: EdgeLabel(label("label")?),
            key: key()?,
            value: value()?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Decode a JSON scalar into a typed [`PropValue`]: booleans and strings map directly;
/// numbers become [`PropValue::Int`] when they are exact `i64`s ([`Json::as_i64`]),
/// [`PropValue::Float`] otherwise.
pub fn parse_prop_value(json: &Json) -> Result<PropValue, String> {
    match json {
        Json::Bool(b) => Ok(PropValue::Bool(*b)),
        Json::Str(s) => Ok(PropValue::Str(s.as_str().into())),
        Json::Num(x) => Ok(json.as_i64().map_or(PropValue::Float(*x), PropValue::Int)),
        _ => Err("property value must be a boolean, number or string".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_every_update_shape() {
        let edge = Json::parse(r#"{"op":"insert_edge","src":1,"dst":2}"#).unwrap();
        assert_eq!(
            parse_update(&edge).unwrap(),
            Update::InsertEdge {
                src: 1,
                dst: 2,
                label: EdgeLabel(0)
            }
        );
        let del = Json::parse(r#"{"op":"delete_edge","src":1,"dst":2,"label":3}"#).unwrap();
        assert_eq!(
            parse_update(&del).unwrap(),
            Update::DeleteEdge {
                src: 1,
                dst: 2,
                label: EdgeLabel(3)
            }
        );
        let vprop =
            Json::parse(r#"{"op":"set_vertex_prop","v":7,"key":"age","value":42}"#).unwrap();
        assert_eq!(
            parse_update(&vprop).unwrap(),
            Update::SetVertexProp {
                v: 7,
                key: "age".into(),
                value: PropValue::Int(42)
            }
        );
        let vertex = Json::parse(r#"{"op":"insert_vertex"}"#).unwrap();
        assert_eq!(
            parse_update(&vertex).unwrap(),
            Update::InsertVertex {
                label: VertexLabel(0)
            }
        );
    }

    #[test]
    fn rejects_malformed_updates() {
        for bad in [
            r#"{"src":1,"dst":2}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"insert_edge","src":-1,"dst":2}"#,
            r#"{"op":"set_vertex_prop","v":1,"key":"k","value":[1]}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(parse_update(&json).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn numbers_split_into_int_and_float() {
        assert_eq!(
            parse_prop_value(&Json::Num(3.0)).unwrap(),
            PropValue::Int(3)
        );
        assert_eq!(
            parse_prop_value(&Json::Num(3.5)).unwrap(),
            PropValue::Float(3.5)
        );
        // 2^63 has no exact i64: it stays a float instead of saturating to i64::MAX.
        let too_big = Json::parse("9223372036854775808").unwrap();
        assert_eq!(
            parse_prop_value(&too_big).unwrap(),
            PropValue::Float(9_223_372_036_854_775_808.0)
        );
    }
}
