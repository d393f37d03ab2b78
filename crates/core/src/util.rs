//! Small helpers for manipulating element state ([`Fields`]) in the SIFT
//! protocol elements.

use ree_armor::{Fields, Value};
use std::collections::BTreeMap;

/// Reads `fields[table][key]` as a nested map entry.
pub(crate) fn table_get<'a>(fields: &'a Fields, table: &str, key: &str) -> Option<&'a Value> {
    fields.get(table)?.as_map()?.get(key)
}

/// Inserts `fields[table][key] = value`, creating the table if needed.
pub(crate) fn table_set(fields: &mut Fields, table: &str, key: &str, value: Value) {
    match fields.get_mut(table) {
        Some(Value::Map(map)) => {
            map.insert(key.to_owned(), value);
        }
        _ => {
            let mut map = BTreeMap::new();
            map.insert(key.to_owned(), value);
            fields.set(table, Value::Map(map));
        }
    }
}

/// Removes `fields[table][key]`. An absent key leaves `fields` as it
/// was: not dirty, not unshared from a fork.
pub(crate) fn table_remove(fields: &mut Fields, table: &str, key: &str) -> Option<Value> {
    table_get(fields, table, key)?;
    match fields.get_mut(table) {
        Some(Value::Map(map)) => map.remove(key),
        _ => None,
    }
}

/// Iterates a table's keys (owned, so callers can mutate afterwards).
pub(crate) fn table_keys(fields: &Fields, table: &str) -> Vec<String> {
    fields
        .get(table)
        .and_then(Value::as_map)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default()
}

/// Builds a record (nested map value) from `(name, value)` pairs.
///
/// Every record automatically carries structural pointers (`fwd_ptr`,
/// `bwd_ptr`) modelling the forward/backward links of the list nodes the
/// paper describes (§7.2: "pointers that connect the various items of
/// the data structures, such as forward and backward pointers in
/// doubly-linked lists"). Untargeted heap flips therefore hit pointers
/// at a realistic rate, and "crash failures were most often caused by
/// segmentation faults raised when a corrupted pointer was dereferenced".
pub(crate) fn record(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    map.insert("fwd_ptr".to_owned(), ree_armor::valid_ptr(11));
    map.insert("bwd_ptr".to_owned(), ree_armor::valid_ptr(13));
    for (k, v) in pairs {
        map.insert(k.to_owned(), v);
    }
    Value::Map(map)
}

/// Reads a `u64` field of a record value.
pub(crate) fn rec_u64(rec: &Value, field: &str) -> Option<u64> {
    rec.as_map()?.get(field)?.as_u64()
}

/// Reads a string field of a record value.
pub(crate) fn rec_str<'a>(rec: &'a Value, field: &str) -> Option<&'a str> {
    rec.as_map()?.get(field)?.as_str()
}

/// Reads a bool field of a record value.
pub(crate) fn rec_bool(rec: &Value, field: &str) -> Option<bool> {
    rec.as_map()?.get(field)?.as_bool()
}

/// Updates one field of a record stored at `fields[table][key]`.
pub(crate) fn rec_set(
    fields: &mut Fields,
    table: &str,
    key: &str,
    field: &str,
    value: Value,
) -> bool {
    if let Some(Value::Map(map)) = fields.get_mut(table) {
        if let Some(Value::Map(rec)) = map.get_mut(key) {
            rec.insert(field.to_owned(), value);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut f = Fields::new();
        table_set(&mut f, "t", "a", Value::U64(1));
        table_set(&mut f, "t", "b", Value::U64(2));
        assert_eq!(table_get(&f, "t", "a").unwrap().as_u64(), Some(1));
        assert_eq!(table_keys(&f, "t"), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(table_remove(&mut f, "t", "a"), Some(Value::U64(1)));
        assert_eq!(table_keys(&f, "t"), vec!["b".to_owned()]);
        assert!(table_get(&f, "missing", "x").is_none());
    }

    #[test]
    fn removing_an_absent_key_leaves_the_state_clean() {
        let mut f = Fields::new();
        table_set(&mut f, "t", "a", Value::U64(1));
        f.take_dirty();
        assert_eq!(table_remove(&mut f, "t", "zz"), None);
        assert_eq!(table_remove(&mut f, "missing", "a"), None);
        assert!(!f.is_dirty());
        assert_eq!(table_remove(&mut f, "t", "a"), Some(Value::U64(1)));
        assert!(f.is_dirty());
    }

    #[test]
    fn record_accessors() {
        let r = record(vec![
            ("pid", Value::U64(9)),
            ("kind", Value::Str("exec".into())),
            ("ok", Value::Bool(true)),
        ]);
        assert_eq!(rec_u64(&r, "pid"), Some(9));
        assert_eq!(rec_str(&r, "kind"), Some("exec"));
        assert_eq!(rec_bool(&r, "ok"), Some(true));
        assert_eq!(rec_u64(&r, "nope"), None);
    }

    #[test]
    fn rec_set_updates_nested_field() {
        let mut f = Fields::new();
        table_set(&mut f, "t", "k", record(vec![("status", Value::Str("up".into()))]));
        assert!(rec_set(&mut f, "t", "k", "status", Value::Str("down".into())));
        assert_eq!(rec_str(table_get(&f, "t", "k").unwrap(), "status"), Some("down"));
        assert!(!rec_set(&mut f, "t", "zzz", "status", Value::U64(0)));
    }
}
