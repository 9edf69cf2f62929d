//! Typed schemas, values and row codecs.
//!
//! The paper's relations are narrow and string-heavy
//! (`R[tid, A1, …, An]` with varchar columns; the ETI has two small
//! integers, a counter and a blob of tids), so the type system is
//! deliberately small: text, unsigned integers, raw bytes, and NULL —
//! NULLs matter because the paper's error model injects missing values and
//! the ETI stores NULL tid-lists for stop q-grams.
//!
//! Row encoding: a null bitmap followed by the non-null column values;
//! variable-length values carry a `u32` length prefix, integers are
//! fixed-width little-endian.

use crate::error::{Result, StoreError};

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// UTF-8 string (`varchar`).
    Text,
    /// 32-bit unsigned integer (tids, frequencies, coordinates).
    U32,
    /// 64-bit unsigned integer.
    U64,
    /// Raw bytes (the ETI's packed tid-lists).
    Bytes,
}

impl ColumnType {
    fn code(self) -> u8 {
        match self {
            ColumnType::Text => 0,
            ColumnType::U32 => 1,
            ColumnType::U64 => 2,
            ColumnType::Bytes => 3,
        }
    }

    fn from_code(c: u8) -> Result<ColumnType> {
        Ok(match c {
            0 => ColumnType::Text,
            1 => ColumnType::U32,
            2 => ColumnType::U64,
            3 => ColumnType::Bytes,
            other => return Err(StoreError::Corrupt(format!("bad column type {other}"))),
        })
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    pub nullable: bool,
}

/// A table schema: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from `(name, type, nullable)` triples.
    pub fn new(columns: Vec<(&str, ColumnType, bool)>) -> Schema {
        Schema {
            columns: columns
                .into_iter()
                .map(|(name, ty, nullable)| ColumnDef {
                    name: name.to_string(),
                    ty,
                    nullable,
                })
                .collect(),
        }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate a row against this schema.
    pub fn check(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StoreError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.columns) {
            match value {
                Value::Null if !col.nullable => {
                    return Err(StoreError::SchemaMismatch(format!(
                        "null in non-nullable column {}",
                        col.name
                    )))
                }
                Value::Null => {}
                v if v.column_type() != Some(col.ty) => {
                    return Err(StoreError::SchemaMismatch(format!(
                        "column {} expects {:?}, got {v:?}",
                        col.name, col.ty
                    )))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Serialize the schema (used by the catalog).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.columns.len() as u16).to_le_bytes());
        for col in &self.columns {
            let name = col.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.push(col.ty.code());
            out.push(u8::from(col.nullable));
        }
        out
    }

    /// Deserialize a schema written by [`Schema::encode`].
    pub fn decode(mut input: &[u8]) -> Result<Schema> {
        let take = |input: &mut &[u8], n: usize| -> Result<Vec<u8>> {
            if input.len() < n {
                return Err(StoreError::Corrupt("truncated schema".into()));
            }
            let (head, rest) = input.split_at(n);
            *input = rest;
            Ok(head.to_vec())
        };
        let n = u16::from_le_bytes(arr(&take(&mut input, 2)?)?) as usize;
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let name_len = u16::from_le_bytes(arr(&take(&mut input, 2)?)?) as usize;
            let name = String::from_utf8(take(&mut input, name_len)?)
                .map_err(|_| StoreError::Corrupt("schema name not utf-8".into()))?;
            let ty = ColumnType::from_code(take(&mut input, 1)?[0])?;
            let nullable = take(&mut input, 1)?[0] != 0;
            columns.push(ColumnDef { name, ty, nullable });
        }
        Ok(Schema { columns })
    }
}

/// Exact-`N` slice → array as a corruption error rather than a panic;
/// cannot fire after a successful `take(N)`.
fn arr<const N: usize>(bytes: &[u8]) -> Result<[u8; N]> {
    bytes
        .try_into()
        .map_err(|_| StoreError::Corrupt("bad fixed-width field".into()))
}

/// A typed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Null,
    Text(String),
    U32(u32),
    U64(u64),
    Bytes(Vec<u8>),
}

impl Value {
    fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Text(_) => Some(ColumnType::Text),
            Value::U32(_) => Some(ColumnType::U32),
            Value::U64(_) => Some(ColumnType::U64),
            Value::Bytes(_) => Some(ColumnType::Bytes),
        }
    }

    /// The text content, or `None` for NULL. Errors on non-text values are
    /// the caller's lookout (`as_text` on a `U32` is a logic bug → panic in
    /// debug via `expect` at call sites that require text).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// Encode a row under `schema`. The row must satisfy [`Schema::check`].
pub fn encode_row(schema: &Schema, row: &Row) -> Result<Vec<u8>> {
    schema.check(row)?;
    let bitmap_len = schema.arity().div_ceil(8);
    let mut out = vec![0u8; bitmap_len];
    for (i, value) in row.iter().enumerate() {
        if value.is_null() {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    for value in row {
        match value {
            Value::Null => {}
            Value::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::U32(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
    Ok(out)
}

/// Decode a row encoded by [`encode_row`].
pub fn decode_row(schema: &Schema, input: &[u8]) -> Result<Row> {
    let mut row = Vec::with_capacity(schema.arity());
    decode_row_into(schema, input, &mut row)?;
    Ok(row)
}

/// [`decode_row`] into `row`, reusing the strings of the text values it
/// already holds.
pub(crate) fn decode_row_into(schema: &Schema, mut input: &[u8], row: &mut Row) -> Result<()> {
    let bitmap_len = schema.arity().div_ceil(8);
    if input.len() < bitmap_len {
        return Err(StoreError::Corrupt("row shorter than null bitmap".into()));
    }
    let (bitmap, rest) = input.split_at(bitmap_len);
    input = rest;
    let mut take = |n: usize| -> Result<&[u8]> {
        if input.len() < n {
            return Err(StoreError::Corrupt("truncated row".into()));
        }
        let (head, rest) = input.split_at(n);
        input = rest;
        Ok(head)
    };
    row.resize(schema.arity(), Value::Null);
    for (i, (col, value)) in schema.columns().iter().zip(row.iter_mut()).enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            *value = Value::Null;
            continue;
        }
        *value = match col.ty {
            ColumnType::Text => {
                let len = u32::from_le_bytes(arr(take(4)?)?) as usize;
                let text = std::str::from_utf8(take(len)?)
                    .map_err(|_| StoreError::Corrupt("text value not utf-8".into()))?;
                if let Value::Text(s) = value {
                    s.clear();
                    s.push_str(text);
                    continue;
                }
                Value::Text(text.to_owned())
            }
            ColumnType::Bytes => {
                let len = u32::from_le_bytes(arr(take(4)?)?) as usize;
                Value::Bytes(take(len)?.to_vec())
            }
            ColumnType::U32 => Value::U32(u32::from_le_bytes(arr(take(4)?)?)),
            ColumnType::U64 => Value::U64(u64::from_le_bytes(arr(take(8)?)?)),
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_schema() -> Schema {
        Schema::new(vec![
            ("tid", ColumnType::U32, false),
            ("name", ColumnType::Text, false),
            ("city", ColumnType::Text, true),
            ("state", ColumnType::Text, true),
            ("zip", ColumnType::Text, true),
        ])
    }

    #[test]
    fn row_round_trip() {
        let schema = customer_schema();
        let row: Row = vec![
            Value::U32(1),
            Value::Text("Boeing Company".into()),
            Value::Text("Seattle".into()),
            Value::Text("WA".into()),
            Value::Text("98004".into()),
        ];
        let enc = encode_row(&schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &enc).unwrap(), row);
    }

    #[test]
    fn null_round_trip() {
        let schema = customer_schema();
        let row: Row = vec![
            Value::U32(4),
            Value::Text("Company Beoing".into()),
            Value::Text("Seattle".into()),
            Value::Null, // the paper's I4 has a NULL state
            Value::Text("98014".into()),
        ];
        let enc = encode_row(&schema, &row).unwrap();
        let dec = decode_row(&schema, &enc).unwrap();
        assert_eq!(dec, row);
        assert!(dec[3].is_null());
    }

    #[test]
    fn all_types_round_trip() {
        let schema = Schema::new(vec![
            ("t", ColumnType::Text, true),
            ("a", ColumnType::U32, true),
            ("b", ColumnType::U64, true),
            ("raw", ColumnType::Bytes, true),
        ]);
        let row: Row = vec![
            Value::Text("".into()),
            Value::U32(u32::MAX),
            Value::U64(u64::MAX),
            Value::Bytes(vec![0, 255, 0, 1]),
        ];
        let enc = encode_row(&schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &enc).unwrap(), row);
        let nulls: Row = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        let enc = encode_row(&schema, &nulls).unwrap();
        assert_eq!(decode_row(&schema, &enc).unwrap(), nulls);
    }

    #[test]
    fn wide_schema_bitmap() {
        // More than 8 columns exercises the multi-byte null bitmap.
        let cols: Vec<(String, ColumnType, bool)> = (0..12)
            .map(|i| (format!("c{i}"), ColumnType::U32, true))
            .collect();
        let schema = Schema {
            columns: cols
                .into_iter()
                .map(|(name, ty, nullable)| ColumnDef { name, ty, nullable })
                .collect(),
        };
        let row: Row = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::U32(i)
                }
            })
            .collect();
        let enc = encode_row(&schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &enc).unwrap(), row);
    }

    #[test]
    fn schema_mismatches_rejected() {
        let schema = customer_schema();
        // Wrong arity.
        assert!(matches!(
            encode_row(&schema, &vec![Value::U32(1)]),
            Err(StoreError::SchemaMismatch(_))
        ));
        // Null in non-nullable column.
        let row: Row = vec![
            Value::Null,
            Value::Text("x".into()),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        assert!(matches!(
            encode_row(&schema, &row),
            Err(StoreError::SchemaMismatch(_))
        ));
        // Wrong type.
        let row: Row = vec![
            Value::Text("not a u32".into()),
            Value::Text("x".into()),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        assert!(matches!(
            encode_row(&schema, &row),
            Err(StoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn truncated_row_detected() {
        let schema = customer_schema();
        let row: Row = vec![
            Value::U32(1),
            Value::Text("Boeing".into()),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        let enc = encode_row(&schema, &row).unwrap();
        for cut in [0, 1, enc.len() - 1] {
            assert!(decode_row(&schema, &enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn schema_encode_decode_round_trip() {
        let schema = customer_schema();
        let enc = schema.encode();
        let dec = Schema::decode(&enc).unwrap();
        assert_eq!(dec, schema);
        assert_eq!(dec.column_index("zip"), Some(4));
        assert_eq!(dec.column_index("missing"), None);
    }

    #[test]
    fn schema_decode_rejects_garbage() {
        assert!(Schema::decode(&[]).is_err());
        assert!(Schema::decode(&[9, 0, 1]).is_err());
    }
}
