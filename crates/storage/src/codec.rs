//! Binary encoding for durable state (WAL records and snapshots).
//!
//! The workspace carries no serialization dependency, so this module
//! hand-rolls a little-endian, length-prefixed codec for exactly the
//! types the durability layer persists: scalar values, tuples, schemas,
//! key declarations, and materialized-view definitions (whose bodies
//! are expression trees over [`Col`]s). Integers are fixed-width —
//! simple beats compact at these data sizes — and every variable-length
//! field carries an explicit `u32` length, so a decoder can never read
//! past a corrupted boundary silently.
//!
//! Decode failures surface as [`AggViewError::Corrupt`] with the byte
//! offset *within the buffer being decoded*; the WAL/snapshot readers
//! re-base that offset to the absolute file position and fill in the
//! record index. Framing integrity (CRC) is the caller's job — the
//! codec only validates structure, and supplies the checksum: [`crc32`],
//! table-driven eight bytes at a time (slicing-by-8, Kounavis & Berry),
//! whose values are those of the bit-at-a-time definition.

use crate::keys::{ForeignKey, PrimaryKey};
use crate::matview::{ExtentLayout, MatViewDef, MatViewMeta};
use crate::table::{RowPatch, Table};
use aggview_common::{
    AggFunc, AggSpec, AggViewError, BinaryOp, CmpOp, Col, ColRef, ColumnVec, DataType, Expr, Field,
    Predicate, RelId, Result, Schema, Tuple, Value, ViewId,
};
use aggview_common::{AggRef, PartRef};
use std::sync::Arc;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through it, `CRC_TABLES[k][b]` after shifting `b`
/// and then `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice — the checksum used
/// by WAL record frames and snapshot bodies. Eight bytes per step, one
/// table lookup each; the tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// Byte-buffer writer. Infallible: encoding valid in-memory state
/// cannot fail.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Everything written so far, for a caller that reserved room up
    /// front and fills it in last (the WAL's frame header).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget everything written past the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn usizes(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for &i in v {
            self.u64(i as u64);
        }
    }

    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Byte-buffer reader tracking its position for corruption reports.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Byte offset of the next read within the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub fn corrupt(&self, message: impl Into<String>) -> AggViewError {
        AggViewError::Corrupt {
            offset: self.pos as u64,
            record: 0,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("{n}-byte field overruns the buffer")))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// Length prefix for a repeated field, sanity-bounded so a corrupt
    /// count cannot trigger a huge allocation.
    pub fn len(&mut self, what: &str) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(self.corrupt(format!("{what} count {n} exceeds remaining bytes")));
        }
        Ok(n)
    }

    pub fn usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.len("index list")?;
        (0..n).map(|_| Ok(self.u64()? as usize)).collect()
    }

    pub fn u64s(&mut self, what: &str) -> Result<Vec<u64>> {
        let n = self.len(what)?;
        (0..n).map(|_| self.u64()).collect()
    }
}

// ---- scalar values and tuples ---------------------------------------

pub fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int(i) => {
            e.u8(0);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(1);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(2);
            e.str(s);
        }
        Value::Bool(b) => {
            e.u8(3);
            e.u8(*b as u8);
        }
    }
}

pub fn dec_value(d: &mut Dec) -> Result<Value> {
    Ok(match d.u8()? {
        0 => Value::Int(d.i64()?),
        1 => Value::Float(d.f64()?),
        2 => Value::str(d.str()?),
        3 => Value::Bool(d.u8()? != 0),
        t => return Err(d.corrupt(format!("unknown value tag {t}"))),
    })
}

pub fn enc_tuple(e: &mut Enc, t: &Tuple) {
    e.u32(t.arity() as u32);
    for v in t.values() {
        enc_value(e, v);
    }
}

pub fn dec_tuple(d: &mut Dec) -> Result<Tuple> {
    let n = d.len("tuple arity")?;
    // Exact capacity, so `Tuple::new` boxes the values without a copy.
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(dec_value(d)?);
    }
    Ok(Tuple::new(vals))
}

pub fn enc_rows(e: &mut Enc, rows: &[Tuple]) {
    e.u32(rows.len() as u32);
    for r in rows {
        enc_tuple(e, r);
    }
}

/// A table as registration records and snapshots hold it: name, schema,
/// key declarations, then [`enc_rows`] of its rows — read from the
/// columns, cell by cell, so no row is materialized.
pub fn enc_table(e: &mut Enc, t: &Table) {
    e.str(t.name());
    enc_schema(e, t.schema());
    enc_primary_key(e, t.primary_key());
    enc_foreign_keys(e, t.foreign_keys());
    let cols: Vec<&ColumnVec> = (0..t.schema().len()).map(|p| t.column(p)).collect();
    e.u32(t.len() as u32);
    for i in 0..t.len() {
        e.u32(cols.len() as u32);
        for col in &cols {
            enc_value(e, &col.value_at(i));
        }
    }
}

/// Build the table [`enc_table`] wrote, row by row as they decode; one
/// the builder refuses (rows off the schema, a key twice) is corrupt.
pub fn dec_table(d: &mut Dec) -> Result<Arc<Table>> {
    let (name, schema) = (d.str()?, dec_schema(d)?);
    let (primary_key, foreign_keys) = (dec_primary_key(d)?, dec_foreign_keys(d)?);
    let refused = |d: &Dec, e: AggViewError| d.corrupt(e.message().to_string());
    let mut b =
        Table::restore(name, schema, primary_key, foreign_keys).map_err(|e| refused(d, e))?;
    for _ in 0..d.len("row count")? {
        b.push(dec_tuple(d)?).map_err(|e| refused(d, e))?;
    }
    b.build().map_err(|e| refused(d, e))
}

pub fn dec_rows(d: &mut Dec) -> Result<Vec<Tuple>> {
    let n = d.len("row count")?;
    (0..n).map(|_| dec_tuple(d)).collect()
}

pub fn enc_row_patch(e: &mut Enc, p: &RowPatch) {
    e.u32(p.updates.len() as u32);
    for (i, row) in &p.updates {
        e.u64(*i as u64);
        enc_tuple(e, row);
    }
    e.usizes(&p.deletes);
    enc_rows(e, &p.inserts);
}

pub fn dec_row_patch(d: &mut Dec) -> Result<RowPatch> {
    let n = d.len("updated row")?;
    let updates = (0..n)
        .map(|_| Ok((d.u64()? as usize, dec_tuple(d)?)))
        .collect::<Result<_>>()?;
    Ok(RowPatch {
        updates,
        deletes: d.usizes()?,
        inserts: dec_rows(d)?,
    })
}

// ---- schemas ---------------------------------------------------------

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn dec_dtype(d: &mut Dec) -> Result<DataType> {
    Ok(match d.u8()? {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        t => return Err(d.corrupt(format!("unknown data-type tag {t}"))),
    })
}

pub fn enc_schema(e: &mut Enc, s: &Schema) {
    e.u32(s.len() as u32);
    for f in s.fields() {
        e.str(&f.name);
        e.u8(dtype_tag(f.ty));
    }
}

pub fn dec_schema(d: &mut Dec) -> Result<Schema> {
    let n = d.len("schema field")?;
    let fields = (0..n)
        .map(|_| {
            let name = d.str()?;
            let ty = dec_dtype(d)?;
            Ok(Field::new(name, ty))
        })
        .collect::<Result<Vec<_>>>()?;
    Schema::new(fields).map_err(|e| d.corrupt(format!("invalid schema: {}", e.message())))
}

// ---- expression trees (materialized-view bodies) ----------------------

fn enc_col(e: &mut Enc, c: Col) {
    match c {
        Col::Base(ColRef { rel, col }) => {
            e.u8(0);
            e.u32(rel.0);
            e.u32(col);
        }
        Col::Agg(a) => {
            e.u8(1);
            enc_aggref(e, a);
        }
        Col::Part(p) => {
            e.u8(2);
            enc_aggref(e, p.agg);
            e.u32(p.part);
        }
    }
}

fn enc_aggref(e: &mut Enc, a: AggRef) {
    match a.owner {
        ViewId::View(i) => {
            e.u8(0);
            e.u32(i);
        }
        ViewId::Top => e.u8(1),
    }
    e.u32(a.idx);
}

fn dec_aggref(d: &mut Dec) -> Result<AggRef> {
    let owner = match d.u8()? {
        0 => ViewId::View(d.u32()?),
        1 => ViewId::Top,
        t => return Err(d.corrupt(format!("unknown view-id tag {t}"))),
    };
    Ok(AggRef::new(owner, d.u32()? as usize))
}

fn dec_col(d: &mut Dec) -> Result<Col> {
    Ok(match d.u8()? {
        0 => {
            let rel = RelId(d.u32()?);
            Col::Base(ColRef::new(rel, d.u32()? as usize))
        }
        1 => Col::Agg(dec_aggref(d)?),
        2 => {
            let agg = dec_aggref(d)?;
            Col::Part(PartRef {
                agg,
                part: d.u32()?,
            })
        }
        t => return Err(d.corrupt(format!("unknown column tag {t}"))),
    })
}

fn binop_tag(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Add => 0,
        BinaryOp::Sub => 1,
        BinaryOp::Mul => 2,
        BinaryOp::Div => 3,
    }
}

fn dec_binop(d: &mut Dec) -> Result<BinaryOp> {
    Ok(match d.u8()? {
        0 => BinaryOp::Add,
        1 => BinaryOp::Sub,
        2 => BinaryOp::Mul,
        3 => BinaryOp::Div,
        t => return Err(d.corrupt(format!("unknown binary-op tag {t}"))),
    })
}

pub fn enc_expr(e: &mut Enc, x: &Expr) {
    match x {
        Expr::Col(c) => {
            e.u8(0);
            enc_col(e, *c);
        }
        Expr::Const(v) => {
            e.u8(1);
            enc_value(e, v);
        }
        Expr::Binary { op, left, right } => {
            e.u8(2);
            e.u8(binop_tag(*op));
            enc_expr(e, left);
            enc_expr(e, right);
        }
    }
}

pub fn dec_expr(d: &mut Dec) -> Result<Expr> {
    Ok(match d.u8()? {
        0 => Expr::Col(dec_col(d)?),
        1 => Expr::Const(dec_value(d)?),
        2 => {
            let op = dec_binop(d)?;
            let left = dec_expr(d)?;
            let right = dec_expr(d)?;
            left.binary(op, right)
        }
        t => return Err(d.corrupt(format!("unknown expression tag {t}"))),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn dec_cmp(d: &mut Dec) -> Result<CmpOp> {
    Ok(match d.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(d.corrupt(format!("unknown comparison tag {t}"))),
    })
}

pub fn enc_predicate(e: &mut Enc, p: &Predicate) {
    enc_expr(e, &p.left);
    e.u8(cmp_tag(p.op));
    enc_expr(e, &p.right);
}

pub fn dec_predicate(d: &mut Dec) -> Result<Predicate> {
    let left = dec_expr(d)?;
    let op = dec_cmp(d)?;
    let right = dec_expr(d)?;
    Ok(Predicate::new(left, op, right))
}

fn aggfunc_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
        AggFunc::StdDev => 5,
    }
}

fn dec_aggfunc(d: &mut Dec) -> Result<AggFunc> {
    Ok(match d.u8()? {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        5 => AggFunc::StdDev,
        t => return Err(d.corrupt(format!("unknown aggregate tag {t}"))),
    })
}

pub fn enc_aggspec(e: &mut Enc, a: &AggSpec) {
    e.u8(aggfunc_tag(a.func));
    match &a.arg {
        Some(x) => {
            e.u8(1);
            enc_expr(e, x);
        }
        None => e.u8(0),
    }
}

pub fn dec_aggspec(d: &mut Dec) -> Result<AggSpec> {
    let func = dec_aggfunc(d)?;
    let arg = match d.u8()? {
        0 => None,
        1 => Some(dec_expr(d)?),
        t => return Err(d.corrupt(format!("unknown option tag {t}"))),
    };
    Ok(AggSpec { func, arg })
}

// ---- key declarations -------------------------------------------------

pub fn enc_primary_key(e: &mut Enc, pk: Option<&PrimaryKey>) {
    match pk {
        Some(k) => {
            e.u8(1);
            e.usizes(&k.cols);
        }
        None => e.u8(0),
    }
}

pub fn dec_primary_key(d: &mut Dec) -> Result<Option<PrimaryKey>> {
    Ok(match d.u8()? {
        0 => None,
        1 => {
            let cols = d.usizes()?;
            if cols.is_empty() {
                return Err(d.corrupt("primary key with zero columns"));
            }
            Some(PrimaryKey::new(cols))
        }
        t => return Err(d.corrupt(format!("unknown option tag {t}"))),
    })
}

pub fn enc_foreign_keys(e: &mut Enc, fks: &[ForeignKey]) {
    e.u32(fks.len() as u32);
    for fk in fks {
        e.usizes(&fk.cols);
        e.str(&fk.parent);
        e.usizes(&fk.parent_cols);
    }
}

pub fn dec_foreign_keys(d: &mut Dec) -> Result<Vec<ForeignKey>> {
    let n = d.len("foreign key")?;
    (0..n)
        .map(|_| {
            let cols = d.usizes()?;
            let parent = d.str()?;
            let parent_cols = d.usizes()?;
            if cols.is_empty() || cols.len() != parent_cols.len() {
                return Err(d.corrupt("foreign key column lists are malformed"));
            }
            Ok(ForeignKey::new(cols, parent, parent_cols))
        })
        .collect()
}

// ---- materialized-view metadata ---------------------------------------

fn enc_strs(e: &mut Enc, v: &[String]) {
    e.u32(v.len() as u32);
    for s in v {
        e.str(s);
    }
}

fn dec_strs(d: &mut Dec, what: &str) -> Result<Vec<String>> {
    let n = d.len(what)?;
    (0..n).map(|_| d.str()).collect()
}

pub fn enc_matview_def(e: &mut Enc, def: &MatViewDef) {
    e.str(&def.name);
    enc_strs(e, &def.tables);
    e.u32(def.preds.len() as u32);
    for p in &def.preds {
        enc_predicate(e, p);
    }
    e.u32(def.group_cols.len() as u32);
    for &c in &def.group_cols {
        enc_col(e, c);
    }
    e.u32(def.aggs.len() as u32);
    for a in &def.aggs {
        enc_aggspec(e, a);
    }
    enc_strs(e, &def.column_names);
}

pub fn dec_matview_def(d: &mut Dec) -> Result<MatViewDef> {
    let name = d.str()?;
    let tables = dec_strs(d, "view table")?;
    let n = d.len("view predicate")?;
    let preds = (0..n).map(|_| dec_predicate(d)).collect::<Result<_>>()?;
    let n = d.len("view group column")?;
    let group_cols = (0..n).map(|_| dec_col(d)).collect::<Result<_>>()?;
    let n = d.len("view aggregate")?;
    let aggs = (0..n).map(|_| dec_aggspec(d)).collect::<Result<_>>()?;
    let column_names = dec_strs(d, "view column name")?;
    let def = MatViewDef {
        name,
        tables,
        preds,
        group_cols,
        aggs,
        column_names,
    };
    def.validate()
        .map_err(|e| d.corrupt(format!("invalid view definition: {}", e.message())))?;
    Ok(def)
}

/// Encode a view's catalog metadata. The [`ExtentLayout`] is *not*
/// serialized: it is a pure function of the definition and is recomputed
/// on decode, so a snapshot can never carry a layout that disagrees with
/// its own definition.
pub fn enc_matview_meta(e: &mut Enc, meta: &MatViewMeta) {
    enc_matview_def(e, &meta.def);
    e.str(&meta.extent);
    e.u64s(&meta.base_versions);
}

pub fn dec_matview_meta(d: &mut Dec) -> Result<MatViewMeta> {
    let def = dec_matview_def(d)?;
    let extent = d.str()?;
    let base_versions = d.u64s("base version")?;
    if base_versions.len() != def.tables.len() {
        return Err(d.corrupt(format!(
            "view `{}` records {} base versions for {} tables",
            def.name,
            base_versions.len(),
            def.tables.len()
        )));
    }
    let layout = ExtentLayout::of(&def);
    Ok(MatViewMeta {
        def,
        extent,
        layout,
        base_versions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: PartialEq + std::fmt::Debug>(
        v: &T,
        enc: impl Fn(&mut Enc, &T),
        dec: impl Fn(&mut Dec) -> Result<T>,
    ) {
        let mut e = Enc::new();
        enc(&mut e, v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec(&mut d).unwrap();
        assert_eq!(&back, v);
        assert!(d.is_done(), "decoder must consume every byte for {v:?}");
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The CRC-32 definition, one bit at a time: what [`crc32`] must
    /// equal on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Pseudo-random bytes (xorshift64), the same on every run.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_by_table_equals_the_bitwise_definition() {
        let bytes = noise(1 << 20);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "at {start}, {len} bytes"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn values_round_trip() {
        for v in [
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NEG_INFINITY),
            Value::str("héllo"),
            Value::str(""),
            Value::Bool(true),
        ] {
            round_trip(&v, enc_value, dec_value);
        }
    }

    #[test]
    fn tuples_and_schemas_round_trip() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]);
        round_trip(&t, enc_tuple, dec_tuple);
        let s = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("ok", DataType::Bool),
            ("w", DataType::Float),
        ]);
        round_trip(&s, enc_schema, dec_schema);
    }

    #[test]
    fn expressions_and_predicates_round_trip() {
        let x = Expr::col(Col::base(RelId(3), 2)).binary(
            BinaryOp::Mul,
            Expr::val(Value::Float(1.5)).binary(BinaryOp::Add, Expr::col(Col::agg(ViewId::Top, 1))),
        );
        round_trip(&x, enc_expr, dec_expr);
        let p = Predicate::new(
            x.clone(),
            CmpOp::Ge,
            Expr::col(Col::part(AggRef::new(ViewId::View(2), 0), 1)),
        );
        round_trip(&p, enc_predicate, dec_predicate);
        round_trip(&AggSpec::count_star(), enc_aggspec, dec_aggspec);
        round_trip(
            &AggSpec::new(AggFunc::StdDev, Expr::col(Col::base(RelId(0), 4))),
            enc_aggspec,
            dec_aggspec,
        );
    }

    #[test]
    fn truncated_buffers_report_corruption_not_panic() {
        let mut e = Enc::new();
        enc_tuple(
            &mut e,
            &Tuple::new(vec![Value::str("abcdef"), Value::Int(1)]),
        );
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let err = dec_tuple(&mut Dec::new(&bytes[..cut])).unwrap_err();
            assert_eq!(err.kind(), "corrupt", "cut at {cut}");
        }
    }

    #[test]
    fn bogus_tags_and_counts_are_corruption() {
        let err = dec_value(&mut Dec::new(&[9])).unwrap_err();
        assert!(err.message().contains("unknown value tag"));
        // A row count far larger than the buffer is rejected before
        // any allocation.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let err = dec_rows(&mut Dec::new(&e.into_bytes())).unwrap_err();
        assert!(err.message().contains("exceeds remaining"));
        // Non-UTF-8 string bytes.
        let mut e = Enc::new();
        e.u32(2);
        e.u8(0xFF);
        e.u8(0xFE);
        let err = Dec::new(&e.into_bytes()).str().unwrap_err();
        assert!(err.message().contains("UTF-8"));
    }

    #[test]
    fn row_patches_round_trip() {
        round_trip(&RowPatch::default(), enc_row_patch, dec_row_patch);
        let patch = RowPatch {
            updates: vec![(3, Tuple::new(vec![Value::Int(1), Value::Float(2.5)]))],
            deletes: vec![0, 7],
            inserts: vec![Tuple::new(vec![Value::Int(9), Value::Float(0.0)])],
        };
        round_trip(&patch, enc_row_patch, dec_row_patch);
    }

    #[test]
    fn usize_lists_round_trip() {
        let mut e = Enc::new();
        e.usizes(&[0, 7, 42]);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).usizes().unwrap(), vec![0, 7, 42]);
    }

    #[test]
    fn keys_round_trip() {
        let enc = |e: &mut Enc, pk: &Option<PrimaryKey>| enc_primary_key(e, pk.as_ref());
        round_trip(&None, enc, dec_primary_key);
        round_trip(&Some(PrimaryKey::new(vec![0, 2])), enc, dec_primary_key);
        let fks = vec![
            ForeignKey::new(vec![1], "dept", vec![0]),
            ForeignKey::new(vec![2, 3], "proj", vec![0, 1]),
        ];
        round_trip(&fks, |e, v| enc_foreign_keys(e, v), dec_foreign_keys);
    }

    fn sample_def() -> MatViewDef {
        MatViewDef {
            name: "a1".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![Predicate::new(
                Expr::col(Col::base(RelId(0), 1)),
                CmpOp::Eq,
                Expr::col(Col::base(RelId(1), 0)),
            )],
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), 2))),
                AggSpec::count_star(),
            ],
            column_names: vec!["dno".into(), "asal".into(), "n".into()],
        }
    }

    #[test]
    fn matview_def_and_meta_round_trip() {
        let def = sample_def();
        round_trip(&def, enc_matview_def, dec_matview_def);
        let meta = MatViewMeta {
            layout: ExtentLayout::of(&def),
            extent: MatViewMeta::extent_name(&def.name),
            base_versions: vec![3, 1],
            def,
        };
        round_trip(&meta, enc_matview_meta, dec_matview_meta);
    }

    #[test]
    fn matview_meta_layout_is_recomputed_and_versions_checked() {
        let def = sample_def();
        let meta = MatViewMeta {
            layout: ExtentLayout::of(&def),
            extent: "__mv_a1".into(),
            // Wrong arity: 2 tables but 1 version.
            base_versions: vec![3],
            def,
        };
        let mut e = Enc::new();
        enc_matview_meta(&mut e, &meta);
        let bytes = e.into_bytes();
        let err = dec_matview_meta(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.message().contains("base versions"), "{err}");
    }

    #[test]
    fn invalid_decoded_view_definition_is_corruption() {
        let mut def = sample_def();
        def.column_names.pop(); // arity now wrong
        let mut e = Enc::new();
        enc_matview_def(&mut e, &def);
        let bytes = e.into_bytes();
        let err = dec_matview_def(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.message().contains("invalid view definition"), "{err}");
    }
}
