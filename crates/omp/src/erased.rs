//! Type-erased, tag-dispatched buffers.
//!
//! A data environment holds buffers of several element types; the runtime
//! moves them around without knowing the type statically, while kernel
//! bodies get strongly typed views. [`ErasedVec`] is the bridge: an enum
//! over the supported [`Pod`] element types with tag-dispatched bulk
//! operations (serialize, merge, reduce).

use crate::pod::{extend_le_bytes, from_le_bytes, to_le_bytes, Pod, TypeTag};
use std::ops::Range;
use std::sync::Arc;

/// Reduction operators supported by the runtime.
///
/// `BitOr` is the paper's default output-combination operator (Eq. 8): each
/// worker returns a full-size buffer where untouched elements are all-zero
/// bits, and a bitwise OR stitches the disjoint writes together. The other
/// operators implement the OpenMP `reduction(...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// Bitwise OR of the wire representation (disjoint-write stitching).
    BitOr,
    /// `+` reduction.
    Sum,
    /// `*` reduction.
    Prod,
    /// `min` reduction.
    Min,
    /// `max` reduction.
    Max,
}

impl std::fmt::Display for RedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RedOp::BitOr => "bitor",
            RedOp::Sum => "+",
            RedOp::Prod => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Element-type behaviour needed by reductions. Private to the crate;
/// users only see [`Pod`].
pub(crate) trait Num: Pod {
    fn identity(op: RedOp) -> Self;
    fn combine(op: RedOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_num_int {
    ($($ty:ty),*) => {$(
        impl Num for $ty {
            fn identity(op: RedOp) -> Self {
                match op {
                    RedOp::BitOr | RedOp::Sum => 0,
                    RedOp::Prod => 1,
                    RedOp::Min => <$ty>::MAX,
                    RedOp::Max => <$ty>::MIN,
                }
            }
            fn combine(op: RedOp, a: Self, b: Self) -> Self {
                match op {
                    RedOp::BitOr => a | b,
                    RedOp::Sum => a.wrapping_add(b),
                    RedOp::Prod => a.wrapping_mul(b),
                    RedOp::Min => a.min(b),
                    RedOp::Max => a.max(b),
                }
            }
        }
    )*};
}

macro_rules! impl_num_float {
    ($($ty:ty => $bits:ty),*) => {$(
        impl Num for $ty {
            fn identity(op: RedOp) -> Self {
                match op {
                    RedOp::BitOr | RedOp::Sum => 0.0,
                    RedOp::Prod => 1.0,
                    RedOp::Min => <$ty>::INFINITY,
                    RedOp::Max => <$ty>::NEG_INFINITY,
                }
            }
            fn combine(op: RedOp, a: Self, b: Self) -> Self {
                match op {
                    RedOp::BitOr => <$ty>::from_bits(a.to_bits() | b.to_bits()),
                    RedOp::Sum => a + b,
                    RedOp::Prod => a * b,
                    RedOp::Min => a.min(b),
                    RedOp::Max => a.max(b),
                }
            }
        }
    )*};
}

impl_num_int!(i32, i64, u8, u16, u32, u64);
impl_num_float!(f32 => u32, f64 => u64);

/// A buffer of one of the supported element types, erased behind an enum.
#[derive(Debug, Clone, PartialEq)]
pub enum ErasedVec {
    /// `f32` elements.
    F32(Vec<f32>),
    /// `f64` elements.
    F64(Vec<f64>),
    /// `i32` elements.
    I32(Vec<i32>),
    /// `i64` elements.
    I64(Vec<i64>),
    /// `u8` elements.
    U8(Vec<u8>),
    /// `u16` elements.
    U16(Vec<u16>),
    /// `u32` elements.
    U32(Vec<u32>),
    /// `u64` elements.
    U64(Vec<u64>),
}

macro_rules! dispatch {
    ($self:expr, $v:ident => $body:expr) => {
        match $self {
            ErasedVec::F32($v) => $body,
            ErasedVec::F64($v) => $body,
            ErasedVec::I32($v) => $body,
            ErasedVec::I64($v) => $body,
            ErasedVec::U8($v) => $body,
            ErasedVec::U16($v) => $body,
            ErasedVec::U32($v) => $body,
            ErasedVec::U64($v) => $body,
        }
    };
}

macro_rules! dispatch_pair {
    ($a:expr, $b:expr, $x:ident, $y:ident => $body:expr, $mismatch:expr) => {
        match ($a, $b) {
            (ErasedVec::F32($x), ErasedVec::F32($y)) => $body,
            (ErasedVec::F64($x), ErasedVec::F64($y)) => $body,
            (ErasedVec::I32($x), ErasedVec::I32($y)) => $body,
            (ErasedVec::I64($x), ErasedVec::I64($y)) => $body,
            (ErasedVec::U8($x), ErasedVec::U8($y)) => $body,
            (ErasedVec::U16($x), ErasedVec::U16($y)) => $body,
            (ErasedVec::U32($x), ErasedVec::U32($y)) => $body,
            (ErasedVec::U64($x), ErasedVec::U64($y)) => $body,
            _ => $mismatch,
        }
    };
}

impl ErasedVec {
    /// Build an erased buffer from a typed vector.
    pub fn from_vec<T: Pod>(v: Vec<T>) -> ErasedVec {
        // Pod impls and enum variants are in 1:1 correspondence; route the
        // vector into its variant through `Any` (a no-op at runtime beyond
        // the TypeId check).
        let mut any: Box<dyn std::any::Any> = Box::new(v);
        macro_rules! take {
            ($variant:ident, $ty:ty) => {
                ErasedVec::$variant(std::mem::take(
                    any.downcast_mut::<Vec<$ty>>().expect("tag/variant 1:1"),
                ))
            };
        }
        match T::TAG {
            TypeTag::F32 => take!(F32, f32),
            TypeTag::F64 => take!(F64, f64),
            TypeTag::I32 => take!(I32, i32),
            TypeTag::I64 => take!(I64, i64),
            TypeTag::U8 => take!(U8, u8),
            TypeTag::U16 => take!(U16, u16),
            TypeTag::U32 => take!(U32, u32),
            TypeTag::U64 => take!(U64, u64),
        }
    }

    /// A buffer of `len` reduction identities for `op`.
    pub fn identity(tag: TypeTag, len: usize, op: RedOp) -> ErasedVec {
        match tag {
            TypeTag::F32 => ErasedVec::F32(vec![<f32 as Num>::identity(op); len]),
            TypeTag::F64 => ErasedVec::F64(vec![<f64 as Num>::identity(op); len]),
            TypeTag::I32 => ErasedVec::I32(vec![<i32 as Num>::identity(op); len]),
            TypeTag::I64 => ErasedVec::I64(vec![<i64 as Num>::identity(op); len]),
            TypeTag::U8 => ErasedVec::U8(vec![<u8 as Num>::identity(op); len]),
            TypeTag::U16 => ErasedVec::U16(vec![<u16 as Num>::identity(op); len]),
            TypeTag::U32 => ErasedVec::U32(vec![<u32 as Num>::identity(op); len]),
            TypeTag::U64 => ErasedVec::U64(vec![<u64 as Num>::identity(op); len]),
        }
    }

    /// Runtime type tag of the elements.
    pub fn tag(&self) -> TypeTag {
        match self {
            ErasedVec::F32(_) => TypeTag::F32,
            ErasedVec::F64(_) => TypeTag::F64,
            ErasedVec::I32(_) => TypeTag::I32,
            ErasedVec::I64(_) => TypeTag::I64,
            ErasedVec::U8(_) => TypeTag::U8,
            ErasedVec::U16(_) => TypeTag::U16,
            ErasedVec::U32(_) => TypeTag::U32,
            ErasedVec::U64(_) => TypeTag::U64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        dispatch!(self, v => v.len())
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the wire form in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * self.tag().elem_size()
    }

    /// Serialize the whole buffer to little-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        dispatch!(self, v => to_le_bytes(v))
    }

    /// Serialize an element range to little-endian bytes.
    ///
    /// Panics if the range is out of bounds (caller validates partitions).
    pub fn range_to_bytes(&self, range: Range<usize>) -> Vec<u8> {
        dispatch!(self, v => to_le_bytes(&v[range]))
    }

    /// Append the whole buffer's wire form to `out` — the allocation-free
    /// path used when serializing into a pooled staging buffer.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        dispatch!(self, v => extend_le_bytes(v, out))
    }

    /// Append an element range's wire form to `out`.
    ///
    /// Panics if the range is out of bounds (caller validates partitions).
    pub fn write_range_bytes_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        dispatch!(self, v => extend_le_bytes(&v[range], out))
    }

    /// Deserialize a wire buffer of the given element type.
    pub fn from_bytes(tag: TypeTag, bytes: &[u8]) -> ErasedVec {
        match tag {
            TypeTag::F32 => ErasedVec::F32(from_le_bytes(bytes)),
            TypeTag::F64 => ErasedVec::F64(from_le_bytes(bytes)),
            TypeTag::I32 => ErasedVec::I32(from_le_bytes(bytes)),
            TypeTag::I64 => ErasedVec::I64(from_le_bytes(bytes)),
            TypeTag::U8 => ErasedVec::U8(from_le_bytes(bytes)),
            TypeTag::U16 => ErasedVec::U16(from_le_bytes(bytes)),
            TypeTag::U32 => ErasedVec::U32(from_le_bytes(bytes)),
            TypeTag::U64 => ErasedVec::U64(from_le_bytes(bytes)),
        }
    }

    /// Copy an element range out as a new erased buffer.
    pub fn slice_copy(&self, range: Range<usize>) -> ErasedVec {
        dispatch!(self, v => ErasedVec::from_vec(v[range].to_vec()))
    }

    /// Overwrite `self[offset .. offset + src.len()]` with `src`
    /// (the "reconstruct by indexed write" path of Eq. 8).
    ///
    /// Panics on tag mismatch or out-of-bounds writes; both indicate plan
    /// construction bugs and are checked by the plug-in before execution.
    pub fn write_at(&mut self, offset: usize, src: &ErasedVec) {
        let (dst_tag, src_tag) = (self.tag(), src.tag());
        dispatch_pair!(self, src, dst, s => {
            dst[offset..offset + s.len()].copy_from_slice(s);
        }, panic!("write_at: element type mismatch ({dst_tag} vs {src_tag})"))
    }

    /// Elementwise in-place reduction `self[i] = op(self[i], other[i])`.
    ///
    /// Panics on tag or length mismatch.
    pub fn reduce_assign(&mut self, other: &ErasedVec, op: RedOp) {
        assert_eq!(self.len(), other.len(), "reduce_assign: length mismatch");
        let (dst_tag, src_tag) = (self.tag(), other.tag());
        dispatch_pair!(self, other, a, b => {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x = Num::combine(op, *x, *y);
            }
        }, panic!("reduce_assign: element type mismatch ({dst_tag} vs {src_tag})"))
    }

    /// Borrow as a typed slice; `None` when `T` is not the stored type.
    pub fn as_slice<T: Pod>(&self) -> Option<&[T]> {
        dispatch!(self, v => (v as &dyn std::any::Any).downcast_ref::<Vec<T>>().map(Vec::as_slice))
    }

    /// Borrow as a mutable typed slice; `None` when `T` is not the stored
    /// type.
    pub fn as_mut_slice<T: Pod>(&mut self) -> Option<&mut [T]> {
        dispatch!(self, v => (v as &mut dyn std::any::Any)
            .downcast_mut::<Vec<T>>()
            .map(Vec::as_mut_slice))
    }
}

/// A zero-copy view of an element range of a shared [`ErasedVec`].
///
/// Tiling the iteration space used to carve one `slice_copy` per tile out
/// of every partitioned input — O(input bytes) of memcpy before the first
/// task could even be dispatched. An `ErasedSlice` instead shares the
/// driver's buffer through an `Arc` and carries only the element range,
/// so building a tile's RDD_IN row is O(1) regardless of buffer size.
#[derive(Debug, Clone)]
pub struct ErasedSlice {
    buf: Arc<ErasedVec>,
    range: Range<usize>,
}

impl ErasedSlice {
    /// View `buf[range]` without copying.
    ///
    /// Panics when the range is out of bounds or reversed — a plan
    /// construction bug, same contract as [`ErasedVec::range_to_bytes`].
    pub fn new(buf: Arc<ErasedVec>, range: Range<usize>) -> ErasedSlice {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "ErasedSlice: range {range:?} out of bounds for buffer of {} elements",
            buf.len()
        );
        ErasedSlice { buf, range }
    }

    /// View the whole of `buf`.
    pub fn full(buf: Arc<ErasedVec>) -> ErasedSlice {
        let range = 0..buf.len();
        ErasedSlice { buf, range }
    }

    /// Runtime type tag of the elements.
    pub fn tag(&self) -> TypeTag {
        self.buf.tag()
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.range.end - self.range.start
    }

    /// True when the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Size of the viewed range's wire form in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * self.tag().elem_size()
    }

    /// The viewed element range of the underlying buffer.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Borrow the viewed range as a typed slice; `None` when `T` is not
    /// the stored type.
    pub fn as_slice<T: Pod>(&self) -> Option<&[T]> {
        self.buf.as_slice::<T>().map(|s| &s[self.range.clone()])
    }

    /// Copy the viewed range out as a new erased buffer.
    pub fn to_vec(&self) -> ErasedVec {
        self.buf.slice_copy(self.range.clone())
    }

    /// Serialize the viewed range to little-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.buf.range_to_bytes(self.range.clone())
    }

    /// Append the viewed range's wire form to `out` — lets tile encoding
    /// serialize straight into a pooled staging buffer without an
    /// intermediate allocation.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        self.buf.write_range_bytes_into(self.range.clone(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrips_type() {
        let e = ErasedVec::from_vec(vec![1.5f32, -2.0]);
        assert_eq!(e.tag(), TypeTag::F32);
        assert_eq!(e.as_slice::<f32>().unwrap(), &[1.5, -2.0]);
        assert!(e.as_slice::<f64>().is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let e = ErasedVec::from_vec(vec![7i64, -9, 0]);
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), 24);
        assert_eq!(ErasedVec::from_bytes(TypeTag::I64, &bytes), e);
    }

    #[test]
    fn write_bytes_into_matches_to_bytes() {
        let e = ErasedVec::from_vec((0..10u32).collect::<Vec<_>>());
        let mut out = vec![0xAA; 3]; // pre-existing bytes must survive
        e.write_bytes_into(&mut out);
        assert_eq!(out[..3], [0xAA; 3]);
        assert_eq!(&out[3..], e.to_bytes().as_slice());

        let slice = ErasedSlice::new(Arc::new(e), 2..7);
        let mut out2 = Vec::new();
        slice.write_bytes_into(&mut out2);
        assert_eq!(out2, slice.to_bytes());
    }

    #[test]
    fn range_to_bytes_matches_slice_copy() {
        let e = ErasedVec::from_vec((0..10u32).collect::<Vec<_>>());
        let bytes = e.range_to_bytes(3..7);
        let sliced = e.slice_copy(3..7);
        assert_eq!(ErasedVec::from_bytes(TypeTag::U32, &bytes), sliced);
    }

    #[test]
    fn write_at_places_partition() {
        let mut full = ErasedVec::identity(TypeTag::F32, 8, RedOp::BitOr);
        let part = ErasedVec::from_vec(vec![1.0f32, 2.0]);
        full.write_at(4, &part);
        assert_eq!(
            full.as_slice::<f32>().unwrap(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0]
        );
    }

    #[test]
    fn bitor_merges_disjoint_float_writes() {
        // Two workers each wrote half of the output; untouched elements are
        // zero bits, so OR-ing reconstructs the full array (Eq. 8).
        let mut a = ErasedVec::from_vec(vec![1.5f32, 0.0, 0.0, 0.0]);
        let b = ErasedVec::from_vec(vec![0.0f32, 0.0, -3.25, 8.0]);
        a.reduce_assign(&b, RedOp::BitOr);
        assert_eq!(a.as_slice::<f32>().unwrap(), &[1.5, 0.0, -3.25, 8.0]);
    }

    #[test]
    fn sum_reduction() {
        let mut a = ErasedVec::from_vec(vec![1.0f64, 2.0]);
        let b = ErasedVec::from_vec(vec![10.0f64, 20.0]);
        a.reduce_assign(&b, RedOp::Sum);
        assert_eq!(a.as_slice::<f64>().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    fn min_max_identities() {
        let id_min = ErasedVec::identity(TypeTag::I32, 2, RedOp::Min);
        assert_eq!(id_min.as_slice::<i32>().unwrap(), &[i32::MAX, i32::MAX]);
        let id_max = ErasedVec::identity(TypeTag::F32, 1, RedOp::Max);
        assert_eq!(id_max.as_slice::<f32>().unwrap(), &[f32::NEG_INFINITY]);
    }

    #[test]
    fn identity_is_neutral_for_all_ops_and_types() {
        let probe = ErasedVec::from_vec(vec![3i32, -7, 0, i32::MAX]);
        for op in [
            RedOp::BitOr,
            RedOp::Sum,
            RedOp::Prod,
            RedOp::Min,
            RedOp::Max,
        ] {
            let mut acc = ErasedVec::identity(TypeTag::I32, probe.len(), op);
            acc.reduce_assign(&probe, op);
            assert_eq!(acc, probe, "op {op}");
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mixed_type_reduce_panics() {
        let mut a = ErasedVec::from_vec(vec![1.0f32]);
        let b = ErasedVec::from_vec(vec![1.0f64]);
        a.reduce_assign(&b, RedOp::Sum);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mixed_len_reduce_panics() {
        let mut a = ErasedVec::from_vec(vec![1.0f32]);
        let b = ErasedVec::from_vec(vec![1.0f32, 2.0]);
        a.reduce_assign(&b, RedOp::Sum);
    }

    #[test]
    fn erased_slice_views_without_copying() {
        let buf = Arc::new(ErasedVec::from_vec((0..10u32).collect::<Vec<_>>()));
        let s = ErasedSlice::new(Arc::clone(&buf), 3..7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.byte_len(), 16);
        assert_eq!(s.tag(), TypeTag::U32);
        assert_eq!(s.as_slice::<u32>().unwrap(), &[3, 4, 5, 6]);
        assert!(s.as_slice::<f32>().is_none());
        assert_eq!(s.to_bytes(), buf.range_to_bytes(3..7));
    }

    #[test]
    fn erased_slice_full_covers_everything() {
        let buf = Arc::new(ErasedVec::from_vec(vec![1.5f64, -2.0]));
        let s = ErasedSlice::full(Arc::clone(&buf));
        assert_eq!(s.range(), 0..2);
        assert_eq!(s.as_slice::<f64>().unwrap(), &[1.5, -2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn erased_slice_oob_panics() {
        let buf = Arc::new(ErasedVec::from_vec(vec![0u8; 4]));
        let _ = ErasedSlice::new(buf, 2..5);
    }
}
