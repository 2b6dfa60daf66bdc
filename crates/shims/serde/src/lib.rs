//! Offline stand-in for `serde`, grown a real (minimal) runtime surface.
//!
//! Two layers:
//!
//! * The **derive macros** `#[derive(serde::Serialize)]` /
//!   `#[derive(serde::Deserialize)]` are re-exported from the
//!   `serde_derive` shim and still expand to nothing — they exist so type
//!   definitions across the workspace keep compiling without registry
//!   access, exactly as before.
//! * The **traits** [`Serialize`] / [`Deserialize`] are real: they
//!   round-trip through the self-describing [`Value`] tree and the
//!   [`text`] codec. Floats travel as raw IEEE-754 bits, so a
//!   serialize→deserialize round trip is *bit-exact* — the property the
//!   pipeline's checkpoint/resume support is built on.
//!
//! Types that need runtime serialization (`nada-core`'s driver
//! checkpoints, the daemon's wire protocol) implement the traits by hand; everything else keeps the
//! no-op derive. If registry access ever appears, swapping in real serde
//! is a Cargo.toml change plus deleting the manual impls.

pub use serde_derive::{Deserialize, Serialize};

pub mod text;
pub mod value;

pub use value::{Error, Value};

/// Conversion into the self-describing [`Value`] tree.
pub trait Serialize {
    /// Renders `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `self` back out of a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
    }
}

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_u64()
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let n = v.as_u64()?;
        usize::try_from(n).map_err(|_| Error::new(format!("{n} overflows usize")))
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}

impl Deserialize for i64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_i64()
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(self.to_bits())
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_str()?.to_string())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_list()?.iter().map(T::from_value).collect()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::List(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_list()?;
        if items.len() != 2 {
            return Err(Error::new(format!("expected a pair, got {}", items.len())));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::List(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_list()?;
        if items.len() != 3 {
            return Err(Error::new(format!(
                "expected a triple, got {}",
                items.len()
            )));
        }
        Ok((
            A::from_value(&items[0])?,
            B::from_value(&items[1])?,
            C::from_value(&items[2])?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let x: f64 = text::from_str(&text::to_string(&core::f64::consts::PI)).unwrap();
        assert_eq!(x.to_bits(), core::f64::consts::PI.to_bits());
        let b: bool = text::from_str(&text::to_string(&true)).unwrap();
        assert!(b);
        let n: u64 = text::from_str(&text::to_string(&42u64)).unwrap();
        assert_eq!(n, 42);
        let i: i64 = text::from_str(&text::to_string(&-7i64)).unwrap();
        assert_eq!(i, -7);
        let s: String = text::from_str(&text::to_string(&"a \"b\"\n\tc".to_string())).unwrap();
        assert_eq!(s, "a \"b\"\n\tc");
    }

    #[test]
    fn float_round_trip_is_bit_exact_for_odd_values() {
        for f in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-310,
            f64::NAN,
        ] {
            let back: f64 = text::from_str(&text::to_string(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f:?}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u64>> = vec![Some(1), None, Some(3)];
        let back: Vec<Option<u64>> = text::from_str(&text::to_string(&v)).unwrap();
        assert_eq!(v, back);

        let pairs: Vec<(usize, f64)> = vec![(0, 1.5), (7, -2.25)];
        let back: Vec<(usize, f64)> = text::from_str(&text::to_string(&pairs)).unwrap();
        assert_eq!(pairs, back);
    }

    #[test]
    fn mismatched_shapes_error() {
        assert!(text::from_str::<u64>("T").is_err());
        assert!(text::from_str::<Vec<u64>>("u3").is_err());
        assert!(text::from_str::<(u64, u64)>("[u1 u2 u3]").is_err());
    }
}
