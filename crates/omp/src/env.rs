//! Host-side data environments.
//!
//! A [`DataEnv`] is the set of named buffers a `target` region's map
//! clauses refer to. Buffers are reference-counted so that broadcast-style
//! sharing (every worker sees the whole of `B`) costs no copies in-process;
//! the actual transfer bytes are accounted separately by the device
//! plug-ins.

use crate::erased::ErasedVec;
use crate::error::OmpError;
use crate::pod::Pod;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named, type-erased buffers visible to a target region.
#[derive(Debug, Clone, Default)]
pub struct DataEnv {
    vars: BTreeMap<String, Arc<ErasedVec>>,
}

impl DataEnv {
    /// Empty environment.
    pub fn new() -> Self {
        DataEnv::default()
    }

    /// Insert (or replace) a typed buffer.
    pub fn insert<T: Pod>(&mut self, name: impl Into<String>, data: Vec<T>) {
        self.vars
            .insert(name.into(), Arc::new(ErasedVec::from_vec(data)));
    }

    /// Insert (or replace) an already-erased buffer.
    pub fn insert_erased(&mut self, name: impl Into<String>, data: ErasedVec) {
        self.vars.insert(name.into(), Arc::new(data));
    }

    /// Borrow a variable as a typed slice.
    pub fn get<T: Pod>(&self, name: &str) -> Result<&[T], OmpError> {
        let buf = self.get_erased(name)?;
        buf.as_slice::<T>().ok_or_else(|| OmpError::TypeMismatch {
            var: name.to_string(),
            expected: T::TAG.name(),
            actual: buf.tag().name(),
        })
    }

    /// Borrow the erased buffer behind `name`.
    pub fn get_erased(&self, name: &str) -> Result<&Arc<ErasedVec>, OmpError> {
        self.vars
            .get(name)
            .ok_or_else(|| OmpError::UnknownVariable(name.to_string()))
    }

    /// Replace the contents of an existing variable (the device writing
    /// `map(from:)` results back). The new buffer must keep the element
    /// type; length may change only for explicitly resizable outputs, so we
    /// require it to match too.
    pub fn write_back(&mut self, name: &str, data: ErasedVec) -> Result<(), OmpError> {
        let slot = self
            .vars
            .get_mut(name)
            .ok_or_else(|| OmpError::UnknownVariable(name.to_string()))?;
        if slot.tag() != data.tag() {
            return Err(OmpError::TypeMismatch {
                var: name.to_string(),
                expected: slot.tag().name(),
                actual: data.tag().name(),
            });
        }
        if slot.len() != data.len() {
            return Err(OmpError::InvalidRegion(format!(
                "write_back of '{name}' changed length {} -> {}",
                slot.len(),
                data.len()
            )));
        }
        *slot = Arc::new(data);
        Ok(())
    }

    /// Mutable access to a variable for in-place host updates. Clones the
    /// buffer if it is currently shared (copy-on-write).
    pub fn get_mut<T: Pod>(&mut self, name: &str) -> Result<&mut [T], OmpError> {
        let slot = self
            .vars
            .get_mut(name)
            .ok_or_else(|| OmpError::UnknownVariable(name.to_string()))?;
        let tag = slot.tag();
        Arc::make_mut(slot)
            .as_mut_slice::<T>()
            .ok_or_else(|| OmpError::TypeMismatch {
                var: name.to_string(),
                expected: T::TAG.name(),
                actual: tag.name(),
            })
    }

    /// Does `name` exist?
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variables are present.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterate over `(name, buffer)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<ErasedVec>)> {
        self.vars.iter().map(|(n, b)| (n.as_str(), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_typed() {
        let mut env = DataEnv::new();
        env.insert("A", vec![1.0f32, 2.0]);
        assert_eq!(env.get::<f32>("A").unwrap(), &[1.0, 2.0]);
        assert!(matches!(
            env.get::<f64>("A"),
            Err(OmpError::TypeMismatch { .. })
        ));
        assert!(matches!(
            env.get::<f32>("B"),
            Err(OmpError::UnknownVariable(_))
        ));
    }

    #[test]
    fn write_back_replaces_value() {
        let mut env = DataEnv::new();
        env.insert("C", vec![0.0f32; 4]);
        env.write_back("C", ErasedVec::from_vec(vec![1.0f32, 2.0, 3.0, 4.0]))
            .unwrap();
        assert_eq!(env.get::<f32>("C").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn write_back_rejects_type_and_len_changes() {
        let mut env = DataEnv::new();
        env.insert("C", vec![0.0f32; 4]);
        assert!(env
            .write_back("C", ErasedVec::from_vec(vec![0i32; 4]))
            .is_err());
        assert!(env
            .write_back("C", ErasedVec::from_vec(vec![0.0f32; 3]))
            .is_err());
        assert!(env
            .write_back("D", ErasedVec::from_vec(vec![0.0f32; 4]))
            .is_err());
    }

    #[test]
    fn get_mut_is_copy_on_write() {
        let mut env = DataEnv::new();
        env.insert("A", vec![1u32, 2, 3]);
        let shared = Arc::clone(env.get_erased("A").unwrap());
        env.get_mut::<u32>("A").unwrap()[0] = 99;
        // The old handle still sees the original data.
        assert_eq!(shared.as_slice::<u32>().unwrap(), &[1, 2, 3]);
        assert_eq!(env.get::<u32>("A").unwrap(), &[99, 2, 3]);
    }
}
