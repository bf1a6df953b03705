//! Named parameter collections.
//!
//! A [`ParamStore`] maps stable parameter names (e.g.
//! `"layers.3.attn.wq"`) to tensors. It is the unit that Menos' base
//! model sharing operates on: the server loads one store for the base
//! model and builds per-client *views* whose tensors alias the same
//! storage.

use std::collections::BTreeMap;

use crate::storage::Storage;
use crate::tensor::Tensor;

/// An ordered map from parameter name to tensor.
///
/// Iteration order is the lexicographic name order (BTreeMap), which
/// keeps checkpoints and tests deterministic.
///
/// # Examples
///
/// ```
/// use menos_tensor::{ParamStore, Tensor};
///
/// let mut ps = ParamStore::new();
/// ps.insert("w", Tensor::var_from_vec(vec![1.0, 2.0], [2]));
/// assert_eq!(ps.len(), 1);
/// assert_eq!(ps.get("w").unwrap().to_vec(), vec![1.0, 2.0]);
///
/// // A shared view aliases storage without copying:
/// let view = ps.shared_view(false);
/// assert!(Tensor::same_storage(ps.get("w").unwrap(), view.get("w").unwrap()));
/// ```
#[derive(Debug, Default)]
pub struct ParamStore {
    params: BTreeMap<String, Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Inserts a parameter, replacing and returning any previous tensor
    /// under the same name.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) -> Option<Tensor> {
        self.params.insert(name.into(), t)
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.params.get(name)
    }

    /// Removes a parameter by name.
    pub fn remove(&mut self, name: &str) -> Option<Tensor> {
        self.params.remove(name)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates over `(name, tensor)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.params.iter()
    }

    /// Parameter names in order.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.params.keys()
    }

    /// Tensors in name order.
    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.params.values()
    }

    /// Total element count across all parameters.
    pub fn param_count(&self) -> usize {
        self.params.values().map(Tensor::elem_count).sum()
    }

    /// Total logical size in bytes (f32).
    pub fn size_bytes(&self) -> u64 {
        self.params.values().map(Tensor::size_bytes).sum()
    }

    /// Builds a view whose tensors alias this store's storage but have
    /// fresh identities and the given trainability.
    ///
    /// This is the *base-model sharing* primitive: each client's model
    /// instance gets its own structure over one shared copy of the
    /// weights.
    pub fn shared_view(&self, trainable: bool) -> ParamStore {
        let params = self
            .params
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Tensor::from_shared_storage(v.storage().clone(), v.shape().clone(), trainable),
                )
            })
            .collect();
        ParamStore { params }
    }

    /// Builds an independent deep copy (fresh storage). This is what
    /// the *vanilla* baseline does per client.
    pub fn deep_copy(&self, trainable: bool) -> ParamStore {
        let params = self
            .params
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Tensor::from_shared_storage(
                        Storage::from_vec(v.to_vec()),
                        v.shape().clone(),
                        trainable,
                    ),
                )
            })
            .collect();
        ParamStore { params }
    }

    /// Whether every parameter in `self` aliases the storage of the
    /// same-named parameter in `other`.
    pub fn shares_storage_with(&self, other: &ParamStore) -> bool {
        self.params.len() == other.params.len()
            && self.params.iter().all(|(k, v)| {
                other
                    .params
                    .get(k)
                    .map(|o| Tensor::same_storage(v, o))
                    .unwrap_or(false)
            })
    }
}

impl FromIterator<(String, Tensor)> for ParamStore {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        ParamStore {
            params: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Tensor)> for ParamStore {
    fn extend<I: IntoIterator<Item = (String, Tensor)>>(&mut self, iter: I) {
        self.params.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.insert("a", Tensor::var_from_vec(vec![1.0, 2.0], [2]));
        ps.insert("b", Tensor::var_from_vec(vec![3.0; 6], [2, 3]));
        ps
    }

    #[test]
    fn insert_get_remove() {
        let mut ps = sample_store();
        assert_eq!(ps.len(), 2);
        assert!(ps.get("a").is_some());
        assert!(ps.get("missing").is_none());
        assert!(ps.remove("a").is_some());
        assert_eq!(ps.len(), 1);
        assert!(!ps.is_empty());
    }

    #[test]
    fn ordered_iteration() {
        let mut ps = ParamStore::new();
        ps.insert("z", Tensor::zeros([1]));
        ps.insert("a", Tensor::zeros([1]));
        ps.insert("m", Tensor::zeros([1]));
        let names: Vec<&String> = ps.names().collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn sizes() {
        let ps = sample_store();
        assert_eq!(ps.param_count(), 8);
        assert_eq!(ps.size_bytes(), 32);
    }

    #[test]
    fn shared_view_aliases() {
        let ps = sample_store();
        let view = ps.shared_view(false);
        assert!(ps.shares_storage_with(&view));
        assert!(!view.get("a").unwrap().requires_grad());
        // Mutation through the view is visible in the original.
        view.get("a").unwrap().storage().write()[0] = 99.0;
        assert_eq!(ps.get("a").unwrap().to_vec(), vec![99.0, 2.0]);
    }

    #[test]
    fn deep_copy_is_independent() {
        let ps = sample_store();
        let copy = ps.deep_copy(true);
        assert!(!ps.shares_storage_with(&copy));
        copy.get("a").unwrap().storage().write()[0] = 42.0;
        assert_eq!(ps.get("a").unwrap().to_vec(), vec![1.0, 2.0]);
        assert!(copy.get("a").unwrap().requires_grad());
    }

    #[test]
    fn shares_storage_with_detects_mismatch() {
        let ps = sample_store();
        let other = sample_store(); // same names, different storage
        assert!(!ps.shares_storage_with(&other));
        let mut partial = ps.shared_view(false);
        partial.remove("b");
        assert!(!ps.shares_storage_with(&partial));
    }

    #[test]
    fn from_iterator() {
        let ps: ParamStore = vec![("x".to_string(), Tensor::zeros([1]))]
            .into_iter()
            .collect();
        assert_eq!(ps.len(), 1);
    }
}
