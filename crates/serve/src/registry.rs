//! The model registry: named, versioned, hot-swappable models.
//!
//! Models are shared as `Arc<ServableModel>` behind a single `RwLock`-ed map.
//! Readers (the request path) take the lock only long enough to clone an
//! `Arc`; a hot swap replaces the map entry, and in-flight requests keep
//! scoring against the generation they already hold — the swap is atomic
//! from a client's point of view and never blocks on running inference.

use crate::error::ServeError;
use crate::model::ServableModel;
use crate::Result;
use pfr_core::persistence;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A concurrent map from model name to the latest loaded generation.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ServableModel>>>,
    swaps: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers `model` under `name`, replacing (hot-swapping) any previous
    /// generation. Returns the shared handle now being served.
    pub fn insert(&self, name: impl Into<String>, model: ServableModel) -> Arc<ServableModel> {
        let arc = Arc::new(model);
        let previous = self
            .models
            .write()
            .expect("registry lock poisoned")
            .insert(name.into(), Arc::clone(&arc));
        if previous.is_some() {
            self.swaps.fetch_add(1, Ordering::Relaxed);
        }
        arc
    }

    /// Parses a serialized bundle and registers it under `name`. The served
    /// version label is `name@generation`, so repeated loads of the same
    /// name are distinguishable in stats and cache keys.
    pub fn load_from_str(&self, name: &str, bundle_text: &str) -> Result<Arc<ServableModel>> {
        Ok(self.insert(name, Self::materialize(name, bundle_text)?))
    }

    /// The model [`ModelRegistry::load_from_str`] would register under
    /// `name`, fully validated and labelled, but not registered: the `PUSH`
    /// install builds it before journaling and registers this same model.
    pub(crate) fn materialize(name: &str, bundle_text: &str) -> Result<ServableModel> {
        let bundle = persistence::bundle_from_string(bundle_text).map_err(ServeError::model)?;
        let mut model = ServableModel::from_bundle(name, &bundle)?;
        model.set_version(format!("{name}@{}", model.generation()));
        Ok(model)
    }

    /// The latest generation registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<ServableModel>> {
        self.models
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Like [`ModelRegistry::get`] but with a serving-flavoured error.
    pub fn resolve(&self, name: &str) -> Result<Arc<ServableModel>> {
        self.get(name)
            .ok_or_else(|| ServeError::ModelNotFound(name.to_string()))
    }

    /// Registered model names, sorted for stable output.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many hot swaps (re-loads of an existing name) have happened.
    pub fn hot_swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use std::thread;

    #[test]
    fn insert_then_get_and_resolve() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let (bundle, _) = toy_bundle();
        registry.insert(
            "risk",
            ServableModel::from_bundle("risk@1", &bundle).unwrap(),
        );
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["risk".to_string()]);
        assert!(registry.get("risk").is_some());
        assert!(registry.get("other").is_none());
        assert!(matches!(
            registry.resolve("other"),
            Err(ServeError::ModelNotFound(_))
        ));
    }

    #[test]
    fn hot_swap_replaces_generation_without_disturbing_held_handles() {
        let registry = ModelRegistry::new();
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let first = registry.load_from_str("risk", &text).unwrap();
        let held = registry.get("risk").unwrap();
        let second = registry.load_from_str("risk", &text).unwrap();
        assert_eq!(registry.hot_swaps(), 1);
        assert_ne!(first.generation(), second.generation());
        // The held handle still scores, and identically so.
        let a = held.score_batch(&x).unwrap();
        let b = registry.get("risk").unwrap().score_batch(&x).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            registry.get("risk").unwrap().generation(),
            second.generation()
        );
    }

    #[test]
    fn version_labels_carry_name_and_generation() {
        let registry = ModelRegistry::new();
        let (bundle, _) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let model = registry.load_from_str("admissions", &text).unwrap();
        let label = model.version();
        assert!(
            label.starts_with("admissions@"),
            "unexpected version label {label}"
        );
    }

    #[test]
    fn load_from_str_rejects_garbage() {
        let registry = ModelRegistry::new();
        assert!(registry.load_from_str("bad", "not a bundle").is_err());
        assert!(registry.is_empty());
    }

    #[test]
    fn concurrent_readers_and_swappers_do_not_deadlock_or_corrupt() {
        let registry = Arc::new(ModelRegistry::new());
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        registry.load_from_str("risk", &text).unwrap();
        let expected = registry.get("risk").unwrap().score_batch(&x).unwrap();

        let mut handles = Vec::new();
        for _ in 0..4 {
            let registry = Arc::clone(&registry);
            let x = x.clone();
            let expected = expected.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let model = registry.resolve("risk").unwrap();
                    assert_eq!(model.score_batch(&x).unwrap(), expected);
                }
            }));
        }
        for _ in 0..2 {
            let registry = Arc::clone(&registry);
            let text = text.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..25 {
                    registry.load_from_str("risk", &text).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(registry.hot_swaps(), 50);
    }
}
