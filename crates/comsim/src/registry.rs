//! The class registry — the per-node analog of `HKEY_CLASSES_ROOT`.
//!
//! Maps CLSIDs to the factory that instantiates the class and the service
//! that hosts it (the "LocalServer32" of the original). The SCM process in
//! [`crate::rpc`] consults this table to answer activation requests.

use std::collections::HashMap;

use ds_net::endpoint::ServiceName;

use crate::guid::Clsid;
use crate::hresult::{ComError, ComResult, HResult};
use crate::object::{ComClass, ComObject};

/// Instantiates a registered class.
pub type ComClassFactory = Box<dyn Fn() -> Box<dyn ComClass> + Send + Sync>;

struct ClassEntry {
    factory: ComClassFactory,
    host: ServiceName,
}

/// A per-node registry of creatable classes.
///
/// # Examples
///
/// ```
/// use comsim::registry::ClassRegistry;
/// use comsim::guid::{Clsid, Iid};
/// use comsim::object::ComClass;
/// use comsim::hresult::ComResult;
///
/// struct Nop;
/// impl ComClass for Nop {
///     fn clsid(&self) -> Clsid { Clsid::from_name("Nop") }
///     fn interfaces(&self) -> Vec<Iid> { vec![] }
///     fn invoke(&mut self, _: Iid, _: u32, _: &[u8], _: ds_sim::prelude::SimTime) -> ComResult<Vec<u8>> { Ok(vec![]) }
/// }
///
/// let mut registry = ClassRegistry::new();
/// registry.register(Clsid::from_name("Nop"), "nop-server".into(), Box::new(|| Box::new(Nop)));
/// let obj = registry.create_instance(Clsid::from_name("Nop"))?;
/// assert_eq!(obj.ref_count(), 1);
/// # Ok::<(), comsim::hresult::ComError>(())
/// ```
#[derive(Default)]
pub struct ClassRegistry {
    classes: HashMap<Clsid, ClassEntry>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ClassRegistry::default()
    }

    /// Registers (or replaces) a class: its factory and hosting service.
    pub fn register(&mut self, clsid: Clsid, host: ServiceName, factory: ComClassFactory) {
        self.classes.insert(clsid, ClassEntry { factory, host });
    }

    /// Removes a class registration; returns whether it existed.
    pub fn unregister(&mut self, clsid: Clsid) -> bool {
        self.classes.remove(&clsid).is_some()
    }

    /// Instantiates the class — `CoCreateInstance` local path.
    ///
    /// # Errors
    ///
    /// `REGDB_E_CLASSNOTREG` if the class is unknown.
    pub fn create_instance(&self, clsid: Clsid) -> ComResult<ComObject> {
        let entry = self.classes.get(&clsid).ok_or_else(|| {
            ComError::new(HResult::REGDB_E_CLASSNOTREG, format!("{clsid} not registered"))
        })?;
        Ok(ComObject::new((entry.factory)()))
    }

    /// The service hosting a class's out-of-process server.
    ///
    /// # Errors
    ///
    /// `REGDB_E_CLASSNOTREG` if the class is unknown.
    pub fn host_service(&self, clsid: Clsid) -> ComResult<ServiceName> {
        self.classes.get(&clsid).map(|e| e.host.clone()).ok_or_else(|| {
            ComError::new(HResult::REGDB_E_CLASSNOTREG, format!("{clsid} not registered"))
        })
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guid::Iid;

    struct Nop;
    impl ComClass for Nop {
        fn clsid(&self) -> Clsid {
            Clsid::from_name("Nop")
        }
        fn interfaces(&self) -> Vec<Iid> {
            vec![]
        }
        fn invoke(
            &mut self,
            _: Iid,
            _: u32,
            _: &[u8],
            _: ds_sim::prelude::SimTime,
        ) -> ComResult<Vec<u8>> {
            Ok(vec![])
        }
    }

    fn registry() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.register(Clsid::from_name("Nop"), "nop-host".into(), Box::new(|| Box::new(Nop)));
        r
    }

    #[test]
    fn create_and_host_lookup() {
        let r = registry();
        assert_eq!(r.host_service(Clsid::from_name("Nop")).unwrap().as_str(), "nop-host");
        let obj = r.create_instance(Clsid::from_name("Nop")).unwrap();
        assert_eq!(obj.clsid(), Clsid::from_name("Nop"));
    }

    #[test]
    fn unknown_class_yields_classnotreg() {
        let r = registry();
        let err = r.create_instance(Clsid::from_name("Ghost")).unwrap_err();
        assert_eq!(err.hresult(), HResult::REGDB_E_CLASSNOTREG);
        let err = r.host_service(Clsid::from_name("Ghost")).unwrap_err();
        assert_eq!(err.hresult(), HResult::REGDB_E_CLASSNOTREG);
    }

    #[test]
    fn unregister_removes_entry() {
        let mut r = registry();
        assert!(r.unregister(Clsid::from_name("Nop")));
        assert!(!r.unregister(Clsid::from_name("Nop")));
        assert!(r.is_empty());
    }

    #[test]
    fn each_create_is_a_fresh_instance() {
        let r = registry();
        let a = r.create_instance(Clsid::from_name("Nop")).unwrap();
        let b = r.create_instance(Clsid::from_name("Nop")).unwrap();
        assert_eq!(a.ref_count(), 1);
        assert_eq!(b.ref_count(), 1);
    }
}
