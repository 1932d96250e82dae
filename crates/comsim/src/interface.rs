//! The [`crate::com_interface!`] macro — a micro-IDL for declaring interfaces.
//!
//! The paper's components were defined in IDL and compiled to proxy/stub
//! pairs; here an interface declaration produces a unit type carrying its
//! IID and method ordinals, so servers and clients share one definition
//! instead of scattered `Iid::from_name` calls and magic ordinals.

/// Declares a COM interface: a unit struct with an associated [`crate::guid::Iid`]
/// and named method ordinals.
///
/// ```
/// comsim::com_interface! {
///     /// Temperature controller interface.
///     pub interface ITempController {
///         fn get_setpoint = 0;
///         fn set_setpoint = 1;
///         fn get_measurement = 2;
///     }
/// }
///
/// assert_eq!(ITempController::iid(), comsim::guid::Iid::from_name("ITempController"));
/// assert_eq!(ITempController::set_setpoint, 1);
/// assert_eq!(ITempController::METHOD_NAMES[2], "get_measurement");
/// ```
///
/// The macro works at module and function scope, supports visibility
/// specifiers, and attributes (doc comments) on the interface.
#[macro_export]
macro_rules! com_interface {
    (
        $(#[$meta:meta])*
        $vis:vis interface $name:ident {
            $( fn $method:ident = $ordinal:literal; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis struct $name;

        impl $name {
            $(
                #[doc = concat!("Ordinal of `", stringify!($method), "`.")]
                #[allow(non_upper_case_globals, dead_code)]
                $vis const $method: u32 = $ordinal;
            )*

            /// Method names indexed by declaration order.
            #[allow(dead_code)]
            $vis const METHOD_NAMES: &'static [&'static str] =
                &[$( stringify!($method) ),*];

            /// The interface id (derived from the interface name, exactly
            /// as every other IID in this workspace).
            #[allow(dead_code)]
            $vis fn iid() -> $crate::guid::Iid {
                $crate::guid::Iid::from_name(stringify!($name))
            }

            /// The method name for an ordinal, if in range.
            #[allow(dead_code)]
            $vis fn method_name(ordinal: u32) -> Option<&'static str> {
                Self::METHOD_NAMES.get(ordinal as usize).copied()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    com_interface! {
        /// A test interface at module scope.
        pub(crate) interface IModuleScope {
            fn first = 0;
            fn second = 1;
        }
    }

    #[test]
    fn module_scope_declaration_works() {
        assert_eq!(IModuleScope::iid(), crate::guid::Iid::from_name("IModuleScope"));
        assert_eq!(IModuleScope::first, 0);
        assert_eq!(IModuleScope::second, 1);
        assert_eq!(IModuleScope::METHOD_NAMES, &["first", "second"]);
        assert_eq!(IModuleScope::method_name(1), Some("second"));
        assert_eq!(IModuleScope::method_name(9), None);
    }

    #[test]
    fn function_scope_declaration_works() {
        com_interface! {
            interface ILocal {
                fn only = 0;
            }
        }
        assert_eq!(ILocal::iid(), crate::guid::Iid::from_name("ILocal"));
        assert_eq!(ILocal::only, 0);
    }

    #[test]
    fn distinct_interfaces_have_distinct_iids() {
        com_interface! {
            interface IAlpha { fn a = 0; }
        }
        com_interface! {
            interface IBeta { fn a = 0; }
        }
        assert_ne!(IAlpha::iid(), IBeta::iid());
    }
}
