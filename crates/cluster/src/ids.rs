//! Typed identifiers.
//!
//! Newtypes keep server, function and instance indices from being
//! confused with one another (C-NEWTYPE). A request is identified by
//! its function and arrival ordinal (`Request::key`).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name($inner);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: $inner) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Index of a server in the cluster.
    ServerId(usize),
    "srv"
);
id_type!(
    /// Index of a deployed inference function.
    FunctionId(usize),
    "fn"
);
id_type!(
    /// Unique id of a function instance (monotonically assigned, never
    /// reused even after the instance is torn down).
    InstanceId(u64),
    "inst"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        assert_eq!(ServerId::new(3).raw(), 3);
        assert_eq!(ServerId::new(3).to_string(), "srv3");
        assert_eq!(FunctionId::new(1).to_string(), "fn1");
        assert_eq!(InstanceId::new(9).to_string(), "inst9");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(InstanceId::new(1) < InstanceId::new(2));
    }
}
