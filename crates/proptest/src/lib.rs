//! A minimal, self-contained property-testing harness.
//!
//! Implements the subset of the `proptest` crate's API that this workspace
//! uses — the [`proptest!`] macro, range/tuple/`prop_map`/`prop_oneof!`
//! strategies, `prop::collection::vec`, `prop::sample::select`, and the
//! `prop_assert*` family — so the workspace builds and tests with **zero
//! network access**. Cases are generated from a deterministic per-test
//! stream (no shrinking; failures print the generating inputs instead).

pub mod collection;
pub mod prelude;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub use strategy::{any, BoxedStrategy, Just, Strategy};
pub use test_runner::{CaseRng, ProptestConfig};

/// Declares property tests: each `#[test] fn name(arg in strategy, ..)`
/// runs `ProptestConfig::cases` times with freshly generated inputs.
/// Attributes after `#[test]` (such as `#[ignore]`) pass through.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
          #[test]
          $( #[$attr:meta] )*
          fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            #[test]
            $( #[$attr] )*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let test_key = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut __rng = $crate::CaseRng::for_case(test_key, case as u64);
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )*
                    let __inputs = format!("{:?}", ( $( &$arg, )* ));
                    let outcome = (move || -> ::core::result::Result<(), ::std::string::String> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(msg) = outcome {
                        panic!(
                            "proptest {} case {}/{} failed: {}\n  inputs: {}",
                            stringify!($name), case, config.cases, msg, __inputs
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err(format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless both expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::core::result::Result::Err(format!(
                        "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                        stringify!($a), stringify!($b), left, right
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::core::result::Result::Err(format!($($fmt)+));
                }
            }
        }
    };
}

/// Fails the current case if both expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if *left == *right {
                    return ::core::result::Result::Err(format!(
                        "assertion failed: `{}` != `{}`\n  both: {:?}",
                        stringify!($a), stringify!($b), left
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if *left == *right {
                    return ::core::result::Result::Err(format!($($fmt)+));
                }
            }
        }
    };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            // Without a shrink/retry loop, an unmet assumption simply
            // passes the case; generators keep the skip rate low.
            return ::core::result::Result::Ok(());
        }
    };
}

/// Chooses uniformly among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::Strategy::boxed($strat) ),+
        ])
    };
}
