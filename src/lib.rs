//! Umbrella crate for the datacube-dp workspace: re-exports the public API
//! of every member crate so examples and downstream users can depend on a
//! single package.
//!
//! See [`dp_core`] for the release framework, [`dp_data`] for datasets,
//! [`dp_opt`] for the optimizers, [`dp_mech`] for the DP mechanisms and
//! [`dp_service`] for the budget-metered release service.

pub use dp_core as core;
pub use dp_data as data;
pub use dp_linalg as linalg;
pub use dp_mech as mech;
pub use dp_opt as opt;
pub use dp_service as service;

pub mod cli;

pub use dp_core::prelude;

/// The README's Rust snippets, compiled and run as doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
