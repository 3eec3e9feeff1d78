//! Helpers shared by the integration tests. Each test crate uses only
//! part of them.
#![allow(dead_code)]

pub mod programs;
pub mod reference;
