//! Empty: no library crate of the workspace calls `rand` (only tests do).
