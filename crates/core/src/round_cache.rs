//! No state: grouping keeps nothing across calls except the γ memo in
//! [`crate::gamma_cache`]. The module stays only for callers of [`reset`].

/// Does nothing. Kept so callers that cleared the former round memo
/// between runs still build.
pub fn reset() {}
