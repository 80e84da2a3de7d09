//! Spatial and cross-section sub-communicator groups (§III-B).
//!
//! Each is a [`SubCommLayout`]: pure geometry, compiled once into a
//! [`crate::layers::LayerPlan`] and bound to the live communicator each
//! step. Binding a cached layout is bitwise-identical to constructing
//! the sub-communicator fresh: same members, same tag salt, and the
//! collective counter restarts at zero per bind.

use fg_comm::SubCommLayout;
use fg_tensor::ProcGrid;

/// The spatial subgroup layout of `rank` under `grid`: ranks sharing its
/// sample (and channel) coordinates. Collectives in this group aggregate
/// over one sample block's spatial shards.
pub fn spatial_group_layout(rank: usize, grid: ProcGrid) -> SubCommLayout {
    let fixed = [true, true, false, false];
    SubCommLayout::new(grid.group_of(rank, fixed), grid.group_id(rank, fixed), rank)
        .expect("spatial group is valid")
}

/// The cross-section subgroup layout: ranks sharing this rank's
/// spatial/channel position across all sample groups. Collectives here
/// sum per-sample partials into whole-batch values without
/// double-counting replicas.
pub fn cross_section_group_layout(rank: usize, grid: ProcGrid) -> SubCommLayout {
    let fixed = [false, true, true, true];
    // Distinct salt space from the spatial groups.
    SubCommLayout::new(grid.group_of(rank, fixed), grid.group_id(rank, fixed) + (1 << 20), rank)
        .expect("cross-section group is valid")
}
