//! # delta-htm — Hierarchical Triangular Mesh
//!
//! The spatial substrate of the Delta reproduction: the HTM index of
//! Kunszt, Szalay & Thakar (2001) that the SDSS uses to partition the sky,
//! and which the Delta paper (§6.1) uses to define its cacheable *data
//! objects*.
//!
//! Provides:
//!
//! * [`Vec3`] — unit-sphere geometry (RA/Dec ↔ Cartesian).
//! * [`Trixel`] / [`TrixelId`] — the recursive spherical triangles with the
//!   standard sentinel id encoding (`N0..`, `S0..` naming).
//! * [`mesh`] — point location and region covers at uniform levels.
//! * [`Region`] — query footprints (cones, RA/Dec rectangles, great-circle
//!   scan bands, all-sky) with conservative trixel intersection.
//! * [`Partition`] — density-adaptive partitions with arbitrary leaf
//!   counts, reproducing the 10–532 object sets of Fig. 8(b). Each keeps
//!   its tree as a prebuilt node arena, so point location and region
//!   covers walk stored geometry instead of re-subdividing the mesh.
//!
//! ```
//! use delta_htm::{mesh, Partition, Region, Vec3};
//!
//! // Locate a position at HTM level 5.
//! let p = Vec3::from_radec_deg(185.0, 15.3);
//! let id = mesh::lookup(p, 5);
//! assert_eq!(id.level(), 5);
//!
//! // Partition the sky into ~68 equi-area objects and map a cone query.
//! let part = Partition::adaptive(|t| t.solid_angle(), 68);
//! let objs = part.objects_for_region(&Region::cone_deg(185.0, 15.3, 1.0));
//! assert!(objs.contains(&part.locate(p)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
pub mod partition;
pub mod region;
pub mod trixel;
pub mod vec3;

pub use partition::Partition;
pub use region::Region;
pub use trixel::{Trixel, TrixelId};
pub use vec3::Vec3;
