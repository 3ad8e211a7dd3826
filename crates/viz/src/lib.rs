//! Dependency-free SVG rendering for the VSV reproduction.
//!
//! Two chart types cover everything the paper plots:
//!
//! * [`GroupedBarChart`] — Figure 4/5/6/7-style grouped bars
//!   (benchmarks × configurations);
//! * [`TimelineChart`] — Figure 2/3-style mode/voltage timelines from
//!   the [`vsv::TraceEvent::Sample`]s of a full-level event stream.
//!
//! Charts render to plain SVG strings; no drawing dependency is
//! involved, so output is deterministic and diffable.
//!
//! # Examples
//!
//! ```
//! use vsv_viz::GroupedBarChart;
//!
//! let svg = GroupedBarChart::new("power saving (%)")
//!     .series("noFSM", &[("mcf", 39.3), ("ammp", 29.5)])
//!     .series("FSM", &[("mcf", 38.8), ("ammp", 14.7)])
//!     .render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("mcf"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bars;
mod scatter;
mod svg;
mod timeline;

pub use bars::GroupedBarChart;
pub use scatter::{TradeoffChart, TradeoffPoint};
pub use svg::SvgDoc;
pub use timeline::TimelineChart;
