#![warn(missing_docs)]
//! DN-Analyzer — the paper's contribution.

pub mod check;
pub mod dag;
pub mod degrade;
pub mod epoch;
pub mod hb;
pub(crate) mod inter;
pub(crate) mod intra;
pub mod matching;
pub(crate) mod pair;
pub mod preprocess;
pub mod recovery;
pub mod regions;
pub mod report;
pub mod session;
pub mod streaming;
pub mod vc;

pub use check::{AnalysisStats, CheckReport};
pub use degrade::{sanitize, DegradedInfo};
pub use hb::racing_events;
pub use recovery::RecoveryAnalysis;
pub use report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
pub use session::{AnalysisSession, AnalysisSessionBuilder, Engine};
pub use streaming::{StreamError, StreamingChecker, StreamingStats};
