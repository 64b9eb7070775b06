//! Syslog substrate: message model, raw-text rendering and parsing, and
//! the signature-tree template extraction of Qiu et al. (IMC '10) that
//! the paper uses to structure vPE syslogs (§2, §4.2).
//!
//! The full raw-log path is exercised end to end: the simulator renders
//! template instances into RFC3164-style lines, and the detector side
//! parses those lines and recovers template ids through the signature
//! tree, exactly as the production pipeline would.

pub mod message;
pub mod parse;
pub mod signature_tree;
pub mod stream;
pub mod template;
pub mod time;
pub mod vocab;

pub use message::{Severity, SyslogMessage};
pub use signature_tree::{SigToken, Signature, SignatureTree, SignatureTreeConfig};
pub use stream::{LogRecord, LogStream};
pub use template::{Template, TemplateSet, VarKind};
pub use vocab::TemplateVocab;
