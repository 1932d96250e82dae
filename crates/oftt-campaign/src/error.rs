//! Typed campaign-loading failures.
//!
//! Scenario files are human-authored and arrive from outside the type
//! system, so every way one can be wrong gets a variant that names the
//! offending key or span — the CLI prints these verbatim and a test can
//! match on them. Nothing in the loading path panics.

use oftt_harness::overrides::OverrideError;

/// Why a scenario file (or a run request built from one) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The scenario file could not be read at all.
    Io {
        /// The path as given on the command line.
        path: String,
        /// The OS error, rendered.
        detail: String,
    },
    /// The file is not well-formed JSON.
    Json {
        /// The offending file.
        path: String,
        /// The parse failure, with its byte offset.
        detail: String,
    },
    /// An object in the file spelled the same key twice — the second
    /// spelling would silently shadow the first, so it is an error.
    DuplicateKey {
        /// The offending file.
        path: String,
        /// The duplicated key, verbatim.
        key: String,
    },
    /// A key the schema does not know, in the scenario shell, a script
    /// step, or the pin block.
    UnknownKey {
        /// The offending file.
        path: String,
        /// Where the key appeared (`"scenario"`, `"script step"`, `"pin"`).
        context: &'static str,
        /// The offending key, verbatim.
        key: String,
    },
    /// A parameter override was rejected by the harness (unknown override
    /// key, a value that is mistyped / out of range, or a table whose
    /// values break a cross-field rule together).
    Override {
        /// The offending file.
        path: String,
        /// The harness's verdict, carried intact.
        inner: OverrideError,
    },
    /// The seed specification is unusable: an inverted or oversized
    /// range, a duplicate, or a non-integer.
    BadSeedSpan {
        /// The offending file.
        path: String,
        /// What was wrong with the span.
        detail: String,
    },
    /// A known field carries a value of the wrong type or range.
    BadField {
        /// The offending file.
        path: String,
        /// The field, as a dotted-ish human label.
        field: String,
        /// What was wrong with the value.
        detail: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { path, detail } => write!(f, "{path}: cannot read: {detail}"),
            CampaignError::Json { path, detail } => write!(f, "{path}: not valid JSON: {detail}"),
            CampaignError::DuplicateKey { path, key } => {
                write!(f, "{path}: duplicate key {key:?} (the second spelling would silently shadow the first)")
            }
            CampaignError::UnknownKey { path, context, key } => {
                write!(f, "{path}: unknown {context} key {key:?}")
            }
            CampaignError::Override { path, inner } => write!(f, "{path}: {inner}"),
            CampaignError::BadSeedSpan { path, detail } => {
                write!(f, "{path}: bad seed span: {detail}")
            }
            CampaignError::BadField { path, field, detail } => {
                write!(f, "{path}: bad value for {field:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Override { inner, .. } => Some(inner),
            _ => None,
        }
    }
}
