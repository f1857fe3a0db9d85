use std::fmt;

/// Errors from the Prompt Cache engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// PML parsing, layout, or resolution failed.
    Pml(pc_pml::PmlError),
    /// The model engine rejected a forward pass.
    Model(pc_model::ModelError),
    /// A prompt referenced a schema that was never registered.
    UnknownSchema {
        /// The schema name the prompt asked for.
        name: String,
    },
    /// A schema with this name is already registered (unregister first).
    SchemaAlreadyRegistered {
        /// The duplicate name.
        name: String,
    },
    /// The store no longer holds a module the layout expects (evicted or
    /// never encoded).
    MissingModuleStates {
        /// Key description.
        key: String,
    },
    /// Scaffold construction failed.
    InvalidScaffold {
        /// Why.
        detail: String,
    },
    /// The prompt contains no tokens at all (no modules, no text).
    EmptyPrompt,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Pml(e) => write!(f, "pml: {e}"),
            EngineError::Model(e) => write!(f, "model: {e}"),
            EngineError::UnknownSchema { name } => write!(f, "schema `{name}` not registered"),
            EngineError::SchemaAlreadyRegistered { name } => {
                write!(f, "schema `{name}` already registered")
            }
            EngineError::MissingModuleStates { key } => {
                write!(f, "no cached states for {key}")
            }
            EngineError::InvalidScaffold { detail } => write!(f, "invalid scaffold: {detail}"),
            EngineError::EmptyPrompt => write!(f, "prompt has no content"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Pml(e) => Some(e),
            EngineError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pc_pml::PmlError> for EngineError {
    fn from(e: pc_pml::PmlError) -> Self {
        EngineError::Pml(e)
    }
}

impl From<pc_model::ModelError> for EngineError {
    fn from(e: pc_model::ModelError) -> Self {
        EngineError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: EngineError = pc_pml::PmlError::DuplicateName { name: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("pml"));
    }

    #[test]
    fn plain_variants_have_no_source() {
        let e = EngineError::EmptyPrompt;
        assert!(std::error::Error::source(&e).is_none());
    }
}
