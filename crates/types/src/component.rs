//! Hardware components: the granularity at which architectural masking is
//! analyzed (paper Section 4.2).

use std::fmt;

use crate::RawErrorRate;

/// Identifies a component within a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// Creates a component id.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        ComponentId(id)
    }

    /// The raw id.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

impl From<u32> for ComponentId {
    fn from(id: u32) -> Self {
        ComponentId(id)
    }
}

/// The kind of processor structure a component models.
///
/// The paper studies four microarchitectural components in detail (integer,
/// floating-point, and instruction-decode units, plus the register file) and
/// treats whole processors or caches as single components in the broad
/// design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ComponentKind {
    /// Integer functional unit.
    IntegerUnit,
    /// Floating-point functional unit.
    FloatingPointUnit,
    /// Instruction decode unit.
    DecodeUnit,
    /// Architectural register file (errors strike entries uniformly).
    RegisterFile,
    /// An on-chip cache treated as one component (e.g. Figure 3's 100 MB cache).
    Cache,
    /// A whole processor treated as one component (cluster experiments).
    Processor,
    /// Anything else.
    Other,
}

impl ComponentKind {
    /// A short lowercase label, used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ComponentKind::IntegerUnit => "int",
            ComponentKind::FloatingPointUnit => "fp",
            ComponentKind::DecodeUnit => "decode",
            ComponentKind::RegisterFile => "regfile",
            ComponentKind::Cache => "cache",
            ComponentKind::Processor => "processor",
            ComponentKind::Other => "other",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A hardware component subject to raw soft errors.
///
/// Per the paper's masking-trace methodology, a component couples an identity
/// and kind with the raw error rate of all its elements combined
/// (`N × S × baseline` in the Table 2 design space).
///
/// ```
/// use serr_types::{Component, ComponentKind, RawErrorRate};
/// let c = Component::new(0, ComponentKind::Cache, RawErrorRate::per_year(10.0))
///     .with_name("L3 victim cache");
/// assert_eq!(c.name(), "L3 victim cache");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    id: ComponentId,
    kind: ComponentKind,
    raw_rate: RawErrorRate,
    name: String,
}

impl Component {
    /// Creates a component with a default name derived from its kind and id.
    #[must_use]
    pub fn new(id: impl Into<ComponentId>, kind: ComponentKind, raw_rate: RawErrorRate) -> Self {
        let id = id.into();
        Component { id, kind, raw_rate, name: format!("{}-{}", kind.label(), id.index()) }
    }

    /// Builds a component whose rate is `elements × per_element × scale`, the
    /// N × S parameterization of the paper's Table 2.
    #[must_use]
    pub fn from_elements(
        id: impl Into<ComponentId>,
        kind: ComponentKind,
        elements: f64,
        per_element: RawErrorRate,
        scale: f64,
    ) -> Self {
        Component::new(id, kind, per_element.scale(elements).scale(scale))
    }

    /// Replaces the display name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The component id.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// The component kind.
    #[must_use]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The total raw soft error rate of the component.
    #[must_use]
    pub fn raw_rate(&self) -> RawErrorRate {
        self.raw_rate
    }

    /// The display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.kind, self.raw_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_from_elements_matches_table2() {
        // N = 1e8 bits, S = 5: rate should be 5e8 × baseline.
        let c = Component::from_elements(
            7u32,
            ComponentKind::Processor,
            1.0e8,
            RawErrorRate::baseline_per_bit(),
            5.0,
        );
        assert!((c.raw_rate().events_per_year() - 5.0).abs() < 1e-9);
        assert_eq!(c.id(), ComponentId::new(7));
    }

    #[test]
    fn default_names_are_stable() {
        let c = Component::new(3u32, ComponentKind::DecodeUnit, RawErrorRate::ZERO);
        assert_eq!(c.name(), "decode-3");
        assert_eq!(format!("{}", c.id()), "component#3");
    }

    #[test]
    fn kind_labels_are_distinct() {
        use ComponentKind::*;
        let kinds =
            [IntegerUnit, FloatingPointUnit, DecodeUnit, RegisterFile, Cache, Processor, Other];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
