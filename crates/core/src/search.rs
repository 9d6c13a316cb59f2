//! Cache search selector.
//!
//! With two parallel arrays at L2 an access can probe them in parallel
//! (faster, two tag energies) or sequentially (cheaper, slower when the
//! first guess misses). The paper's **cache search selector** picks the
//! sequential probe order from the access type: "as frequently written
//! data are kept in LR part[,] if there is a write request first LR part
//! is searched and then HR part. For read accesses this action happens in
//! reverse."

use sttgpu_cache::AccessKind;

/// One of the two L2 parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// The small, low-retention, write-friendly array.
    Lr,
    /// The large, high-retention array.
    Hr,
}

impl Part {
    /// The other part.
    pub fn other(self) -> Part {
        match self {
            Part::Lr => Part::Hr,
            Part::Hr => Part::Lr,
        }
    }
}

impl From<Part> for sttgpu_trace::PartId {
    fn from(p: Part) -> Self {
        match p {
            Part::Lr => sttgpu_trace::PartId::Lr,
            Part::Hr => sttgpu_trace::PartId::Hr,
        }
    }
}

/// Chooses the probe order for an access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SearchSelector;

impl SearchSelector {
    /// Probe order for `kind`: writes search LR first, reads HR first.
    pub(crate) fn order(kind: AccessKind) -> [Part; 2] {
        match kind {
            AccessKind::Write => [Part::Lr, Part::Hr],
            AccessKind::Read => [Part::Hr, Part::Lr],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_probe_lr_first() {
        assert_eq!(
            SearchSelector::order(AccessKind::Write),
            [Part::Lr, Part::Hr]
        );
    }

    #[test]
    fn reads_probe_hr_first() {
        assert_eq!(
            SearchSelector::order(AccessKind::Read),
            [Part::Hr, Part::Lr]
        );
    }

    #[test]
    fn writes_search_lr_then_hr_and_reads_hr_then_lr() {
        assert_eq!(
            SearchSelector::order(AccessKind::Write),
            [Part::Lr, Part::Hr]
        );
        assert_eq!(
            SearchSelector::order(AccessKind::Read),
            [Part::Hr, Part::Lr]
        );
    }

    #[test]
    fn order_covers_both_parts() {
        for kind in [AccessKind::Read, AccessKind::Write] {
            let [a, b] = SearchSelector::order(kind);
            assert_eq!(a.other(), b);
            assert_ne!(a, b);
        }
    }
}
