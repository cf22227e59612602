//! Analog netlist: nodes, passive elements, sources and TIG-FET devices.
//!
//! The circuit representation feeds the MNA solver in [`crate::solver`].
//! TIG-FETs are four-terminal table-model devices (the paper's Verilog-A
//! equivalent, Section III-D): their channel current comes from a shared
//! [`TigTable`] and their terminal capacitances from the table's
//! [`Parasitics`](sinw_device::table::Parasitics).

use sinw_device::table::TigTable;
use std::sync::Arc;

/// Index of a circuit node; node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Ground node.
pub const GROUND: NodeId = NodeId(0);

/// Index of a voltage source (its branch current is an MNA unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub usize);

/// Index of a TIG-FET instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetId(pub usize);

/// Time-dependent source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant voltage.
    Dc(f64),
    /// Single pulse: `v0` before `delay`, linear edges of `rise`/`fall`
    /// seconds, `v1` held for `width` seconds.
    Pulse {
        /// Initial level (volts).
        v0: f64,
        /// Pulsed level (volts).
        v1: f64,
        /// Pulse start time (seconds).
        delay: f64,
        /// Rise time (seconds).
        rise: f64,
        /// Pulsed-level hold time (seconds).
        width: f64,
        /// Fall time (seconds).
        fall: f64,
    },
}

impl Waveform {
    /// Source value at time `t`.
    #[must_use]
    pub fn at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                width,
                fall,
            } => {
                let t = t - delay;
                if t <= 0.0 {
                    *v0
                } else if t < *rise {
                    v0 + (v1 - v0) * t / rise
                } else if t < rise + width {
                    *v1
                } else if t < rise + width + fall {
                    v1 + (v0 - v1) * (t - rise - width) / fall
                } else {
                    *v0
                }
            }
        }
    }
}

/// A passive or active element.
#[derive(Debug, Clone)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        farads: f64,
    },
    /// Independent voltage source from `pos` to `neg`.
    Vsource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform.
        wave: Waveform,
    },
    /// TIG-SiNWFET instance backed by the shared lookup table.
    TigFet {
        /// Drain node.
        d: NodeId,
        /// Control-gate node.
        cg: NodeId,
        /// Source-side polarity-gate node.
        pgs: NodeId,
        /// Drain-side polarity-gate node.
        pgd: NodeId,
        /// Source node.
        s: NodeId,
        /// Whether the channel is broken (defect injection: the device
        /// contributes parasitics but no current).
        broken: bool,
    },
}

/// The analog circuit under construction.
#[derive(Debug, Clone)]
pub struct AnalogCircuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
    /// Shared device table (one per technology corner).
    pub table: Arc<TigTable>,
}

impl AnalogCircuit {
    /// New circuit around a device table; ground is pre-created.
    #[must_use]
    pub fn new(table: Arc<TigTable>) -> Self {
        AnalogCircuit {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            table,
        }
    }

    /// Get or create a named node.
    pub fn node(&mut self, name: impl AsRef<str>) -> NodeId {
        let name = name.as_ref();
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            return NodeId(i);
        }
        self.node_names.push(name.to_string());
        NodeId(self.node_names.len() - 1)
    }

    /// Look up an existing node.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// Number of nodes (including ground).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of MNA unknowns: node voltages (ground excluded) plus one
    /// branch current per voltage source.
    pub(crate) fn unknowns(&self) -> usize {
        let sources = self
            .elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count();
        self.node_count() - 1 + sources
    }

    /// Add a resistor.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(ohms > 0.0, "resistance must be positive");
        self.elements.push(Element::Resistor { a, b, ohms });
    }

    /// Add a capacitor.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        assert!(farads > 0.0, "capacitance must be positive");
        self.elements.push(Element::Capacitor { a, b, farads });
    }

    /// Add a voltage source; returns its id for current readback.
    pub fn add_vsource(&mut self, pos: NodeId, neg: NodeId, wave: Waveform) -> SourceId {
        self.elements.push(Element::Vsource { pos, neg, wave });
        let idx = self
            .elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count()
            - 1;
        SourceId(idx)
    }

    /// Add a TIG-FET with its terminal parasitics; returns its id.
    pub fn add_fet(&mut self, d: NodeId, cg: NodeId, pgs: NodeId, pgd: NodeId, s: NodeId) -> FetId {
        let p = self.table.parasitics;
        // Gate-stack capacitances split to the nearer channel terminal.
        self.add_capacitor_lenient(cg, s, p.c_cg / 2.0);
        self.add_capacitor_lenient(cg, d, p.c_cg / 2.0);
        self.add_capacitor_lenient(pgs, s, p.c_pg);
        self.add_capacitor_lenient(pgd, d, p.c_pg);
        self.add_capacitor_lenient(d, s, p.c_sd);
        self.elements.push(Element::TigFet {
            d,
            cg,
            pgs,
            pgd,
            s,
            broken: false,
        });
        let idx = self
            .elements
            .iter()
            .filter(|e| matches!(e, Element::TigFet { .. }))
            .count()
            - 1;
        FetId(idx)
    }

    /// Capacitor helper that silently skips degenerate (same-node) pairs.
    fn add_capacitor_lenient(&mut self, a: NodeId, b: NodeId, farads: f64) {
        if a != b && farads > 0.0 {
            self.add_capacitor(a, b, farads);
        }
    }

    /// Mark a FET's channel broken (channel-break defect injection).
    ///
    /// # Panics
    ///
    /// Panics if `fet` does not exist.
    pub fn break_channel(&mut self, fet: FetId) {
        let mut count = 0usize;
        for e in &mut self.elements {
            if let Element::TigFet { broken, .. } = e {
                if count == fet.0 {
                    *broken = true;
                    return;
                }
                count += 1;
            }
        }
        panic!("no such FET: {fet:?}");
    }

    /// Rewire one gate terminal of a FET to a different node (used for the
    /// open-gate `Vcut` experiments of Fig. 5 and GOS bridges).
    ///
    /// `which` is 0 = CG, 1 = PGS, 2 = PGD.
    ///
    /// # Panics
    ///
    /// Panics if `fet` does not exist or `which` is out of range.
    pub fn rewire_gate(&mut self, fet: FetId, which: usize, to: NodeId) {
        let mut count = 0usize;
        for e in &mut self.elements {
            if let Element::TigFet { cg, pgs, pgd, .. } = e {
                if count == fet.0 {
                    match which {
                        0 => *cg = to,
                        1 => *pgs = to,
                        2 => *pgd = to,
                        _ => panic!("gate index {which} out of range"),
                    }
                    return;
                }
                count += 1;
            }
        }
        panic!("no such FET: {fet:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_device::TigFet;
    use std::sync::OnceLock;

    pub(crate) fn shared_table() -> Arc<TigTable> {
        static TABLE: OnceLock<Arc<TigTable>> = OnceLock::new();
        TABLE
            .get_or_init(|| Arc::new(TigTable::build_coarse(&TigFet::ideal())))
            .clone()
    }

    #[test]
    fn waveform_pulse_shape() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.2,
            delay: 1e-9,
            rise: 1e-10,
            width: 2e-9,
            fall: 1e-10,
        };
        assert_eq!(w.at(0.0), 0.0);
        assert!((w.at(1.05e-9) - 0.6).abs() < 1e-9);
        assert_eq!(w.at(2e-9), 1.2);
        assert_eq!(w.at(5e-9), 0.0);
    }

    #[test]
    fn node_lookup_is_stable() {
        let mut c = AnalogCircuit::new(shared_table());
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("zz"), None);
        assert_eq!(c.find_node("0"), Some(GROUND));
    }

    #[test]
    fn fet_brings_its_parasitics() {
        let mut c = AnalogCircuit::new(shared_table());
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        c.add_fet(d, g, g, g, s);
        let caps = c
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        assert!(caps >= 4, "expected gate-stack capacitors, got {caps}");
    }

    #[test]
    fn rewire_moves_only_the_requested_terminal() {
        let mut c = AnalogCircuit::new(shared_table());
        let (d, g, s, x) = (c.node("d"), c.node("g"), c.node("s"), c.node("x"));
        let f = c.add_fet(d, g, g, g, s);
        c.rewire_gate(f, 1, x);
        let fet = c
            .elements()
            .iter()
            .find_map(|e| match e {
                Element::TigFet { cg, pgs, pgd, .. } => Some((*cg, *pgs, *pgd)),
                _ => None,
            })
            .expect("fet exists");
        assert_eq!(fet, (g, x, g));
    }
}
