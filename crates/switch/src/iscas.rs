//! ISCAS-85/89 `.bench` benchmark frontend.
//!
//! Parses the classic gate-level benchmark format into a [`Circuit`] over
//! the Fig. 2 CP cell library — or, with `DFF` cells, into a
//! [`SeqCircuit`] — and exports circuits back to `.bench` text.
//! This is what lets the fault-coverage experiments of Sections V–VI run on
//! standard workloads instead of hand-assembled toy netlists.
//!
//! ## Format subset
//!
//! The accepted grammar is the common denominator of the ISCAS-85/89
//! distributions:
//!
//! ```text
//! # comment                    — ignored
//! INPUT(name)                  — primary input
//! OUTPUT(name)                 — primary output (may repeat, may be a PI)
//! name = GATE(a, b, …)         — gate driving net `name`
//! name = DFF(d)                — D flip-flop driving net `name` (ISCAS-89)
//! ```
//!
//! `GATE` is one of `AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`, `NOT`,
//! `BUFF` (case-insensitive), at any arity ≥ 1 (`NOT`/`BUFF` take exactly
//! one input). Gates may appear in any order; the parser topologically
//! sorts them and rejects combinational loops. Feedback *through a `DFF`*
//! is not a loop: the flip-flop's `Q` net is a pseudo-PI of the
//! combinational core (the Huffman model of [`crate::seq`]), so
//! [`parse_bench_seq`] accepts the ISCAS-89 sequential benchmarks while
//! the combinational entry point [`parse_bench`] rejects any `DFF` line
//! with a dedicated, line-numbered
//! [`BenchErrorKind::SequentialElement`] error.
//!
//! ## Mapping onto the CP cell library
//!
//! The library has no wide gates, so the parser decomposes:
//!
//! | `.bench` gate | CP cells |
//! |---------------|----------|
//! | `NOT`         | `INV` |
//! | `BUFF`        | `INV`·`INV` |
//! | `NAND`/`NOR` (2-in) | `NAND2` / `NOR2` |
//! | `AND`/`OR`    | `NAND2`/`NOR2` tree + final `INV` |
//! | wide `NAND`/`NOR`/`AND`/`OR` | balanced 2-input tree |
//! | `XOR` (3-in)  | a single `XOR3` (the TIG sweet spot) |
//! | `XOR`/`XNOR`  | `XOR2` tree (+ final `INV` for `XNOR`) |
//!
//! The signal driving a named `.bench` net keeps that net's name, so fault
//! reports on parsed benchmarks read like the original netlist.
//!
//! ```
//! use sinw_switch::iscas::{parse_bench, C17_BENCH};
//!
//! let c17 = parse_bench(C17_BENCH).expect("embedded fixture parses");
//! assert_eq!(c17.primary_inputs().len(), 5);
//! assert_eq!(c17.primary_outputs().len(), 2);
//! assert_eq!(c17.gates().len(), 6); // six NAND2s, no decomposition needed
//! ```

use crate::cells::CellKind;
use crate::gate::{Circuit, SignalId};
use crate::seq::{Dff, SeqCircuit};
use std::collections::HashMap;

/// The embedded ISCAS-85 `c17` benchmark (six NAND2 gates) — the smallest
/// standard ATPG exercise, and the golden fixture of the test suite.
pub const C17_BENCH: &str = include_str!("fixtures/c17.bench");

/// An embedded mid-size benchmark: a 16-bit carry-select adder (4-bit
/// blocks) exported from [`crate::generate::carry_select_adder`] into the
/// `.bench` subset (a few hundred cells after mapping). Exercises the
/// decomposition paths (`AND`/`OR` trees, `BUFF`) that `c17` does not.
pub const CSA16_BENCH: &str = include_str!("fixtures/csa16.bench");

/// The embedded ISCAS-89 `s27` benchmark: the smallest standard
/// *sequential* ATPG exercise — 4 inputs, 1 output, 3 `DFF`s, 10 gates
/// (13 CP cells after mapping) with genuine feedback through the state.
/// Golden fixture for scan insertion, time-frame expansion, and the
/// transition-delay campaign.
pub const S27_BENCH: &str = include_str!("fixtures/s27.bench");

/// All embedded *combinational* `.bench` fixtures as `(name, text)` pairs.
#[must_use]
pub fn embedded_benchmarks() -> Vec<(&'static str, &'static str)> {
    vec![("c17", C17_BENCH), ("csa16", CSA16_BENCH)]
}

/// A `.bench` gate type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchGate {
    /// `AND(a, b, …)`
    And,
    /// `NAND(a, b, …)`
    Nand,
    /// `OR(a, b, …)`
    Or,
    /// `NOR(a, b, …)`
    Nor,
    /// `XOR(a, b, …)`
    Xor,
    /// `XNOR(a, b, …)`
    Xnor,
    /// `NOT(a)`
    Not,
    /// `BUFF(a)`
    Buff,
}

impl BenchGate {
    fn from_str(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Some(BenchGate::And),
            "NAND" => Some(BenchGate::Nand),
            "OR" => Some(BenchGate::Or),
            "NOR" => Some(BenchGate::Nor),
            "XOR" => Some(BenchGate::Xor),
            "XNOR" => Some(BenchGate::Xnor),
            "NOT" | "INV" => Some(BenchGate::Not),
            "BUFF" | "BUF" => Some(BenchGate::Buff),
            _ => None,
        }
    }
}

/// Why a `.bench` text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchErrorKind {
    /// A line matched none of the grammar productions.
    Syntax(String),
    /// `name = GATE(...)` used an unsupported gate type.
    UnknownGateType(String),
    /// A net is driven twice (two gates, or a gate and an `INPUT`).
    DuplicateDriver(String),
    /// A gate fan-in (or an `OUTPUT`) names a net nothing drives.
    UndrivenNet(String),
    /// The gates contain a combinational cycle through this net.
    CombinationalLoop(String),
    /// `NOT`/`BUFF` with arity ≠ 1, or any gate with no inputs.
    BadArity {
        /// The offending net name.
        net: String,
        /// Number of fan-ins supplied.
        got: usize,
    },
    /// The file declares no `INPUT` lines (and, on the sequential path,
    /// no `DFF` state either).
    NoInputs,
    /// The file declares no `OUTPUT` lines.
    NoOutputs,
    /// A `DFF` line reached the combinational-only entry point
    /// ([`parse_bench`]); sequential `.bench` text needs
    /// [`parse_bench_seq`].
    SequentialElement(String),
}

/// The gate types [`parse_bench`] accepts, for legible unknown-gate
/// errors.
const SUPPORTED_GATES: &str = "AND, NAND, OR, NOR, XOR, XNOR, NOT, BUFF, DFF";

/// A `.bench` parse error with its 1-based source line (0 for whole-file
/// errors such as [`BenchErrorKind::NoInputs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchParseError {
    /// 1-based line number, 0 when the error is not tied to one line.
    pub line: usize,
    /// What went wrong.
    pub kind: BenchErrorKind,
}

impl std::fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            BenchErrorKind::Syntax(s) => write!(f, "syntax error: {s}"),
            BenchErrorKind::UnknownGateType(g) => {
                write!(f, "unknown gate type {g:?} (supported: {SUPPORTED_GATES})")
            }
            BenchErrorKind::DuplicateDriver(n) => write!(f, "net {n:?} is driven twice"),
            BenchErrorKind::UndrivenNet(n) => write!(f, "net {n:?} is never driven"),
            BenchErrorKind::CombinationalLoop(n) => {
                write!(f, "combinational loop through net {n:?}")
            }
            BenchErrorKind::BadArity { net, got } => {
                write!(f, "net {net:?}: bad gate arity {got}")
            }
            BenchErrorKind::NoInputs => write!(f, "no INPUT lines"),
            BenchErrorKind::NoOutputs => write!(f, "no OUTPUT lines"),
            BenchErrorKind::SequentialElement(n) => write!(
                f,
                "net {n:?} is a DFF — sequential element in combinational-only \
                 input (use parse_bench_seq for the ISCAS-89 subset)"
            ),
        }
    }
}

impl std::error::Error for BenchParseError {}

fn err(line: usize, kind: BenchErrorKind) -> BenchParseError {
    BenchParseError { line, kind }
}

struct RawGate {
    name: String,
    gate: BenchGate,
    fanin: Vec<String>,
    line: usize,
}

/// Parse `NAME(a, b, c)` into `("NAME", ["a","b","c"])`. An empty
/// operand (`AND(a, , c)`, `AND(a,)`) is a syntax error, not a silently
/// shorter fan-in list — a typo'd netlist must not parse into a
/// functionally different circuit.
fn split_call(s: &str) -> Option<(&str, Vec<&str>)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close < open {
        return None;
    }
    let head = s[..open].trim();
    let body = s[open + 1..close].trim();
    if !s[close + 1..].trim().is_empty() || head.is_empty() {
        return None;
    }
    if body.is_empty() {
        return Some((head, Vec::new()));
    }
    let args: Vec<&str> = body.split(',').map(str::trim).collect();
    if args.iter().any(|a| a.is_empty()) {
        return None;
    }
    Some((head, args))
}

/// Parse ISCAS-85-style (combinational) `.bench` text into a [`Circuit`]
/// over the CP cell library. See the [module docs](self) for the accepted
/// subset and the gate-to-cell mapping.
///
/// # Errors
///
/// Returns a [`BenchParseError`] locating the first offending line for
/// syntax errors, unknown gate types, double-driven or undriven nets,
/// combinational loops, arity violations — and, on this entry point, any
/// `DFF` line ([`BenchErrorKind::SequentialElement`]).
pub fn parse_bench(text: &str) -> Result<Circuit, BenchParseError> {
    parse_bench_impl(text, false).map(SeqCircuit::into_core)
}

/// Parse ISCAS-89-style `.bench` text — the combinational subset plus
/// `name = DFF(d)` lines — into a [`SeqCircuit`]. Each `DFF`'s `Q` net
/// becomes a pseudo-PI of the combinational core (appended after the
/// `INPUT` nets, in `DFF`-line order), so state feedback is not a
/// combinational loop.
///
/// # Errors
///
/// Same line-numbered contract as [`parse_bench`]; additionally a `DFF`
/// with arity ≠ 1 is [`BenchErrorKind::BadArity`] at its own line, and a
/// file is only [`BenchErrorKind::NoInputs`] if it has neither `INPUT`
/// lines nor state (an autonomous machine is legal).
pub fn parse_bench_seq(text: &str) -> Result<SeqCircuit, BenchParseError> {
    parse_bench_impl(text, true)
}

fn parse_bench_impl(text: &str, allow_dff: bool) -> Result<SeqCircuit, BenchParseError> {
    let mut inputs: Vec<(String, usize)> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut gates: Vec<RawGate> = Vec::new();
    let mut dffs: Vec<(String, String, usize)> = Vec::new(); // (q, d, line)
    let mut driven: HashMap<String, usize> = HashMap::new(); // net -> defining line

    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw_line.find('#') {
            Some(p) => &raw_line[..p],
            None => raw_line,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some((lhs, rhs)) = line.split_once('=') {
            let name = lhs.trim().to_string();
            if name.is_empty() {
                return Err(err(lineno, BenchErrorKind::Syntax(line.to_string())));
            }
            let Some((head, args)) = split_call(rhs.trim()) else {
                return Err(err(lineno, BenchErrorKind::Syntax(line.to_string())));
            };
            if head.eq_ignore_ascii_case("DFF") {
                if !allow_dff {
                    return Err(err(lineno, BenchErrorKind::SequentialElement(name)));
                }
                if driven.insert(name.clone(), lineno).is_some() {
                    return Err(err(lineno, BenchErrorKind::DuplicateDriver(name)));
                }
                if args.len() != 1 {
                    return Err(err(
                        lineno,
                        BenchErrorKind::BadArity {
                            net: name,
                            got: args.len(),
                        },
                    ));
                }
                dffs.push((name, args[0].to_string(), lineno));
                continue;
            }
            let Some(gate) = BenchGate::from_str(head) else {
                return Err(err(
                    lineno,
                    BenchErrorKind::UnknownGateType(head.to_string()),
                ));
            };
            if driven.insert(name.clone(), lineno).is_some() {
                return Err(err(lineno, BenchErrorKind::DuplicateDriver(name)));
            }
            let arity_ok = match gate {
                BenchGate::Not | BenchGate::Buff => args.len() == 1,
                _ => !args.is_empty(),
            };
            if !arity_ok {
                return Err(err(
                    lineno,
                    BenchErrorKind::BadArity {
                        net: name,
                        got: args.len(),
                    },
                ));
            }
            gates.push(RawGate {
                name,
                gate,
                fanin: args.into_iter().map(str::to_string).collect(),
                line: lineno,
            });
        } else if let Some((head, args)) = split_call(line) {
            match head.to_ascii_uppercase().as_str() {
                "INPUT" if args.len() == 1 => {
                    let name = args[0].to_string();
                    if driven.insert(name.clone(), lineno).is_some() {
                        return Err(err(lineno, BenchErrorKind::DuplicateDriver(name)));
                    }
                    inputs.push((name, lineno));
                }
                "OUTPUT" if args.len() == 1 => outputs.push((args[0].to_string(), lineno)),
                _ => return Err(err(lineno, BenchErrorKind::Syntax(line.to_string()))),
            }
        } else {
            return Err(err(lineno, BenchErrorKind::Syntax(line.to_string())));
        }
    }

    if inputs.is_empty() && dffs.is_empty() {
        return Err(err(0, BenchErrorKind::NoInputs));
    }
    if outputs.is_empty() {
        return Err(err(0, BenchErrorKind::NoOutputs));
    }

    // Every fan-in must be driven by an INPUT, a gate, or a DFF.
    for g in &gates {
        for f in &g.fanin {
            if !driven.contains_key(f) {
                return Err(err(g.line, BenchErrorKind::UndrivenNet(f.clone())));
            }
        }
    }
    for (name, line) in &outputs {
        if !driven.contains_key(name) {
            return Err(err(*line, BenchErrorKind::UndrivenNet(name.clone())));
        }
    }
    for (_, d, line) in &dffs {
        if !driven.contains_key(d) {
            return Err(err(*line, BenchErrorKind::UndrivenNet(d.clone())));
        }
    }

    // Topological order over the gate list: repeatedly place every gate
    // whose gate-driven fan-ins are already placed, scanning in file order
    // so the result stays as close to the file as the DAG allows.
    // `.bench` files in the wild are usually already sorted, but the
    // format does not promise it. A round that places nothing while gates
    // remain is a combinational cycle.
    let gate_index: HashMap<&str, usize> = gates
        .iter()
        .enumerate()
        .map(|(i, g)| (g.name.as_str(), i))
        .collect();
    let mut placed = vec![false; gates.len()];
    let mut final_order = Vec::with_capacity(gates.len());
    let mut pending: Vec<usize> = (0..gates.len()).collect();
    while !pending.is_empty() {
        let before = final_order.len();
        pending.retain(|&i| {
            let ok = gates[i]
                .fanin
                .iter()
                .all(|f| gate_index.get(f.as_str()).map_or(true, |&j| placed[j]));
            if ok {
                placed[i] = true;
                final_order.push(i);
            }
            !ok
        });
        if final_order.len() == before {
            let stuck = pending[0];
            return Err(err(
                gates[stuck].line,
                BenchErrorKind::CombinationalLoop(gates[stuck].name.clone()),
            ));
        }
    }

    // Build the circuit: INPUT nets first, then one pseudo-PI per DFF
    // `Q` net (in DFF-line order), then the gates in topological order.
    let mut circuit = Circuit::new();
    let mut net: HashMap<String, SignalId> = HashMap::new();
    for (name, _) in &inputs {
        let sig = circuit.add_input(name.clone());
        net.insert(name.clone(), sig);
    }
    for (q, _, _) in &dffs {
        let sig = circuit.add_input(q.clone());
        net.insert(q.clone(), sig);
    }
    for &i in &final_order {
        let g = &gates[i];
        let fanin: Vec<SignalId> = g.fanin.iter().map(|f| net[f.as_str()]).collect();
        let sig = map_bench_gate(&mut circuit, g.gate, &g.name, &fanin);
        circuit.set_signal_name(sig, g.name.clone());
        net.insert(g.name.clone(), sig);
    }
    for (name, _) in &outputs {
        circuit.mark_output(net[name.as_str()]);
    }
    let bindings: Vec<Dff> = dffs
        .iter()
        .map(|(q, d, _)| Dff {
            name: q.clone(),
            d: net[d.as_str()],
            q: net[q.as_str()],
        })
        .collect();
    Ok(SeqCircuit::new(circuit, bindings).expect("parser-built bindings are valid"))
}

/// Lower one `.bench` gate onto the CP cell library, returning the signal
/// that carries the gate's output. Helper cells are named `{net}#{k}`.
fn map_bench_gate(
    circuit: &mut Circuit,
    gate: BenchGate,
    name: &str,
    fanin: &[SignalId],
) -> SignalId {
    let mut k = 0usize;
    fn aux(
        circuit: &mut Circuit,
        k: &mut usize,
        name: &str,
        kind: CellKind,
        ins: &[SignalId],
    ) -> SignalId {
        *k += 1;
        circuit.add_gate(kind, format!("{name}#{k}"), ins)
    }
    // Balanced reduction of the fan-in to at most 2 operands, one
    // `inverting`-cell + INV pair per tree node (AND2 = NAND2·INV, etc.).
    fn reduce_to_two(
        circuit: &mut Circuit,
        k: &mut usize,
        name: &str,
        fanin: &[SignalId],
        inverting: CellKind,
    ) -> Vec<SignalId> {
        let mut layer = fanin.to_vec();
        while layer.len() > 2 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for chunk in layer.chunks(2) {
                if chunk.len() == 2 {
                    let n = aux(circuit, k, name, inverting, chunk);
                    next.push(aux(circuit, k, name, CellKind::Inv, &[n]));
                } else {
                    next.push(chunk[0]);
                }
            }
            layer = next;
        }
        layer
    }
    // A single-input AND/OR/XOR/BUFF is a buffer; keep polarity with two
    // inverters so the named net has a driver of its own.
    fn buffer(circuit: &mut Circuit, k: &mut usize, name: &str, fanin: &[SignalId]) -> SignalId {
        let n = aux(circuit, k, name, CellKind::Inv, fanin);
        circuit.add_gate(CellKind::Inv, name, &[n])
    }

    match gate {
        BenchGate::Not => circuit.add_gate(CellKind::Inv, name, fanin),
        BenchGate::Buff => buffer(circuit, &mut k, name, fanin),
        BenchGate::Nand | BenchGate::And => {
            if fanin.len() == 1 {
                return if gate == BenchGate::Nand {
                    circuit.add_gate(CellKind::Inv, name, fanin)
                } else {
                    buffer(circuit, &mut k, name, fanin)
                };
            }
            let top = reduce_to_two(circuit, &mut k, name, fanin, CellKind::Nand2);
            if gate == BenchGate::Nand {
                circuit.add_gate(CellKind::Nand2, name, &top)
            } else {
                let n = aux(circuit, &mut k, name, CellKind::Nand2, &top);
                circuit.add_gate(CellKind::Inv, name, &[n])
            }
        }
        BenchGate::Nor | BenchGate::Or => {
            if fanin.len() == 1 {
                return if gate == BenchGate::Nor {
                    circuit.add_gate(CellKind::Inv, name, fanin)
                } else {
                    buffer(circuit, &mut k, name, fanin)
                };
            }
            let top = reduce_to_two(circuit, &mut k, name, fanin, CellKind::Nor2);
            if gate == BenchGate::Nor {
                circuit.add_gate(CellKind::Nor2, name, &top)
            } else {
                let n = aux(circuit, &mut k, name, CellKind::Nor2, &top);
                circuit.add_gate(CellKind::Inv, name, &[n])
            }
        }
        BenchGate::Xor | BenchGate::Xnor => match (gate, fanin.len()) {
            (BenchGate::Xor, 1) => buffer(circuit, &mut k, name, fanin),
            (BenchGate::Xor, 2) => circuit.add_gate(CellKind::Xor2, name, fanin),
            // The TIG library computes 3-input parity in one cell.
            (BenchGate::Xor, 3) => circuit.add_gate(CellKind::Xor3, name, fanin),
            (BenchGate::Xnor, 1) => circuit.add_gate(CellKind::Inv, name, fanin),
            _ => {
                // Balanced XOR2 tree; the final stage (or a final INV for
                // XNOR) carries the net name.
                let stop = if gate == BenchGate::Xor { 2 } else { 1 };
                let mut layer = fanin.to_vec();
                while layer.len() > stop {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for chunk in layer.chunks(2) {
                        if chunk.len() == 2 {
                            next.push(aux(circuit, &mut k, name, CellKind::Xor2, chunk));
                        } else {
                            next.push(chunk[0]);
                        }
                    }
                    layer = next;
                }
                if gate == BenchGate::Xor {
                    circuit.add_gate(CellKind::Xor2, name, &layer)
                } else {
                    circuit.add_gate(CellKind::Inv, name, &[layer[0]])
                }
            }
        },
    }
}

/// Export a [`Circuit`] to `.bench` text.
///
/// `INV`, `NAND2`, `NOR2`, `XOR2`, `XOR3` map 1:1; `MAJ3` has no `.bench`
/// counterpart and is decomposed into `OR(AND(a,b), AND(b,c), AND(a,c))`,
/// so re-parsing an exported circuit is functionally — not structurally —
/// equivalent (see the round-trip property test).
///
/// Net names are the circuit's signal names with characters outside
/// `[A-Za-z0-9_]` rewritten to `_`, deduplicated with numeric suffixes.
#[must_use]
pub fn to_bench(circuit: &Circuit, title: &str) -> String {
    bench_text(circuit, &[], title)
}

/// Export a [`SeqCircuit`] to ISCAS-89-style `.bench` text: the
/// combinational core's gates plus one `q = DFF(d)` line per flip-flop.
/// Flip-flop `Q` pseudo-PIs are *not* emitted as `INPUT` lines (the
/// `DFF` line is their driver), so [`parse_bench_seq`] round-trips the
/// text back into an equivalent machine.
#[must_use]
pub fn to_bench_seq(seq: &SeqCircuit, title: &str) -> String {
    bench_text(seq.core(), seq.dffs(), title)
}

fn bench_text(circuit: &Circuit, dffs: &[Dff], title: &str) -> String {
    use std::fmt::Write as _;

    // Unique, format-clean net name per signal. Generated candidates are
    // themselves registered in `used`, so a suffixed name can never
    // collide with a literal one (e.g. a signal actually named `x_1`).
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut names: Vec<String> = Vec::with_capacity(circuit.signal_count());
    for s in 0..circuit.signal_count() {
        let raw = circuit.signal_name(SignalId(s));
        let mut clean: String = raw
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if clean.is_empty() {
            clean = format!("n{s}");
        }
        let mut candidate = clean.clone();
        let mut suffix = 0usize;
        while !used.insert(candidate.clone()) {
            suffix += 1;
            candidate = format!("{clean}_{suffix}");
        }
        names.push(candidate);
    }

    let is_q: std::collections::HashSet<SignalId> = dffs.iter().map(|ff| ff.q).collect();
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    if dffs.is_empty() {
        let _ = writeln!(
            out,
            "# exported by sinw-switch: {} inputs, {} outputs, {} cells",
            circuit.primary_inputs().len(),
            circuit.primary_outputs().len(),
            circuit.gates().len()
        );
    } else {
        let _ = writeln!(
            out,
            "# exported by sinw-switch: {} inputs, {} outputs, {} dffs, {} cells",
            circuit.primary_inputs().len() - dffs.len(),
            circuit.primary_outputs().len(),
            dffs.len(),
            circuit.gates().len()
        );
    }
    for pi in circuit.primary_inputs() {
        if !is_q.contains(pi) {
            let _ = writeln!(out, "INPUT({})", names[pi.0]);
        }
    }
    for po in circuit.primary_outputs() {
        let _ = writeln!(out, "OUTPUT({})", names[po.0]);
    }
    for ff in dffs {
        let _ = writeln!(out, "{} = DFF({})", names[ff.q.0], names[ff.d.0]);
    }
    let _ = writeln!(out);
    let mut aux = 0usize;
    for g in circuit.gates() {
        let o = &names[g.output.0];
        let ins: Vec<&str> = g.inputs.iter().map(|s| names[s.0].as_str()).collect();
        match g.kind {
            CellKind::Inv => {
                let _ = writeln!(out, "{o} = NOT({})", ins[0]);
            }
            CellKind::Nand2 => {
                let _ = writeln!(out, "{o} = NAND({}, {})", ins[0], ins[1]);
            }
            CellKind::Nor2 => {
                let _ = writeln!(out, "{o} = NOR({}, {})", ins[0], ins[1]);
            }
            CellKind::Xor2 => {
                let _ = writeln!(out, "{o} = XOR({}, {})", ins[0], ins[1]);
            }
            CellKind::Xor3 => {
                let _ = writeln!(out, "{o} = XOR({}, {}, {})", ins[0], ins[1], ins[2]);
            }
            CellKind::Maj3 => {
                let (a, b, c) = (ins[0], ins[1], ins[2]);
                // Pick an aux base whose three derived nets are all fresh.
                let m = loop {
                    let candidate = format!("maj{aux}");
                    aux += 1;
                    if ["ab", "bc", "ac"]
                        .iter()
                        .all(|t| !used.contains(&format!("{candidate}_{t}")))
                    {
                        for t in ["ab", "bc", "ac"] {
                            used.insert(format!("{candidate}_{t}"));
                        }
                        break candidate;
                    }
                };
                let _ = writeln!(out, "{m}_ab = AND({a}, {b})");
                let _ = writeln!(out, "{m}_bc = AND({b}, {c})");
                let _ = writeln!(out, "{m}_ac = AND({a}, {c})");
                let _ = writeln!(out, "{o} = OR({m}_ab, {m}_bc, {m}_ac)");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Logic;

    #[test]
    fn embedded_c17_matches_the_handbuilt_circuit() {
        let parsed = parse_bench(C17_BENCH).expect("fixture parses");
        let built = Circuit::c17();
        assert_eq!(parsed.primary_inputs().len(), 5);
        assert_eq!(parsed.primary_outputs().len(), 2);
        assert_eq!(parsed.gates().len(), built.gates().len());
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (bits >> k) & 1 == 1).collect();
            assert_eq!(parsed.eval_outputs(&v), built.eval_outputs(&v), "at {v:?}");
        }
    }

    #[test]
    fn parsed_nets_keep_their_bench_names() {
        let parsed = parse_bench(C17_BENCH).expect("fixture parses");
        for name in ["1", "2", "3", "6", "7", "10", "11", "16", "19", "22", "23"] {
            assert!(parsed.find_signal(name).is_some(), "net {name} lost");
        }
    }

    #[test]
    fn embedded_csa16_parses_and_adds() {
        let c = parse_bench(CSA16_BENCH).expect("fixture parses");
        assert_eq!(c.primary_inputs().len(), 33); // a0..15, b0..15, cin
        assert_eq!(c.primary_outputs().len(), 17); // s0..15, cout
        for (a, b, cin) in [
            (0u32, 0u32, false),
            (0xFFFF, 1, false),
            (0x1234, 0xBEEF, true),
        ] {
            let mut v = Vec::new();
            for i in 0..16 {
                v.push((a >> i) & 1 == 1);
            }
            for i in 0..16 {
                v.push((b >> i) & 1 == 1);
            }
            v.push(cin);
            let outs = c.eval_outputs(&v);
            let expect = a as u64 + b as u64 + u64::from(cin);
            for (i, o) in outs.iter().enumerate() {
                assert_eq!(
                    *o,
                    Logic::from_bool((expect >> i) & 1 == 1),
                    "bit {i} of {a:#x}+{b:#x}+{cin}"
                );
            }
        }
    }

    #[test]
    fn wide_gates_and_buffers_decompose_correctly() {
        let text = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(o3)\nOUTPUT(o4)\n\
o1 = AND(a, b, c, d)\no2 = OR(a, b, c)\no3 = XNOR(a, b)\no4 = BUFF(a)\n";
        let c = parse_bench(text).expect("parses");
        for bits in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|k| (bits >> k) & 1 == 1).collect();
            let outs = c.eval_outputs(&v);
            assert_eq!(outs[0], Logic::from_bool(v[0] && v[1] && v[2] && v[3]));
            assert_eq!(outs[1], Logic::from_bool(v[0] || v[1] || v[2]));
            assert_eq!(outs[2], Logic::from_bool(!(v[0] ^ v[1])));
            assert_eq!(outs[3], Logic::from_bool(v[0]));
        }
    }

    #[test]
    fn empty_operands_are_syntax_errors_not_shorter_fanin_lists() {
        for text in [
            "INPUT(a)\nINPUT(c)\nOUTPUT(o)\no = AND(a, , c)\n",
            "INPUT(a)\nOUTPUT(o)\no = AND(a,)\n",
        ] {
            let e = parse_bench(text).expect_err("typo'd fan-in must not parse");
            assert!(
                matches!(e.kind, BenchErrorKind::Syntax(_)),
                "got {:?} for {text:?}",
                e.kind
            );
        }
    }

    #[test]
    fn gates_out_of_file_order_are_sorted() {
        let text = "\
INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NOT(m)\nm = NAND(a, b)\n";
        let c = parse_bench(text).expect("parses despite use-before-def");
        let outs = c.eval_outputs(&[true, true]);
        assert_eq!(outs[0], Logic::One); // NOT(NAND(1,1)) = 1
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: [(&str, BenchErrorKind); 5] = [
            (
                "INPUT(a)\nOUTPUT(o)\no = FROB(a)\n",
                BenchErrorKind::UnknownGateType("FROB".into()),
            ),
            (
                "INPUT(a)\nOUTPUT(o)\no = NOT(a)\no = NOT(a)\n",
                BenchErrorKind::DuplicateDriver("o".into()),
            ),
            (
                "INPUT(a)\nOUTPUT(o)\no = NOT(ghost)\n",
                BenchErrorKind::UndrivenNet("ghost".into()),
            ),
            (
                "INPUT(a)\nOUTPUT(x)\nx = NOT(y)\ny = NOT(x)\n",
                BenchErrorKind::CombinationalLoop("x".into()),
            ),
            (
                "INPUT(a)\nOUTPUT(o)\no = NOT(a, a)\n",
                BenchErrorKind::BadArity {
                    net: "o".into(),
                    got: 2,
                },
            ),
        ];
        for (text, want) in cases {
            let e = parse_bench(text).expect_err("must fail");
            assert_eq!(e.kind, want, "for input {text:?}");
            assert!(e.line > 0, "line number attached");
        }
        assert_eq!(
            parse_bench("OUTPUT(o)\no = NOT(o)\n")
                .expect_err("no inputs")
                .kind,
            BenchErrorKind::NoInputs
        );
        assert_eq!(
            parse_bench("INPUT(a)\n").expect_err("no outputs").kind,
            BenchErrorKind::NoOutputs
        );
    }

    #[test]
    fn s27_parses_with_three_dffs_and_feedback() {
        let seq = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
        assert_eq!(seq.functional_inputs().len(), 4);
        assert_eq!(seq.functional_outputs().len(), 1);
        assert_eq!(seq.state_width(), 3);
        // Feedback exists: the combinational-only parser must reject it
        // at the first DFF line (line 8 of the fixture).
        let e = parse_bench(S27_BENCH).expect_err("combinational path rejects");
        assert_eq!(e.kind, BenchErrorKind::SequentialElement("G5".into()));
        assert_eq!(e.line, 8);
    }

    #[test]
    fn seq_export_reaches_a_textual_fixed_point() {
        let seq = parse_bench_seq(S27_BENCH).expect("parses");
        let text1 = to_bench_seq(&seq, "s27");
        let seq1 = parse_bench_seq(&text1).expect("exported text parses");
        assert_eq!(seq1.state_width(), seq.state_width());
        assert_eq!(to_bench_seq(&seq1, "s27"), text1, "fixed point in one trip");
        // Behavioural identity over a few cycles from the all-zero state.
        let zero = vec![Logic::Zero; 3];
        let stim: Vec<Vec<Logic>> = (0..6u8)
            .map(|t| {
                (0..4)
                    .map(|k| Logic::from_bool((t >> (k & 1)) & 1 == 1))
                    .collect()
            })
            .collect();
        assert_eq!(seq.simulate(&zero, &stim), seq1.simulate(&zero, &stim));
    }

    #[test]
    fn malformed_dff_lines_are_pinned_to_their_line() {
        // Arity 2.
        let e = parse_bench_seq("INPUT(a)\nOUTPUT(o)\no = NOT(a)\nq = DFF(a, o)\n")
            .expect_err("DFF arity");
        assert_eq!(e.line, 4);
        assert_eq!(
            e.kind,
            BenchErrorKind::BadArity {
                net: "q".into(),
                got: 2
            }
        );
        // Q driven twice.
        let e = parse_bench_seq("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\nq = NOT(a)\n")
            .expect_err("duplicate Q");
        assert_eq!(e.line, 4);
        assert_eq!(e.kind, BenchErrorKind::DuplicateDriver("q".into()));
        // D net never driven.
        let e = parse_bench_seq("INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n").expect_err("undriven D");
        assert_eq!(e.line, 3);
        assert_eq!(e.kind, BenchErrorKind::UndrivenNet("ghost".into()));
    }

    #[test]
    fn autonomous_machines_parse_without_input_lines() {
        // A 1-bit toggle has state but no functional inputs.
        let seq = parse_bench_seq("OUTPUT(q)\nq = DFF(nq)\nnq = NOT(q)\n")
            .expect("autonomous machine parses");
        assert_eq!(seq.state_width(), 1);
        assert!(seq.functional_inputs().is_empty());
    }

    #[test]
    fn unknown_gate_error_names_the_type_line_and_supported_set() {
        let e = parse_bench("INPUT(a)\nOUTPUT(o)\no = FROB(a)\n").expect_err("must fail");
        let msg = e.to_string();
        assert!(msg.contains("line 3"), "line number in {msg:?}");
        assert!(msg.contains("FROB"), "type name in {msg:?}");
        for g in [
            "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF", "DFF",
        ] {
            assert!(msg.contains(g), "supported set lists {g} in {msg:?}");
        }
    }

    #[test]
    fn export_dedup_survives_colliding_and_adversarial_names() {
        // "x.out" (an input) and the auto-generated output label of a gate
        // named "x" both sanitize to "x_out", and a third signal literally
        // named "x_out_1" squats on the first dedup suffix; "maj0_ab"
        // squats on the MAJ3 decomposition's aux names.
        let mut c = Circuit::new();
        let a = c.add_input("x.out");
        let squatter = c.add_input("x_out_1");
        let pre = c.add_input("maj0_ab");
        let inv = c.add_gate(CellKind::Inv, "x", &[a]);
        let m = c.add_gate(CellKind::Maj3, "m", &[inv, squatter, pre]);
        c.mark_output(m);
        let text = to_bench(&c, "adversarial");
        let reparsed = parse_bench(&text).expect("exported text must re-parse");
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|k| (bits >> k) & 1 == 1).collect();
            assert_eq!(reparsed.eval_outputs(&v), c.eval_outputs(&v), "at {v:?}");
        }
    }

    #[test]
    fn export_then_parse_is_functionally_identity_on_the_full_adder() {
        // The full adder contains MAJ3, exercising the decomposition path.
        let original = Circuit::full_adder();
        let text = to_bench(&original, "fa");
        let reparsed = parse_bench(&text).expect("exported text parses");
        assert_eq!(
            reparsed.primary_inputs().len(),
            original.primary_inputs().len()
        );
        assert_eq!(
            reparsed.primary_outputs().len(),
            original.primary_outputs().len()
        );
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|k| (bits >> k) & 1 == 1).collect();
            assert_eq!(
                reparsed.eval_outputs(&v),
                original.eval_outputs(&v),
                "at {v:?}"
            );
        }
    }
}
