package sim

import (
	"fmt"
	"math"

	"pnps/internal/buffer"
)

// MaxStorageStates bounds the internal state dimension of a Storage
// model; the engine preallocates its ODE state buffer to this size so
// pluggable storage keeps the zero-steady-state-allocation hot path.
const MaxStorageStates = 4

// Storage models the supply-node energy buffer as a small ODE system,
// replacing the hard-coded ideal capacitor of C·dVc/dt = Inet. The
// engine owns a state vector of Dim() voltages; state[0] is the sensed
// voltage — the node the threshold monitor, the brownout comparator and
// the recorded VC trace observe.
//
// Sign convention: i is the net terminal current in amps flowing *into*
// the storage branch (harvest minus load), matching the capacitor
// equation's right-hand side.
//
// Implementations must be immutable values: all mutable run state lives
// in the engine-owned state vector, so one Storage value can be shared
// by concurrent runs (sweeps, campaigns) without synchronisation.
type Storage interface {
	// Validate checks the parameters.
	Validate() error
	// Dim returns the number of internal state voltages (1..MaxStorageStates).
	Dim() int
	// Init fills state (length Dim) for a buffer at rest with terminal
	// voltage v0.
	Init(v0 float64, state []float64)
	// Terminal returns the board/node supply voltage for the given state
	// with net current i flowing into the storage. For storage with
	// series resistance this differs from state[0]; the engine then
	// re-evaluates harvest and load at the shifted voltage (one
	// corrector pass).
	Terminal(state []float64, i float64) float64
	// Derivative writes dstate/dt for net terminal current i.
	Derivative(state []float64, i float64, dstate []float64)
	// Energy returns the energy stored at the given state, joules.
	Energy(state []float64) float64
}

// IdealCap is the lossless buffer capacitor the paper deploys (47 mF):
// dVc/dt = i/C. It reproduces the engine's historical hard-coded
// behaviour bit for bit.
type IdealCap struct {
	// Farads is the buffer capacitance.
	Farads float64
}

// Validate implements Storage.
func (c IdealCap) Validate() error {
	if !(c.Farads > 0) || math.IsInf(c.Farads, 0) {
		return fmt.Errorf("sim: capacitance must be positive and finite, got %g", c.Farads)
	}
	return nil
}

// Dim implements Storage.
func (IdealCap) Dim() int { return 1 }

// Init implements Storage.
func (IdealCap) Init(v0 float64, state []float64) { state[0] = v0 }

// Terminal implements Storage.
func (IdealCap) Terminal(state []float64, _ float64) float64 { return state[0] }

// Derivative implements Storage.
func (c IdealCap) Derivative(state []float64, i float64, dstate []float64) {
	dstate[0] = i / c.Farads
}

// Energy implements Storage.
func (c IdealCap) Energy(state []float64) float64 {
	return 0.5 * c.Farads * state[0] * state[0]
}

// Supercap is a supercapacitor bank with equivalent series resistance
// and a parallel leakage path — buffer.Supercap's equivalent circuit
// (Weddell et al., the paper's [5]) promoted into the live ODE:
//
//	dVc/dt = (i − Vc/Rleak) / C        (state 0: cell voltage)
//	Vnode  = Vc + i·ESR                (terminal behind the ESR)
//
// The monitor and brownout comparators sense the cell voltage Vc
// (state 0); the ESR drop shifts the operating point at which harvest
// and load currents are evaluated. With ESROhms = 0 and LeakOhms = +Inf
// the model degenerates to IdealCap exactly (bit-identical traces; see
// TestSupercapDegeneratesToIdealCap).
type Supercap struct {
	buffer.Supercap
}

// NewSupercap adapts a buffer.Supercap bank for the live ODE.
func NewSupercap(bank buffer.Supercap) Supercap { return Supercap{Supercap: bank} }

// Validate implements Storage.
func (s Supercap) Validate() error { return s.Supercap.Validate() }

// Dim implements Storage.
func (Supercap) Dim() int { return 1 }

// Init implements Storage.
func (Supercap) Init(v0 float64, state []float64) { state[0] = v0 }

// Terminal implements Storage.
func (s Supercap) Terminal(state []float64, i float64) float64 {
	return state[0] + i*s.ESROhms
}

// Derivative implements Storage.
func (s Supercap) Derivative(state []float64, i float64, dstate []float64) {
	dstate[0] = (i - state[0]/s.LeakOhms) / s.Farads
}

// Energy implements Storage.
func (s Supercap) Energy(state []float64) float64 { return s.Supercap.Energy(state[0]) }

// HybridCap is a two-stage buffer: a small capacitor directly on the
// supply node (state 0, the sensed voltage) backed by a large reservoir
// (state 1) behind a diode. The diode lets the reservoir hold the node
// up through harvest collapses — at the cost of its forward drop —
// while a trickle-charge resistor refills the reservoir from harvest
// surplus:
//
//	idis = max(0, Vres − Vf − Vnode) / Rdiode    (reservoir → node)
//	ichg = max(0, Vnode − Vres) / Rcharge        (node → reservoir)
//	dVnode/dt = (i + idis − ichg) / Cnode
//	dVres/dt  = (ichg − idis − Vres/Rleak) / Cres
type HybridCap struct {
	// NodeFarads is the small capacitor at the supply node.
	NodeFarads float64
	// ReservoirFarads is the bulk storage behind the diode.
	ReservoirFarads float64
	// DiodeDropVolts is the diode forward drop (e.g. 0.35 V Schottky).
	DiodeDropVolts float64
	// DiodeOhms is the on-resistance of the conducting diode.
	DiodeOhms float64
	// ChargeOhms is the node→reservoir trickle-charge resistance.
	ChargeOhms float64
	// LeakOhms models reservoir self-discharge; +Inf disables it.
	LeakOhms float64
}

// Validate implements Storage.
func (h HybridCap) Validate() error {
	switch {
	case h.NodeFarads <= 0:
		return fmt.Errorf("sim: hybrid node capacitance must be positive, got %g", h.NodeFarads)
	case h.ReservoirFarads <= 0:
		return fmt.Errorf("sim: hybrid reservoir capacitance must be positive, got %g", h.ReservoirFarads)
	case h.DiodeDropVolts < 0:
		return fmt.Errorf("sim: diode drop must be non-negative, got %g", h.DiodeDropVolts)
	case h.DiodeOhms <= 0:
		return fmt.Errorf("sim: diode on-resistance must be positive, got %g", h.DiodeOhms)
	case h.ChargeOhms <= 0:
		return fmt.Errorf("sim: charge resistance must be positive, got %g", h.ChargeOhms)
	case h.LeakOhms <= 0:
		return fmt.Errorf("sim: leakage resistance must be positive, got %g", h.LeakOhms)
	}
	return nil
}

// Dim implements Storage.
func (HybridCap) Dim() int { return 2 }

// Init implements Storage.
func (HybridCap) Init(v0 float64, state []float64) {
	state[0] = v0
	state[1] = v0
}

// Terminal implements Storage.
func (HybridCap) Terminal(state []float64, _ float64) float64 { return state[0] }

// Derivative implements Storage.
func (h HybridCap) Derivative(state []float64, i float64, dstate []float64) {
	vn, vr := state[0], state[1]
	idis := math.Max(0, vr-h.DiodeDropVolts-vn) / h.DiodeOhms
	ichg := math.Max(0, vn-vr) / h.ChargeOhms
	dstate[0] = (i + idis - ichg) / h.NodeFarads
	dstate[1] = (ichg - idis - vr/h.LeakOhms) / h.ReservoirFarads
}

// Energy implements Storage.
func (h HybridCap) Energy(state []float64) float64 {
	return 0.5*h.NodeFarads*state[0]*state[0] + 0.5*h.ReservoirFarads*state[1]*state[1]
}
