// Package isa defines the primitive QCCD instruction set produced by the
// backend compiler (§V.A): in-trap gates, measurements, the shuttling
// primitives split / move / junction-cross / merge, and the two chain
// reordering primitives (gate-based SWAP and physical ion swap). A Program
// is an executable: an initial qubit layout plus a dependency-annotated
// operation list that the simulator schedules onto device resources.
package isa

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
)

// OpKind enumerates the primitive QCCD operations.
type OpKind uint8

const (
	// OpGate1 is a single-qubit gate executed inside a trap.
	OpGate1 OpKind = iota
	// OpGate2 is a two-qubit MS-mediated gate inside a trap.
	OpGate2
	// OpMeasure is a qubit readout inside a trap.
	OpMeasure
	// OpSplit detaches the ion holding a qubit from the chain end of a
	// trap onto the adjoining segment.
	OpSplit
	// OpMove shuttles a detached ion across one segment.
	OpMove
	// OpJunctionCross shuttles a detached ion through a junction,
	// including any turn.
	OpJunctionCross
	// OpMerge attaches a detached ion to a chain end of a trap.
	OpMerge
	// OpSwapGS exchanges the quantum states of two ions in one trap using
	// a SWAP gate (3 MS gates plus single-qubit corrections).
	OpSwapGS
	// OpIonSwap physically exchanges two adjacent ions in one trap
	// (split + 180° rotation + merge).
	OpIonSwap
	// OpLinkTransit carries a detached ion's state across a photonic
	// interconnect segment joining two QCCD modules: remote entanglement
	// is established over the optical link and the state is teleported
	// onto a fresh ion on the far side (TITAN-style, PAPERS.md).
	OpLinkTransit
)

var opNames = [...]string{
	OpGate1:         "gate1",
	OpGate2:         "gate2",
	OpMeasure:       "measure",
	OpSplit:         "split",
	OpMove:          "move",
	OpJunctionCross: "junction",
	OpMerge:         "merge",
	OpSwapGS:        "swapgs",
	OpIonSwap:       "ionswap",
	OpLinkTransit:   "link",
}

// String returns the mnemonic for k.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Category splits operations into the computation/communication classes
// used by Figure 6b. Chain reordering counts as communication: it exists
// only to enable shuttling (§IV.C).
type Category uint8

const (
	// CatCompute covers gates and measurements from the program itself.
	CatCompute Category = iota
	// CatComm covers shuttling and chain-reordering overhead.
	CatComm
)

// String returns "compute" or "comm".
func (c Category) String() string {
	if c == CatCompute {
		return "compute"
	}
	return "comm"
}

// Category classifies the op kind.
func (k OpKind) Category() Category {
	switch k {
	case OpGate1, OpGate2, OpMeasure:
		return CatCompute
	default:
		return CatComm
	}
}

// MaxDeps is the most dependencies one op can carry: the previous op on
// each of its (at most two) qubits plus its trap's previous structural op.
const MaxDeps = 3

// Arity returns the number of program qubits an op of kind k acts on: two
// for gate2 and the two swap kinds, one for every other kind.
func (k OpKind) Arity() int {
	switch k {
	case OpGate2, OpSwapGS, OpIonSwap:
		return 2
	default:
		return 1
	}
}

// ResourceClass is the class of device resource an op holds, and so what
// its Resource field indexes.
type ResourceClass uint8

const (
	// ResTrap is a trap; every kind but move, link transit and
	// junction-cross holds one.
	ResTrap ResourceClass = iota
	// ResSegment is a shuttling segment, held by a move or link transit.
	ResSegment
	// ResJunction is a junction, held by a junction-cross.
	ResJunction
)

var resourceClassNames = [...]string{ResTrap: "trap", ResSegment: "segment", ResJunction: "junction"}

// resourcePrefixes label one resource of each class, as in "T2", "s5", "J1".
var resourcePrefixes = [...]string{ResTrap: "T", ResSegment: "s", ResJunction: "J"}

// String returns "trap", "segment" or "junction".
func (c ResourceClass) String() string { return resourceClassNames[c] }

// ResourceClass returns the class of device resource an op of kind k holds.
func (k OpKind) ResourceClass() ResourceClass {
	switch k {
	case OpMove, OpLinkTransit:
		return ResSegment
	case OpJunctionCross:
		return ResJunction
	default:
		return ResTrap
	}
}

// Op is one primitive instruction: a fixed-size value holding no pointer,
// so a program's op array is one flat allocation the garbage collector
// never scans. An op's ID is its index in Program.Ops; it is also the op's
// scheduling priority.
type Op struct {
	// Param is the IR gate parameter.
	Param float64
	// Q holds the program qubits involved; the first Kind.Arity() entries
	// are meaningful.
	Q [2]int32
	// Dep holds, in its first NDep entries, the IDs of the ops that must
	// complete before this op starts: ascending, and all earlier than the
	// op itself.
	Dep [MaxDeps]int32
	// Resource is the op's one device resource: the segment traversed by a
	// move or link transit, the junction crossed by a junction-cross, and
	// the trap operated on for every other kind.
	Resource int32
	// GateIndex is the IR gate index this op realizes, or -1 for
	// compiler-inserted communication ops.
	GateIndex int32
	// Kind selects the primitive.
	Kind OpKind
	// Gate carries the original IR gate kind for gate1/gate2/measure.
	Gate circuit.Kind
	// End is the chain end for split/merge.
	End device.End
	// NDep is the number of entries of Dep in use.
	NDep uint8
}

// Qubits returns the op's operand qubits, aliasing o.Q.
func (o *Op) Qubits() []int32 { return o.Q[:o.Kind.Arity()] }

// Deps returns the op's dependencies, aliasing o.Dep. It panics when NDep
// exceeds MaxDeps, which Validate rejects.
func (o *Op) Deps() []int32 { return o.Dep[:o.NDep] }

// ResourceName renders the op's resource, e.g. "T2", "s5" or "J1".
func (o *Op) ResourceName() string {
	return fmt.Sprintf("%s%d", resourcePrefixes[o.Kind.ResourceClass()], o.Resource)
}

// String renders one op, e.g. "gate2 cx q5,q9 @T2 <- [10 11]". The op's
// ID is its position in the program, so Program.String prefixes it.
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Kind.String())
	if o.Kind.Category() == CatCompute {
		fmt.Fprintf(&b, " %s", o.Gate)
	}
	for i, q := range o.Qubits() {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q%d", q)
	}
	fmt.Fprintf(&b, " @%s", o.ResourceName())
	if o.Kind == OpSplit || o.Kind == OpMerge {
		fmt.Fprintf(&b, ".%s", o.End)
	}
	if o.NDep > 0 && o.NDep <= MaxDeps {
		fmt.Fprintf(&b, " <- %v", o.Deps())
	}
	return b.String()
}

// Program is a compiled executable for one circuit on one device. Its op
// storage is flat and pointer-free: the op array plus the child CSR, two
// int32 arrays.
type Program struct {
	// Name is the source circuit name.
	Name string
	// NumQubits is the program qubit count.
	NumQubits int
	// DeviceName records the target device spec (e.g. "L6").
	DeviceName string
	// InitialLayout lists, per trap, the qubit IDs in chain order
	// (index 0 = left end) at program start.
	InitialLayout [][]int
	// Ops is the instruction list in compile order.
	Ops []Op
	// ChildOff and Children invert the ops' deps in CSR form: the ops that
	// depend on op i are Children[ChildOff[i]:ChildOff[i+1]], ascending.
	// Link builds them and Validate checks them.
	ChildOff []int32
	Children []int32
}

// Link builds the program's child CSR from its ops' deps. The compiler
// calls it once per program; a hand-built program calls it after its last
// op is in place. Deps that do not name an earlier op are left out, so
// Validate reports them as deps rather than Link failing on them.
func (p *Program) Link() {
	n := len(p.Ops)
	off := make([]int32, n+1)
	for i := range p.Ops {
		for _, d := range p.linkDeps(i) {
			off[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	children := make([]int32, off[n])
	// off[d] serves as op d's fill cursor, which leaves it at op d's end,
	// that is op d+1's start; one shift restores the starts. Filling in
	// op order keeps every child list ascending.
	for i := range p.Ops {
		for _, d := range p.linkDeps(i) {
			children[off[d]] = int32(i)
			off[d]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	p.ChildOff, p.Children = off, children
}

// linkDeps returns op i's deps as Link reads them: at most MaxDeps, and
// empty once any of them does not name an earlier op.
func (p *Program) linkDeps(i int) []int32 {
	op := &p.Ops[i]
	deps := op.Dep[:min(int(op.NDep), MaxDeps)]
	for _, d := range deps {
		if d < 0 || int(d) >= i {
			return nil
		}
	}
	return deps
}

// CountKind returns the number of ops of kind k.
func (p *Program) CountKind(k OpKind) int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind == k {
			n++
		}
	}
	return n
}

// CommOps returns the number of communication-category ops.
func (p *Program) CommOps() int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind.Category() == CatComm {
			n++
		}
	}
	return n
}

// Validate checks structural well-formedness: dependency ordering, qubit
// ranges, layout consistency (each qubit placed exactly once), each op's
// resource, and that the child CSR is exactly the inverse of the deps.
// It allocates only the layout check's per-qubit flags.
func (p *Program) Validate() error {
	placed := make([]bool, p.NumQubits)
	nPlaced := 0
	for trap, chain := range p.InitialLayout {
		for _, q := range chain {
			if q < 0 || q >= p.NumQubits {
				return fmt.Errorf("isa: layout trap %d: qubit %d out of range", trap, q)
			}
			if placed[q] {
				return fmt.Errorf("isa: qubit %d placed twice in layout", q)
			}
			placed[q] = true
			nPlaced++
		}
	}
	if nPlaced != p.NumQubits {
		return fmt.Errorf("isa: layout places %d of %d qubits", nPlaced, p.NumQubits)
	}
	if err := p.validateChildLists(); err != nil {
		return err
	}
	// Every dep must find its op among its parent's children. The child
	// lists ascend strictly, so each is a set holding at least the true
	// children; equal totals then make every list exact.
	nDeps := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.NDep > MaxDeps {
			return fmt.Errorf("isa: op %d has %d deps, at most %d", i, op.NDep, MaxDeps)
		}
		prev := int32(-1)
		for _, d := range op.Deps() {
			if d < 0 || int(d) >= i {
				return fmt.Errorf("isa: op %d depends on non-earlier op %d", i, d)
			}
			if d <= prev {
				return fmt.Errorf("isa: op %d deps %v not strictly ascending", i, op.Deps())
			}
			prev = d
			if _, ok := slices.BinarySearch(p.Children[p.ChildOff[d]:p.ChildOff[d+1]], int32(i)); !ok {
				return fmt.Errorf("isa: op %d depends on op %d but is missing from its children", i, d)
			}
		}
		nDeps += int(op.NDep)
		for _, q := range op.Qubits() {
			if q < 0 || int(q) >= p.NumQubits {
				return fmt.Errorf("isa: op %d qubit %d out of range", i, q)
			}
		}
		if op.Resource < 0 {
			return fmt.Errorf("isa: op %d (%s) without %s", i, op.Kind, op.Kind.ResourceClass())
		}
	}
	if nDeps != len(p.Children) {
		return fmt.Errorf("isa: %d children listed for %d deps", len(p.Children), nDeps)
	}
	return nil
}

// validateChildLists checks the child CSR's shape: one offset per op plus
// one, monotone from 0 to len(Children), and each op's children strictly
// ascending ops later than it.
func (p *Program) validateChildLists() error {
	n := len(p.Ops)
	if n >= math.MaxInt32 {
		return fmt.Errorf("isa: %d ops exceed the int32 op ID range", n)
	}
	if len(p.ChildOff) != n+1 {
		return fmt.Errorf("isa: program not linked: %d child offsets for %d ops", len(p.ChildOff), n)
	}
	if p.ChildOff[0] != 0 || int(p.ChildOff[n]) != len(p.Children) {
		return fmt.Errorf("isa: child offsets span %d..%d over %d children", p.ChildOff[0], p.ChildOff[n], len(p.Children))
	}
	for i := 0; i < n; i++ {
		lo, hi := p.ChildOff[i], p.ChildOff[i+1]
		if hi < lo || int(hi) > len(p.Children) {
			return fmt.Errorf("isa: child offsets of op %d not monotone (%d, %d)", i, lo, hi)
		}
		prev := int32(i)
		for _, c := range p.Children[lo:hi] {
			if c <= prev || int(c) >= n {
				return fmt.Errorf("isa: children of op %d not ascending later ops", i)
			}
			prev = c
		}
	}
	return nil
}

// String renders the program header and every op, one per line. Intended
// for debugging and golden tests on small programs.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s on %s (%d qubits, %d ops)\n", p.Name, p.DeviceName, p.NumQubits, len(p.Ops))
	for t, chain := range p.InitialLayout {
		fmt.Fprintf(&b, "  T%d: %v\n", t, chain)
	}
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "  %d: %s\n", i, op)
	}
	return b.String()
}
