package isa

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/device"
)

func validProgram() *Program {
	p := &Program{
		Name:          "t",
		NumQubits:     3,
		DeviceName:    "L2",
		InitialLayout: [][]int{{0, 1}, {2}},
		Ops: []Op{
			{Kind: OpGate1, Q: [2]int32{0}, Resource: 0, Gate: circuit.GateH, GateIndex: 0},
			{Kind: OpSplit, Q: [2]int32{0}, Resource: 0, End: device.Right, GateIndex: -1, Dep: [MaxDeps]int32{0}, NDep: 1},
			{Kind: OpMove, Q: [2]int32{0}, Resource: 0, GateIndex: -1, Dep: [MaxDeps]int32{1}, NDep: 1},
			{Kind: OpMerge, Q: [2]int32{0}, Resource: 1, End: device.Left, GateIndex: -1, Dep: [MaxDeps]int32{2}, NDep: 1},
			{Kind: OpGate2, Q: [2]int32{0, 2}, Resource: 1, Gate: circuit.GateCNOT, GateIndex: 1, Dep: [MaxDeps]int32{3}, NDep: 1},
		},
	}
	p.Link()
	return p
}

func TestValidateHappyPath(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesBadPrograms corrupts a linked program one field at a
// time and checks that Validate names the corruption.
func TestValidateCatchesBadPrograms(t *testing.T) {
	corrupt := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"move without segment", func(p *Program) { p.Ops[2].Resource = -1 }, "without segment"},
		{"gate without trap", func(p *Program) { p.Ops[0].Resource = -1 }, "without trap"},
		{"forward dep", func(p *Program) { p.Ops[4].Dep[0] = 9 }, "non-earlier"},
		{"negative dep", func(p *Program) { p.Ops[4].Dep[0] = -1 }, "non-earlier"},
		{"self dep", func(p *Program) { p.Ops[4].Dep[0] = 4 }, "non-earlier"},
		{"dep count over three", func(p *Program) { p.Ops[4].NDep = MaxDeps + 1 }, "at most"},
		{"repeated dep", func(p *Program) { p.Ops[4].Dep, p.Ops[4].NDep = [MaxDeps]int32{3, 3}, 2 }, "ascending"},
		{"qubit range", func(p *Program) { p.Ops[0].Q[0] = 5 }, "out of range"},
		{"second qubit range", func(p *Program) { p.Ops[4].Q[1] = 3 }, "out of range"},
		{"dup layout", func(p *Program) { p.InitialLayout = [][]int{{0, 0}, {2}} }, "placed twice"},
		{"missing qubit", func(p *Program) { p.InitialLayout = [][]int{{0}, {2}} }, "places 2 of 3"},
		{"layout range", func(p *Program) { p.InitialLayout[0][0] = 9 }, "out of range"},
		{"not linked", func(p *Program) { p.ChildOff, p.Children = nil, nil }, "not linked"},
		{"non-monotone child offsets", func(p *Program) { p.ChildOff[2] = 0 }, "not monotone"},
		{"children not the deps' inverse", func(p *Program) { p.Children[0] = 2 }, "missing from its children"},
		{"child not after parent", func(p *Program) { p.Children[1] = 0 }, "not ascending"},
		{"dep missing from children", func(p *Program) {
			p.Ops[4].Dep, p.Ops[4].NDep = [MaxDeps]int32{2, 3}, 2
		}, "missing from its children"},
		{"extra child", func(p *Program) {
			p.Ops[4].Dep, p.Ops[4].NDep = [MaxDeps]int32{}, 0
		}, "children listed for"},
	}
	for _, c := range corrupt {
		p := validProgram()
		c.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: not caught", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestLinkInvertsDeps(t *testing.T) {
	p := validProgram()
	p.Ops[4].Dep, p.Ops[4].NDep = [MaxDeps]int32{0, 1, 3}, 3
	p.Link()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	wantOff := []int32{0, 2, 4, 5, 6, 6}
	wantChildren := []int32{1, 4, 2, 4, 3, 4}
	if !slices.Equal(p.ChildOff, wantOff) || !slices.Equal(p.Children, wantChildren) {
		t.Errorf("Link = %v %v, want %v %v", p.ChildOff, p.Children, wantOff, wantChildren)
	}
}

// TestMalformedProgramsNeverPanic scrambles op fields and the child CSR at
// random. Link and Validate must return rather than panic, and whenever
// Validate accepts a program its CSR must be exactly the inverse of its
// deps.
func TestMalformedProgramsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		p := validProgram()
		for k := 0; k <= rng.Intn(3); k++ {
			op := &p.Ops[rng.Intn(len(p.Ops))]
			v := int32(rng.Intn(12) - 3)
			switch rng.Intn(7) {
			case 0:
				op.NDep = uint8(rng.Intn(256))
			case 1:
				op.Dep[rng.Intn(MaxDeps)] = v
			case 2:
				op.Q[rng.Intn(2)] = v
			case 3:
				op.Resource = v
			case 4:
				op.Kind = OpKind(rng.Intn(256))
			case 5:
				p.ChildOff[rng.Intn(len(p.ChildOff))] = v
			case 6:
				p.Children[rng.Intn(len(p.Children))] = v
			}
		}
		if p.Validate() == nil {
			checkInverse(t, p)
		}
		p.Link()
		if p.Validate() == nil {
			checkInverse(t, p)
		}
	}
}

// checkInverse compares p's child CSR with the inverse of its deps
// computed by brute force.
func checkInverse(t *testing.T, p *Program) {
	t.Helper()
	for i := range p.Ops {
		var want []int32
		for j := range p.Ops {
			if slices.Contains(p.Ops[j].Deps(), int32(i)) {
				want = append(want, int32(j))
			}
		}
		if got := p.Children[p.ChildOff[i]:p.ChildOff[i+1]]; !slices.Equal(got, want) {
			t.Fatalf("Validate accepted children %v of op %d, want %v", got, i, want)
		}
	}
}

func TestOpHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: op storage must hold no pointers", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Op{}), "Op")
}

func TestOpSize(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size > 40 {
		t.Errorf("isa.Op is %d bytes, want at most 40", size)
	}
}

func TestCategories(t *testing.T) {
	if OpGate2.Category() != CatCompute || OpMeasure.Category() != CatCompute {
		t.Error("gates should be compute")
	}
	for _, k := range []OpKind{OpSplit, OpMove, OpJunctionCross, OpMerge, OpSwapGS, OpIonSwap} {
		if k.Category() != CatComm {
			t.Errorf("%s should be comm", k)
		}
	}
	if CatCompute.String() != "compute" || CatComm.String() != "comm" {
		t.Error("category names")
	}
}

func TestCounts(t *testing.T) {
	p := validProgram()
	if p.CountKind(OpGate1) != 1 || p.CountKind(OpMove) != 1 {
		t.Error("CountKind")
	}
	if got := p.CommOps(); got != 3 {
		t.Errorf("CommOps = %d, want 3", got)
	}
}

func TestOpStrings(t *testing.T) {
	p := validProgram()
	cases := map[int]string{
		0: "gate1 h q0 @T0",
		1: "split q0 @T0.right <- [0]",
		2: "move q0 @s0 <- [1]",
		4: "gate2 cx q0,q2 @T1 <- [3]",
	}
	for id, want := range cases {
		if got := p.Ops[id].String(); got != want {
			t.Errorf("op %d String = %q, want %q", id, got, want)
		}
	}
}

func TestResourceClass(t *testing.T) {
	cases := []struct {
		kind  OpKind
		class ResourceClass
		name  string
	}{
		{OpGate1, ResTrap, "T3"},
		{OpGate2, ResTrap, "T3"},
		{OpMeasure, ResTrap, "T3"},
		{OpSplit, ResTrap, "T3"},
		{OpMove, ResSegment, "s3"},
		{OpJunctionCross, ResJunction, "J3"},
		{OpMerge, ResTrap, "T3"},
		{OpSwapGS, ResTrap, "T3"},
		{OpIonSwap, ResTrap, "T3"},
		{OpLinkTransit, ResSegment, "s3"},
	}
	if len(cases) != len(opNames) {
		t.Fatalf("%d cases for %d op kinds", len(cases), len(opNames))
	}
	for _, c := range cases {
		op := Op{Kind: c.kind, Resource: 3}
		if got := c.kind.ResourceClass(); got != c.class {
			t.Errorf("%s: class %s, want %s", c.kind, got, c.class)
		}
		if got := op.ResourceName(); got != c.name {
			t.Errorf("%s: resource name %q, want %q", c.kind, got, c.name)
		}
	}
}

func TestProgramString(t *testing.T) {
	s := validProgram().String()
	for _, want := range []string{"program t on L2", "T0: [0 1]", "  4: gate2 cx"} {
		if !strings.Contains(s, want) {
			t.Errorf("program string missing %q:\n%s", want, s)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpJunctionCross.String() != "junction" || OpIonSwap.String() != "ionswap" {
		t.Error("op kind names")
	}
	if OpKind(99).String() != "op(99)" {
		t.Error("out-of-range op kind")
	}
}
