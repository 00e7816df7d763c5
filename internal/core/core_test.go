package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/models"
)

func TestToolflowRun(t *testing.T) {
	tf := New(models.Default())
	o := tf.Run(Point{App: "Adder", Topology: "L6", Capacity: 20, Gate: models.AM2, Reorder: models.GS})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Result.Fidelity <= 0 || o.Result.Fidelity > 1 {
		t.Errorf("fidelity = %g", o.Result.Fidelity)
	}
	if o.Result.TotalSeconds() <= 0 {
		t.Error("zero run time")
	}
}

func TestToolflowErrorPaths(t *testing.T) {
	tf := New(models.Default())
	cases := []Point{
		{App: "missing", Topology: "L6", Capacity: 20},
		{App: "BV", Topology: "X1", Capacity: 20},
		{App: "QFT", Topology: "L2", Capacity: 4}, // too small for 64 qubits
	}
	for _, pt := range cases {
		if o := tf.Run(pt); o.Err == nil {
			t.Errorf("%s: expected error", pt)
		}
	}
}

func TestToolflowBadParams(t *testing.T) {
	p := models.Default()
	p.SplitTime = -1
	tf := New(p)
	o := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM})
	if o.Err == nil {
		t.Error("invalid params should surface as an outcome error")
	}
}

func TestCircuitCacheSharedAcrossPoints(t *testing.T) {
	tf := New(models.Default())
	run := func(capacity int) *circuit.Circuit {
		t.Helper()
		if o := tf.Run(Point{App: "QFT", Topology: "L6", Capacity: capacity, Gate: models.FM}); o.Err != nil {
			t.Fatal(o.Err)
		}
		c, ok := tf.circuits.Get("QFT")
		if !ok {
			t.Fatal("circuit stage does not hold QFT after a run")
		}
		return c
	}
	if a, b := run(22), run(26); a != b {
		t.Error("circuit cache should return the same instance")
	}
	if st := tf.circuits.Stats(); st.Misses != 1 {
		t.Errorf("QFT built %d times across two points, want 1", st.Misses)
	}
}

// TestCircuitStageBoundedAndShared sweeps more distinct apps than the
// circuit stage holds: the stage stays at its bound, eviction changes no
// outcome, and a WithParams view reuses the same circuits while keying
// its outcomes under its own calibration.
func TestCircuitStageBoundedAndShared(t *testing.T) {
	base := models.Default()
	tf := New(base)
	var pts []Point
	for n := 1; n <= maxCircuits+8; n++ {
		pts = append(pts, Point{App: fmt.Sprintf("BV@%d", n), Topology: "L3", Capacity: 22, Gate: models.FM, Reorder: models.GS})
	}
	got := tf.Sweep(pts)
	if st := tf.circuits.Stats(); st.Entries != maxCircuits || st.Evictions == 0 {
		t.Errorf("circuit stage after %d apps: %+v, want %d entries and some evictions", len(pts), st, maxCircuits)
	}
	fresh := New(base)
	for i, pt := range pts {
		want := fresh.Run(pt)
		if got[i].Err != nil || want.Err != nil {
			t.Fatalf("%s: %v / %v", pt, got[i].Err, want.Err)
		}
		if !reflect.DeepEqual(got[i].Result, want.Result) {
			t.Errorf("%s: outcome on the bounded stage differs from a fresh toolflow", pt)
		}
	}

	if tf.WithParams(base) != tf {
		t.Error("WithParams(own calibration) should return the receiver")
	}
	hot := base
	hot.K1 *= 10
	view := tf.WithParams(hot)
	pt := pts[len(pts)-1]
	before := tf.circuits.Stats().Misses
	if o := view.Run(pt); o.Err != nil {
		t.Fatal(o.Err)
	}
	if st := tf.circuits.Stats(); st.Misses != before {
		t.Errorf("view rebuilt %s: stage misses %d -> %d", pt.App, before, st.Misses)
	}
	a, okA := tf.circuits.Get(pt.App)
	b, okB := view.circuits.Get(pt.App)
	if !okA || !okB || a != b {
		t.Errorf("view and receiver hold different circuits for %s", pt.App)
	}
	if CacheKey(pt, view.Params()) == CacheKey(pt, tf.Params()) {
		t.Error("view shares the receiver's cache key for the same point")
	}
	if view.Params() != hot || tf.Params() != base {
		t.Error("WithParams changed the receiver's calibration or ignored p")
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	tf := New(models.Default())
	pts := CapacitySweep("BV", "L6", models.FM, models.GS, []int{14, 22, 30})
	parallel := tf.Sweep(pts)
	for i, pt := range pts {
		serial := tf.Run(pt)
		if serial.Err != nil || parallel[i].Err != nil {
			t.Fatalf("errors: %v %v", serial.Err, parallel[i].Err)
		}
		if serial.Result.Fidelity != parallel[i].Result.Fidelity ||
			serial.Result.TotalTime != parallel[i].Result.TotalTime {
			t.Errorf("point %d: parallel result differs from serial", i)
		}
	}
}

func TestSweepEmptyAndConcurrentSafety(t *testing.T) {
	tf := New(models.Default())
	if out := tf.Sweep(nil); len(out) != 0 {
		t.Error("empty sweep should return empty")
	}
	// Concurrent use of one toolflow from multiple goroutines.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 18, Gate: models.FM})
			if o.Err != nil {
				t.Error(o.Err)
			}
		}()
	}
	wg.Wait()
}

func TestCapacitySweepShape(t *testing.T) {
	pts := CapacitySweep("QFT", "G2x3", models.PM, models.IS, []int{10, 20})
	if len(pts) != 2 || pts[0].Capacity != 10 || pts[1].Capacity != 20 {
		t.Errorf("points = %v", pts)
	}
	if pts[0].Gate != models.PM || pts[0].Reorder != models.IS {
		t.Error("microarchitecture not propagated")
	}
}

// TestQECMetricAttachment runs a Surface@d design point end-to-end and
// checks the logical-error fields ride the outcome, while non-QEC points
// stay clean — the omitempty contract that keeps the golden grid stable.
func TestQECMetricAttachment(t *testing.T) {
	tf := New(models.Default())
	o := tf.Run(Point{App: "Surface@3", Topology: "L2", Capacity: 20, Gate: models.FM, Reorder: models.GS})
	if o.Err != nil {
		t.Fatalf("Surface@3: %v", o.Err)
	}
	if o.Result.CodeDistance != 3 || o.Result.QECRounds != 3 {
		t.Errorf("QEC fields: d=%d rounds=%d, want 3/3", o.Result.CodeDistance, o.Result.QECRounds)
	}
	if o.Result.LogicalErrorRate <= 0 || o.Result.LogicalErrorRate > 0.5 {
		t.Errorf("logical error rate %v outside (0, 0.5]", o.Result.LogicalErrorRate)
	}

	plain := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS})
	if plain.Err != nil {
		t.Fatalf("BV: %v", plain.Err)
	}
	if plain.Result.CodeDistance != 0 || plain.Result.QECRounds != 0 || plain.Result.LogicalErrorRate != 0 {
		t.Errorf("non-QEC point carries QEC fields: %+v", plain.Result)
	}
}
