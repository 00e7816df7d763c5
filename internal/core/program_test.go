package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/models"
)

// paperGrid is the paper's 576-point evaluation grid in sweep-grammar
// order (gate, then reorder innermost), as experiments.PaperSpace
// expands it, together with its number of distinct compiler inputs.
func paperGrid() (pts []Point, programs int) {
	for _, app := range []string{"Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV"} {
		for _, topo := range []string{"L6", "G2x3"} {
			for _, capacity := range []int{14, 18, 22, 26, 30, 34} {
				for _, gate := range models.GateImpls() {
					for _, reorder := range models.ReorderMethods() {
						pts = append(pts, Point{App: app, Topology: topo, Capacity: capacity, Gate: gate, Reorder: reorder})
					}
				}
				programs += len(models.ReorderMethods())
			}
		}
	}
	return pts, programs
}

// streamAll runs pts through Stream at the given worker count, with the
// look-ahead the grammar form of the sweep service uses.
func streamAll(tf *Toolflow, pts []Point, workers int) []Outcome {
	out := make([]Outcome, len(pts))
	tf.Stream(context.Background(), 0, int64(len(pts)), workers, workers,
		func(i int64) Point { return pts[i] },
		func(r Row) bool { out[r.Index] = r.Outcome; return true })
	return out
}

func TestProgramStageCompilesOncePerProgram(t *testing.T) {
	base := models.Default()
	pts, programs := paperGrid()
	// The reference retains no program, so every point is compiled anew.
	want := newWithProgramBudget(base, 0).Sweep(pts)
	for _, c := range []struct {
		workers   int
		maxMisses int
	}{
		{1, programs},
		{2, programs * 115 / 100},
	} {
		tf := New(base)
		got := streamAll(tf, pts, c.workers)
		misses := int(tf.programs.Stats().Misses)
		t.Logf("workers=%d: %d compiles for %d distinct programs", c.workers, misses, programs)
		if misses < programs || misses > c.maxMisses {
			t.Errorf("workers=%d: %d compiles, want %d..%d", c.workers, misses, programs, c.maxMisses)
		}
		for i := range pts {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("%s: %v / %v", pts[i], got[i].Err, want[i].Err)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: %s differs from a fresh compile", c.workers, pts[i])
			}
		}
	}
}

func TestProgramStageSharedAcrossParams(t *testing.T) {
	base := models.Default()
	tf := New(base)
	pt := Point{App: "BV", Topology: "L6", Capacity: 18, Gate: models.FM, Reorder: models.GS}
	slow := base
	slow.SplitTime *= 2
	var times []float64
	for _, p := range []models.Params{base, slow} {
		got := tf.WithParams(p).Run(pt)
		want := New(p).Run(pt)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%v / %v", got.Err, want.Err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("view result differs from a fresh toolflow under the same calibration")
		}
		times = append(times, got.Result.TotalTime)
	}
	if times[0] == times[1] {
		t.Errorf("both calibrations ran in %g µs; the shared program ignored the view", times[0])
	}
	if st := tf.programs.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("program stage = %+v, want one compile shared by both views", st)
	}
}

func TestProgramStageSkipsOversized(t *testing.T) {
	base := models.Default()
	tf := newWithProgramBudget(base, 1)
	pt := Point{App: "QFT", Topology: "G2x3", Capacity: 22, Gate: models.AM2, Reorder: models.IS}
	want := New(base).Run(pt)
	for i := 0; i < 2; i++ {
		got := tf.Run(pt)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%v / %v", got.Err, want.Err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: outcome differs under a tiny program budget", i)
		}
	}
	if st := tf.programs.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("program stage = %+v, want nothing retained and a compile per run", st)
	}
	if b := tf.programs.Bytes(); b != 0 {
		t.Errorf("program stage holds %d bytes", b)
	}
}
