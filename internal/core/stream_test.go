package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/models"
)

// bvPoints returns n distinct, near-instant BV@8 design points.
func bvPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{App: "BV@8", Topology: fmt.Sprintf("L%d", 2+i%6), Capacity: 14 + i/6, Gate: models.FM, Reorder: models.GS}
	}
	return pts
}

func TestStreamEmitsInOrderBehindSlowHead(t *testing.T) {
	// Index 0 takes far longer than every other point, so the workers
	// finish the BV tail first; emission must still wait for it.
	pts := append([]Point{{App: "QFT@256", Topology: "L12", Capacity: 30, Gate: models.FM, Reorder: models.GS}}, bvPoints(12)...)
	tf := New(models.Default())
	var rows []Row
	tf.Stream(context.Background(), 0, int64(len(pts)), 4, len(pts),
		func(i int64) Point { return pts[i] },
		func(r Row) bool { rows = append(rows, r); return true })
	if len(rows) != len(pts) {
		t.Fatalf("emitted %d rows, want %d", len(rows), len(pts))
	}
	ref := New(models.Default())
	for i, r := range rows {
		if r.Index != int64(i) {
			t.Fatalf("row %d carries index %d: emission out of order", i, r.Index)
		}
		if r.Outcome.Err != nil {
			t.Fatalf("row %d: %v", i, r.Outcome.Err)
		}
		if want := ref.Run(pts[i]); !reflect.DeepEqual(r.Outcome, want) {
			t.Errorf("row %d: outcome differs from Run(%s)", i, pts[i])
		}
		if r.Elapsed <= 0 {
			t.Errorf("row %d: elapsed = %v", i, r.Elapsed)
		}
	}
}

func TestStreamStopsFeedingWhenEmitDeclines(t *testing.T) {
	const workers, ahead = 2, 2
	pts := bvPoints(40)
	tf := NewCached(models.Default(), 0)
	emitted := 0
	tf.Stream(context.Background(), 0, int64(len(pts)), workers, ahead,
		func(i int64) Point { return pts[i] },
		func(Row) bool { emitted++; return emitted < 2 })
	if emitted != 2 {
		t.Errorf("emit called %d times, want 2", emitted)
	}
	// Stream has returned, so every fed point has finished computing.
	if computed := tf.CacheStats().Misses; computed > workers+ahead+1 {
		t.Errorf("computed %d points after emit declined, want at most %d", computed, workers+ahead+1)
	}
}

func TestStreamEmptyRangeAndCancelledContext(t *testing.T) {
	tf := NewCached(models.Default(), 0)
	at := func(int64) Point { return bvPoints(1)[0] }
	emit := func(Row) bool { t.Error("emit called"); return true }
	tf.Stream(context.Background(), 3, 3, 4, 4, at, emit)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tf.Stream(ctx, 0, 10, 4, 4, at, emit)
	if computed := tf.CacheStats().Misses; computed != 0 {
		t.Errorf("computed %d points, want none", computed)
	}
}

func TestSweepIdenticalAcrossGOMAXPROCS(t *testing.T) {
	pts := append(bvPoints(10),
		Point{App: "Adder", Topology: "G2x3", Capacity: 20, Gate: models.AM2, Reorder: models.IS},
		Point{App: "missing", Topology: "L6", Capacity: 20})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var outs [][]Outcome
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		outs = append(outs, New(models.Default()).Sweep(pts))
	}
	for i := range pts {
		if !reflect.DeepEqual(outs[0][i], outs[1][i]) {
			t.Errorf("point %d (%s): outcome differs between GOMAXPROCS 1 and 4", i, pts[i])
		}
	}
}
