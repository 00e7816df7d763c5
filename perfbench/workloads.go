package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/sweep"
)

// diskMode says how a workload's daemons mount the persistent cache tier.
type diskMode int

const (
	noDisk     diskMode = iota // memory-only store
	freshDisk                  // a new, empty -cache-dir for every daemon
	seededDisk                 // one -cache-dir filled by a cold pass during set-up
)

// workload is one traffic mix: what each pass asks a fresh daemon for,
// how that daemon runs, and the cache counters one pass must leave.
type workload struct {
	name    string
	grammar bool     // the paper grid as a grammar sweep; else the scale points
	env     []string // daemon environment
	disk    diskMode
	workers int // the request's "workers"; 0 means the server default
	want    counters
}

var workloads = []workload{
	// Every point is compiled, simulated and written through to disk, so
	// per-point fixed costs (DAG rebuild, device build, MkdirAll per
	// write) show, and each program is compiled once per gate.
	{
		name:    "paper-cold",
		grammar: true,
		disk:    freshDisk,
		want:    counters{Computes: 576, DiskWrites: 576},
	},
	// Every row is a disk read, decode and NDJSON encode with no compile:
	// the bypass for compiler and sim changes, the mechanism for cache and
	// service changes. One core and one worker avoid cross-thread handoffs
	// on ~100 µs rows, which made warm throughput noisy.
	{
		name:    "paper-warm",
		grammar: true,
		env:     []string{"GOMAXPROCS=1"},
		disk:    seededDisk,
		workers: 1,
		want:    counters{DiskReads: 576},
	},
	// Five distinct large programs: circuit build, DAG, compile and sim
	// dominate at millions of ISA ops. One worker keeps peak memory
	// independent of which points overlap.
	{
		name:    "scale-large",
		workers: 1,
		want:    counters{Computes: 5},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scalePoints are the scale-large design points: the paper's FM gates
// and GS reordering at trap capacity 22.
func scalePoints() []core.Point {
	var pts []core.Point
	for _, at := range [][2]string{
		{"QFT@1024", "Mod4:G2x8"},
		{"Surface@21", "G2x23"},
		{"QFT@512", "Mod2:G2x7"},
		{"Supremacy@256", "M3x5"},
		{"QAOA@512", "G3x9"},
	} {
		pts = append(pts, core.Point{App: at[0], Topology: at[1], Capacity: 22, Gate: models.FM, Reorder: models.GS})
	}
	return pts
}

// request is one sweep request body and the points it asks for, in the
// order of their seq numbers.
type request struct {
	body   []byte
	points []core.Point
}

// inputs are one workload's requests, generated from the seed.
type inputs struct {
	// passes are used round-robin, one per timed pass.
	passes []request
	// fixture is the cold pass that seeds a disk tier: the same points
	// with the server's default worker count.
	fixture request
	space   *sweep.Space // the grammar, for grammar workloads
	want    expected
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newRequest(req service.SweepRequest, points []core.Point) (request, error) {
	b, err := json.Marshal(req)
	return request{body: b, points: points}, err
}

// makeInputs builds the requests for seed. On the paper grid the seed
// permutes the value order of every grammar axis: the same 576 points,
// expanded in another order. On the scale points it permutes the list,
// and pass k sends that permutation rotated by k, so every run serves
// each point first once per len(scalePoints) passes: peak memory depends
// on which circuits are already held when the largest one is compiled.
func makeInputs(w workload, seed int64, root string, record bool) (inputs, error) {
	r := rand.New(rand.NewSource(seed))
	var in inputs
	var err error
	if w.grammar {
		sp := experiments.PaperSpace()
		sp.Apps = shuffled(r, sp.Apps)
		sp.Topologies = shuffled(r, sp.Topologies)
		sp.Capacities = shuffled(r, sp.Capacities)
		sp.Gates = shuffled(r, sp.Gates)
		sp.Reorders = shuffled(r, sp.Reorders)
		grid, err := sp.Compile()
		if err != nil {
			return in, err
		}
		var points []core.Point
		for i := int64(0); i < grid.Size(); i++ {
			points = append(points, grid.PointAt(i))
		}
		in.space = &sp
		pass, err := newRequest(service.SweepRequest{Space: &sp, Workers: w.workers}, points)
		if err != nil {
			return in, err
		}
		in.passes = []request{pass}
		if in.fixture, err = newRequest(service.SweepRequest{Space: &sp}, points); err != nil {
			return in, err
		}
		in.want, err = loadExpected(filepath.Join(root, "testdata", "golden_results.json"))
		return in, err
	}
	perm := shuffled(r, scalePoints())
	for k := range perm {
		points := append(append([]core.Point(nil), perm[k:]...), perm[:k]...)
		pass, err := newRequest(service.SweepRequest{Points: points, Workers: w.workers}, points)
		if err != nil {
			return in, err
		}
		in.passes = append(in.passes, pass)
	}
	in.want, err = loadExpected(filepath.Join(root, referencePath))
	if err != nil && !record {
		return in, err
	}
	return in, nil
}

// referencePath holds the scale-large results, recorded with
// -record-reference.
const referencePath = "perfbench/testdata/scale_reference.json"
