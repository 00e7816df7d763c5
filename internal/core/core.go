// Package core implements the paper's primary contribution: the design
// toolflow of Figure 3. A Toolflow takes a candidate QCCD architecture
// (topology spec, trap capacity, gate implementation, reordering method),
// a NISQ application, and the physical performance models, runs the
// backend compiler and the discrete-event simulator, and returns the
// application metrics (run time, reliability) and device metrics (heating
// rates, shuttling activity) that drive the architectural study.
//
// One Toolflow holds a bounded circuit stage, shared by every calibration,
// and an outcome tier; WithParams views it under another calibration.
// Independent design points run concurrently on one ordered engine,
// Stream: a bounded worker pool whose rows come back in index order.
// Sweep, and both forms of the sweep service, run on it; it is what makes
// the full Figure 6-8 parameter sweeps (hundreds of compile+simulate runs)
// complete in seconds.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/sim"
)

// Point identifies one design point: an application on a device
// configuration under one microarchitecture.
type Point struct {
	// App names a Table II benchmark (see internal/apps).
	App string
	// Topology is a device spec such as "L6" or "G2x3".
	Topology string
	// Capacity is the per-trap ion limit.
	Capacity int
	// Gate selects the two-qubit MS implementation.
	Gate models.GateImpl
	// Reorder selects the chain reordering method.
	Reorder models.ReorderMethod
	// Policy selects the compiler policy bundle. The zero value is the
	// baseline (the paper's heuristics): a zero-policy Point is identical
	// — in struct equality, String, wire format and cache key — to a Point
	// from before the policy axis existed.
	Policy models.PolicyName
}

// String renders the point compactly, e.g. "QFT/L6/cap22/FM-GS"; a
// non-baseline policy appends a segment, e.g. ".../FM-GS/lookahead".
func (p Point) String() string {
	s := fmt.Sprintf("%s/%s/cap%d/%s-%s", p.App, p.Topology, p.Capacity, p.Gate, p.Reorder)
	if !p.Policy.IsBaseline() {
		s += "/" + p.Policy.String()
	}
	return s
}

// Outcome pairs a design point with its simulation result or error.
type Outcome struct {
	Point  Point
	Result *sim.Result
	Err    error
}

// maxCircuits bounds the circuit stage. It covers the 26 distinct apps of
// a full evaluation run (6 paper, 16 scaling, 4 QEC), so no study rebuilds
// a circuit, while a sweep over many sized apps cannot pin them all.
const maxCircuits = 32

// Toolflow executes design points on a shared, bounded circuit stage and,
// optionally, a content-addressed outcome cache. It is safe for concurrent
// use after construction, and so are its WithParams views.
type Toolflow struct {
	base models.Params
	// baseHash content-addresses the physical parameters once (with Gate
	// normalized away, since each point's gate overrides it) so per-point
	// cache keys only hash the point itself.
	baseHash string
	// outcomes is any cache tier: the in-memory LRU, or a two-level
	// persistent store shared across processes (cache.Store).
	outcomes cache.Tier[Outcome]
	// circuits memoizes built benchmark circuits by app name. A circuit
	// does not depend on the calibration, so every view shares it.
	circuits *cache.Cache[*circuit.Circuit]
}

// New returns a toolflow whose physical parameters default to base (the
// per-point gate implementation overrides base.Gate), with its own
// bounded circuit stage. Every design point is computed from scratch; use
// NewCached or NewWithCache to reuse outcomes across sweeps.
func New(base models.Params) *Toolflow {
	return &Toolflow{base: base, baseHash: paramsHash(base), circuits: cache.New[*circuit.Circuit](maxCircuits)}
}

// NewCached returns a toolflow backed by a fresh outcome cache holding at
// most entries results (entries <= 0 means unbounded).
func NewCached(base models.Params, entries int) *Toolflow {
	return NewWithCache(base, cache.New[Outcome](entries))
}

// NewWithCache returns a toolflow backed by any cache tier c — a plain
// in-memory cache.Cache or a persistent two-level cache.Store — which may
// be shared with other toolflows and, for a disk-backed store, with other
// processes (the cache key covers both point and parameters, so
// calibrations cannot cross-talk).
func NewWithCache(base models.Params, c cache.Tier[Outcome]) *Toolflow {
	tf := New(base)
	tf.outcomes = c
	return tf
}

// WithParams returns a view of the toolflow under the calibration p. The
// view shares the receiver's circuit stage and outcome tier, and outcomes
// it computes are keyed under p; the receiver itself is returned when p
// is its own calibration.
func (tf *Toolflow) WithParams(p models.Params) *Toolflow {
	if p == tf.base {
		return tf
	}
	view := *tf
	view.base, view.baseHash = p, paramsHash(p)
	return &view
}

// Params returns the toolflow's base physical parameters.
func (tf *Toolflow) Params() models.Params { return tf.base }

// Cache returns the outcome cache tier, or nil for an uncached toolflow.
func (tf *Toolflow) Cache() cache.Tier[Outcome] { return tf.outcomes }

// CacheStats snapshots the outcome cache counters; the zero Stats for an
// uncached toolflow.
func (tf *Toolflow) CacheStats() cache.Stats {
	if tf.outcomes == nil {
		return cache.Stats{}
	}
	return tf.outcomes.Stats()
}

// Run executes a single design point: build device, compile, simulate.
// With an outcome cache attached, a previously computed point is returned
// without recomputation and identical in-flight points are computed once.
func (tf *Toolflow) Run(pt Point) Outcome {
	o, _ := tf.Do(pt)
	return o
}

// Do is Run plus a report of whether the outcome was served from the
// cache (or an in-flight duplicate) instead of computed by this call.
func (tf *Toolflow) Do(pt Point) (Outcome, bool) {
	if tf.outcomes == nil {
		return tf.compute(pt), false
	}
	o, err, hit := tf.outcomes.Do(cacheKey(pt, tf.baseHash), func() (Outcome, error) {
		o := tf.compute(pt)
		// A failed outcome is returned to every waiter but never stored,
		// so transient failures do not poison the cache.
		return o, o.Err
	})
	if err != nil {
		return Outcome{Point: pt, Err: err}, hit
	}
	return o, hit
}

// compute executes the point uncached: build device, compile, simulate.
func (tf *Toolflow) compute(pt Point) Outcome {
	c, err, _ := tf.circuits.Do(pt.App, func() (*circuit.Circuit, error) { return apps.ByName(pt.App) })
	if err != nil {
		return Outcome{Point: pt, Err: err}
	}
	dev, err := device.Parse(pt.Topology, pt.Capacity)
	if err != nil {
		return Outcome{Point: pt, Err: err}
	}
	opts := compiler.DefaultOptions()
	opts.Reorder = pt.Reorder
	opts.Policy = pt.Policy
	prog, err := compiler.Compile(c, dev, opts)
	if err != nil {
		return Outcome{Point: pt, Err: fmt.Errorf("%s: %w", pt, err)}
	}
	params := tf.base
	params.Gate = pt.Gate
	res, err := sim.Run(prog, dev, params)
	if err != nil {
		return Outcome{Point: pt, Err: fmt.Errorf("%s: %w", pt, err)}
	}
	// QEC workloads additionally report a logical-error estimate derived
	// from the simulated physical fidelity. Non-QEC results never carry
	// the fields (omitempty), so the golden wire format is unchanged.
	if d, rounds, ok := apps.SurfaceSpec(pt.App); ok {
		res.AttachQEC(d, rounds)
	}
	return Outcome{Point: pt, Result: res}
}

// Sweep executes all points on the Stream engine (GOMAXPROCS workers) and
// returns outcomes in input order. The look-ahead spans the whole slice,
// which Sweep holds anyway, so a slow point never idles the other workers.
func (tf *Toolflow) Sweep(points []Point) []Outcome {
	n := len(points)
	out := make([]Outcome, n)
	tf.Stream(context.Background(), 0, int64(n), runtime.GOMAXPROCS(0), n,
		func(i int64) Point { return points[i] },
		func(r Row) bool { out[r.Index] = r.Outcome; return true })
	return out
}

// Row is one design point evaluated by Stream.
type Row struct {
	Index   int64
	Outcome Outcome
	// Cached reports a cache (or in-flight duplicate) hit, as from Do.
	Cached bool
	// Elapsed is the wall time of the Do call.
	Elapsed time.Duration
}

// Stream evaluates the points at(start) .. at(end-1) on a pool of workers
// and calls emit once per index, in increasing order, from the calling
// goroutine. At most workers points compute at once, and the feeder stays
// within workers+ahead indices of the next row to emit, so ahead bounds
// how many finished rows may wait behind a slow one. Once emit returns
// false or ctx ends no further index is fed; Stream returns only after
// every worker has exited. at must be safe for concurrent use.
func (tf *Toolflow) Stream(ctx context.Context, start, end int64, workers, ahead int,
	at func(int64) Point, emit func(Row) bool) {
	n := end - start
	if n <= 0 {
		return
	}
	workers = int(min(max(int64(workers), 1), n))
	window := min(int64(workers)+max(int64(ahead), 0), n)
	// Index i parks its row in slots[(i-start)%window]; the window bound
	// means a slot is refilled only after its previous row was emitted,
	// so the one-row buffer never blocks a worker.
	slots := make([]chan Row, window)
	for k := range slots {
		slots[k] = make(chan Row, 1)
	}
	work := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				pt := at(i)
				t0 := time.Now()
				o, cached := tf.Do(pt)
				slots[(i-start)%window] <- Row{Index: i, Outcome: o, Cached: cached, Elapsed: time.Since(t0)}
			}
		}()
	}
	defer wg.Wait()
	defer close(work)
	// ctx is checked before each select as well: a ready feed and a done
	// ctx may race inside select, and a cancelled stream must feed nothing.
	for fed, next := start, start; next < end && ctx.Err() == nil; {
		feed := work
		if fed == end || fed-next == window {
			feed = nil
		}
		select {
		case feed <- fed:
			fed++
		case r := <-slots[(next-start)%window]:
			if !emit(r) {
				return
			}
			next++
		case <-ctx.Done():
		}
	}
}

// CapacitySweep builds points for one app/topology/microarch across a
// trap-capacity grid.
func CapacitySweep(app, topology string, gate models.GateImpl, reorder models.ReorderMethod, capacities []int) []Point {
	var pts []Point
	for _, cap := range capacities {
		pts = append(pts, Point{App: app, Topology: topology, Capacity: cap, Gate: gate, Reorder: reorder})
	}
	return pts
}
