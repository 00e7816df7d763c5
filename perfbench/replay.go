package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Call names of the traced replay, in report order. Each wraps one public
// function of a layer.
const (
	callByName    = "apps.by_name"      // apps.ByName
	callBuildDAG  = "circuit.build_dag" // circuit.BuildDAG, a probe: see replayer.compute
	callParse     = "device.parse"      // device.Parse
	callCompile   = "compiler.compile"  // compiler.Compile
	callSim       = "sim.run"           // sim.Run
	callCacheKey  = "core.cache_key"    // core.CacheKey
	callSpace     = "sweep.compile"     // sweep.Space.Compile
	callPointAt   = "sweep.point_at"    // sweep.Grid.PointAt
	callCursor    = "sweep.cursor"      // sweep.Grid.Cursor
	callEncodeRow = "service.encode_row"
	callOpenDisk  = "cache.open_disk" // cache.OpenDisk
	callDiskRead  = "cache.disk_read" // cache.Disk.Read
	callDecode    = "cache.decode"    // json.Unmarshal of a disk payload
	callDiskWrite = "cache.disk_write"

	// Roots that group the calls: daemon start-up, a whole pass, and one
	// design point within it.
	rootSetup = "setup"
	rootPass  = "pass"
	rootPoint = "point"
)

var callNames = []string{
	callByName, callBuildDAG, callParse, callCompile, callSim, callCacheKey,
	callSpace, callPointAt, callCursor, callEncodeRow,
	callOpenDisk, callDiskRead, callDecode, callDiskWrite,
}

// unattributedExcluded are calls whose time is not part of a served pass:
// the DAG probe repeats work compiler.Compile already does, and the disk
// tier is opened at daemon start, before the pass.
var unattributedExcluded = map[string]bool{callBuildDAG: true, callOpenDisk: true}

// replayer evaluates a workload's points single-threaded in-process, in
// the order core.Toolflow and cache.Store use, with every layer call
// traced.
type replayer struct {
	t      *tracer
	params models.Params
	// circuits memoizes apps.ByName per pass, as one daemon's toolflow does.
	circuits map[string]*circuit.Circuit
	// Per-pass work counts.
	isaOps   int
	compiles int
	programs map[string]bool
	// results holds the compact result encoding of each point of the last
	// pass, or "error: ..." for a failed point.
	results map[string]string
}

func newReplayer(t *tracer) *replayer {
	return &replayer{t: t, params: models.Default()}
}

func (rp *replayer) startPass(pass int) {
	rp.t.pass = int32(pass)
	rp.circuits = make(map[string]*circuit.Circuit)
	rp.isaOps, rp.compiles = 0, 0
	rp.programs = make(map[string]bool)
	rp.results = make(map[string]string)
}

// compute mirrors core.Toolflow's uncached evaluation of one point. The
// DAG build inside compiler.Compile cannot be timed from outside, so the
// replay calls circuit.BuildDAG once more just before compiling: that
// probe span measures what the compile spends on it.
func (rp *replayer) compute(pt core.Point) (*sim.Result, error) {
	t := rp.t
	c, ok := rp.circuits[pt.App]
	var err error
	if !ok {
		t.call(callByName, func() { c, err = apps.ByName(pt.App) })
		if err != nil {
			return nil, err
		}
		rp.circuits[pt.App] = c
	}
	var dev *device.Device
	t.call(callParse, func() { dev, err = device.Parse(pt.Topology, pt.Capacity) })
	if err != nil {
		return nil, err
	}
	t.call(callBuildDAG, func() { circuit.BuildDAG(c) })
	opts := compiler.DefaultOptions()
	opts.Reorder = pt.Reorder
	opts.Policy = pt.Policy
	var prog *isa.Program
	t.call(callCompile, func() { prog, err = compiler.Compile(c, dev, opts) })
	if err != nil {
		return nil, err
	}
	rp.compiles++
	rp.isaOps += len(prog.Ops)
	rp.programs[fmt.Sprintf("%s/%s/%d/%s/%s", pt.App, pt.Topology, pt.Capacity, pt.Reorder, pt.Policy)] = true
	params := rp.params
	params.Gate = pt.Gate
	var res *sim.Result
	t.call(callSim, func() { res, err = sim.Run(prog, dev, params) })
	if err != nil {
		return nil, err
	}
	if d, rounds, ok := apps.SurfaceSpec(pt.App); ok {
		res.AttachQEC(d, rounds)
	}
	return res, nil
}

func (rp *replayer) record(pt core.Point, res *sim.Result, err error) {
	if err != nil {
		rp.results[pt.String()] = "error: " + err.Error()
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		rp.results[pt.String()] = "error: " + err.Error()
		return
	}
	rp.results[pt.String()] = string(b)
}

// encodeRow encodes the NDJSON row the service would stream.
func (rp *replayer) encodeRow(enc *json.Encoder, seq int, cursor string, pt core.Point, res *sim.Result, err error, cached bool) {
	line := service.SweepLine{Seq: seq, Cursor: cursor, RunResponse: service.RunResponse{Point: pt, Result: res, Cached: cached}}
	if err != nil {
		line.Error = err.Error()
	}
	rp.t.call(callEncodeRow, func() { enc.Encode(line) })
}

// openDisk mounts the disk tier as a daemon does at start-up.
func (rp *replayer) openDisk(dir string) (*cache.Disk, error) {
	root := rp.t.begin(rootSetup)
	defer rp.t.end(root)
	var d *cache.Disk
	var err error
	rp.t.call(callOpenDisk, func() { d, err = cache.OpenDisk(dir, 0) })
	return d, err
}

// paperPass replays one grammar sweep over the disk tier in dir, as
// service.handleSpaceSweep and cache.Store serve it: expand the point,
// key it, probe the disk, then decode a hit or compute and write through
// a miss, and encode the row with its cursor.
func (rp *replayer) paperPass(pass int, space sweep.Space, dir string) error {
	rp.startPass(pass)
	t := rp.t
	disk, err := rp.openDisk(dir)
	if err != nil {
		return err
	}
	root := t.begin(rootPass)
	defer t.end(root)
	var grid *sweep.Grid
	t.call(callSpace, func() { grid, err = space.Compile() })
	if err != nil {
		return err
	}
	enc := json.NewEncoder(io.Discard)
	for i := int64(0); i < grid.Size(); i++ {
		t.point = int32(i)
		p := t.begin(rootPoint)
		var pt core.Point
		t.call(callPointAt, func() { pt = grid.PointAt(i) })
		var key string
		t.call(callCacheKey, func() { key = core.CacheKey(pt, rp.params) })
		var payload []byte
		var hit bool
		t.call(callDiskRead, func() { payload, hit = disk.Read(key) })
		var res *sim.Result
		var perr error
		if hit {
			var o core.Outcome
			t.call(callDecode, func() { perr = json.Unmarshal(payload, &o) })
			res = o.Result
		} else {
			res, perr = rp.compute(pt)
			if perr == nil {
				t.call(callDiskWrite, func() {
					b, err := json.Marshal(core.Outcome{Point: pt, Result: res})
					if err == nil {
						disk.Write(key, b)
					}
				})
			}
		}
		var cursor string
		t.call(callCursor, func() { cursor = grid.Cursor(i + 1) })
		rp.encodeRow(enc, int(i), cursor, pt, res, perr, hit)
		t.end(p)
		t.point = -1
		rp.record(pt, res, perr)
	}
	return nil
}

// pointsPass replays one points-form sweep without a disk tier, as
// service.handleSweep serves it with one worker.
func (rp *replayer) pointsPass(pass int, points []core.Point) {
	rp.startPass(pass)
	t := rp.t
	root := t.begin(rootPass)
	defer t.end(root)
	enc := json.NewEncoder(io.Discard)
	for i, pt := range points {
		t.point = int32(i)
		p := t.begin(rootPoint)
		t.call(callCacheKey, func() { core.CacheKey(pt, rp.params) })
		res, err := rp.compute(pt)
		rp.encodeRow(enc, i, "", pt, res, err, false)
		t.end(p)
		t.point = -1
		rp.record(pt, res, err)
	}
}
