// Command perfbench benchmarks the qccdd sweep daemon end to end and
// attributes its time to the toolflow's layers.
//
// Each pass starts a fresh qccdd child process, sends one sweep request
// over loopback HTTP on one connection, reads the streamed rows up to the
// summary line, checks every row, reconciles the daemon's cache counters
// and stops the daemon: a closed loop with one client. With -trace 1 a
// separate in-process replay calls each layer's public functions
// single-threaded and reports per-layer self time, call counts and
// allocations. See README.md for the workloads and metrics.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh -workload all -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type config struct {
	root    string // repository checkout
	bin     string // qccdd binary
	outDir  string // pass logs and span files
	seed    int64
	seconds int
	trace   bool
	record  bool
}

// setupSamples is how many set-up-only daemon starts precede the timed
// passes, so setup_s is a median over many starts on every workload.
const setupSamples = 15

// minPasses is the fewest timed passes a run makes, whatever -seconds is.
const minPasses = 3

// maxReplays caps the traced replay passes, which bounds the span file.
const maxReplays = 10

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: paper-cold, paper-warm, scale-large or all")
		seed    = flag.Int64("seed", 1, "workload seed: permutes the grammar axes and the scale points")
		seconds = flag.Int("seconds", 25, "seconds of timed passes per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
		root    = flag.String("root", ".", "repository checkout the daemon was built from")
		bin     = flag.String("qccdd", ".bench_build/bin/qccdd", "qccdd binary")
		record  = flag.Bool("record-reference", false, "scale-large only: write the served rows to "+referencePath+" after one pass")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	cfg := config{
		root:    *root,
		bin:     *bin,
		outDir:  filepath.Join(*root, ".bench_build", "out"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		record:  *record,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []workload{w}
	}
	if cfg.record {
		if len(ws) != 1 || ws[0].name != "scale-large" {
			fatalf("-record-reference needs -workload scale-large")
		}
		if err := recordScaleReference(cfg, ws[0]); err != nil {
			fatalf("%v", err)
		}
		return
	}

	out := result{Metrics: make(map[string]metric)}
	for _, w := range ws {
		rep, err := runWorkload(cfg, w)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		rep.print(os.Stdout, cfg)
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		for k, m := range rep.metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			out.Metrics[k] = m
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's outcome.
type report struct {
	workload          string
	passes, setups    int
	attempted, failed int
	stealFrac         float64
	metrics           map[string]metric
	files             []string
}

func (r *report) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %t  passes %d  daemon starts %d\n",
		r.workload, cfg.seed, cfg.seconds, cfg.trace, r.passes, r.setups)
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Fprintf(w, "  %-34s %14.6g ratio (%d of %d points)\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	if _, ok := r.metrics["host.steal_frac"]; !ok {
		fmt.Fprintf(w, "  %-34s %14.6g ratio (diagnostic)\n", "host.steal_frac", r.stealFrac)
	}
	for _, f := range r.files {
		fmt.Fprintf(w, "  wrote %s\n", f)
	}
}

// harness runs one workload's daemons.
type harness struct {
	cfg config
	w   workload
	in  inputs
	tmp string // scratch directory of this run
	// seeded is the disk tier that set-up filled, for seededDisk.
	seeded string
	log    []passResult
}

// passResult is one daemon start: a fixture pass, a set-up-only start or
// a timed pass. The pass log records one per line.
type passResult struct {
	Kind      string   `json:"kind"`
	SetupS    float64  `json:"setup_s"`
	WallS     float64  `json:"wall_s,omitempty"`
	Rows      int      `json:"rows,omitempty"`
	RowBytes  int      `json:"row_bytes,omitempty"`
	CPUTicks  uint64   `json:"cpu_ticks,omitempty"`
	PeakRSSKB uint64   `json:"peak_rss_kb,omitempty"`
	StealFrac float64  `json:"steal_frac"`
	Cache     counters `json:"cache"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// served maps each point key to its compact result, in traced runs.
	served map[string]string
	// host is the /proc/stat delta over the sweep.
	host hostCPU
}

// cacheDir returns the -cache-dir for the next daemon. Fresh directories
// are kept until the run ends: deleting 576 entries right before a pass
// makes the filesystem's journal and discard work land in that pass.
func (h *harness) cacheDir() (string, error) {
	switch h.w.disk {
	case freshDisk:
		return os.MkdirTemp(h.tmp, "cache-")
	case seededDisk:
		return h.seeded, nil
	}
	return "", nil
}

func (h *harness) start(env []string, dir string) (*daemon, error) {
	var args []string
	if dir != "" {
		args = []string{"-cache-dir", dir}
	}
	return startDaemon(h.cfg.bin, args, env)
}

// setupOnly starts and stops one daemon, timing its start-up.
func (h *harness) setupOnly() error {
	dir, err := h.cacheDir()
	if err != nil {
		return err
	}
	d, err := h.start(h.w.env, dir)
	if err != nil {
		return err
	}
	d.stop()
	h.log = append(h.log, passResult{Kind: "setup", SetupS: d.setup.Seconds()})
	return nil
}

// pass runs one sweep on a fresh daemon and checks it.
func (h *harness) pass(kind string, env []string, dir string, req request, want counters) (passResult, error) {
	p := passResult{Kind: kind}
	d, err := h.start(env, dir)
	if err != nil {
		return p, err
	}
	defer d.stop()
	p.SetupS = d.setup.Seconds()
	cpu0, err := procCPUTicks(d.pid())
	if err != nil {
		return p, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	raw, sweepErr := d.sweep(req.body)
	p.WallS = time.Since(t0).Seconds()
	cpu1, err := procCPUTicks(d.pid())
	if err != nil {
		return p, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return p, err
	}
	if p.PeakRSSKB, err = procPeakRSSKB(d.pid()); err != nil {
		return p, err
	}
	p.CPUTicks = cpu1 - cpu0
	p.host = host1.sub(host0)
	p.StealFrac = p.host.stealFrac()
	c, cacheErr := d.cacheCounters()
	p.Cache = c
	d.stop()

	n := len(req.points)
	var parsed sweepBody
	if sweepErr == nil {
		parsed, sweepErr = parseSweep(raw)
	}
	if sweepErr != nil {
		p.Failed, p.Problems = n, []string{sweepErr.Error()}
		h.log = append(h.log, p)
		return p, nil
	}
	p.Rows = len(parsed.Rows)
	for _, r := range parsed.Rows {
		p.RowBytes += r.Bytes
	}
	if h.cfg.trace {
		p.served = make(map[string]string, len(parsed.Rows))
		for _, r := range parsed.Rows {
			if r.Error != "" {
				p.served[r.Point.String()] = "error: " + r.Error
			} else if b, err := compactJSON(r.Result); err == nil {
				p.served[r.Point.String()] = string(b)
			}
		}
	}
	p.Failed, p.Problems = checkRows(req.points, h.in.want, parsed)
	switch {
	case cacheErr != nil:
		p.Failed, p.Problems = n, append(p.Problems, cacheErr.Error())
	case c != want:
		p.Failed, p.Problems = n, append(p.Problems, fmt.Sprintf("cache counters %+v, want %+v", c, want))
	}
	h.log = append(h.log, p)
	return p, nil
}

// timedPass runs the k-th measured pass of the workload.
func (h *harness) timedPass(k int) (passResult, error) {
	dir, err := h.cacheDir()
	if err != nil {
		return passResult{}, err
	}
	return h.pass("pass", h.w.env, dir, h.in.passes[k%len(h.in.passes)], h.w.want)
}

func runWorkload(cfg config, w workload) (*report, error) {
	in, err := makeInputs(w, cfg.seed, cfg.root, false)
	if err != nil {
		return nil, err
	}
	runs := filepath.Join(cfg.root, ".bench_build", "run")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(runs, w.name+"-")
	if err != nil {
		return nil, err
	}
	// The run's cache directories go at the end, and the filesystem is
	// synced so their deletion does not slow the next run.
	defer func() {
		os.RemoveAll(tmp)
		syncDir(runs)
	}()
	h := &harness{cfg: cfg, w: w, in: in, tmp: tmp}
	rep := &report{workload: w.name}

	// Set-up: seed the disk tier with one cold pass (a fixture, checked
	// like any pass), then start daemons without timing passes.
	if w.disk == seededDisk {
		h.seeded = filepath.Join(tmp, "seeded")
		n := uint64(len(in.fixture.points))
		fx, err := h.pass("fixture", nil, h.seeded, in.fixture, counters{Computes: n, DiskWrites: n})
		if err != nil {
			return nil, err
		}
		rep.attempted += len(in.fixture.points)
		rep.failed += fx.Failed
		syncDir(h.seeded)
	}
	for i := 0; i < setupSamples; i++ {
		if err := h.setupOnly(); err != nil {
			return nil, err
		}
	}

	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		budget /= 2
	}
	var passes []passResult
	var durs []float64
	start := time.Now()
	// Passes run in whole cycles over the workload's requests, and a new
	// cycle starts only if it is expected to end within the budget.
	more := func() bool {
		n, cycle := len(passes), len(in.passes)
		if n < minPasses || n%cycle != 0 {
			return true
		}
		return time.Since(start)+time.Duration(median(durs)*float64(cycle)*float64(time.Second)) <= budget
	}
	for more() {
		t0 := time.Now()
		p, err := h.timedPass(len(passes))
		if err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		passes = append(passes, p)
		rep.attempted += len(h.in.passes[0].points)
		rep.failed += p.Failed
		for _, pr := range p.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, pr)
		}
	}
	rep.passes = len(passes)

	var setups []float64
	for _, p := range h.log {
		if p.Kind != "fixture" {
			setups = append(setups, p.SetupS)
		}
	}
	rep.setups = len(setups)
	var host hostCPU
	for _, p := range passes {
		host.total += p.host.total
		host.steal += p.host.steal
	}
	rep.stealFrac = host.stealFrac()

	if cfg.trace {
		rep.metrics, err = h.traced(rep, passes, time.Duration(cfg.seconds)*time.Second-time.Since(start))
		if err != nil {
			return nil, err
		}
	} else {
		rep.metrics = endToEnd(passes, len(in.passes), setups)
	}

	logPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.passes.jsonl", w.name, cfg.seed, boolInt(cfg.trace)))
	if err := writeJSONLines(logPath, h.log); err != nil {
		return nil, err
	}
	rep.files = append(rep.files, logPath)
	return rep, nil
}

// endToEnd derives the end-to-end metrics from the timed passes, which
// run in cycles of cycle passes.
func endToEnd(passes []passResult, cycle int, setups []float64) map[string]metric {
	var rates, peaks []float64
	var ticks uint64
	var rows int
	for i, p := range passes {
		if p.WallS > 0 {
			rates = append(rates, float64(p.Rows)/p.WallS)
		}
		// A cycle's peak is the highest VmHWM of its passes.
		mb := float64(p.PeakRSSKB) / 1024
		if i%cycle == 0 {
			peaks = append(peaks, mb)
		} else {
			peaks[len(peaks)-1] = max(peaks[len(peaks)-1], mb)
		}
		ticks += p.CPUTicks
		rows += p.Rows
	}
	return map[string]metric{
		"points_per_s":     {median(rates), "1/s"},
		"cpu_ms_per_point": {float64(ticks) * 1000 / clockTicksPerSec / float64(max(rows, 1)), "ms"},
		"peak_rss_mb":      {median(peaks), "MiB"},
		"setup_s":          {median(setups), "s"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// syncDir fsyncs dir. On a journaling filesystem that commits the
// pending transaction, so writeback and journal work left by set-up or
// clean-up does not land in a timed pass. It is best effort: a failure
// only costs steadiness, so the error is dropped.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	f.Sync()
}

// writeJSONLines writes one JSON object per line.
func writeJSONLines[T any](path string, vs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordScaleReference runs one scale-large pass and writes its rows as
// the reference file, after checking the result invariants.
func recordScaleReference(cfg config, w workload) error {
	in, err := makeInputs(w, cfg.seed, cfg.root, true)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg.bin, nil, w.env)
	if err != nil {
		return err
	}
	defer d.stop()
	req := in.passes[0]
	raw, err := d.sweep(req.body)
	if err != nil {
		return err
	}
	body, err := parseSweep(raw)
	if err != nil {
		return err
	}
	if len(body.Rows) != len(req.points) {
		return fmt.Errorf("%d rows for %d points", len(body.Rows), len(req.points))
	}
	for _, r := range body.Rows {
		if r.Error != "" {
			return fmt.Errorf("%s: %s", r.Point, r.Error)
		}
		if err := checkInvariants(r.Point, r.Result); err != nil {
			return fmt.Errorf("%s: %w", r.Point, err)
		}
	}
	path := filepath.Join(cfg.root, referencePath)
	if err := writeExpected(path, body.Rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points)\n", path, len(body.Rows))
	return nil
}
