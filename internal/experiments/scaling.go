package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sim"
)

// ScalingRow is one point of the beyond-the-paper scaling study: a
// workload scaled to a qubit count on a device grown to hold it at the
// paper's recommended ~20-25 ion capacity.
type ScalingRow struct {
	App      string
	Qubits   int
	Topology string
	Traps    int
	Capacity int
	// Outcome is the raw design-point outcome; a failed point carries its
	// error and renders as NaN, like the figure sweeps.
	Outcome Outcome
}

// Result returns the simulation result, or nil for a failed point.
func (r ScalingRow) Result() *sim.Result { return r.Outcome.Result }

// Scaling holds the device-scaling study (§VIII.B motivates 50-200 qubit
// QCCD systems; the paper evaluates 64-78 — this extends the sweep to 200
// qubits by adding traps at fixed capacity, following the §IX.A
// recommendation to grow trap count rather than trap size).
type Scaling struct {
	Rows []ScalingRow
}

// scalingSizes is the qubit grid for the scaling study. The sizes past
// 200 step into the regime the §VIII.B discussion calls out as the QCCD
// scaling frontier; at 512 qubits the sweep also includes a photonically
// linked two-module device (see RunTitanWith for the full module study,
// which shares this study's QFT@512 circuit when run on the same runner).
var scalingSizes = []int{64, 96, 128, 160, 200, 256, 384, 512}

// scalingCapacity is the fixed per-trap ion limit of the study.
const scalingCapacity = 22

// scalingPoints builds the study's design points: sized QAOA and QFT
// instances ("QAOA@n", "QFT@n") on linear and 2-row grid devices sized to
// hold them with the mapper's two buffer slots per trap.
func scalingPoints(gate models.GateImpl) ([]Point, []ScalingRow) {
	var pts []Point
	var rows []ScalingRow
	for _, n := range scalingSizes {
		traps := (n + scalingCapacity - 3) / (scalingCapacity - 2) // room for 2 buffer slots
		if traps < 2 {
			traps = 2
		}
		cols := (traps + 1) / 2
		topologies := []struct {
			spec  string
			traps int
		}{
			{fmt.Sprintf("L%d", traps), traps},
			{fmt.Sprintf("G2x%d", cols), 2 * cols},
		}
		if n == scalingSizes[len(scalingSizes)-1] {
			// At the largest size, also split the machine into two
			// photonically linked grid modules of half the columns each.
			half := (cols + 1) / 2
			topologies = append(topologies, struct {
				spec  string
				traps int
			}{fmt.Sprintf("Mod2:G2x%d", half), 2 * 2 * half})
		}
		for _, app := range []string{"QAOA", "QFT"} {
			for _, topo := range topologies {
				pts = append(pts, Point{
					App:      fmt.Sprintf("%s@%d", app, n),
					Topology: topo.spec,
					Capacity: scalingCapacity,
					Gate:     gate,
					Reorder:  models.GS,
				})
				rows = append(rows, ScalingRow{
					App: app, Qubits: n, Topology: topo.spec,
					Traps: topo.traps, Capacity: scalingCapacity,
				})
			}
		}
	}
	return pts, rows
}

// RunScaling executes the scaling study for QAOA and QFT on linear and
// grid devices sized at 22 ions per trap, on a fresh uncached runner.
func RunScaling(base models.Params) (*Scaling, error) {
	return RunScalingWith(NewRunner(base))
}

// RunScalingWith executes the scaling study on r, evaluating points in
// parallel through the shared toolflow (and its outcome cache, when r has
// one). Failed points are recorded in their rows and reported via
// Failures, never aborting the rest of the sweep.
func RunScalingWith(r *Runner) (*Scaling, error) {
	pts, rows := scalingPoints(r.Params().Gate)
	outs := r.Sweep(pts)
	for i := range rows {
		rows[i].Outcome = outs[i]
	}
	return &Scaling{Rows: rows}, nil
}

// Failures returns the failed design points, in sweep order.
func (s *Scaling) Failures() []Outcome {
	var fails []Outcome
	for _, r := range s.Rows {
		if r.Outcome.Err != nil {
			fails = append(fails, r.Outcome)
		}
	}
	return fails
}

// rowMetrics extracts the rendered metrics, NaN for a failed row.
func rowMetrics(r ScalingRow) (timeS, fid, logFid, maxE float64) {
	if res := r.Result(); res != nil {
		return res.TotalSeconds(), res.Fidelity, res.LogFidelity, res.MaxMotionalEnergy
	}
	nan := math.NaN()
	return nan, nan, nan, nan
}

// Render prints the scaling study as a table.
func (s *Scaling) Render() string {
	var b strings.Builder
	b.WriteString("Extension: device scaling at fixed capacity 22 (grow traps, not chains)\n")
	fmt.Fprintf(&b, "%-6s %7s %-7s %6s %10s %12s %12s %8s\n",
		"app", "qubits", "device", "traps", "time(s)", "fidelity", "log-fid", "maxE")
	for _, r := range s.Rows {
		timeS, fid, logFid, maxE := rowMetrics(r)
		fmt.Fprintf(&b, "%-6s %7d %-7s %6d %10.4f %12.3e %12.1f %8.1f\n",
			r.App, r.Qubits, r.Topology, r.Traps, timeS, fid, logFid, maxE)
	}
	b.WriteString("\nScaling by trap count keeps chains inside the capacity sweet spot: the\n")
	b.WriteString("per-two-qubit-gate error grows only a few-fold from 64 to 200 qubits while\n")
	b.WriteString("total fidelity falls mainly because the gate count grows — consistent with\n")
	b.WriteString("the paper's recommendation to add traps rather than enlarge them (§IX.A).\n")
	b.WriteString("QFT also shows the linear topology's widening advantage at scale: the grid\n")
	b.WriteString("funnels its all-to-all traffic through junctions that become bottlenecks.\n")
	return b.String()
}

// WriteCSV emits the scaling rows in long format.
func (s *Scaling) WriteCSV(w io.Writer) error {
	header := []string{"app", "qubits", "device", "traps", "capacity", "time_s", "fidelity", "log_fidelity", "max_energy_quanta"}
	var rows [][]string
	for _, r := range s.Rows {
		timeS, fid, logFid, maxE := rowMetrics(r)
		rows = append(rows, []string{
			r.App, fmt.Sprint(r.Qubits), r.Topology, fmt.Sprint(r.Traps), fmt.Sprint(r.Capacity),
			fmt.Sprintf("%.6f", timeS),
			fmt.Sprintf("%.6e", fid),
			fmt.Sprintf("%.4f", logFid),
			fmt.Sprintf("%.3f", maxE),
		})
	}
	return metrics.WriteCSV(w, header, rows)
}
