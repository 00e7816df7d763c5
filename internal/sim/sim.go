// Package sim executes compiled QCCD programs on a device model using the
// performance, heating and fidelity models of §VII. It is a discrete-event
// simulator: every op waits for its dependencies, then for its single
// device resource (its trap, segment, or junction), runs for a duration
// computed from the live machine state, and on completion updates chain
// membership, chain order, motional energies and the running fidelity
// product. Gates within one trap serialize on the trap resource while
// independent shuttles proceed in parallel, matching the parallelism
// constraints described in §V.B. Contended resources are granted to the
// lowest op ID first — the compiler's issue order — which realizes the
// paper's "prioritize earlier gates" congestion policy.
//
// The engine is built for sweep scale: chains are fixed-size ring buffers
// with an incremental qubit→(trap, slot) index, so membership checks,
// gate distances and end insertions/removals are O(1) instead of scanning
// chains; the event queue and per-resource wait queues are typed binary
// heaps over preallocated storage; and all per-run state is sized off the
// program up front, so the event loop allocates nothing in steady state.
package sim

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/heating"
	"repro/internal/isa"
	"repro/internal/models"
)

// Run simulates program p on device d under physical parameters params.
// It never mutates p: all run state lives in a per-call engine, so one
// compiled program may be simulated by concurrent Run calls.
func Run(p *isa.Program, d *device.Device, params models.Params) (*Result, error) {
	e, err := newEngine(p, d, params)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// chain is the live state of one trap's ion chain: a fixed-capacity ring
// buffer of qubit IDs (position 0 = left end) plus the chain's motional
// energy. End insertions and removals are O(1); positions of resident
// qubits are recovered in O(1) from the engine's qubit→slot index.
type chain struct {
	buf    []int // ring storage; len(buf) never changes after newEngine
	head   int   // slot of position 0
	n      int   // live chain length
	energy float64
}

// nbar returns the motional mode occupancy used by the Eq. 1 fidelity
// model: the chain's vibrational energy in quanta (§VII.C — "n̄ is the
// motional mode of the chain (vibrational energy), in units of motional
// quanta").
func (c *chain) nbar() float64 { return c.energy }

// slotAt returns the ring slot of chain position i.
func (c *chain) slotAt(i int) int {
	s := c.head + i
	if s >= len(c.buf) {
		s -= len(c.buf)
	}
	return s
}

// posOf returns the chain position of ring slot s.
func (c *chain) posOf(s int) int {
	p := s - c.head
	if p < 0 {
		p += len(c.buf)
	}
	return p
}

// engine holds all simulation state for one Run call.
type engine struct {
	prog   *isa.Program
	dev    *device.Device
	params models.Params

	chains []chain
	// qTrap maps qubit → resident trap, or -1 while the ion is in transit.
	// qSlot maps qubit → its ring slot within its trap's chain (valid only
	// while resident). transitE is the in-flight ion energy (valid only
	// while in transit). Together they replace per-op chain scans.
	qTrap    []int
	qSlot    []int
	transitE []float64
	tracker  *heating.Tracker

	resources []resource // traps, then segments, then junctions

	// depsLeft counts each op's unfinished deps; the program's child CSR
	// names the ops to wake when one completes.
	depsLeft []int32

	now       float64
	events    eventQueue
	done      int
	startTime []float64
	endTime   []float64
	readyTime []float64 // when deps completed (resource-queue entry time)
	// startOrder and endOrder record op IDs in the order they started and
	// completed. The event loop's clock never runs backwards, so both are
	// sorted by time — attributeTime merges them instead of sorting.
	startOrder []int32
	endOrder   []int32

	logFidelity   float64
	linkTransits  int
	msGates       int
	sumMotional   float64
	sumBackground float64
	oneQGates     int
	sumOneQError  float64
	measures      int
	categoryBusy  [2]float64
}

// newEngine checks p, d and params against each other and sizes all run
// state off the program. It reads the program's child CSR as built by
// Compile (or Link) and allocates no dependency structure of its own.
func newEngine(p *isa.Program, d *device.Device, params models.Params) (*engine, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(p.InitialLayout) != d.NumTraps() {
		return nil, fmt.Errorf("sim: program laid out for %d traps, device %s has %d",
			len(p.InitialLayout), d.Name, d.NumTraps())
	}
	nOps := len(p.Ops)
	e := &engine{
		prog:       p,
		dev:        d,
		params:     params,
		qTrap:      make([]int, p.NumQubits),
		qSlot:      make([]int, p.NumQubits),
		transitE:   make([]float64, p.NumQubits),
		tracker:    heating.NewTracker(d.NumTraps()),
		depsLeft:   make([]int32, nOps),
		startTime:  make([]float64, nOps),
		endTime:    make([]float64, nOps),
		readyTime:  make([]float64, nOps),
		startOrder: make([]int32, 0, nOps),
		endOrder:   make([]int32, 0, nOps),
		events:     make(eventQueue, 0, nOps),
	}
	e.chains = make([]chain, d.NumTraps())
	for t := range e.chains {
		size := d.Capacity
		if l := len(p.InitialLayout[t]); l > size {
			size = l // defensive: hand-built programs may overfill a trap
		}
		c := &e.chains[t]
		c.buf = make([]int, size)
		for i, q := range p.InitialLayout[t] {
			c.buf[i] = q
			e.qTrap[q] = t
			e.qSlot[q] = i
		}
		c.n = len(p.InitialLayout[t])
	}
	e.resources = make([]resource, d.NumTraps()+len(d.Segments)+len(d.Junctions))
	for i := range p.Ops {
		op := &p.Ops[i]
		if _, n := e.resourceSpan(op.Kind); int(op.Resource) >= n {
			return nil, fmt.Errorf("sim: op %d (%s) names %s, device %s has %d",
				i, op.Kind, op.ResourceName(), d.Name, n)
		}
		e.depsLeft[i] = int32(op.NDep)
		e.startTime[i] = -1
		e.endTime[i] = -1
	}
	return e, nil
}

// resourceSpan returns where the resources of the class an op of kind k
// holds start in e.resources (traps, then segments, then junctions) and
// how many the device has.
func (e *engine) resourceSpan(k isa.OpKind) (base, count int) {
	traps, segs := e.dev.NumTraps(), len(e.dev.Segments)
	switch k.ResourceClass() {
	case isa.ResSegment:
		return traps, segs
	case isa.ResJunction:
		return traps + segs, len(e.dev.Junctions)
	default:
		return 0, traps
	}
}

// resourceIndex maps an op to its single required resource.
func (e *engine) resourceIndex(op *isa.Op) int {
	base, _ := e.resourceSpan(op.Kind)
	return base + int(op.Resource)
}

// run drives the event loop to completion.
func (e *engine) run() error {
	for i := range e.prog.Ops {
		if e.depsLeft[i] == 0 {
			e.requestResource(i)
		}
	}
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.time
		if err := e.complete(ev.op); err != nil {
			return err
		}
	}
	if e.done != len(e.prog.Ops) {
		return fmt.Errorf("sim: deadlock after %d/%d ops at t=%.1fµs (first blocked op: %s)",
			e.done, len(e.prog.Ops), e.now, e.firstBlocked())
	}
	return nil
}

func (e *engine) firstBlocked() string {
	for i := range e.prog.Ops {
		if e.endTime[i] < 0 {
			return fmt.Sprintf("%d: %s", i, e.prog.Ops[i])
		}
	}
	return "<none>"
}

// requestResource queues op i on its resource, starting it if free.
func (e *engine) requestResource(i int) {
	e.readyTime[i] = e.now
	res := &e.resources[e.resourceIndex(&e.prog.Ops[i])]
	if res.busy {
		res.push(i)
		return
	}
	e.start(i)
}

// start computes the op duration from live state and schedules completion.
func (e *engine) start(i int) {
	op := &e.prog.Ops[i]
	res := &e.resources[e.resourceIndex(op)]
	res.busy = true
	res.holder = i
	e.startTime[i] = e.now
	e.startOrder = append(e.startOrder, int32(i))
	dur := e.duration(op)
	e.events.push(event{time: e.now + dur, op: i})
}

// duration evaluates the §VII.A / Table I time models against live state.
func (e *engine) duration(op *isa.Op) float64 {
	p := e.params
	t := int(op.Resource) // the trap, for kinds that hold one
	switch op.Kind {
	case isa.OpGate1:
		return p.OneQubitTime
	case isa.OpMeasure:
		return p.MeasureTime
	case isa.OpGate2:
		c := &e.chains[t]
		d := e.gateDistance(c, op)
		return p.TwoQubitTime(d, c.n)
	case isa.OpSwapGS:
		c := &e.chains[t]
		d := e.gateDistance(c, op)
		return float64(p.SwapMSGates)*p.TwoQubitTime(d, c.n) +
			float64(p.SwapOneQGates)*p.OneQubitTime
	case isa.OpIonSwap:
		return p.IonSwapTime()
	case isa.OpSplit:
		return p.SplitTime
	case isa.OpMerge:
		return p.MergeTime
	case isa.OpMove:
		return p.MoveTime * float64(e.dev.Segments[op.Resource].Length)
	case isa.OpLinkTransit:
		// Flat: remote entanglement + teleportation is one heralded round,
		// however long the optical fiber.
		return p.PhotonicLinkLatency
	case isa.OpJunctionCross:
		return p.JunctionTime(e.dev.Junctions[op.Resource].Kind())
	}
	return p.OneQubitTime
}

// positionIn returns q's chain position in trap t, or -1 if not resident.
func (e *engine) positionIn(q, t int) int {
	if e.qTrap[q] != t {
		return -1
	}
	return e.chains[t].posOf(e.qSlot[q])
}

// gateDistance returns the in-chain position separation of a 2-qubit op.
func (e *engine) gateDistance(c *chain, op *isa.Op) int {
	t := int(op.Resource)
	pa := e.positionIn(int(op.Q[0]), t)
	pb := e.positionIn(int(op.Q[1]), t)
	if pa < 0 || pb < 0 {
		// Recorded as an invariant violation by the completion handler.
		return 1
	}
	if pa > pb {
		return pa - pb
	}
	return pb - pa
}

// complete applies the op's effects, frees its resource and wakes
// dependents.
func (e *engine) complete(i int) error {
	op := &e.prog.Ops[i]
	e.endTime[i] = e.now
	e.endOrder = append(e.endOrder, int32(i))
	if err := e.apply(op); err != nil {
		return fmt.Errorf("sim: op %d: %s at t=%.1fµs: %w", i, op, e.now, err)
	}
	e.done++
	e.categoryBusy[op.Kind.Category()] += e.endTime[i] - e.startTime[i]

	res := &e.resources[e.resourceIndex(op)]
	res.busy = false
	res.holder = -1
	if next, ok := res.pop(); ok {
		e.start(next)
	}
	for _, child := range e.prog.Children[e.prog.ChildOff[i]:e.prog.ChildOff[i+1]] {
		e.depsLeft[child]--
		if e.depsLeft[child] == 0 {
			e.requestResource(int(child))
		}
	}
	return nil
}

// swapInChain exchanges the chain slots of two resident qubits.
func (e *engine) swapInChain(c *chain, a, b int) {
	sa, sb := e.qSlot[a], e.qSlot[b]
	c.buf[sa], c.buf[sb] = b, a
	e.qSlot[a], e.qSlot[b] = sb, sa
}

// detach removes qubit q from an end of its chain, putting it in transit.
func (e *engine) detach(c *chain, q int, left bool) {
	if left {
		c.head = c.slotAt(1)
	}
	c.n--
	e.qTrap[q] = -1
}

// attach inserts in-transit qubit q at an end of trap t's chain.
func (e *engine) attach(c *chain, q, t int, left bool) {
	var slot int
	if left {
		slot = c.head - 1
		if slot < 0 {
			slot += len(c.buf)
		}
		c.head = slot
	} else {
		slot = c.slotAt(c.n)
	}
	c.buf[slot] = q
	c.n++
	e.qTrap[q] = t
	e.qSlot[q] = slot
}

// apply mutates machine state and fidelity accounting for a finished op.
func (e *engine) apply(op *isa.Op) error {
	p := e.params
	t := int(op.Resource) // the trap, for kinds that hold one
	switch op.Kind {
	case isa.OpGate1:
		c := &e.chains[t]
		if e.qTrap[op.Q[0]] != t {
			return fmt.Errorf("qubit not in trap")
		}
		terms := p.OneQubitError(c.nbar())
		e.oneQGates++
		e.sumOneQError += terms.Error()
		e.logFidelity += math.Log(terms.Fidelity())

	case isa.OpMeasure:
		if e.qTrap[op.Q[0]] != t {
			return fmt.Errorf("qubit not in trap")
		}
		e.measures++
		e.logFidelity += math.Log(p.MeasureFidelity)

	case isa.OpGate2:
		c := &e.chains[t]
		if e.qTrap[op.Q[0]] != t || e.qTrap[op.Q[1]] != t {
			return fmt.Errorf("gate operands not co-located")
		}
		d := e.gateDistance(c, op)
		tau := p.TwoQubitTime(d, c.n)
		e.recordMS(p.TwoQubitError(tau, c.n, c.nbar()), 1)

	case isa.OpSwapGS:
		c := &e.chains[t]
		a, b := int(op.Q[0]), int(op.Q[1])
		if e.qTrap[a] != t || e.qTrap[b] != t {
			return fmt.Errorf("swap operands not co-located")
		}
		d := e.gateDistance(c, op)
		tau := p.TwoQubitTime(d, c.n)
		e.recordMS(p.TwoQubitError(tau, c.n, c.nbar()), p.SwapMSGates)
		one := p.OneQubitError(c.nbar())
		for k := 0; k < p.SwapOneQGates; k++ {
			e.oneQGates++
			e.sumOneQError += one.Error()
			e.logFidelity += math.Log(one.Fidelity())
		}
		e.swapInChain(c, a, b)

	case isa.OpIonSwap:
		c := &e.chains[t]
		a, b := int(op.Q[0]), int(op.Q[1])
		pa, pb := e.positionIn(a, t), e.positionIn(b, t)
		if pa < 0 || pb < 0 {
			return fmt.Errorf("ion-swap operands not co-located")
		}
		if pa-pb != 1 && pb-pa != 1 {
			return fmt.Errorf("ion-swap operands not adjacent (%d,%d)", pa, pb)
		}
		c.energy = heating.IonSwapHop(c.energy, p.K1)
		e.swapInChain(c, a, b)
		e.tracker.CountIonSwap()
		e.tracker.Observe(t, c.energy)

	case isa.OpSplit:
		c := &e.chains[t]
		q := int(op.Q[0])
		n := c.n
		if n == 0 {
			return fmt.Errorf("split from empty trap")
		}
		atLeft := c.buf[c.head] == q && e.qTrap[q] == t
		atRight := c.buf[c.slotAt(n-1)] == q && e.qTrap[q] == t
		if op.End == device.Left && !atLeft || op.End == device.Right && !atRight {
			return fmt.Errorf("split qubit q%d not at %s end of trap %d", q, op.End, t)
		}
		if n == 1 {
			// Departing ion empties the trap; it carries the chain energy
			// plus the split jolt.
			e.transitE[q] = c.energy + p.K1
			c.energy = 0
		} else {
			ionE, restE := heating.Split(c.energy, 1, n-1, p.K1)
			e.transitE[q] = ionE
			c.energy = restE
		}
		e.detach(c, q, op.End == device.Left)
		e.tracker.CountSplit()
		e.tracker.Observe(t, c.energy)
		e.tracker.ObserveTransit(e.transitE[q])

	case isa.OpMove:
		q := int(op.Q[0])
		if e.qTrap[q] != -1 {
			return fmt.Errorf("move of qubit q%d that is not in transit", q)
		}
		e.transitE[q] = heating.Move(e.transitE[q], e.dev.Segments[op.Resource].Length, p.K2)
		e.tracker.CountMove()
		e.tracker.ObserveTransit(e.transitE[q])

	case isa.OpLinkTransit:
		q := int(op.Q[0])
		if e.qTrap[q] != -1 {
			return fmt.Errorf("link transit of qubit q%d that is not in transit", q)
		}
		// The state is teleported onto a fresh cooled ion on the far
		// module, so accumulated motional energy does not cross the link —
		// but the teleportation itself costs fidelity.
		e.transitE[q] = 0
		e.logFidelity += math.Log(1 - p.PhotonicLinkInfidelity)
		e.linkTransits++
		e.tracker.ObserveTransit(e.transitE[q])

	case isa.OpJunctionCross:
		q := int(op.Q[0])
		if e.qTrap[q] != -1 {
			return fmt.Errorf("junction crossing of qubit q%d not in transit", q)
		}
		e.transitE[q] += p.JunctionHeating
		e.tracker.CountJunction()
		e.tracker.ObserveTransit(e.transitE[q])

	case isa.OpMerge:
		c := &e.chains[t]
		q := int(op.Q[0])
		if e.qTrap[q] != -1 {
			return fmt.Errorf("merge of qubit q%d that is not in transit", q)
		}
		if c.n >= e.dev.Capacity {
			return fmt.Errorf("merge overflows trap %d (cap %d)", t, e.dev.Capacity)
		}
		c.energy = heating.Merge(c.energy, e.transitE[q], p.K1)
		e.attach(c, q, t, op.End == device.Left)
		e.tracker.CountMerge()
		e.tracker.Observe(t, c.energy)

	default:
		return fmt.Errorf("unknown op kind %s", op.Kind)
	}
	return nil
}

// recordMS accounts count MS-gate executions with identical error terms.
func (e *engine) recordMS(terms models.ErrorTerms, count int) {
	for k := 0; k < count; k++ {
		e.msGates++
		e.sumMotional += terms.Motional
		e.sumBackground += terms.Background
		e.logFidelity += math.Log(terms.Fidelity())
	}
}

// event is a scheduled op completion.
type event struct {
	time float64
	op   int
}

// eventQueue is a binary min-heap of events ordered by (time, op ID). It
// is preallocated to the program's op count, so pushes never reallocate.
type eventQueue []event

func (h eventQueue) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].op < h[j].op
}

func (h *eventQueue) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for c := len(q) - 1; c > 0; {
		parent := (c - 1) / 2
		if q.less(parent, c) {
			break
		}
		q[parent], q[c] = q[c], q[parent]
		c = parent
	}
}

func (h *eventQueue) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q.less(l, small) {
			small = l
		}
		if r < len(q) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// resource is one exclusively-held device resource with a priority wait
// queue (lowest op ID first).
type resource struct {
	busy   bool
	holder int
	wait   []int // maintained as a min-heap over op ID
}

func (r *resource) push(i int) {
	r.wait = append(r.wait, i)
	for c := len(r.wait) - 1; c > 0; {
		parent := (c - 1) / 2
		if r.wait[parent] <= r.wait[c] {
			break
		}
		r.wait[parent], r.wait[c] = r.wait[c], r.wait[parent]
		c = parent
	}
}

func (r *resource) pop() (int, bool) {
	if len(r.wait) == 0 {
		return 0, false
	}
	top := r.wait[0]
	last := len(r.wait) - 1
	r.wait[0] = r.wait[last]
	r.wait = r.wait[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(r.wait) && r.wait[l] < r.wait[small] {
			small = l
		}
		if rr < len(r.wait) && r.wait[rr] < r.wait[small] {
			small = rr
		}
		if small == i {
			break
		}
		r.wait[i], r.wait[small] = r.wait[small], r.wait[i]
		i = small
	}
	return top, true
}
