// Package place implements simulated-annealing standard-cell placement.
//
// Placement is a substrate for the paper's experiments in two ways: its
// result drives routing congestion (and therefore the DRV convergence
// behaviour of Fig. 9), and its annealing cost landscape exhibits the
// "big valley" structure that adaptive multistart (Fig. 6(b)) and
// go-with-the-winners (Fig. 6(a)) exploit. A partitioned mode supports
// the "many more small subproblems" ablation of Fig. 4(b).
//
// Two annealing engines share one move evaluator:
//
//   - the serial engine (Workers == 0) commits after every proposal and
//     reproduces the historical serial placer bit for bit;
//   - the speculative parallel engine (Workers > 0, see parallel.go)
//     evaluates batches of proposals concurrently and commits them in
//     proposal order with conflict detection, producing results that
//     depend only on Seed/Moves/Batch — never on Workers or scheduling.
//
// The evaluator itself is built on flat structure-of-arrays state:
// per-net bounding boxes cached and maintained incrementally, CSR
// incidence (netlist.Incidence / netlist.NetPins) instead of nested
// slices, and stamp arrays instead of per-move map allocation.
package place

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/num"
)

// Options are the placer knobs.
type Options struct {
	Seed        int64
	Moves       int     // total SA moves (default 120 * numCells)
	Utilization float64 // die utilization (default 0.6)
	Partitions  int     // 1 = flat; k means k x k independent regions
	// StartTemp overrides the sampled initial temperature (0 = auto).
	StartTemp float64
	// Workers > 0 selects the speculative parallel annealer: proposals
	// are drawn in batches from the master stream, evaluated concurrently
	// against the epoch snapshot, and committed in proposal order with
	// conflict detection. The outcome depends only on Seed, Moves and
	// Batch — identical at every Workers >= 1 — but differs from the
	// Workers == 0 serial engine, which commits after every proposal.
	Workers int
	// Batch is the maximum speculative proposal batch size (default
	// 256); only used when Workers > 0. Part of the reproducibility key.
	// The engine adapts the live batch per epoch between
	// max(32, Batch/4) and Batch from the previous epoch's conflict
	// fraction (see the adapt* constants in parallel.go).
	Batch int
}

func (o Options) withDefaults(numCells int) Options {
	if o.Moves <= 0 {
		o.Moves = 120 * numCells
	}
	if o.Utilization <= 0 {
		o.Utilization = 0.6
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Batch <= 0 {
		o.Batch = 256
	}
	return o
}

// Result reports placement quality and effort.
type Result struct {
	HPWLUm        float64
	InitialHPWLUm float64
	Width, Height float64
	MovesTried    int
	MovesAccepted int
	// MovesConflicted counts speculative proposals discarded at commit
	// time because an earlier proposal in the same batch touched an
	// overlapping instance, slot or net (parallel engine only).
	MovesConflicted int
	// BatchFinal is the adaptive speculative batch size at the end of
	// the anneal (parallel engine only; 0 for the serial engine). A
	// deterministic function of Seed/Moves/Batch like everything else.
	BatchFinal int
	// RuntimeProxy counts cost-function evaluations, a deterministic
	// stand-in for wall-clock TAT in the experiments.
	RuntimeProxy int
	// ParallelRuntimeProxy is the TAT assuming each partition region
	// anneals on its own machine (the Fig. 4(b) "many more small
	// subproblems" payoff); equals RuntimeProxy for flat placement.
	ParallelRuntimeProxy int
}

// grid is the slot structure used during annealing.
type grid struct {
	cols, rows int
	cellW      float64
	rowH       float64
	slotOf     []int // inst -> slot
	instAt     []int // slot -> inst or -1
}

func (g *grid) coords(slot int) (x, y float64) {
	r, c := slot/g.cols, slot%g.cols
	return (float64(c) + 0.5) * g.cellW, (float64(r) + 0.5) * g.rowH
}

// evalScratch is the per-evaluator scratch state: a stamp array dedupes
// the affected-net list without allocating. Each concurrent evaluator
// owns its own scratch; the shared placer state is read-only during
// evaluation.
type evalScratch struct {
	stamp    []int32
	gen      int32
	affected []int32
}

func newEvalScratch(numNets int) evalScratch {
	return evalScratch{stamp: make([]int32, numNets), affected: make([]int32, 0, 16)}
}

func (sc *evalScratch) next() {
	sc.gen++
	if sc.gen == math.MaxInt32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.gen = 1
	}
}

// commitScratch extends the stamp pattern with per-net move flags so a
// committed swap can classify each affected net: bit 1 = the moving
// instance pins it, bit 2 = the displaced occupant pins it.
type commitScratch struct {
	stamp    []int32
	pos      []int32 // net -> index into affected (valid when stamped)
	gen      int32
	affected []int32
	flags    []uint8
}

func newCommitScratch(numNets int) commitScratch {
	return commitScratch{
		stamp:    make([]int32, numNets),
		pos:      make([]int32, numNets),
		affected: make([]int32, 0, 16),
		flags:    make([]uint8, 0, 16),
	}
}

// placer is the shared annealing state. The serial and speculative
// engines differ only in how they drive propose/evaluate/commit.
type placer struct {
	n    *netlist.Netlist
	opts Options
	g    *grid
	w, h float64
	res  Result

	inc  netlist.Incidence
	pins netlist.NetPins

	// Cached per-net bounding boxes (SoA): the "before" cost of a move
	// is four array reads instead of a rescan of every pin.
	minX, maxX, minY, maxY []float64

	part        []int
	partitioned bool
	coarseProxy int

	eval   evalScratch
	commit commitScratch

	ctx     context.Context
	aborted bool
}

// Place runs simulated annealing on the netlist, mutating instance
// coordinates, and returns quality metrics.
func Place(n *netlist.Netlist, opts Options) Result {
	res, _ := PlaceCtx(context.Background(), n, opts)
	return res
}

// abortCheckMoves is the cancellation poll granularity of the serial
// annealer (the parallel engine polls once per epoch, which is at most
// one batch). A power of two so the poll is a mask, not a division.
const abortCheckMoves = 4096

// PlaceCtx is Place with cooperative cancellation: the anneal polls ctx
// between move blocks and bails out once it is cancelled. The second
// return is false for an aborted anneal — its Result and the netlist's
// coordinates are then partial and must be discarded. Cancellation
// exists so speculative callers can reap a mispredicted anneal early;
// an uncancelled run never aborts, so committed placements keep their
// bit-exact determinism and worker invariance.
func PlaceCtx(ctx context.Context, n *netlist.Netlist, opts Options) (Result, bool) {
	opts = opts.withDefaults(n.NumCells())
	rng := rand.New(rand.NewSource(opts.Seed))

	w, h := netlist.DieSize(n, opts.Utilization)
	p := &placer{n: n, opts: opts, w: w, h: h, ctx: ctx}
	p.g = buildGrid(n, w, h, rng)
	p.res = Result{Width: w, Height: h}

	p.inc = n.BuildIncidence()
	p.pins = n.BuildNetPins()
	numNets := len(n.Nets)
	p.minX = make([]float64, numNets)
	p.maxX = make([]float64, numNets)
	p.minY = make([]float64, numNets)
	p.maxY = make([]float64, numNets)
	p.eval = newEvalScratch(numNets)
	p.commit = newCommitScratch(numNets)
	p.part = make([]int, n.NumCells())

	applyCoords(n, p.g)
	p.res.InitialHPWLUm = n.TotalHPWL()
	for nid := 0; nid < numNets; nid++ {
		p.rescanBox(nid)
	}

	if opts.Workers > 0 {
		p.annealSpeculative(rng)
	} else {
		p.annealSerial(rng)
	}

	applyCoords(n, p.g)
	p.res.HPWLUm = n.TotalHPWL()
	p.res.ParallelRuntimeProxy = p.res.RuntimeProxy
	if opts.Partitions > 1 {
		regions := opts.Partitions * opts.Partitions
		p.res.ParallelRuntimeProxy = p.coarseProxy + (p.res.RuntimeProxy-p.coarseProxy)/regions
	}
	return p.res, !p.aborted
}

// annealSerial is the historical commit-every-move engine. Its random
// stream, acceptance decisions and floating-point results are bit-for-
// bit identical to the pre-SoA placer.
func (p *placer) annealSerial(rng *rand.Rand) {
	temp, cool := p.schedule(rng)
	numCells := p.n.NumCells()
	numSlots := len(p.g.instAt)
	coarseMoves := 0
	if p.opts.Partitions > 1 {
		coarseMoves = p.opts.Moves / 4
	}
	for m := 0; m < p.opts.Moves; m++ {
		if m&(abortCheckMoves-1) == 0 && p.ctx.Err() != nil {
			p.aborted = true
			return
		}
		if p.opts.Partitions > 1 && !p.partitioned && m >= coarseMoves {
			p.assignPartitions()
		}
		inst := rng.Intn(numCells)
		slot := rng.Intn(numSlots)
		if slot == p.g.slotOf[inst] || (p.partitioned && p.regionOfSlot(slot) != p.part[inst]) {
			temp *= cool
			continue
		}
		p.res.MovesTried++
		delta, cost := p.evalDelta(inst, slot, &p.eval)
		p.res.RuntimeProxy += cost
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			p.commitSwap(inst, slot)
			p.res.MovesAccepted++
		}
		temp *= cool
	}
}

// schedule samples the initial temperature (mean |delta| of random
// moves) and derives the geometric cooling factor.
func (p *placer) schedule(rng *rand.Rand) (temp, cool float64) {
	temp = p.opts.StartTemp
	if temp <= 0 {
		var sum float64
		const samples = 64
		for i := 0; i < samples; i++ {
			inst := rng.Intn(p.n.NumCells())
			slot := rng.Intn(len(p.g.instAt))
			d, cost := p.evalDelta(inst, slot, &p.eval)
			p.res.RuntimeProxy += cost
			sum += math.Abs(d)
		}
		temp = sum/samples + 1e-9
	}
	final := temp / 2000
	cool = math.Pow(final/temp, 1/float64(p.opts.Moves))
	return temp, cool
}

// Partitioned mode runs a flat coarse pass first (global optimization
// places connected cells near each other), then locks each instance
// into the region it landed in and refines within regions only — the
// "RTL partition and floorplan co-optimization" shape of Fig. 4(b),
// where the small subproblems can be solved in parallel.
func (p *placer) assignPartitions() {
	for inst := range p.part {
		p.part[inst] = p.regionOfSlot(p.g.slotOf[inst])
	}
	p.partitioned = true
	p.coarseProxy = p.res.RuntimeProxy
}

func (p *placer) regionOfSlot(slot int) int {
	if p.opts.Partitions <= 1 {
		return 0
	}
	x, y := p.g.coords(slot)
	px := num.Clamp(int(x/p.w*float64(p.opts.Partitions)), 0, p.opts.Partitions-1)
	py := num.Clamp(int(y/p.h*float64(p.opts.Partitions)), 0, p.opts.Partitions-1)
	return py*p.opts.Partitions + px
}

// evalDelta computes the HPWL change of swapping inst into slot (with
// whatever occupies it) without mutating any shared state: the "before"
// cost reads the cached boxes, the "after" cost rescans the affected
// nets substituting the swapped positions. Safe to call concurrently
// with distinct scratches. The second result is the historical
// runtime-proxy cost of the evaluation (2 passes over affected nets).
func (p *placer) evalDelta(inst, slot int, sc *evalScratch) (delta float64, cost int) {
	g := p.g
	other := g.instAt[slot]
	sc.next()
	aff := sc.affected[:0]
	for _, nid := range p.inc.Of(inst) {
		if sc.stamp[nid] != sc.gen {
			sc.stamp[nid] = sc.gen
			aff = append(aff, nid)
		}
	}
	if other >= 0 && other != inst {
		for _, nid := range p.inc.Of(other) {
			if sc.stamp[nid] != sc.gen {
				sc.stamp[nid] = sc.gen
				aff = append(aff, nid)
			}
		}
	}
	sc.affected = aff

	var before float64
	for _, nid := range aff {
		before += (p.maxX[nid] - p.minX[nid]) + (p.maxY[nid] - p.minY[nid])
	}
	instX, instY := g.coords(slot)
	otherX, otherY := g.coords(g.slotOf[inst])
	o32 := int32(-1)
	if other >= 0 && other != inst {
		o32 = int32(other)
	}
	var after float64
	for _, nid := range aff {
		after += p.hpwlMoved(int(nid), int32(inst), instX, instY, o32, otherX, otherY)
	}
	return after - before, 2 * len(aff)
}

// hpwlMoved computes one net's HPWL with inst and other virtually moved
// to the given coordinates — the same pin visit order and math.Min/Max
// sequence as Netlist.HPWL, so the result is bit-identical to a rescan
// after a real swap.
func (p *placer) hpwlMoved(nid int, inst int32, instX, instY float64, other int32, otherX, otherY float64) float64 {
	pins := p.pins.Of(nid)
	if len(pins) == 0 {
		return 0
	}
	first := true
	var minX, maxX, minY, maxY float64
	for _, pin := range pins {
		var x, y float64
		switch pin {
		case inst:
			x, y = instX, instY
		case other:
			x, y = otherX, otherY
		default:
			x, y = p.g.coords(p.g.slotOf[pin])
		}
		if first {
			minX, maxX, minY, maxY = x, x, y, y
			first = false
			continue
		}
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// commitSwap performs the swap and maintains the cached boxes exactly.
// Nets pinned by both swap endpoints keep an unchanged position set, so
// their boxes are untouched; nets pinned by one endpoint get an exact
// incremental update when the vacated point was strictly interior, and
// a full rescan otherwise. The affected-net list remains available in
// p.commit.affected for the caller (the speculative engine stamps it).
func (p *placer) commitSwap(inst, slot int) {
	g := p.g
	other := g.instAt[slot]
	oldSlot := g.slotOf[inst]

	sc := &p.commit
	sc.gen++
	if sc.gen == math.MaxInt32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.gen = 1
	}
	aff := sc.affected[:0]
	flags := sc.flags[:0]
	for _, nid := range p.inc.Of(inst) {
		sc.stamp[nid] = sc.gen
		sc.pos[nid] = int32(len(aff))
		aff = append(aff, nid)
		flags = append(flags, 1)
	}
	if other >= 0 && other != inst {
		for _, nid := range p.inc.Of(other) {
			if sc.stamp[nid] == sc.gen {
				flags[sc.pos[nid]] |= 2
				continue
			}
			sc.stamp[nid] = sc.gen
			sc.pos[nid] = int32(len(aff))
			aff = append(aff, nid)
			flags = append(flags, 2)
		}
	}
	sc.affected, sc.flags = aff, flags

	swap(g, inst, slot)

	newX, newY := g.coords(slot)
	oldX, oldY := g.coords(oldSlot)
	for k, nid := range aff {
		switch flags[k] {
		case 1: // inst moved oldSlot -> slot
			p.updateBox(int(nid), oldX, oldY, newX, newY)
		case 2: // other moved slot -> oldSlot
			p.updateBox(int(nid), newX, newY, oldX, oldY)
			// case 3: both endpoints pin this net; the position set is
			// unchanged by the swap, so the box is too.
		}
	}
}

// updateBox maintains a net's cached box across one pin moving from
// (remX,remY) to (addX,addY). If the removed point touches the box
// boundary the box may shrink and a rescan is needed; otherwise the box
// over the remaining points is unchanged and merging the added point is
// exact.
func (p *placer) updateBox(nid int, remX, remY, addX, addY float64) {
	if remX <= p.minX[nid] || remX >= p.maxX[nid] ||
		remY <= p.minY[nid] || remY >= p.maxY[nid] {
		p.rescanBox(nid)
		return
	}
	p.minX[nid] = math.Min(p.minX[nid], addX)
	p.maxX[nid] = math.Max(p.maxX[nid], addX)
	p.minY[nid] = math.Min(p.minY[nid], addY)
	p.maxY[nid] = math.Max(p.maxY[nid], addY)
}

// rescanBox recomputes a net's cached box from the current grid, with
// the same pin order and comparison sequence as Netlist.HPWL.
func (p *placer) rescanBox(nid int) {
	pins := p.pins.Of(nid)
	if len(pins) == 0 {
		p.minX[nid], p.maxX[nid], p.minY[nid], p.maxY[nid] = 0, 0, 0, 0
		return
	}
	x, y := p.g.coords(p.g.slotOf[pins[0]])
	minX, maxX, minY, maxY := x, x, y, y
	for _, pin := range pins[1:] {
		x, y := p.g.coords(p.g.slotOf[pin])
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	p.minX[nid], p.maxX[nid] = minX, maxX
	p.minY[nid], p.maxY[nid] = minY, maxY
}

// buildGrid creates the slot grid sized for the die and scatters the
// instances into it (random permutation so different seeds explore
// different basins).
func buildGrid(n *netlist.Netlist, w, h float64, rng *rand.Rand) *grid {
	numCells := n.NumCells()
	rowH := n.Lib.RowPitch
	if rowH <= 0 {
		rowH = 1
	}
	rows := int(h/rowH) + 1
	// Enough columns for all cells plus ~30% whitespace.
	cols := int(math.Ceil(float64(numCells) * 1.3 / float64(rows)))
	if cols < 1 {
		cols = 1
	}
	g := &grid{
		cols:   cols,
		rows:   rows,
		cellW:  w / float64(cols),
		rowH:   h / float64(rows),
		slotOf: make([]int, numCells),
		instAt: make([]int, cols*rows),
	}
	for i := range g.instAt {
		g.instAt[i] = -1
	}
	perm := rng.Perm(cols * rows)
	for inst := 0; inst < numCells; inst++ {
		slot := perm[inst]
		g.slotOf[inst] = slot
		g.instAt[slot] = inst
	}
	return g
}

// swap moves inst into slot, exchanging with any occupant.
func swap(g *grid, inst, slot int) {
	old := g.slotOf[inst]
	other := g.instAt[slot]
	g.instAt[old] = other
	if other >= 0 {
		g.slotOf[other] = old
	}
	g.instAt[slot] = inst
	g.slotOf[inst] = slot
}

// applyCoords writes grid slot coordinates back to the netlist.
func applyCoords(n *netlist.Netlist, g *grid) {
	for inst := range g.slotOf {
		x, y := g.coords(g.slotOf[inst])
		n.Insts[inst].X = x
		n.Insts[inst].Y = y
	}
	n.InvalidatePlacement()
}

// Snapshot captures instance coordinates so multistart/GWTW can save and
// restore placements.
func Snapshot(n *netlist.Netlist) []float64 {
	s := make([]float64, 2*n.NumCells())
	for i := range n.Insts {
		s[2*i], s[2*i+1] = n.Insts[i].X, n.Insts[i].Y
	}
	return s
}

// Restore writes a snapshot back.
func Restore(n *netlist.Netlist, s []float64) {
	for i := range n.Insts {
		n.Insts[i].X, n.Insts[i].Y = s[2*i], s[2*i+1]
	}
	n.InvalidatePlacement()
}

// Distance returns the average per-cell Manhattan distance between two
// placements — the solution-space metric for big-valley analysis.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var d float64
	for i := 0; i < len(a); i += 2 {
		d += math.Abs(a[i]-b[i]) + math.Abs(a[i+1]-b[i+1])
	}
	return d / float64(len(a)/2)
}
