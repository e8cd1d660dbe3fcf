package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"

	ppc "repro"
	"repro/internal/candidates"
	"repro/internal/executor"
	"repro/internal/netproto"
	"repro/internal/optimizer"
)

// Span names. A request's root span has ppc.run — the real System.Run —
// as its first child, followed by the replayed layer calls.
const (
	spRequest uint8 = iota
	spRun
	spInstantiate
	spPredict
	spRebind
	spRoute
	spOptimize
	spCompile
	spExec
	spAttribute
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "ppc.run", "optimizer.instantiate", "core.predict", "optimizer.rebind",
	"candidates.route", "optimizer.optimize", "executor.compile", "executor.exec", "optimizer.attribute",
}

// span is one timed interval of the trace.
type span struct {
	name       uint8
	partial    bool  // request root whose layers could not all be replayed
	parent     int32 // index of the parent span, -1 for a root
	req        int32
	start, end int64 // ns since the tracer started
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name uint8, parent, req int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the part of its interval
// that its children's intervals cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(ch))
		for _, c := range ch {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, v := range iv {
			if open && v[0] <= curHi {
				curHi = max(curHi, v[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// ledger sums the trace per span name.
type ledger struct {
	selfNs [numSpanNames]int64
	calls  [numSpanNames]int
	// residualFrac is the part of ppc.run the replayed layers leave
	// unexplained, over the fully replayed requests.
	residualFrac float64
	partial      int // requests left out of the residual
	requests     int
}

func buildLedger(spans []span) ledger {
	var lg ledger
	self := selfTimes(spans)
	run := make(map[int32]int64)
	layers := make(map[int32]int64)
	partial := make(map[int32]bool)
	for i, s := range spans {
		lg.selfNs[s.name] += self[i]
		lg.calls[s.name]++
		switch s.name {
		case spRequest:
			lg.requests++
			if s.partial {
				partial[s.req] = true
				lg.partial++
			}
		case spRun:
			run[s.req] += s.end - s.start
		default:
			layers[s.req] += s.end - s.start
		}
	}
	var runSum, layerSum int64
	for req, d := range run {
		if partial[req] {
			continue
		}
		runSum += d
		layerSum += layers[req]
	}
	if runSum > 0 {
		lg.residualFrac = float64(runSum-layerSum) / float64(runSum)
	}
	return lg
}

// meanUs is the mean self time per call of a span name, in µs.
func (lg *ledger) meanUs(name uint8) float64 {
	if lg.calls[name] == 0 {
		return 0
	}
	return float64(lg.selfNs[name]) / float64(lg.calls[name]) / 1e3
}

// benchPlan is the benchmark's own compiled copy of a plan the System
// served, keyed by fingerprint.
type benchPlan struct {
	plan   *optimizer.Plan
	prog   *executor.CompiledPlan
	rebind *optimizer.RebindProgram
}

// replayer re-runs, outside the System, the layer calls a Run made. It has
// its own optimizer memos, candidate sets, compiled plans and executor
// arenas, all warm, so a replay measures a layer on warm caches.
type replayer struct {
	sys     *ppc.System
	opt     *optimizer.Optimizer
	exec    *executor.Executor
	tmpls   []*optimizer.Template
	memos   []*optimizer.Memo
	plans   map[string]*benchPlan
	cards   []executor.CardObservation
	genTime time.Duration // candidates.Generate over the templates, after set-up
	// cands holds each template's candidate plans when the workload turns
	// candidates on; regenAt is the request that last regenerated them.
	cands   [][]*benchPlan
	regenAt []int
}

func newReplayer(sys *ppc.System, names []string, withCandidates bool) (*replayer, error) {
	rp := &replayer{sys: sys, opt: sys.Optimizer(), exec: executor.New(sys.DB()), plans: make(map[string]*benchPlan)}
	for _, name := range names {
		t, err := sys.Template(name)
		if err != nil {
			return nil, err
		}
		m, err := rp.opt.NewMemo(t.Query)
		if err != nil {
			return nil, err
		}
		rp.tmpls = append(rp.tmpls, t)
		rp.memos = append(rp.memos, m)
	}
	if withCandidates {
		rp.cands = make([][]*benchPlan, len(names))
		rp.regenAt = make([]int, len(names))
		t0 := time.Now()
		for ti := range names {
			if err := rp.regen(ti); err != nil {
				return nil, err
			}
		}
		rp.genTime = time.Since(t0)
	}
	return rp, nil
}

// regen rebuilds a template's candidate set under the current statistics,
// as the System does after a correction epoch moves.
func (rp *replayer) regen(ti int) error {
	t := rp.tmpls[ti]
	cands, err := candidates.Generate(rp.opt, t, candidates.Config{})
	if err != nil {
		return fmt.Errorf("candidates %s: %w", t.Name, err)
	}
	rp.cands[ti] = rp.cands[ti][:0]
	for _, c := range cands {
		rp.cands[ti] = append(rp.cands[ti], rp.learn(t, c.Plan))
	}
	return nil
}

// route re-costs a template's candidates at the values and returns the
// cheapest, as the System's candidate route does.
func (rp *replayer) route(ti int, values []float64) *benchPlan {
	var best *benchPlan
	var bestCost float64
	for _, bp := range rp.cands[ti] {
		if bp.rebind == nil {
			continue
		}
		cost, err := bp.rebind.Recost(rp.opt, values)
		if err == nil && (best == nil || cost < bestCost) {
			best, bestCost = bp, cost
		}
	}
	return best
}

// learn compiles a plan the first time its fingerprint is seen.
func (rp *replayer) learn(t *optimizer.Template, plan *optimizer.Plan) *benchPlan {
	if bp := rp.plans[plan.Fingerprint]; bp != nil {
		return bp
	}
	bp := &benchPlan{plan: plan}
	if prog, err := rp.exec.Compile(plan, t.Query); err == nil {
		bp.prog = prog
	}
	if rb, err := rp.opt.CompileRebind(t.Query, plan); err == nil {
		bp.rebind = rb
	}
	rp.plans[plan.Fingerprint] = bp
	return bp
}

// find returns the compiled plan for a served fingerprint, optimizing at the
// run's values to obtain the tree when the benchmark has not seen it yet.
// nil means the served plan could not be reproduced.
func (rp *replayer) find(ti int, fp string, values []float64) *benchPlan {
	if bp := rp.plans[fp]; bp != nil {
		return bp
	}
	t := rp.tmpls[ti]
	if plan, err := rp.opt.OptimizeMemo(rp.memos[ti], values); err == nil && plan.Fingerprint == fp {
		return rp.learn(t, plan)
	}
	inst, err := t.Instantiate(values)
	if err != nil {
		return nil
	}
	if plan, err := rp.opt.OptimizeInstance(inst); err == nil && plan.Fingerprint == fp {
		return rp.learn(t, plan)
	}
	return nil
}

// traced runs requests [start, start+count) of the stream, each as a real
// Run followed by replays of the layers that Run used, and returns the
// spans with the active wall time (the time spent reproducing unseen plans
// is paused out).
func (b *bench) traced(sys *ppc.System, st *stream, rp *replayer, start, count int) (*tracer, time.Duration, int, error) {
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, count*8)}
	var paused time.Duration
	errs := 0
	begin := time.Now()
	for k := start; k < start+count; k++ {
		part := st.part
		tg := time.Now()
		req, err := st.at(k)
		if err != nil {
			return nil, 0, 0, err
		}
		if st.part != part {
			paused += time.Since(tg)
		}
		id := int32(k)
		name := b.sp.templates[req.tmpl]
		root := tr.begin(spRequest, -1, id)
		s := tr.begin(spRun, root, id)
		res, err := sys.Run(name, req.values)
		tr.end(s)
		if err != nil {
			errs++
			tr.spans[root].partial = true
			tr.end(root)
			continue
		}
		if !rp.replay(tr, root, id, req, res, &paused) {
			tr.spans[root].partial = true
		}
		tr.end(root)
	}
	return tr, time.Since(begin) - paused, errs, nil
}

// replay re-runs one request's layers as children of root. It reports
// false when the served plan could not be reproduced, leaving rebind and
// execution out.
func (rp *replayer) replay(tr *tracer, root, id int32, req request, res *ppc.RunResult, paused *time.Duration) bool {
	t := rp.tmpls[req.tmpl]
	s := tr.begin(spInstantiate, root, id)
	inst, err := t.Instantiate(req.values)
	var point []float64
	if err == nil {
		point, err = rp.opt.SelectivityPoint(inst)
	}
	tr.end(s)
	if err != nil {
		return false
	}
	s = tr.begin(spPredict, root, id)
	rp.sys.PredictRPC(netproto.PredictRequest{Template: t.Name, Point: point})
	tr.end(s)
	bp := rp.plans[res.Fingerprint]
	if res.Invoked && !rp.routeReplay(tr, root, id, req, res, &bp, paused) {
		s = tr.begin(spOptimize, root, id)
		plan, err := rp.opt.OptimizeMemo(rp.memos[req.tmpl], req.values)
		tr.end(s)
		if err == nil && bp == nil && plan.Fingerprint == res.Fingerprint {
			// The System compiled this plan when it interned it.
			s = tr.begin(spCompile, root, id)
			bp = rp.learn(t, plan)
			tr.end(s)
		}
	}
	if bp == nil {
		tp := time.Now()
		bp = rp.find(req.tmpl, res.Fingerprint, req.values)
		*paused += time.Since(tp)
	}
	if bp == nil || bp.prog == nil || bp.rebind == nil {
		return false
	}
	s = tr.begin(spRebind, root, id)
	_, err = bp.rebind.Recost(rp.opt, req.values)
	tr.end(s)
	if err != nil {
		return false
	}
	s = tr.begin(spExec, root, id)
	_, cards, err := bp.prog.ExecObserve(req.values, rp.cards[:0])
	tr.end(s)
	rp.cards = cards
	if err != nil {
		return false
	}
	s = tr.begin(spAttribute, root, id)
	for i := range cards {
		c := &cards[i]
		rp.opt.AttributeCard(t.Query, c.Node, req.values, c.Rows, c.LeftRows, c.RightRows, c.Lo, c.Hi)
	}
	tr.end(s)
	return true
}

// routeReplay replays the candidate route of an optimizer invocation and
// reports whether it picks the plan the System served. On a miss it
// regenerates the template's candidates (at most once per 200 requests,
// paused out of the trace) and picks again untimed.
func (rp *replayer) routeReplay(tr *tracer, root, id int32, req request, res *ppc.RunResult, bp **benchPlan, paused *time.Duration) bool {
	if rp.cands == nil {
		return false
	}
	s := tr.begin(spRoute, root, id)
	pick := rp.route(req.tmpl, req.values)
	tr.end(s)
	if pick == nil || pick.plan.Fingerprint != res.Fingerprint {
		tp := time.Now()
		if int(id)-rp.regenAt[req.tmpl] >= 200 {
			rp.regenAt[req.tmpl] = int(id)
			if rp.regen(req.tmpl) == nil {
				pick = rp.route(req.tmpl, req.values)
			}
		}
		*paused += time.Since(tp)
	}
	if pick == nil || pick.plan.Fingerprint != res.Fingerprint {
		return false
	}
	*bp = pick
	return true
}

// dumpSpans writes the spans as gzip-compressed CSV.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "span,request,name,parent,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.req, spanNames[s.name], s.parent, s.start, s.end)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
