package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ppc "repro"
	"repro/internal/executor"
	"repro/internal/queries"
)

// maxTimedRuns caps the timed phase's sample buffers, which are allocated
// before set-up so they never show in the System's heap figure.
const maxTimedRuns = 1 << 20

// bench is one invocation: a workload, a seed and a scratch directory.
type bench struct {
	sp      *spec
	seed    int64
	seconds float64
	work    string // scratch root; removed when the run ends
	log     io.Writer
	dirs    int // durability directories handed out so far
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench %s: "+format+"\n", append([]any{b.sp.name}, args...)...)
}

// newDir returns a fresh, empty directory under the scratch root.
func (b *bench) newDir(kind string) (string, error) {
	b.dirs++
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", kind, b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// live is a System after set-up, with the set-up's timings.
type live struct {
	sys            *ppc.System
	dir            string
	open, register time.Duration
	warmup         time.Duration
	heapBase       uint64 // HeapInuse after GC, just before Open
}

func (l *live) setup() time.Duration { return l.open + l.register + l.warmup }

// setUp opens a System, registers the workload's templates and runs the
// warm-up prefix of the stream (requests [0, warmup)). The stream is reset
// first, so every set-up serves the same requests.
func (b *bench) setUp(st *stream) (*live, error) {
	st.reset()
	if _, err := st.at(b.sp.warmup - 1); err != nil { // draw the prefix untimed
		return nil, err
	}
	l := &live{}
	if b.sp.durable {
		dir, err := b.newDir("durable")
		if err != nil {
			return nil, err
		}
		l.dir = dir
	}
	l.heapBase = liveHeap()
	t0 := time.Now()
	sys, err := ppc.Open(b.sp.options(b.seed, l.dir))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	l.sys = sys
	t1 := time.Now()
	if err := registerMissing(sys, b.sp.templates); err != nil {
		sys.Close()
		return nil, err
	}
	t2 := time.Now()
	for i := 0; i < b.sp.warmup; i++ {
		req, err := st.at(i)
		if err != nil {
			sys.Close()
			return nil, err
		}
		if _, err := sys.Run(b.sp.templates[req.tmpl], req.values); err != nil {
			sys.Close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	t3 := time.Now()
	l.open, l.register, l.warmup = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return l, nil
}

// registerMissing registers every named template the System does not hold
// yet (a recovered System already holds the checkpoint's templates).
func registerMissing(sys *ppc.System, names []string) error {
	have := make(map[string]bool)
	for _, n := range sys.TemplateNames() {
		have[n] = true
	}
	for _, name := range names {
		if have[name] {
			continue
		}
		sql, err := templateSQL(name)
		if err != nil {
			return err
		}
		if err := sys.Register(name, sql); err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
	}
	return nil
}

func templateSQL(name string) (string, error) {
	for _, d := range queries.Defs {
		if d.Name == name {
			return d.SQL, nil
		}
	}
	return "", fmt.Errorf("unknown template %s", name)
}

// liveHeap returns the bytes of live heap objects right after a GC: the
// least of three samples 10 ms apart, so transient garbage of a background
// goroutine caught mid-task (a checkpoint) does not count.
func liveHeap() uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least
}

// phase holds what a run of consecutive requests measured.
type phase struct {
	lat        []float64 // per-run latency, µs
	ends       []float64 // active wall time, s, after each run
	errs       int
	invoked    int
	hits       int
	active     time.Duration // wall time minus the paused checks
	regret     []float64
	checks     int
	mismatches []string
	next       int // stream index after the phase
	// checkMallocs counts the allocations of the answer checks, so the
	// per-run allocation figure can leave them out.
	checkMallocs uint64
}

func newPhase(capacity int) *phase {
	return &phase{lat: make([]float64, 0, capacity), ends: make([]float64, 0, capacity)}
}

func (p *phase) runs() int { return len(p.lat) }

// failed counts runs that returned an error or a wrong answer.
func (p *phase) failed() int { return p.errs + len(p.mismatches) }

// timed runs the stream from index start until seconds of active time have
// passed (or stop requests, when stop > 0). Every sampleEvery-th request
// also gets a regret oracle and an answer check; that work, and drawing
// new stream chunks, is paused out of the active time.
func (b *bench) timed(sys *ppc.System, st *stream, p *phase, start int, seconds float64, stop int) error {
	chk := newChecker(sys)
	budget := time.Duration(seconds * float64(time.Second))
	var paused time.Duration
	begin := time.Now()
	i := start
	for len(p.lat) < cap(p.lat) {
		n := len(p.lat)
		if stop > 0 && n >= stop {
			break
		}
		if stop == 0 && time.Since(begin)-paused >= budget {
			break
		}
		part := st.part
		tg := time.Now()
		req, err := st.at(i)
		if err != nil {
			return err
		}
		if st.part != part {
			paused += time.Since(tg)
		}
		name := b.sp.templates[req.tmpl]
		t0 := time.Now()
		res, err := sys.Run(name, req.values)
		d := time.Since(t0)
		p.lat = append(p.lat, float64(d.Nanoseconds())/1e3)
		switch {
		case err != nil:
			p.errs++
			if p.errs <= 3 {
				b.logf("request %d (%s): %v", i, name, err)
			}
		case i%b.sp.sampleEvery == 0:
			tp := time.Now()
			p.checks++
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ratio, bad, cerr := chk.check(name, req.values, res)
			runtime.ReadMemStats(&m1)
			p.checkMallocs += m1.Mallocs - m0.Mallocs
			if cerr != nil {
				return cerr
			}
			if bad != "" {
				p.mismatches = append(p.mismatches, fmt.Sprintf("request %d (%s %v): %s", i, name, req.values, bad))
			} else {
				p.regret = append(p.regret, ratio)
			}
			paused += time.Since(tp)
		}
		if res != nil && res.Invoked {
			p.invoked++
		}
		if res != nil && res.CacheHit {
			p.hits++
		}
		p.ends = append(p.ends, (time.Since(begin) - paused).Seconds())
		i++
	}
	p.active = time.Since(begin) - paused
	p.next = i
	return nil
}

// checker is the answer oracle: it re-optimizes an instance from scratch
// and executes the fresh plan on the tree-walk executor.
type checker struct {
	sys  *ppc.System
	exec *executor.Executor
}

func newChecker(sys *ppc.System) *checker {
	return &checker{sys: sys, exec: executor.New(sys.DB())}
}

// check returns the run's plan regret (its estimated cost over the fresh
// optimizer plan's cost at the same values) and a non-empty reason when the
// served rows differ from the oracle's.
func (c *checker) check(name string, values []float64, res *ppc.RunResult) (float64, string, error) {
	tmpl, err := c.sys.Template(name)
	if err != nil {
		return 0, "", err
	}
	inst, err := tmpl.Instantiate(values)
	if err != nil {
		return 0, "", err
	}
	plan, err := c.sys.Optimizer().OptimizeInstance(inst)
	if err != nil {
		return 0, "", fmt.Errorf("oracle optimize %s: %w", name, err)
	}
	want, err := c.exec.Run(plan)
	if err != nil {
		return 0, "", fmt.Errorf("oracle execute %s: %w", name, err)
	}
	if ok, why := sameRows(res.Result, want); !ok {
		return 0, why, nil
	}
	if plan.Cost <= 0 {
		return 1, "", nil
	}
	return res.EstimatedCost / plan.Cost, "", nil
}

// windows cuts the phase into n equal stretches of active time and returns
// the medians, over the stretches, of each stretch's p50 and p99 latency
// and of its runs per second.
func (p *phase) windows(n int) (p50, p99, rate float64) {
	width := p.active.Seconds() / float64(n)
	var p50s, p99s, rates []float64
	lo := 0
	for k := 1; k <= n; k++ {
		hi := lo
		for hi < len(p.ends) && (k == n || p.ends[hi] <= float64(k)*width) {
			hi++
		}
		w := append([]float64(nil), p.lat[lo:hi]...)
		sort.Float64s(w)
		if len(w) > 0 {
			p50s = append(p50s, percentile(w, 0.5))
			p99s = append(p99s, percentile(w, 0.99))
		}
		rates = append(rates, float64(hi-lo)/width)
		lo = hi
	}
	return median(p50s), median(p99s), median(rates)
}

// sorted returns the phase's latencies sorted ascending.
func (p *phase) sorted() []float64 {
	s := append([]float64(nil), p.lat...)
	sort.Float64s(s)
	return s
}
