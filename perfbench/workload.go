package main

import (
	"fmt"
	"math/rand"
	"time"

	ppc "repro"
	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/wal"
	"repro/internal/workload"
)

// tpchScale is the TPC-H scale divisor every workload runs at (lineitem
// holds 3,000 rows).
const tpchScale = 2000

// spec defines one workload: the templates it runs, how their parameter
// points are drawn, and which optional subsystems it turns on.
type spec struct {
	name      string
	templates []string
	// durable turns on the WAL (SyncAlways), a 1 s checkpointer, candidate
	// plans and tunable LSH, and adds the restart-from-crash-image and
	// replica legs.
	durable bool
	// warmup is the number of requests run inside setup, before timing.
	warmup int
	// sampleEvery picks the timed runs that get a regret oracle and an
	// answer check (every sampleEvery-th request).
	sampleEvery int
	// chunk is the number of points drawn per template per stream chunk.
	chunk int
	// points draws one chunk of plan-space points for one template. part
	// counts chunks, so a generator can alternate direction.
	points func(dims, n int, seed int64, part int) ([][]float64, error)
}

var specs = []*spec{
	{
		name:        "hot-exec",
		templates:   []string{"Q0", "Q1", "Q2"},
		warmup:      3000,
		sampleEvery: 50,
		chunk:       4000,
		points: func(dims, n int, seed int64, _ int) ([][]float64, error) {
			return workload.Trajectories(workload.TrajectoryConfig{
				Dims: dims, NumPoints: n, NumTrajectories: n / 100, Sigma: 0.01, Seed: seed,
			})
		},
	},
	{
		name:        "plan-churn",
		templates:   []string{"Q3", "Q4", "Q5", "Q6", "Q7", "Q8"},
		warmup:      1200,
		sampleEvery: 40,
		chunk:       1000,
		points: func(dims, n int, seed int64, _ int) ([][]float64, error) {
			return workload.Uniform(dims, n, seed), nil
		},
	},
	{
		name:        "durable-drift",
		templates:   []string{"Q1", "Q2", "Q5"},
		durable:     true,
		warmup:      1500,
		sampleEvery: 40,
		chunk:       2000,
		// The mode sweeps 0.2 → 0.8 over one chunk and back over the next,
		// so every stretch of the timed phase sees the same drift rate.
		points: func(dims, n int, seed int64, part int) ([][]float64, error) {
			lo, hi := constant(dims, 0.2), constant(dims, 0.8)
			if part%2 == 1 {
				lo, hi = hi, lo
			}
			return workload.Drifting(workload.DriftConfig{Dims: dims, NumPoints: n, Start: lo, End: hi, Seed: seed})
		},
	},
}

func lookupSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func constant(dims int, v float64) []float64 {
	p := make([]float64, dims)
	for i := range p {
		p[i] = v
	}
	return p
}

// options returns the System configuration for the workload: defaults, the
// seeded TPC-H database and, for the durable workload, its durability dir.
func (sp *spec) options(seed int64, dir string) ppc.Options {
	o := ppc.Options{TPCH: tpch.Config{Scale: tpchScale, Seed: seed}}
	if sp.durable {
		o.Durability = ppc.Durability{
			Dir:                dir,
			Sync:               wal.SyncAlways,
			CheckpointInterval: time.Second,
		}
		o.Candidates.Enable = true
		o.TunableLSH.Enable = true
	}
	return o
}

func (sp *spec) syncPolicy() string {
	if sp.durable {
		return wal.SyncAlways.String()
	}
	return "none (durability off)"
}

// request is one query instance of the stream.
type request struct {
	tmpl   int // index into spec.templates
	values []float64
}

// stream is the workload's deterministic, unbounded request sequence. It
// draws plan-space points chunk by chunk, realizes them as parameter values
// through catalog quantiles, and interleaves the templates in a seeded
// random order that keeps each template's own point order. Only the
// current chunk is held, so memory stays flat however long a run lasts.
type stream struct {
	sp    *spec
	seed  int64
	opt   *optimizer.Optimizer
	tmpls []*optimizer.Template
	buf   []request
	pos   int // index of buf[0] in the stream
	part  int // chunks generated so far
}

// newStream builds the stream's own catalog over the seeded database, so the
// System under test receives only the generated values.
func newStream(sp *spec, seed int64) (*stream, error) {
	db, err := tpch.Generate(tpch.Config{Scale: tpchScale, Seed: seed})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Build(db, 0)
	if err != nil {
		return nil, err
	}
	s := &stream{sp: sp, seed: seed, opt: optimizer.New(db, cat)}
	for _, name := range sp.templates {
		t, err := queries.ByName(name)
		if err != nil {
			return nil, err
		}
		s.tmpls = append(s.tmpls, t)
	}
	return s, nil
}

// reset rewinds the stream to its first request.
func (s *stream) reset() { s.buf, s.pos, s.part = nil, 0, 0 }

// nextChunk returns the first request index at or after i that starts a
// chunk, for i at or after the current chunk.
func (s *stream) nextChunk(i int) int {
	if i <= s.pos {
		return s.pos
	}
	return s.pos + len(s.buf)
}

// at returns request i. Requests must be read in order: earlier chunks are
// dropped once a later one is drawn.
func (s *stream) at(i int) (request, error) {
	for i >= s.pos+len(s.buf) {
		if err := s.extend(); err != nil {
			return request{}, err
		}
	}
	if i < s.pos {
		return request{}, fmt.Errorf("stream: request %d already dropped", i)
	}
	return s.buf[i-s.pos], nil
}

func (s *stream) extend() error {
	part := s.part
	s.part++
	s.pos += len(s.buf)
	perTmpl := make([][]request, len(s.tmpls))
	order := make([]int, 0, len(s.tmpls)*s.sp.chunk)
	for ti, t := range s.tmpls {
		pts, err := s.sp.points(t.Degree(), s.sp.chunk, s.seed*1_000_003+int64(part)*7919+int64(ti), part)
		if err != nil {
			return err
		}
		for _, p := range pts {
			inst, err := s.opt.InstanceAt(t, p)
			if err != nil {
				return err
			}
			perTmpl[ti] = append(perTmpl[ti], request{tmpl: ti, values: inst.Values})
			order = append(order, ti)
		}
	}
	rng := rand.New(rand.NewSource(s.seed ^ int64(part+1)*0x5DEECE66D))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	buf := make([]request, len(order))
	next := make([]int, len(s.tmpls))
	for k, ti := range order {
		buf[k] = perTmpl[ti][next[ti]]
		next[ti]++
	}
	s.buf = buf
	return nil
}

// probePoints is the fixed probe set the durable invariants compare on: a
// seeded uniform sample of each template's plan space.
func (s *stream) probePoints(perTemplate int) [][][]float64 {
	out := make([][][]float64, len(s.tmpls))
	for ti, t := range s.tmpls {
		out[ti] = workload.Uniform(t.Degree(), perTemplate, s.seed*31+int64(ti)+17)
	}
	return out
}
