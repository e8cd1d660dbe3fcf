package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Framing:
//
//	"PPCSNAP\0" | u16 version | u64 body length | u32 CRC-32C of body | body
//
// The body is the State's sections in this order: "DBID", "FPRT", one
// "TMPL" per template, one "PLAN" per plan. Version 1 (a gob
// payload) is not read: an older snapshot fails validation and the caller
// degrades to a cold start.
const (
	magic   = "PPCSNAP\x00"
	version = 2
	// HeaderLen is the framing before the body; a body byte at offset i
	// sits at HeaderLen+i of the encoded State.
	HeaderLen = len(magic) + 2 + 8 + 4
	// maxPlanID caps a decoded plan id (ids are dense registry indexes).
	maxPlanID = math.MaxInt32
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	tagDB           = Tag("DBID")
	tagFingerprints = Tag("FPRT")
	tagTemplate     = Tag("TMPL")
	tagPlan         = Tag("PLAN")
)

// State is the system's learned state: what a checkpoint holds and what a
// leader ships to a replica. The database itself is regenerated from its
// scale and seed, so only those two numbers identify it.
type State struct {
	DBScale int
	DBSeed  int64
	// Fingerprints maps dense plan id -> fingerprint, in id order.
	Fingerprints []string
	Templates    []Template
	Plans        []Plan
}

// Template is one registered template's learned state.
type Template struct {
	Name string
	SQL  string
	// Learner is the core.Online state stream (core.Online.EncodeState).
	Learner []byte
	// CandFPs and CandEpoch are the candidate plan set and the correction
	// epoch it was generated at.
	CandFPs   []string
	CandEpoch uint64
}

// Plan is one interned plan.
type Plan struct {
	ID          int
	Template    string
	Cost        float64
	Fingerprint string
	// Tree is the encoded plan tree (optimizer.EncodeTree).
	Tree []byte
	// Cached reports membership in the plan cache.
	Cached bool
}

// Encode returns the framed state.
func (s *State) Encode() []byte {
	w := Writer{buf: make([]byte, HeaderLen, 4096)}
	w.Section(tagDB, func(w *Writer) { w.I64(int64(s.DBScale)); w.I64(s.DBSeed) })
	w.Section(tagFingerprints, func(w *Writer) { w.Strings(s.Fingerprints...) })
	for _, t := range s.Templates {
		w.Section(tagTemplate, func(w *Writer) {
			w.String(t.Name)
			w.String(t.SQL)
			w.Blob(t.Learner)
			w.Strings(t.CandFPs...)
			w.U64(t.CandEpoch)
		})
	}
	for _, p := range s.Plans {
		w.Section(tagPlan, func(w *Writer) {
			w.U64(uint64(p.ID))
			w.String(p.Template)
			w.F64(p.Cost)
			w.String(p.Fingerprint)
			w.Blob(p.Tree)
			w.Bool(p.Cached)
		})
	}
	b := w.buf
	body := b[HeaderLen:]
	copy(b, magic)
	binary.LittleEndian.PutUint16(b[len(magic):], version)
	binary.LittleEndian.PutUint64(b[len(magic)+2:], uint64(len(body)))
	binary.LittleEndian.PutUint32(b[len(magic)+10:], crc32.Checksum(body, crcTable))
	return b
}

// Decode validates the framing of b and decodes the State it holds. Any
// damage — wrong magic or version, a length that disagrees with b, a
// checksum mismatch, a malformed section — is an error. The learner and
// plan-tree bytes inside alias b and are decoded later by their owners.
func Decode(b []byte) (*State, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("short header: %d bytes", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic (not a PPC snapshot)")
	}
	le := binary.LittleEndian
	if v := le.Uint16(b[len(magic):]); v != version {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	body := b[HeaderLen:]
	if n := le.Uint64(b[len(magic)+2:]); n != uint64(len(body)) {
		return nil, fmt.Errorf("payload has %d bytes, header says %d", len(body), n)
	}
	if got, want := crc32.Checksum(body, crcTable), le.Uint32(b[len(magic)+10:]); got != want {
		return nil, fmt.Errorf("checksum mismatch: got %08x want %08x", got, want)
	}
	s, err := decodeBody(body)
	if err != nil {
		return nil, fmt.Errorf("payload decode: %w", err)
	}
	return s, nil
}

func decodeBody(body []byte) (*State, error) {
	s := &State{}
	r := NewReader(body)
	r.Section(tagDB, func(r *Reader) { s.DBScale, s.DBSeed = int(r.I64()), r.I64() })
	r.Section(tagFingerprints, func(r *Reader) { s.Fingerprints = r.Strings() })
	for r.Optional(tagTemplate, func(r *Reader) {
		s.Templates = append(s.Templates, Template{
			Name: r.String(), SQL: r.String(), Learner: r.Blob(),
			CandFPs: r.Strings(), CandEpoch: r.U64(),
		})
	}) {
	}
	for r.Optional(tagPlan, func(r *Reader) {
		id := r.U64()
		p := Plan{ID: int(id), Template: r.String(), Cost: r.F64(), Fingerprint: r.String(), Tree: r.Blob(), Cached: r.Bool()}
		if id > maxPlanID {
			r.Failf("snapshot: plan id %d out of range", id)
		}
		s.Plans = append(s.Plans, p)
	}) {
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return s, nil
}
