package snapshot

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func testState() *State {
	return &State{
		DBScale:      2000,
		DBSeed:       5,
		Fingerprints: []string{"plan-a", "", "plan-c"},
		Templates: []Template{
			{Name: "Q1", SQL: "SELECT 1", Learner: []byte{1, 2, 3}, CandFPs: []string{"plan-a", "plan-c"}, CandEpoch: 4},
			{Name: "Q2", SQL: "SELECT 2"},
		},
		Plans: []Plan{
			{ID: 0, Template: "Q1", Cost: 12.5, Fingerprint: "plan-a", Tree: []byte{9}},
			{ID: 2, Template: "Q1", Cost: 3, Fingerprint: "plan-c", Cached: true},
		},
	}
}

func TestStateRoundTrip(t *testing.T) {
	want := testState()
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	empty, err := Decode((&State{}).Encode())
	if err != nil || !reflect.DeepEqual(empty, &State{}) {
		t.Fatalf("empty state round trip: %+v, %v", empty, err)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	good := testState().Encode()
	for cut := 0; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
	if _, err := Decode(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// An older format version is refused, not guessed at.
	old := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(old[len(magic):], 1)
	if _, err := Decode(old); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 snapshot: err = %v", err)
	}
}

func TestReaderCapsAndStickyErrors(t *testing.T) {
	var w Writer
	w.U32(5)
	w.U64(7)
	r := NewReader(w.Bytes())
	if n := r.Count(4); n != 0 || r.Err() == nil {
		t.Fatalf("count over its cap: %d, %v", n, r.Err())
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("read after a failure returned %d, want 0", v)
	}

	// A count larger than the bytes left fails even under a generous cap.
	w = Writer{}
	w.U32(1000)
	r = NewReader(w.Bytes())
	if r.Count(1 << 20); r.Err() == nil {
		t.Fatal("count beyond the remaining bytes accepted")
	}

	// Optional leaves a different section unread; Section requires its tag;
	// a section body must consume its bytes.
	w = Writer{}
	w.Section(Tag("AAAA"), func(w *Writer) { w.U64(1); w.Bool(true) })
	r = NewReader(w.Bytes())
	if r.Optional(Tag("BBBB"), func(*Reader) { t.Fatal("wrong section decoded") }) || r.Err() != nil {
		t.Fatal("Optional consumed or failed on a different tag")
	}
	r.Section(Tag("AAAA"), func(r *Reader) { r.U64() })
	if err := r.End(); err == nil {
		t.Fatal("unread section bytes accepted")
	}
	r = NewReader(w.Bytes())
	r.Section(Tag("BBBB"), func(*Reader) {})
	if r.Err() == nil {
		t.Fatal("missing section accepted")
	}
}
