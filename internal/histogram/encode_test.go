package histogram

import (
	"math/rand"
	"testing"

	"repro/internal/snapshot"
)

// roundTrip encodes d and decodes the bytes back.
func roundTrip(t *testing.T, d *Dynamic) *Dynamic {
	t.Helper()
	var w snapshot.Writer
	d.Encode(&w)
	r := snapshot.NewReader(w.Bytes())
	back := DecodeDynamic(r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return back
}

// decodeErr decodes b as one histogram and returns the failure, if any.
func decodeErr(b []byte) error {
	r := snapshot.NewReader(b)
	DecodeDynamic(r)
	return r.End()
}

func TestDynamicEncodeDecodeRoundTrip(t *testing.T) {
	d := MustNewDynamic(24, 0, 1)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 4000; i++ {
		d.Insert(rng.Float64(), rng.Float64()*10)
	}
	back := roundTrip(t, d)
	if back.TotalCount() != d.TotalCount() || back.NumBuckets() != d.NumBuckets() {
		t.Fatalf("shape changed: %v/%d vs %v/%d",
			back.TotalCount(), back.NumBuckets(), d.TotalCount(), d.NumBuckets())
	}
	// Identical range query answers across the whole domain.
	for i := 0; i < 200; i++ {
		lo := rng.Float64()
		hi := lo + rng.Float64()*(1-lo)
		if a, b := d.RangeCount(lo, hi), back.RangeCount(lo, hi); a != b {
			t.Fatalf("RangeCount(%v,%v) = %v vs %v", lo, hi, a, b)
		}
		ca, na := d.RangeCost(lo, hi)
		cb, nb := back.RangeCost(lo, hi)
		if ca != cb || na != nb {
			t.Fatalf("RangeCost(%v,%v) diverged", lo, hi)
		}
	}
	// The restored histogram must keep accepting inserts.
	back.Insert(0.5, 1)
	if back.TotalCount() != d.TotalCount()+1 {
		t.Error("restored histogram does not accept inserts")
	}
}

func TestDecodeDynamicRejectsCorruption(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	for i := 0; i < 100; i++ {
		d.Insert(float64(i)/100, 1)
	}
	var w snapshot.Writer
	d.Encode(&w)
	good := w.Bytes()

	// Truncations anywhere must fail, not panic.
	for _, cut := range []int{0, 1, 5, len(good) / 2, len(good) - 3} {
		if err := decodeErr(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A flipped count byte must fail the checksum-style validation.
	bad := append([]byte(nil), good...)
	bad[len(bad)-10] ^= 0xFF
	if err := decodeErr(bad); err == nil {
		t.Error("corrupt payload accepted")
	}
	// A wrong section tag must be rejected.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 99
	if err := decodeErr(bad2); err == nil {
		t.Error("unknown section tag accepted")
	}
}

func TestDynamicEncodeEmpty(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	back := roundTrip(t, d)
	if back.TotalCount() != 0 || back.NumBuckets() != 1 {
		t.Errorf("empty round trip: %v/%d", back.TotalCount(), back.NumBuckets())
	}
}
