package histogram

import (
	"math"

	"repro/internal/snapshot"
)

// Binary encoding of histograms, used to persist the plan cache's learned
// synopses across restarts. Each histogram is one "HIST" section of the
// system state codec (internal/snapshot):
//
//	u32 maxBuckets, f64 lo, f64 hi, f64 total
//	u32 bucket count, then per bucket: f64 lo, hi, count, costSum
var tagHist = snapshot.Tag("HIST")

// Encode writes the dynamic histogram's state to w.
func (d *Dynamic) Encode(w *snapshot.Writer) {
	w.Section(tagHist, func(w *snapshot.Writer) {
		w.U32(uint32(d.maxBuckets))
		w.F64s(d.lo, d.hi, d.total)
		w.U32(uint32(len(d.buckets)))
		for _, b := range d.buckets {
			w.F64s(b.Lo, b.Hi, b.Count, b.CostSum)
		}
	})
}

// DecodeDynamic reads a histogram written by Encode. On failure it records
// the error in r and returns nil.
func DecodeDynamic(r *snapshot.Reader) *Dynamic {
	var d *Dynamic
	r.Section(tagHist, func(r *snapshot.Reader) {
		maxBuckets := int(r.U32())
		lo, hi, total := r.F64(), r.F64(), r.F64()
		buckets := make([]Bucket, r.Count(maxBuckets))
		var checked float64
		for i := range buckets {
			b := &buckets[i]
			b.Lo, b.Hi, b.Count, b.CostSum = r.F64(), r.F64(), r.F64(), r.F64()
			if !(b.Count >= 0) || (i > 0 && b.Lo != buckets[i-1].Hi) {
				r.Failf("histogram: corrupt bucket %d (count %v)", i, b.Count)
			}
			checked += b.Count
		}
		dec, err := NewDynamic(maxBuckets, lo, hi)
		switch {
		case r.Err() != nil:
		case err != nil:
			r.Failf("%v", err)
		case len(buckets) == 0:
			r.Failf("histogram: corrupt bucket count 0")
		case math.Abs(checked-total) > 1e-6*math.Max(1, total):
			r.Failf("histogram: bucket counts (%v) disagree with total (%v)", checked, total)
		default:
			dec.buckets, dec.total = buckets, total
			d = dec
		}
	})
	return d
}
