package main

import (
	"math"
	"sort"
	"testing"
)

// TestHistQuantilesMatchSortedReference checks the histogram's
// quantiles against exact nearest-rank quantiles of the sorted values:
// each must fall inside the bucket holding the reference value, so
// within 1/128 of it.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	dists := map[string]func(r *rng) int64{
		"uniform-small": func(r *rng) int64 { return int64(r.below(100)) },
		"uniform-ms":    func(r *rng) int64 { return int64(r.below(10_000_000)) },
		"log-spread": func(r *rng) int64 {
			return int64(math.Exp(float64(r.below(1<<20)) / (1 << 20) * 25))
		},
		"bimodal": func(r *rng) int64 {
			if r.below(100) < 99 {
				return 2_000_000 + int64(r.below(500_000))
			}
			return 40_000_000 + int64(r.below(10_000_000))
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 100, 100_000} {
			r := newRNG(uint64(n), 9)
			var h Hist
			ref := make([]int64, n)
			for i := range ref {
				ref[i] = draw(r)
				h.Record(ref[i])
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			if h.Count() != uint64(n) {
				t.Fatalf("%s n=%d: count %d", name, n, h.Count())
			}
			for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				want := ref[rank-1]
				lo, hi := histBounds(histIndex(want))
				got := h.Quantile(q)
				if got < lo || got >= hi {
					t.Errorf("%s n=%d q=%v: got %v, reference %d in bucket [%v, %v)", name, n, q, got, want, lo, hi)
				}
				if want >= histSubN && math.Abs(got-float64(want)) > float64(want)/histSubN {
					t.Errorf("%s n=%d q=%v: got %v, more than 1/%d off %d", name, n, q, got, histSubN, want)
				}
			}
		}
	}
}

// TestHistBucketsCoverValues checks that every value lands in a bucket
// whose bounds contain it, across the whole range.
func TestHistBucketsCoverValues(t *testing.T) {
	r := newRNG(1, 1)
	for i := 0; i < 200_000; i++ {
		v := int64(r.next() >> (r.below(63) + 1))
		b := histIndex(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, b)
		}
		lo, hi := histBounds(b)
		if v>>(histMaxExp+1) == 0 && (float64(v) < lo || float64(v) >= hi) {
			t.Fatalf("value %d in bucket %d = [%v, %v)", v, b, lo, hi)
		}
	}
}

// TestHistMergeEqualsCombinedRecording checks that merging per-connection
// histograms gives the histogram of all the values.
func TestHistMergeEqualsCombinedRecording(t *testing.T) {
	r := newRNG(2, 2)
	var a, b, all Hist
	for i := 0; i < 50_000; i++ {
		v := int64(r.below(1 << 30))
		all.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the combined one")
	}
}

// TestHistRecordDoesNotAllocate pins the property the load generator
// relies on.
func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v += 977 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
