package main

import "math/bits"

// Hist is a log-bucketed latency histogram over non-negative int64
// values (nanoseconds here). Values below 2^histSub get a bucket each;
// above that every power of two is split into 2^histSub equal buckets,
// so a bucket is at most 1/128 of its values wide. The counts live in a
// fixed array: Record never allocates, so filling histograms on the
// load generator's hot path adds no garbage of its own.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 7
	histSubN    = 1 << histSub
	histMaxExp  = 40 // values >= 2^41 ns (~37 minutes) share the top bucket
	histBuckets = (histMaxExp - histSub + 2) * histSubN
)

// histIndex maps v to its bucket.
func histIndex(v int64) int {
	if v < histSubN {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e > histMaxExp {
		return histBuckets - 1
	}
	shift := e - histSub
	return (shift+1)*histSubN + int(uint64(v)>>shift) - histSubN
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi float64) {
	if i < histSubN {
		return float64(i), float64(i + 1)
	}
	shift := i/histSubN - 1
	m := i%histSubN + histSubN
	lo = float64(uint64(m) << shift)
	return lo, lo + float64(uint64(1)<<shift)
}

// Record adds one value.
func (h *Hist) Record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// Merge adds every count of o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// value of rank ceil(q*n) in sorted order, placed inside its bucket by
// linear interpolation over the bucket's counts. It returns 0 for an
// empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := histBounds(i)
			if i < histSubN {
				return lo // exact: one value per bucket
			}
			return lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}
