package core

import (
	"fmt"

	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// ShardedCompactTable is ShardedTable over CompactTable shards: the
// radix partition and owner-computes bulk kernels of sharded.go with
// the fingerprint-probed compact layout inside each shard. Unlike
// ShardedTable, the shard radix does NOT read the hash's top bits —
// those are the fingerprint now (hashx.Fingerprint reads [57, 64), the
// most significant digits of the priority key) — but the middle window
// [shardRadixShift, shardRadixShift+8), keeping all three hash
// consumers disjoint: in-shard probe origin (bottom bits), shard radix
// (middle), fingerprint (top). Disjointness keeps the full seven
// fingerprint bits discriminating *within* a shard; a top-bits radix
// would pin the fingerprint's leading bits per shard and cost the
// priority scan exactly that much pruning power. See the
// hashx.FingerprintShift comment for the bit budget.
//
// The two-API contract is ShardedTable's verbatim: per-element
// operations are phase-concurrent on the owning shard's atomic loops,
// while a bulk kernel call must be the only activity on the table.
// Determinism likewise: each shard's quiescent (cells, ctrl) pair is a
// pure function of its element subset, so the concatenated layout is a
// pure function of the element set, capacity and shard count.
type ShardedCompactTable[O Ops] struct {
	ops    O
	shards []*CompactTable[O]
	smask  int // len(shards)-1; shard index = Hash(e) >> shardRadixShift & smask
}

// shardRadixShift is the bit offset of ShardedCompactTable's shard
// radix inside the hash: index = (Hash(e) >> shardRadixShift) & smask.
// The automatic policy's window [40, 48) (maxAutoShards = 2^8) clears
// the fingerprint field at [57, 64) with room for explicit shard
// counts up to 2^17, and sits far above any per-shard home bucket
// (2^40 cells per shard).
const shardRadixShift = 40

// NewShardedCompactTable returns a sharded compact table with capacity
// for at least size elements in total, split over the given number of
// shards (rounded up to a power of two); shards <= 0 selects the
// automatic policy of NewShardedTable (autoShards). Per-shard capacity
// semantics are NewCompactTable's (power of two, at least 8 cells);
// the compact layout runs comfortably at per-shard load factors up to
// ~0.9, so ~10% headroom on size absorbs the multinomial spread for
// the shard counts the automatic policy picks.
func NewShardedCompactTable[O Ops](size, shards int) *ShardedCompactTable[O] {
	if size < 1 {
		size = 1
	}
	if shards <= 0 {
		shards = autoShards(size, parallel.NumWorkers())
	}
	s := 1
	for s < shards {
		s <<= 1
	}
	per := (size + s - 1) / s
	t := &ShardedCompactTable[O]{shards: make([]*CompactTable[O], s), smask: s - 1}
	for i := range t.shards {
		t.shards[i] = NewCompactTable[O](per)
	}
	return t
}

// shardOf returns the index of the shard owning element e.
func (t *ShardedCompactTable[O]) shardOf(e uint64) int {
	return int(t.ops.Hash(e)>>shardRadixShift) & t.smask
}

// NumShards returns the shard count (a power of two).
func (t *ShardedCompactTable[O]) NumShards() int { return len(t.shards) }

// Size returns the total capacity (cells summed over shards).
func (t *ShardedCompactTable[O]) Size() int { return len(t.shards) * t.shards[0].Size() }

// ShardSize returns the per-shard capacity in cells.
func (t *ShardedCompactTable[O]) ShardSize() int { return t.shards[0].Size() }

// Bytes returns the backing memory summed over shards (9 bytes/slot;
// see CompactTable.Bytes).
func (t *ShardedCompactTable[O]) Bytes() int { return len(t.shards) * t.shards[0].Bytes() }

// --- per-element phase-concurrent operations (atomic path) ---

// Insert adds element v via the owning shard's atomic probe loop
// (insert phase only); semantics as CompactTable.Insert.
func (t *ShardedCompactTable[O]) Insert(v uint64) bool {
	if v == Empty {
		panic("core: ShardedCompactTable: cannot insert the reserved empty element")
	}
	return t.shards[t.shardOf(v)].Insert(v)
}

// TryInsert is Insert returning ErrReservedKey / ErrFull (matchable
// with errors.Is) instead of panicking.
func (t *ShardedCompactTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	return t.shards[t.shardOf(v)].TryInsert(v)
}

// Find reports the element stored under v's key (find/elements phase
// only); semantics as CompactTable.Find.
func (t *ShardedCompactTable[O]) Find(v uint64) (uint64, bool) {
	return t.shards[t.shardOf(v)].Find(v)
}

// Contains is Find without returning the element.
func (t *ShardedCompactTable[O]) Contains(v uint64) bool {
	_, ok := t.Find(v)
	return ok
}

// Delete removes the element with v's key (delete phase only);
// semantics as CompactTable.Delete.
func (t *ShardedCompactTable[O]) Delete(v uint64) bool {
	return t.shards[t.shardOf(v)].Delete(v)
}

// --- owner-computes bulk kernels ---

// partitionByShard radix-partitions elems into a fresh scratch slice
// grouped by owning shard, returning the scratch and the shard run
// offsets.
func (t *ShardedCompactTable[O]) partitionByShard(elems []uint64) ([]uint64, []int) {
	scratch := make([]uint64, len(elems))
	offsets := parallel.Partition(scratch, elems, len(t.shards), func(i int) int {
		return t.shardOf(elems[i])
	})
	if obs.Enabled {
		obs.RecordShardBulk(offsets)
	}
	if obs.CoreEnabled {
		obs.CoreShardBulk(offsets)
	}
	return scratch, offsets
}

// InsertAll inserts every element of elems with the owner-computes
// kernel (insert phase; must not overlap ANY other operation on the
// table); semantics as ShardedTable.InsertAll.
func (t *ShardedCompactTable[O]) InsertAll(elems []uint64) int {
	if len(elems) == 0 {
		return 0
	}
	scratch, offsets := t.partitionByShard(elems)
	added := make([]int, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		sh := t.shards[s]
		a, full := sh.insertRangeSerial(scratch[offsets[s]:offsets[s+1]])
		if full >= 0 {
			panic(fmt.Sprintf("core: ShardedCompactTable: shard %d: %v", s, sh.fullErr()))
		}
		added[s] = a
	})
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// TryInsertAll is InsertAll returning errors instead of panicking; it
// attempts every element and reports the error of the lowest-numbered
// failing shard, as ShardedTable.TryInsertAll.
func (t *ShardedCompactTable[O]) TryInsertAll(elems []uint64) (int, error) {
	if len(elems) == 0 {
		return 0, nil
	}
	scratch, offsets := t.partitionByShard(elems)
	added := make([]int, len(t.shards))
	errs := make([]error, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		added[s], errs[s] = t.shards[s].tryInsertRangeSerial(scratch[offsets[s]:offsets[s+1]])
	})
	total := 0
	var firstErr error
	for s := range added {
		total += added[s]
		if firstErr == nil && errs[s] != nil {
			firstErr = errs[s]
		}
	}
	return total, firstErr
}

// FindAll looks up every key of keys with the owner-computes kernel
// (find/elements phase; must not overlap any other operation); dst as
// in ShardedTable.FindAll.
func (t *ShardedCompactTable[O]) FindAll(keys []uint64, dst []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	found := make([]int, len(t.shards))
	if dst == nil {
		scratch, offsets := t.partitionByShard(keys)
		parallel.ForGrain(len(t.shards), 1, func(s int) {
			found[s] = t.shards[s].findRangeSerial(scratch[offsets[s]:offsets[s+1]], nil)
		})
	} else {
		// Results must land in the caller's per-key slots; partition the
		// index sequence and gather/scatter through the stable
		// permutation, as ShardedTable.FindAll.
		perm, offsets := parallel.PartitionIndex(len(keys), len(t.shards), func(i int) int {
			return t.shardOf(keys[i])
		})
		if obs.Enabled {
			obs.RecordShardBulk(offsets)
		}
		if obs.CoreEnabled {
			obs.CoreShardBulk(offsets)
		}
		parallel.ForGrain(len(t.shards), 1, func(s int) {
			sh := t.shards[s]
			n := 0
			for _, i := range perm[offsets[s]:offsets[s+1]] {
				e, ok := sh.findSerial(keys[i])
				if ok {
					n++
				}
				dst[i] = e
			}
			found[s] = n
		})
	}
	total := 0
	for _, n := range found {
		total += n
	}
	return total
}

// ContainsAll reports how many of the keys are present (find/elements
// phase; must not overlap any other operation).
func (t *ShardedCompactTable[O]) ContainsAll(keys []uint64) int {
	return t.FindAll(keys, nil)
}

// DeleteAll deletes every key of keys with the owner-computes kernel
// (delete phase; must not overlap any other operation), returning how
// many were removed — deterministic for a given key multiset.
func (t *ShardedCompactTable[O]) DeleteAll(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	scratch, offsets := t.partitionByShard(keys)
	deleted := make([]int, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		deleted[s] = t.shards[s].deleteRangeSerial(scratch[offsets[s]:offsets[s+1]])
	})
	total := 0
	for _, n := range deleted {
		total += n
	}
	return total
}

// --- quiescent observations ---

// Count returns the number of stored elements (find/elements phase
// only): the sum of the shard counts.
func (t *ShardedCompactTable[O]) Count() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Count()
	}
	return n
}

// ShardStats computes the per-shard element counts and their spread
// (find/elements phase only); see ShardedTable.ShardStats.
func (t *ShardedCompactTable[O]) ShardStats() ShardStats {
	st := ShardStats{Shards: len(t.shards), Counts: make([]int, len(t.shards))}
	for s, sh := range t.shards {
		c := sh.Count()
		st.Counts[s] = c
		st.Total += c
		if s == 0 || c < st.Min {
			st.Min = c
		}
		if c > st.Max {
			st.Max = c
		}
	}
	return st
}

// Elements packs the stored elements into a fresh slice in shard order,
// each shard in its deterministic table order (find/elements phase
// only); identical across runs, schedules and worker counts for a
// given element set, capacity and shard count.
func (t *ShardedCompactTable[O]) Elements() []uint64 {
	counts := make([]int, len(t.shards))
	for s, sh := range t.shards {
		counts[s] = sh.Count()
	}
	offsets := make([]int, len(t.shards)+1)
	for s, c := range counts {
		offsets[s+1] = offsets[s] + c
	}
	out := make([]uint64, offsets[len(t.shards)])
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		t.shards[s].ElementsInto(out[offsets[s]:offsets[s+1]])
	})
	return out
}

// ElementsInto is Elements packing into dst, which must have len(dst)
// >= Count(); it returns the number packed.
func (t *ShardedCompactTable[O]) ElementsInto(dst []uint64) int {
	n := 0
	for _, sh := range t.shards {
		n += sh.ElementsInto(dst[n:])
	}
	return n
}

// ForEach calls fn for every stored element in shard-then-table order
// (sequential; find/elements phase only).
func (t *ShardedCompactTable[O]) ForEach(fn func(e uint64)) {
	for _, sh := range t.shards {
		sh.ForEach(fn)
	}
}

// Clear resets every shard's cells and ctrl bytes (a phase barrier by
// itself; quiescent use only).
func (t *ShardedCompactTable[O]) Clear() {
	for _, sh := range t.shards {
		sh.Clear()
	}
}

// Snapshot concatenates the raw shard cell arrays (quiescent use only).
func (t *ShardedCompactTable[O]) Snapshot() []uint64 {
	out := make([]uint64, 0, t.Size())
	for _, sh := range t.shards {
		out = append(out, sh.Snapshot()...)
	}
	return out
}

// CtrlSnapshot concatenates the raw shard control words (quiescent use
// only); together with Snapshot it is the byte layout the detres
// oracle compares across schedules.
func (t *ShardedCompactTable[O]) CtrlSnapshot() []uint64 {
	out := make([]uint64, 0, t.Size()/8)
	for _, sh := range t.shards {
		out = append(out, sh.CtrlSnapshot()...)
	}
	return out
}

// CheckInvariant verifies each shard's ordering and ctrl invariants and
// that every element lives in its owning shard (quiescent use only).
func (t *ShardedCompactTable[O]) CheckInvariant() error {
	for s, sh := range t.shards {
		if err := sh.CheckInvariant(); err != nil {
			return err
		}
		var bad error
		sh.ForEach(func(e uint64) {
			if bad == nil && t.shardOf(e) != s {
				bad = fmt.Errorf("core: ShardedCompactTable: element %#x stored in shard %d, owned by shard %d",
					e, s, t.shardOf(e))
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
