package core

import "math/bits"

// accum accumulates per-item counts over interned symbol pairs. For small
// alphabets it is a flat dense table indexed by (dist, symA, symB) with
// distance-major layout and rows padded to whole 64-symbol words — cell
// (dc·l + a)·rowLen + b with rowLen = 64·⌈l/64⌉ — so the symbol-vector
// sweeps of levelvec.go write consecutive cells of one row, and a row's
// 64-cell segments align exactly with the occupancy bitset words the
// sweeps walk (which is what lets their inner loops index segments with
// a provably-in-range masked bit offset, free of bounds checks). Larger
// alphabets fall back to a map keyed by packed IKey. Both modes reuse
// their storage across init calls, which is what lets a pooled miner do
// near-zero allocation on repeat mining.
//
// Dense cells are tracked for O(distinct) drain by two mechanisms that
// coexist in one pass:
//
//   - add (the pair-enumeration path) and fold (the support path, cell
//     to cell between accumulators of one layout) append each cell to a
//     touched list, decoded at drain time with precomputed magic
//     dividers (Granlund–Montgomery) instead of hardware divisions;
//   - the blocked sweeps mark whole rows at once by OR-ing their masked
//     occupancy words into a per-row cell bitmap (rows, nw words per
//     row), with a dirty-row list for the drain scan. Row and bit
//     position recover (dist, a, b) with shifts only — no division.
//
// Drain and fold consume every cell they read, so a cell visited by
// both mechanisms is reported once and zero cells are skipped either
// way.
type accum struct {
	l, nd   int     // symbol count and distance-slot count of the dense table
	nw      int     // bitmap words per row: ceil(l/64)
	rowLen  int     // padded dense row length: nw*64
	dense   []int32 // len l*nd*rowLen when dense, nil when in map mode
	touched []int32 // cells recorded by add that may hold a nonzero count
	rows    []uint64
	dirty   []int32 // dirty rows as dc<<16|a (l ≤ 1024 in dense mode)
	rowBits []uint64
	divRow  divider // magic divider by rowLen for touched-cell decode
	divL    divider // magic divider by l
	m       ISet    // map mode storage
}

// maxDenseCells caps the dense table size (4 MiB of int32 cells); beyond
// it the accumulator switches to map mode.
const maxDenseCells = 1 << 20

// init prepares the accumulator for an alphabet of l symbols and nd
// distance slots. Storage is reused when capacity allows. The dense
// table, row bitmap, and dirty tracking all rely on the invariant that
// drain and discard zero everything they visited, so reused buffers are
// already clear.
func (ac *accum) init(l, nd int) {
	ac.l, ac.nd = l, nd
	ac.touched = ac.touched[:0]
	ac.dirty = ac.dirty[:0]
	ac.nw = (l + 63) / 64
	ac.rowLen = ac.nw * 64
	cells := int64(l) * int64(nd) * int64(ac.rowLen)
	if cells <= maxDenseCells {
		if int64(cap(ac.dense)) < cells {
			ac.dense = make([]int32, cells)
		}
		ac.dense = ac.dense[:cells]
		nrw := l * nd * ac.nw
		if cap(ac.rows) < nrw {
			ac.rows = make([]uint64, nrw)
		}
		ac.rows = ac.rows[:nrw]
		nrb := (l*nd + 63) / 64
		if cap(ac.rowBits) < nrb {
			ac.rowBits = make([]uint64, nrb)
		}
		ac.rowBits = ac.rowBits[:nrb]
		ac.divRow = newDivider(uint32(ac.rowLen))
		ac.divL = newDivider(uint32(l))
		ac.m = nil
		return
	}
	ac.dense = nil
	if ac.m == nil {
		ac.m = make(ISet)
	} else {
		clear(ac.m)
	}
}

// add accumulates n occurrences of the unordered symbol pair (a, b) at
// distance slot dc. In map mode dc must be at most MaxPackedDist (as a
// distance); dense mode has no such limit.
func (ac *accum) add(a, b uint32, dc int, n int32) {
	if ac.m != nil {
		ac.m[NewIKey(a, b, Dist(dc))] += n
		return
	}
	if b < a {
		a, b = b, a
	}
	ac.addCell(int32((dc*ac.l+int(a))*ac.rowLen+int(b)), n)
}

// addCell accumulates n into a dense cell, recording it as touched when
// it was zero.
func (ac *accum) addCell(cell, n int32) {
	old := ac.dense[cell]
	if old == 0 {
		ac.touched = append(ac.touched, cell)
	}
	ac.dense[cell] = old + n
}

// size bounds the number of items held — exactly, while add is the only
// writer since the last drain, as in support folding.
func (ac *accum) size() int {
	if ac.m != nil {
		return len(ac.m)
	}
	return len(ac.touched)
}

// bump subtracts (or adds) directly into a dense cell that the current
// level-pair's totals sweep has already marked. It is the symbol-vector
// path's same-child correction and MUST run after the sweep: every
// correction cell is covered by the sweep's occupancy pattern, so bump
// can skip the bitmap and dirty bookkeeping entirely. A cell reduced
// back to zero is skipped by drain.
func (ac *accum) bump(a, b uint32, dc int, n int32) {
	if b < a {
		a, b = b, a
	}
	ac.dense[(dc*ac.l+int(a))*ac.rowLen+int(b)] += n
}

// markRow records a dirty bitmap row exactly once per drain cycle.
func (ac *accum) markRow(row, dc int, a uint32) {
	w := &ac.rowBits[row>>6]
	if bit := uint64(1) << (row & 63); *w&bit == 0 {
		*w |= bit
		ac.dirty = append(ac.dirty, int32(dc)<<16|int32(a))
	}
}

// drain calls f once per item with a nonzero count and resets the
// accumulator. The touched list may carry duplicates (a cell that
// dropped back to zero and was re-added) and may overlap the bitmap
// rows; consuming each cell as it is read makes both harmless.
func (ac *accum) drain(f func(a, b uint32, dc int, n int32)) {
	if ac.m != nil {
		for k, n := range ac.m {
			if n != 0 {
				a, b := k.Syms()
				f(a, b, int(k.Dist()), n)
			}
		}
		clear(ac.m)
		return
	}
	for _, cell := range ac.touched {
		n := ac.dense[cell]
		if n == 0 {
			continue
		}
		ac.dense[cell] = 0
		c := uint32(cell)
		row := ac.divRow.div(c)
		dc := ac.divL.div(row)
		f(row-dc*uint32(ac.l), c-row*uint32(ac.rowLen), int(dc), n)
	}
	ac.touched = ac.touched[:0]
	for _, e := range ac.dirty {
		dc, a := int(e>>16), uint32(e&0xffff)
		row := dc*ac.l + int(a)
		ac.rowBits[row>>6] &^= 1 << (row & 63)
		base, start := row*ac.nw, row*ac.rowLen
		for w := 0; w < ac.nw; w++ {
			bw := ac.rows[base+w]
			if bw == 0 {
				continue
			}
			ac.rows[base+w] = 0
			for bw != 0 {
				b := uint32(w<<6 + bits.TrailingZeros64(bw))
				bw &= bw - 1
				cell := start + int(b)
				if n := ac.dense[cell]; n != 0 {
					ac.dense[cell] = 0
					f(a, b, dc, n)
				}
			}
		}
	}
	ac.dirty = ac.dirty[:0]
}

// fold adds every item of src with a count of at least minN (and at
// least 1) into ac — one per item when unit is set, as when a tree's
// items become support, else the item's count — and resets src as
// drain would. src must have ac's layout (the same symbol and
// distance-slot counts) unless it is empty, so a cell index, or a map
// key, names the same item in both and no item is ever decoded. It
// walks the touched list and the dirty bitmap rows exactly as drain
// does, in its own copy of that loop: one walk shared with drain
// through a per-cell callback made mining plus fold about a third
// slower per tree.
func (ac *accum) fold(src *accum, minN int32, unit bool) {
	minN = max(minN, 1)
	if src.m != nil {
		for k, n := range src.m {
			if n >= minN {
				if unit {
					n = 1
				}
				ac.m[k] += n
			}
		}
		clear(src.m)
		return
	}
	for _, cell := range src.touched {
		n := src.dense[cell]
		src.dense[cell] = 0
		if n >= minN {
			if unit {
				n = 1
			}
			ac.addCell(cell, n)
		}
	}
	src.touched = src.touched[:0]
	for _, e := range src.dirty {
		row := int(e>>16)*src.l + int(e&0xffff)
		src.rowBits[row>>6] &^= 1 << (row & 63)
		base, start := row*src.nw, row*src.rowLen
		for w := 0; w < src.nw; w++ {
			bw := src.rows[base+w]
			if bw == 0 {
				continue
			}
			src.rows[base+w] = 0
			for bw != 0 {
				cell := int32(start + w<<6 + bits.TrailingZeros64(bw))
				bw &= bw - 1
				n := src.dense[cell]
				src.dense[cell] = 0
				if n >= minN {
					if unit {
						n = 1
					}
					ac.addCell(cell, n)
				}
			}
		}
	}
	src.dirty = src.dirty[:0]
}

// discard resets the accumulator without reporting its contents. Unlike
// drain it never decodes cells: touched cells are zeroed directly and
// dirty bitmap rows are cleared with one memclr per row.
func (ac *accum) discard() {
	if ac.m != nil {
		clear(ac.m)
		return
	}
	for _, cell := range ac.touched {
		ac.dense[cell] = 0
	}
	ac.touched = ac.touched[:0]
	for _, e := range ac.dirty {
		row := int(e>>16)*ac.l + int(e&0xffff)
		ac.rowBits[row>>6] &^= 1 << (row & 63)
		base, start := row*ac.nw, row*ac.rowLen
		// Clear only the 64-cell segments whose bitmap word has bits:
		// a row is rarely dirty across its whole width.
		for w := 0; w < ac.nw; w++ {
			if ac.rows[base+w] == 0 {
				continue
			}
			ac.rows[base+w] = 0
			o := start + w<<6
			clear(ac.dense[o : o+64])
		}
	}
	ac.dirty = ac.dirty[:0]
}

// divider divides a uint32 by a fixed divisor with a multiply and a
// shift (Granlund–Montgomery round-up method): for d not a power of
// two, m = ⌊2^s/d⌋+1 with s = 31+⌈log₂ d⌉ satisfies m·d ∈ [2^s, 2^s+2^ℓ],
// which makes (n·m)>>s exact for all n < 2³¹. Powers of two shift
// directly (mul 0 flags that mode).
type divider struct {
	mul   uint64
	shift uint
}

func newDivider(d uint32) divider {
	if d == 0 {
		return divider{mul: 0, shift: 0} // unused; guards the l=0 degenerate table
	}
	if d&(d-1) == 0 {
		return divider{mul: 0, shift: uint(bits.TrailingZeros32(d))}
	}
	s := 31 + uint(bits.Len32(d-1))
	return divider{mul: (uint64(1)<<s)/uint64(d) + 1, shift: s}
}

func (dv divider) div(n uint32) uint32 {
	if dv.mul == 0 {
		return n >> dv.shift
	}
	return uint32((uint64(n) * dv.mul) >> dv.shift)
}
