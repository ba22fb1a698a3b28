// Seed digests: the canonical, process-independent name of a seed WME's
// content. A task runtime loads dozens of engines from one shared scene
// and the same fragment rows reappear in many overlapping tasks; the
// digest is how the layers above say "the same row" without comparing
// vectors — the cluster content-addresses shipped seed chunks by it and
// the session signer hashes it.
//
// The network does not consume digests: a seed is loaded by Add like
// any other WME, and Add's constant-test dispatch (dispatch.go) is what
// keeps that cheap. A per-template memo of each digest's accepting
// memories measured no faster (docs/PERFORMANCE.md, "Constant-test
// dispatch").
package rete

import (
	"encoding/binary"
	"math"

	"spampsm/internal/symtab"
)

// RouteDigest returns the canonical routing key of a seed WME: two
// value vectors of the same class share a digest if and only if every
// attribute pair satisfies symtab.Value.Equal. Numbers collapse to
// their float64 image (with -0.0 folded into +0.0) because OPS5
// equality compares numerically across the integer/float
// representations — the same canonicalization keyOf applies to dispatch
// keys. All components are length-delimited, so no two distinct
// vectors can collide by concatenation.
//
// Unlike keyOf's keys, a digest is made of names, never intern ids: it
// is the same bytes in every process, which the session signer and the
// cluster's seed shipping rely on.
func RouteDigest(class string, vals []symtab.Value) string {
	return string(AppendRouteDigest(make([]byte, 0, 16+len(class)+16*len(vals)), class, vals))
}

// AppendRouteDigest appends RouteDigest's bytes to b: a caller that
// hashes many rows reuses one buffer instead of keeping a string each.
func AppendRouteDigest(b []byte, class string, vals []symtab.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(class)))
	b = append(b, class...)
	for _, v := range vals {
		switch {
		case v.IsNil():
			b = append(b, 'n')
		case v.Kind() == symtab.KindSym:
			s := v.SymVal()
			b = append(b, 's')
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		default:
			f := v.FloatVal()
			if f == 0 {
				f = 0 // fold -0.0 into +0.0: they compare Equal
			}
			b = append(b, 'f')
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}
