package core

import "sync"

// Cross-term indices in canonical order. The four pseudo-negative cross
// terms recombine digitally as pp - pn - np + nn.
const (
	termPosPos = iota // +activations x +weights
	termPosNeg        // +activations x -weights
	termNegPos        // -activations x +weights
	termNegNeg        // -activations x -weights
	numTerms
)

// termSign is the digital recombination sign of each cross term.
var termSign = [numTerms]float64{1, -1, -1, 1}

// psumSet holds the pooled per-(term, group) partial-sum buffers of one
// sweep. Buffers for absent terms are nil.
type psumSet struct {
	terms [numTerms][][]float64
}

// psumSetPool recycles the set structs; the buffers and view tables inside
// cycle through floatPool/viewsPool.
var psumSetPool sync.Pool

// newPsumSet draws size-element buffers for every group of each present
// term, uncleared: both sweeps store before they add (the direct sweep's
// first-writer taps, the tiled executor's first-writer windows), and
// beginTiled clears the planes no shot reaches.
func newPsumSet(present [numTerms]bool, groups, size int) *psumSet {
	ps, _ := psumSetPool.Get().(*psumSet)
	if ps == nil {
		ps = &psumSet{}
	}
	for t := range ps.terms {
		if !present[t] {
			ps.terms[t] = nil
			continue
		}
		bufs := getViews(groups)
		for g := range bufs {
			bufs[g] = getFloats(size)
		}
		ps.terms[t] = bufs
	}
	return ps
}

func (ps *psumSet) release() {
	for t, bufs := range ps.terms {
		if bufs != nil {
			releaseViewBuffers(bufs)
			ps.terms[t] = nil
		}
	}
	psumSetPool.Put(ps)
}

// sweepTap is one compacted sweep tap: coefficient (the weight magnitude)
// and its flattened source offset relative to the destination element.
type sweepTap struct {
	c   float64
	off int
}

// axpy1/axpy2/axpy3 are the register-tiled row kernels: d[i] accumulates
// c0*s0[i] (+ c1*s1[i] + c2*s2[i]) with four output elements live in
// registers per iteration — four independent dependency chains keep the
// floating-point adders busy where a single running element would serialize.
// Every tap remains its own += operation, so rounding matches the one-pass-
// per-tap form bit for bit.
func axpy1(d, s0 []float64, c0 float64) {
	s0 = s0[:len(d)]
	for i, v := range s0 {
		d[i] += c0 * v
	}
}

func axpy2(d, s0, s1 []float64, c0, c1 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		v0, v1, v2, v3 := d[i], d[i+1], d[i+2], d[i+3]
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := d[i]
		v += c0 * s0[i]
		v += c1 * s1[i]
		d[i] = v
	}
}

func axpy3(d, s0, s1, s2 []float64, c0, c1, c2 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	s2 = s2[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		v0, v1, v2, v3 := d[i], d[i+1], d[i+2], d[i+3]
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		v0 += c2 * s2[i]
		v1 += c2 * s2[i+1]
		v2 += c2 * s2[i+2]
		v3 += c2 * s2[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := d[i]
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		d[i] = v
	}
}

// axpy1Mixed/axpy2Mixed/axpy3Mixed apply the same taps to both activation
// parts at once: dp accumulates the positive part's rows, dn the negative
// part's, two output elements of each live in registers per iteration.
func axpy1Mixed(dp, dn, p0, n0 []float64, c0 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	n0 = n0[:m]
	for i, v := range p0 {
		dp[i] += c0 * v
		dn[i] += c0 * n0[i]
	}
}

func axpy2Mixed(dp, dn, p0, p1, n0, n1 []float64, c0, c1 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		v0, v1 := dp[i], dp[i+1]
		u0, u1 := dn[i], dn[i+1]
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := dp[i], dn[i]
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		dp[i], dn[i] = v, u
	}
}

func axpy3Mixed(dp, dn, p0, p1, p2, n0, n1, n2 []float64, c0, c1, c2 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	p2 = p2[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	n2 = n2[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		v0, v1 := dp[i], dp[i+1]
		u0, u1 := dn[i], dn[i+1]
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		v0 += c2 * p2[i]
		v1 += c2 * p2[i+1]
		u0 += c2 * n2[i]
		u1 += c2 * n2[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := dp[i], dn[i]
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		v += c2 * p2[i]
		u += c2 * n2[i]
		dp[i], dn[i] = v, u
	}
}

// axpy1Z/axpy2Z/axpy3Z are the first-writer forms of the tiled kernels:
// they STORE the chain's contribution instead of accumulating, equivalent
// to += on a zeroed buffer (the register accumulator starts at +0, exactly
// like the zeroed element), so psum buffers need no pre-clearing when the
// first chain of the first contributing channel uses them.
func axpy1Z(d, s0 []float64, c0 float64) {
	s0 = s0[:len(d)]
	for i, v := range s0 {
		d[i] = c0 * v
	}
}

func axpy2Z(d, s0, s1 []float64, c0, c1 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	for i := range d {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		d[i] = v
	}
}

func axpy3Z(d, s0, s1, s2 []float64, c0, c1, c2 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	s2 = s2[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		var v0, v1, v2, v3 float64
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		v0 += c2 * s2[i]
		v1 += c2 * s2[i+1]
		v2 += c2 * s2[i+2]
		v3 += c2 * s2[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		d[i] = v
	}
}

func axpy1MixedZ(dp, dn, p0, n0 []float64, c0 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	n0 = n0[:m]
	for i, v := range p0 {
		dp[i] = c0 * v
		dn[i] = c0 * n0[i]
	}
}

func axpy2MixedZ(dp, dn, p0, p1, n0, n1 []float64, c0, c1 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	for i := range dp {
		v, u := 0.0, 0.0
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		dp[i], dn[i] = v, u
	}
}

func axpy3MixedZ(dp, dn, p0, p1, p2, n0, n1, n2 []float64, c0, c1, c2 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	p2 = p2[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	n2 = n2[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		var v0, v1, u0, u1 float64
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		v0 += c2 * p2[i]
		v1 += c2 * p2[i+1]
		u0 += c2 * n2[i]
		u1 += c2 * n2[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := 0.0, 0.0
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		v += c2 * p2[i]
		u += c2 * n2[i]
		dp[i], dn[i] = v, u
	}
}
