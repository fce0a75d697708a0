// Package workload provides deterministic random-workload generators for
// the evaluation: bounded Zipfian samplers (database sizes and throughput
// requirements in Table 2, item popularity in TPC-W) and helpers for
// synthesising SLA workloads.
package workload

import (
	"math"
	"math/rand"
)

// Zipf samples ranks 1..N with P(k) ∝ 1/k^s. Unlike math/rand's Zipf it
// supports any s >= 0 (including s <= 1) and is seeded explicitly so
// experiments are reproducible.
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds a sampler over n ranks with skew s (s = 0 is uniform).
func NewZipf(seed int64, n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rand.New(rand.NewSource(seed)), cdf: cdf}
}

// Rank samples a rank in [1, N]; rank 1 is the most probable.
func (z *Zipf) Rank() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// InRange maps a sampled rank onto [lo, hi]: rank 1 maps to lo, rank N to
// hi. With positive skew the mass concentrates near lo, which is how the
// paper's Table 2 average database size falls as the skew factor rises.
func (z *Zipf) InRange(lo, hi float64) float64 {
	if len(z.cdf) == 1 {
		return lo
	}
	k := z.Rank()
	frac := float64(k-1) / float64(len(z.cdf)-1)
	return lo + (hi-lo)*frac
}

// SLAWorkload is one synthesised multi-tenant workload for the Table 2
// experiment: per-database sizes (MB) and throughput requirements (TPS).
type SLAWorkload struct {
	SizesMB []float64
	TPS     []float64
}

// AvgSizeMB returns the mean database size.
func (w SLAWorkload) AvgSizeMB() float64 { return mean(w.SizesMB) }

// AvgTPS returns the mean throughput requirement.
func (w SLAWorkload) AvgTPS() float64 { return mean(w.TPS) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// NewSLAWorkload draws n databases with sizes Zipf-distributed over
// [200,1000] MB and throughputs over [0.1,10] TPS, both with the given skew
// factor — the exact parameterisation of the paper's Table 2.
func NewSLAWorkload(seed int64, n int, skew float64) SLAWorkload {
	sizes := NewZipf(seed, 64, skew)
	tps := NewZipf(seed+1, 64, skew)
	w := SLAWorkload{SizesMB: make([]float64, n), TPS: make([]float64, n)}
	for i := 0; i < n; i++ {
		w.SizesMB[i] = sizes.InRange(200, 1000)
		w.TPS[i] = tps.InRange(0.1, 10)
	}
	return w
}
