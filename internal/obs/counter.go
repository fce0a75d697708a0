package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing, wait-free event counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions,
// stored as float64 bits in one atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Pair is two related counters packed into one atomic word (32 bits each),
// for counter pairs that readers divide or subtract — buffer-pool hits and
// misses, plan-cache hits and misses, commits and aborts. Because both
// sides live in a single word, a Load returns a pair that was actually
// simultaneously true at one instant: a concurrent reader can never observe
// a "torn" pair in which one side includes an event whose other side is
// missing, so derived ratios (hit rates) are always in [0, 1] and totals
// are exact.
//
// Each side holds 32 bits (about 4.29 billion events). That bounds the
// counters' range, not their rate: at one million events per second a side
// wraps after ~71 minutes of saturation on that single instrument, far
// beyond any run of this platform's experiments. Callers that expect to
// exceed 2^32 events on one pair should shard across instruments.
type Pair struct {
	v atomic.Uint64
}

// IncA adds one to the first side.
func (p *Pair) IncA() { p.v.Add(1 << 32) }

// IncB adds one to the second side.
func (p *Pair) IncB() { p.v.Add(1) }

// Load returns both sides from a single atomic read — the consistent
// snapshot the pair exists for.
func (p *Pair) Load() (a, b uint64) {
	v := p.v.Load()
	return v >> 32, v & 0xffffffff
}
