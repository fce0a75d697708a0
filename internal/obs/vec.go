package obs

import (
	"fmt"
	"strings"
)

// labelSep joins label values into a map key; it is a control character so
// ordinary label values cannot collide.
const labelSep = "\x1f"

// joinKey builds the lookup key for a set of label values, enforcing arity.
func (f *familyVec) joinKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family expects %d label values (%v), got %d",
			len(f.labels), f.labels, len(values)))
	}
	return strings.Join(values, labelSep)
}

// get returns (creating with mk if needed) the instrument for the label
// values. The fast path is a read-locked map hit.
func (f *familyVec) get(values []string, mk func() any) any {
	key := f.joinKey(values)
	f.mu.RLock()
	inst, ok := f.byKey[key]
	f.mu.RUnlock()
	if ok {
		return inst
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if inst, ok := f.byKey[key]; ok {
		return inst
	}
	inst = mk()
	f.byKey[key] = inst
	return inst
}

// each visits every instrument with its label values, sorted by key.
func (f *familyVec) each(fn func(values []string, inst any)) {
	f.mu.RLock()
	keys := sortedKeys(f.byKey)
	insts := make([]any, len(keys))
	for i, k := range keys {
		insts[i] = f.byKey[k]
	}
	f.mu.RUnlock()
	for i, k := range keys {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		fn(values, insts[i])
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	fam *familyVec
}

// With returns the counter for the given label values, creating it on first
// use. Hot paths should resolve once and keep the pointer.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.get(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	fam *familyVec
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.get(values, func() any { return &Gauge{} }).(*Gauge)
}
