package core

import (
	"bytes"
	"testing"
)

// FuzzCtlApply feeds the controller's state machine a newline-split sequence
// of arbitrary commands, as a consensus log would deliver them. No input may
// panic, two fresh states fed the same sequence must agree, and a snapshot
// must restore to the state it was taken of. The seed corpus
// (testdata/fuzz/FuzzCtlApply) holds one sequence per opcode, each ending in
// that opcode.
func FuzzCtlApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := newCtlState(), newCtlState()
		for i, cmd := range bytes.Split(data, []byte("\n")) {
			a.Apply(uint64(i+1), cmd)
			b.Apply(uint64(i+1), cmd)
		}
		fp := a.Fingerprint()
		if got := b.Fingerprint(); got != fp {
			t.Fatalf("same commands, different states:\n%s\n%s", fp, got)
		}
		r := newCtlState()
		r.Restore(a.Snapshot())
		if got := r.Fingerprint(); got != fp {
			t.Fatalf("snapshot restores a different state:\n%s\n%s", fp, got)
		}
	})
}
