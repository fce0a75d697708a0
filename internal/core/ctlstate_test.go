package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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

// TestCreateRotatesHeads checks the replica order the state machine keeps:
// each create_db rotates its machine list by one more place, so heads spread
// over the machines; a retried create is known by its machine set and
// changes nothing; a create of the name on other machines loses; and a
// failed head hands the role to the next machine.
func TestCreateRotatesHeads(t *testing.T) {
	st := newCtlState()
	ms := []string{"m1", "m2", "m3"}
	for i, want := range [][]string{{"m1", "m2", "m3"}, {"m2", "m3", "m1"}, {"m3", "m1", "m2"}, {"m1", "m2", "m3"}} {
		db := fmt.Sprintf("db%d", i)
		if err := st.apply(ctlCmd{Op: ctlOpCreateDB, DB: db, Replicas: ms}); err != nil {
			t.Fatal(err)
		}
		if got := st.s.DBs[db].Replicas; !slices.Equal(got, want) {
			t.Fatalf("%s: replicas %v, want %v", db, got, want)
		}
	}
	before := st.Fingerprint()
	if err := st.apply(ctlCmd{Op: ctlOpCreateDB, DB: "db1", Replicas: ms}); err != nil {
		t.Fatalf("retried create: %v", err)
	}
	if got := st.Fingerprint(); got != before {
		t.Fatalf("retried create changed the state:\n%s\n%s", before, got)
	}
	if err := st.apply(ctlCmd{Op: ctlOpCreateDB, DB: "db1", Replicas: []string{"m1", "m2"}}); !errors.Is(err, ErrDatabaseExists) {
		t.Fatalf("create on another machine set: %v, want ErrDatabaseExists", err)
	}
	if err := st.apply(ctlCmd{Op: ctlOpFailMachine, Machine: "m2"}); err != nil {
		t.Fatal(err)
	}
	if got := st.s.DBs["db1"].Replicas; !slices.Equal(got, []string{"m3", "m1"}) {
		t.Fatalf("after the head failed: replicas %v, want [m3 m1]", got)
	}
}
