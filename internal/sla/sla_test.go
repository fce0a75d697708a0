package sla

import (
	"testing"
	"time"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 1, Memory: 2, Disk: 3, DiskBW: 4}
	b := Resources{CPU: 0.5, Memory: 1, Disk: 1, DiskBW: 2}
	sum := a.Add(b)
	if sum != (Resources{CPU: 1.5, Memory: 3, Disk: 4, DiskBW: 6}) {
		t.Errorf("Add = %v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %v", diff)
	}
	if !b.Fits(a) {
		t.Error("b should fit in a")
	}
	if a.Fits(b) {
		t.Error("a should not fit in b")
	}
	if !a.Sub(b).NonNegative() {
		t.Error("a-b should be non-negative")
	}
	if b.Sub(a).NonNegative() {
		t.Error("b-a should be negative somewhere")
	}
	if s := a.Scale(2); s != (Resources{CPU: 2, Memory: 4, Disk: 6, DiskBW: 8}) {
		t.Errorf("Scale = %v", s)
	}
}

func TestAvailabilityConstraint(t *testing.T) {
	s := SLA{MinThroughput: 1, MaxRejectFraction: 0.001, Period: 24 * time.Hour}
	in := AvailabilityInputs{
		MachineFailureRate: 1,
		ReallocationRate:   1,
		RecoveryTime:       2 * time.Minute,
		WriteMix:           0.3,
	}
	// (1+1) * (120/86400) * 0.3 = 0.000833... < 0.001
	frac := in.RejectFraction(s.Period)
	if frac <= 0.0008 || frac >= 0.00085 {
		t.Errorf("RejectFraction = %v", frac)
	}
	if !s.SatisfiesAvailability(in) {
		t.Error("constraint should hold")
	}
	in.WriteMix = 0.5
	if s.SatisfiesAvailability(in) {
		t.Error("constraint should fail with write mix 0.5")
	}
	maxRT := s.MaxRecoveryTime(in)
	in.RecoveryTime = maxRT - time.Second
	if !s.SatisfiesAvailability(in) {
		t.Errorf("recovery just under MaxRecoveryTime (%v) should satisfy", maxRT)
	}
}

func TestProfileMonotone(t *testing.T) {
	small := Profile(200, 1)
	big := Profile(1000, 10)
	if !small.Fits(big) {
		t.Errorf("larger database should need at least as much everywhere: %v vs %v", small, big)
	}
	if !big.Fits(UnitMachine("m").Cap) {
		t.Errorf("the largest paper database must fit one machine: %v", big)
	}
}
