package placement

// Budget bounds every tenant's replica degree, in the style of TCDRM's
// tenant-budget-aware replication: hot tenants grow only up to the budget,
// cold tenants shrink only down to the availability floor. It is a clamp
// on the one policy, not a policy of its own. The zero value selects the
// platform defaults (min 2 for availability, max 3).
type Budget struct {
	// MinReplicas is the floor every tenant's degree is held at or above;
	// shrinks never go below it. Zero selects 2 — the smallest degree
	// that survives a single machine failure.
	MinReplicas int
	// MaxReplicas is the ceiling. Zero selects 3; a value below
	// MinReplicas is raised to it.
	MaxReplicas int
}

// Min returns the replica floor (the defaulted MinReplicas).
func (b Budget) Min() int {
	if b.MinReplicas <= 0 {
		return 2
	}
	return b.MinReplicas
}

// Max returns the replica ceiling, never below the floor.
func (b Budget) Max() int {
	if b.MaxReplicas <= 0 {
		return max(3, b.Min())
	}
	return max(b.MaxReplicas, b.Min())
}

// Target returns the replica degree the controller should steer a tenant
// toward, given its class and current degree: hot tenants step up one
// replica, cold tenants step down one, warm tenants hold — all clamped
// into [Min, Max]. The clamp also repairs out-of-budget degrees regardless
// of class: a tenant left under the floor by a machine failure grows back
// even while warm, and one over a lowered budget shrinks back.
func (b Budget) Target(class Class, current int) int {
	want := current
	switch class {
	case Hot:
		want++
	case Cold:
		want--
	}
	return min(max(want, b.Min()), b.Max())
}
