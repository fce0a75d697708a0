// Package sla implements the model half of the paper's Section 4: database
// Service Level Agreements, the mapping of SLAs to measurable resource
// requirement vectors, the availability constraint, and the compliance
// monitor that compares declared SLAs against delivered service. Deciding
// which machine hosts a replica is internal/placement's job; this package
// imports nothing from it.
package sla

import (
	"fmt"
	"time"
)

// Resources is the multi-dimensional resource vector of the paper: CPU
// cycles, main memory, disk size and disk bandwidth. Units are abstract but
// must be consistent between requirements and capacities.
type Resources struct {
	CPU    float64 // CPU cycles per second
	Memory float64 // bytes of main memory
	Disk   float64 // bytes of disk
	DiskBW float64 // disk bandwidth, bytes per second
}

// Add returns r + o component-wise.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		CPU:    r.CPU + o.CPU,
		Memory: r.Memory + o.Memory,
		Disk:   r.Disk + o.Disk,
		DiskBW: r.DiskBW + o.DiskBW,
	}
}

// Sub returns r - o component-wise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{
		CPU:    r.CPU - o.CPU,
		Memory: r.Memory - o.Memory,
		Disk:   r.Disk - o.Disk,
		DiskBW: r.DiskBW - o.DiskBW,
	}
}

// Fits reports whether r fits within capacity c component-wise.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU && r.Memory <= c.Memory && r.Disk <= c.Disk && r.DiskBW <= c.DiskBW
}

// NonNegative reports whether every component is >= 0.
func (r Resources) NonNegative() bool {
	return r.CPU >= 0 && r.Memory >= 0 && r.Disk >= 0 && r.DiskBW >= 0
}

// Dominant returns r's largest component. Machines are normalised to unit
// capacity (UnitMachine), so the dominant component of a load vector is the
// machine's utilisation and that of a requirement its size.
func (r Resources) Dominant() float64 {
	return max(r.CPU, r.Memory, r.Disk, r.DiskBW)
}

// Scale returns r scaled by f.
func (r Resources) Scale(f float64) Resources {
	return Resources{CPU: r.CPU * f, Memory: r.Memory * f, Disk: r.Disk * f, DiskBW: r.DiskBW * f}
}

// String renders the vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("{cpu:%.2f mem:%.2f disk:%.2f bw:%.2f}", r.CPU, r.Memory, r.Disk, r.DiskBW)
}

// SLA is a database's service level agreement (paper Section 4.1): a
// minimum throughput and a maximum fraction of proactively rejected
// transactions, both over a time period.
type SLA struct {
	// MinThroughput is the required transactions per second over Period.
	MinThroughput float64
	// MaxRejectFraction bounds the fraction of proactively rejected
	// transactions over Period. Rejections happen during replica creation
	// (recovery and reallocation); application-inherent failures such as
	// deadlocks do not count.
	MaxRejectFraction float64
	// MaxMeanLatency, when positive, bounds the mean commit latency the
	// compliance monitor will accept per accounting window. The paper's
	// Section 4 model is throughput/availability only; this is the latency
	// dimension operators invariably add on top. Zero leaves latency
	// unconstrained.
	MaxMeanLatency time.Duration
	// Period is the measurement window T.
	Period time.Duration
}

// AvailabilityInputs are the measurable parameters the paper maps the
// availability requirement to.
type AvailabilityInputs struct {
	// MachineFailureRate is the number of failures of a hosting machine
	// over the period.
	MachineFailureRate float64
	// ReallocationRate is the number of replica moves over the period due
	// to maintenance/reorganisation (not recovery).
	ReallocationRate float64
	// RecoveryTime is the time to copy the database during recovery.
	RecoveryTime time.Duration
	// WriteMix is the fraction of update transactions in the workload.
	WriteMix float64
}

// RejectFraction computes the expected fraction of proactively rejected
// transactions implied by the inputs:
//
//	(failure_rate + reallocation_rate) * (recovery_time / T) * write_mix
//
// — the left side of the paper's availability constraint.
func (in AvailabilityInputs) RejectFraction(period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	return (in.MachineFailureRate + in.ReallocationRate) *
		(in.RecoveryTime.Seconds() / period.Seconds()) * in.WriteMix
}

// SatisfiesAvailability reports whether the inputs meet the SLA's
// availability requirement.
func (s SLA) SatisfiesAvailability(in AvailabilityInputs) bool {
	return in.RejectFraction(s.Period) < s.MaxRejectFraction
}

// MaxRecoveryTime solves the availability constraint for the recovery time:
// the longest copy duration that still meets the SLA. Returns a negative
// duration if the constraint cannot be met at any recovery time > 0.
func (s SLA) MaxRecoveryTime(in AvailabilityInputs) time.Duration {
	rate := in.MachineFailureRate + in.ReallocationRate
	if rate <= 0 || in.WriteMix <= 0 {
		return time.Duration(1<<62 - 1) // unconstrained
	}
	seconds := s.MaxRejectFraction * s.Period.Seconds() / (rate * in.WriteMix)
	return time.Duration(seconds * float64(time.Second))
}

// Database describes one database to place: its identity and the
// per-replica resource requirement observed during the profiling period.
type Database struct {
	Name string
	// Req is r[j]: the resources one replica needs to meet the throughput
	// SLA, measured while the database ran on a dedicated machine.
	Req Resources
	// Replicas is the number of replicas to place (>= 2 for fault
	// tolerance).
	Replicas int
}

// Machine describes one machine available for placement.
type Machine struct {
	Name string
	// Cap is R[i]: the machine's resource capacity.
	Cap Resources
}

// Profile estimates the per-replica resource requirement of a database from
// its size and throughput SLA — the paper's observation period distilled
// into a deterministic model, so experiments are reproducible. The constants
// model a commodity machine normalised to capacity 1.0 in each dimension
// hosting, e.g., one 1 GB / 10 TPS database at full utilisation.
func Profile(sizeMB float64, tps float64) Resources {
	return Resources{
		CPU:    tps / 10.0,      // 10 TPS saturates one machine's CPU
		Memory: sizeMB / 1000.0, // 1000 MB of hot set saturates memory
		Disk:   sizeMB / 2000.0, // 2 GB of disk per machine unit
		DiskBW: tps / 20.0,      // disk bandwidth scales with throughput
	}
}

// UnitMachine returns the normalised commodity machine used in the Table 2
// experiments: capacity 1.0 in every dimension.
func UnitMachine(name string) Machine {
	return Machine{Name: name, Cap: Resources{CPU: 1, Memory: 1, Disk: 1, DiskBW: 1}}
}
