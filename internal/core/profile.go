package core

import (
	"fmt"
	"time"

	"sdp/internal/sla"
)

// The paper's Section 4.2: "When a new database is created, it is first
// allocated to a free machine in the cluster to observe the resource
// requirements needed to maintain its SLA." This file implements that
// observation period: the database runs on a dedicated machine while its
// resource consumption is measured, and the result is the r[j] vector used
// for First-Fit placement.

// ProfileReport is the outcome of an observation period.
type ProfileReport struct {
	// Req is the measured per-replica resource requirement r[j].
	Req sla.Resources
	// ObservedTPS is the committed-transaction rate during the window.
	ObservedTPS float64
	// SizeMB is the database's observed size.
	SizeMB float64
	// PoolPagesTouched is the number of distinct pages the workload pulled
	// into the buffer pool, a proxy for the hot working set.
	PoolPagesTouched int
	// Window is the observation duration.
	Window time.Duration
}

// referenceCapacity describes what a unit machine can sustain, mirroring
// sla.Profile's calibration: 10 TPS of CPU, 1000 MB of memory-resident
// data, 2000 MB of disk, 20 TPS of disk bandwidth.
const (
	refTPSPerMachine    = 10.0
	refMemoryMBPerUnit  = 1000.0
	refDiskMBPerUnit    = 2000.0
	refDiskBWTPSPerUnit = 20.0
)

// ObserveDatabase measures a database's resource requirement on one of its
// hosting machines over the given window, while the caller drives the
// database's expected workload. The machine should host only this database
// during observation (the paper uses a free machine) so the counters are
// attributable.
func (c *Cluster) ObserveDatabase(db, machineID string, window time.Duration, drive func(stop <-chan struct{})) (ProfileReport, error) {
	m, err := c.Machine(machineID)
	if err != nil {
		return ProfileReport{}, err
	}
	if m.Failed() {
		return ProfileReport{}, fmt.Errorf("%w: %s", ErrMachineFailed, machineID)
	}
	if !m.Engine().HasDatabase(db) {
		return ProfileReport{}, fmt.Errorf("%w: %s not on %s", ErrNoDatabase, db, machineID)
	}

	before := m.Engine().Stats()
	poolBefore := m.Engine().Pool().Len()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		drive(stop)
	}()
	time.Sleep(window)
	close(stop)
	<-done
	after := m.Engine().Stats()
	poolAfter := m.Engine().Pool().Len()

	committed := after.Commits - before.Commits
	tps := float64(committed) / window.Seconds()
	sizeMB := float64(m.Engine().DatabaseByteSize(db)) / (1 << 20)
	touched := poolAfter - poolBefore
	if touched < 0 {
		touched = 0
	}

	// Map measurements onto the resource vector using the unit-machine
	// calibration (see sla.Profile). Memory demand is estimated from the
	// hot working set when it is smaller than the database.
	memMB := sizeMB
	if hot := float64(touched) * pageSizeMBEstimate; hot > 0 && hot < memMB {
		memMB = hot
	}
	rep := ProfileReport{
		ObservedTPS:      tps,
		SizeMB:           sizeMB,
		PoolPagesTouched: touched,
		Window:           window,
		Req: sla.Resources{
			CPU:    tps / refTPSPerMachine,
			Memory: memMB / refMemoryMBPerUnit,
			Disk:   sizeMB / refDiskMBPerUnit,
			DiskBW: tps / refDiskBWTPSPerUnit,
		},
	}
	return rep, nil
}

// pageSizeMBEstimate is the rough in-memory size of one resident page, used
// to convert touched-page counts into a working-set estimate.
const pageSizeMBEstimate = 0.004 // ~4 KB
