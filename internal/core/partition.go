package core

import (
	"fmt"
	"hash/fnv"

	"sdp/internal/sqldb"
)

// The paper's Section 7 sketches an extension for the minority of
// applications that outgrow a single machine while most stay small. This
// file implements that extension as table-level partitioning: a partitioned
// database's tables are spread over several machine groups ("partitions"),
// each group internally replicated exactly like a normal database. Writes
// route to the owning partition's replicas; a transaction may touch tables
// in different partitions and commits atomically because the controller
// already runs two-phase commit across every machine a transaction
// touched. The one restriction is that a single SELECT cannot join tables
// living in different partitions (each machine only holds its partition's
// tables); such queries fail with ErrCrossPartition.

// ErrCrossPartition is returned for a query that would need to join tables
// hosted in different partitions.
var ErrCrossPartition = fmt.Errorf("core: query joins tables in different partitions")

// partition is one machine group of a partitioned database.
type partitionState struct {
	replicas []string
	readHome string
}

// CreatePartitionedDatabase creates a database whose tables will be spread
// over the given machine groups. Each group hosts a full replica set of its
// partition's tables. Groups must be disjoint. Tables are assigned to
// partitions by a stable hash of their name at CREATE TABLE time.
//
// Partitioned databases are a prototype of the paper's future-work
// extension: replica creation, migration, and SLA placement apply to the
// small-database majority and are not supported for partitioned databases.
func (c *Cluster) CreatePartitionedDatabase(db string, groups [][]string) error {
	if len(groups) < 1 {
		return fmt.Errorf("%w: no partitions given for %s", ErrNoReplicas, db)
	}
	seen := make(map[string]bool)
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("%w: empty partition for %s", ErrNoReplicas, db)
		}
		for _, id := range g {
			if seen[id] {
				return fmt.Errorf("core: machine %s appears in two partitions of %s", id, db)
			}
			seen[id] = true
		}
	}
	c.mu.Lock()
	if _, dup := c.dbs[db]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDatabaseExists, db)
	}
	var ms []*Machine
	for _, g := range groups {
		for _, id := range g {
			m, ok := c.machines[id]
			if !ok {
				c.mu.Unlock()
				return fmt.Errorf("%w: %s", ErrNoMachine, id)
			}
			if m.Failed() {
				c.mu.Unlock()
				return fmt.Errorf("%w: %s", ErrMachineFailed, id)
			}
			ms = append(ms, m)
		}
	}
	c.mu.Unlock()

	for _, m := range ms {
		if err := m.Engine().CreateDatabase(db); err != nil {
			return err
		}
		m.dbCount.Add(1)
	}

	parts := make([]partitionState, len(groups))
	for i, g := range groups {
		parts[i] = partitionState{
			replicas: append([]string{}, g...),
			readHome: g[i%len(g)],
		}
	}
	var epoch uint64
	if cp := c.ctl; cp != nil {
		// Only the database's existence and epoch replicate; the partition
		// layout stays leader-local (partitioned databases are the
		// future-work prototype — no copies, no re-placement — so a takeover
		// has nothing to reconcile beyond existence).
		cp.mu.Lock()
		defer cp.mu.Unlock()
		res, err := cp.propose(ctlCmd{Op: ctlOpCreateDB, DB: db, Partitioned: true})
		if err != nil {
			for _, m := range ms {
				m.dropDatabase(db)
			}
			return err
		}
		cr, _ := res.(ctlCreateResult)
		epoch = cr.Epoch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dbs[db] = &dbState{
		name:       db,
		epoch:      epoch,
		partitions: parts,
		tableAt:    make(map[string]int),
	}
	return nil
}

// partitionFor returns (assigning on first use) the partition index of a
// table. Called with the cluster mutex held on a partitioned database.
func (ds *dbState) partitionFor(table string) int {
	if idx, ok := ds.tableAt[table]; ok {
		return idx
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(table))
	idx := int(h.Sum32()) % len(ds.partitions)
	if idx < 0 {
		idx += len(ds.partitions)
	}
	ds.tableAt[table] = idx
	return idx
}

// partitioned reports whether the database is table-partitioned.
func (ds *dbState) partitioned() bool { return len(ds.partitions) > 0 }

// partitionWriteRoute decides the target machines of a write on a
// partitioned database. Called with the cluster mutex held.
func (ds *dbState) partitionWriteRoute(table string) ([]string, error) {
	p := &ds.partitions[ds.partitionFor(table)]
	if len(p.replicas) == 0 {
		return nil, ErrNoReplicas
	}
	return append([]string{}, p.replicas...), nil
}

// partitionReadRoute picks the replica serving reads of the given tables.
// All tables must live in one partition; reads use that partition's home
// replica (Option 1 semantics — partitioned databases are large, and the
// paper's locality argument applies with even more force).
func (c *Cluster) partitionReadRoute(ds *dbState, tables []string) (string, error) {
	if len(tables) == 0 {
		return "", fmt.Errorf("core: query references no tables")
	}
	first := ds.partitionFor(lowerName(tables[0]))
	for _, t := range tables[1:] {
		if ds.partitionFor(lowerName(t)) != first {
			return "", ErrCrossPartition
		}
	}
	p := &ds.partitions[first]
	if len(p.replicas) == 0 {
		return "", ErrNoReplicas
	}
	if !contains(p.replicas, p.readHome) {
		p.readHome = p.replicas[0]
	}
	return p.readHome, nil
}

// Partitions returns, for a partitioned database, each partition's machine
// IDs (copy). For normal databases it returns nil.
func (c *Cluster) Partitions(db string) [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok || !ds.partitioned() {
		return nil
	}
	out := make([][]string, len(ds.partitions))
	for i, p := range ds.partitions {
		out[i] = append([]string{}, p.replicas...)
	}
	return out
}

// TablePartition returns the partition index a table is (or would be)
// assigned to, or -1 for non-partitioned databases.
func (c *Cluster) TablePartition(db, table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok || !ds.partitioned() {
		return -1
	}
	return ds.partitionFor(lowerName(table))
}

// selectTables lists the table names referenced by a SELECT.
func selectTables(s *sqldb.SelectStmt) []string {
	if s.From == nil {
		return nil
	}
	out := []string{s.From.Table}
	for _, j := range s.Joins {
		out = append(out, j.Table.Table)
	}
	return out
}
