package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"

	"sdp/internal/core"
	"sdp/internal/tpcw"
	genload "sdp/internal/workload"
)

// errIncorrect marks an operation whose reply was wrong. It is never
// retried and turns the run's "correct" to false.
var errIncorrect = errors.New("bench: incorrect result")

// client is one closed-loop caller. next draws the next logical transaction
// from the client's seeded stream; attempt runs it once, so the driver can
// retry the same transaction.
type client interface {
	next()
	attempt() error
}

// workload is one set of inputs the benchmark runs. A value serves one boot
// of one stack: it remembers what was loaded and acknowledged there, and
// verify compares that with what every replica holds.
type workload interface {
	name() string
	// poolPages is the per-machine buffer pool: 256 where the table fits,
	// smaller where the working set is meant to exceed the cache.
	poolPages() int
	// topRung is the entry point users of this workload call.
	topRung() rung
	// clients is how many closed-loop clients drive the window.
	clients() int
	// warmOps is how many operations each client runs before the window, to
	// fill buffer pools and plan caches. A count, not a time, so that
	// setup_s holds only work.
	warmOps() int
	load(s *stack) error
	client(s *stack, idx int) (client, error)
	verify(s *stack) error
}

var workloadNames = []string{"wire_point_read", "wire_repl_write", "tpcw_tenants", "replica_churn"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "wire_point_read":
		return &kvWorkload{wname: name, seed: seed, table: "t", sql: "SELECT v FROM t WHERE id = ?", read: true}, nil
	case "wire_repl_write":
		return &kvWorkload{wname: name, seed: seed, table: "w", sql: "UPDATE w SET v = v + 1 WHERE id = ?"}, nil
	case "tpcw_tenants":
		return newTPCW(name, seed, 16, 200, 1.0, tpcw.ShoppingMix, 32), nil
	case "replica_churn":
		return newTPCW(name, seed, 4, 400, 0, tpcw.OrderingMix, 256), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// ---- wire_point_read and wire_repl_write: one table, one prepared statement ----

const (
	kvDB   = "app"
	kvRows = 10000
)

type kvWorkload struct {
	wname string
	seed  int64
	table string
	sql   string
	read  bool
	acks  atomic.Int64 // acknowledged updates since load, warm-up included
}

func (w *kvWorkload) name() string   { return w.wname }
func (w *kvWorkload) poolPages() int { return 256 }
func (w *kvWorkload) topRung() rung  { return rungWire }
func (w *kvWorkload) clients() int   { return numClients() }
func (w *kvWorkload) warmOps() int {
	if w.read {
		return 20000
	}
	return 5000
}

func (w *kvWorkload) load(s *stack) error {
	if err := s.createDatabase(kvDB); err != nil {
		return err
	}
	db := s.loaderDB(kvDB)
	if _, err := execAuto(db, "CREATE TABLE "+w.table+" (id INT PRIMARY KEY, v INT NOT NULL)"); err != nil {
		return err
	}
	const batch = 500
	for lo := 0; lo < kvRows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + w.table + " VALUES ")
		for id := lo; id < lo+batch; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", id, 7*id)
		}
		if _, err := execAuto(db, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

func (w *kvWorkload) client(s *stack, idx int) (client, error) {
	exec, err := s.prepared(kvDB, w.sql)
	if err != nil {
		return nil, err
	}
	return &kvClient{w: w, exec: exec, rng: rand.New(rand.NewSource(clientSeed(w.seed, idx)))}, nil
}

type kvClient struct {
	w    *kvWorkload
	exec kvFunc
	rng  *rand.Rand
	id   int64
}

func (c *kvClient) next() { c.id = c.rng.Int63n(kvRows) }

func (c *kvClient) attempt() error {
	res, err := c.exec(c.id)
	if err != nil {
		return err
	}
	if c.w.read {
		if len(res.Rows) != 1 || res.Rows[0][0].Int != 7*c.id {
			return fmt.Errorf("%w: id %d returned %v", errIncorrect, c.id, res.Rows)
		}
		return nil
	}
	if res.Affected != 1 {
		return fmt.Errorf("%w: update of id %d affected %d rows", errIncorrect, c.id, res.Affected)
	}
	c.w.acks.Add(1)
	return nil
}

// wantSum is SUM(v) every replica must hold: the loaded 7*id plus one per
// acknowledged update.
func (w *kvWorkload) wantSum() int64 { return 7*kvRows*(kvRows-1)/2 + w.acks.Load() }

func (w *kvWorkload) verify(s *stack) error {
	return eachReplica(s, kvDB, func(machine string, q queryFunc) error {
		got, err := q("SELECT SUM(v) FROM " + w.table)
		if err != nil {
			return err
		}
		if got != w.wantSum() {
			return fmt.Errorf("%s on %s: SUM(v) = %d, want %d (%d acknowledged updates)", w.table, machine, got, w.wantSum(), w.acks.Load())
		}
		return nil
	})
}

// ---- tpcw_tenants and replica_churn: TPC-W over several tenant databases ----

type tpcwWorkload struct {
	wname   string
	seed    int64
	skew    float64
	mix     tpcw.Mix
	pool    int
	tenants []*tenant
}

type tenant struct {
	db   string
	load *tpcw.Workload
	buys atomic.Int64 // committed buy-confirms: each inserts exactly one order
}

func newTPCW(name string, seed int64, tenants int, sizeMB float64, skew float64, mix tpcw.Mix, pool int) *tpcwWorkload {
	w := &tpcwWorkload{wname: name, seed: seed, skew: skew, mix: mix, pool: pool}
	for i := 0; i < tenants; i++ {
		sc := tpcw.ScaleForMB(sizeMB, seed*1000+int64(i))
		w.tenants = append(w.tenants, &tenant{db: fmt.Sprintf("shop%02d", i), load: tpcw.NewWorkload(sc)})
	}
	return w
}

func (w *tpcwWorkload) name() string   { return w.wname }
func (w *tpcwWorkload) poolPages() int { return w.pool }
func (w *tpcwWorkload) topRung() rung  { return rungConn }
func (w *tpcwWorkload) warmOps() int   { return 4000 }
func (w *tpcwWorkload) churn() bool    { return w.wname == "replica_churn" }

// clients is numClients, less the one goroutine replica_churn gives to its
// copy driver.
func (w *tpcwWorkload) clients() int {
	if n := numClients(); w.churn() && n > 1 {
		return n - 1
	}
	return numClients()
}

func (w *tpcwWorkload) load(s *stack) error {
	for _, t := range w.tenants {
		if err := s.createDatabase(t.db); err != nil {
			return err
		}
		if err := tpcw.Load(s.loaderDB(t.db), t.load.Scale); err != nil {
			return fmt.Errorf("load %s: %w", t.db, err)
		}
	}
	return nil
}

func (w *tpcwWorkload) client(s *stack, idx int) (client, error) {
	seed := clientSeed(w.seed, idx)
	c := &tpcwClient{w: w, rng: rand.New(rand.NewSource(seed)), pick: genload.NewZipf(seed+1, len(w.tenants), w.skew)}
	for _, t := range w.tenants {
		c.dbs = append(c.dbs, s.db(t.db))
	}
	for _, wt := range w.mix.Weights {
		c.total += wt
	}
	return c, nil
}

type tpcwClient struct {
	w     *tpcwWorkload
	rng   *rand.Rand
	pick  *genload.Zipf
	dbs   []tpcw.DB
	total int

	tenant int
	kind   tpcw.TxKind
}

func (c *tpcwClient) next() {
	c.tenant = c.pick.Rank() - 1
	n := c.rng.Intn(c.total)
	for k, wt := range c.w.mix.Weights {
		if n < wt {
			c.kind = tpcw.TxKind(k)
			return
		}
		n -= wt
	}
}

func (c *tpcwClient) attempt() error {
	t := c.w.tenants[c.tenant]
	tx, err := c.dbs[c.tenant].Begin()
	if err != nil {
		return err
	}
	if err := t.load.Run(c.kind, tx, c.rng); err != nil {
		_ = tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if c.kind == tpcw.TxBuyConfirm {
		t.buys.Add(1)
	}
	return nil
}

// replicaChecks are the per-table facts all replicas of a tenant must agree
// on. Integer sums only: float sums depend on summation order.
var replicaChecks = []string{
	"SELECT COUNT(*) FROM country",
	"SELECT COUNT(*) FROM address",
	"SELECT COUNT(*) FROM customer",
	"SELECT COUNT(*) FROM author",
	"SELECT COUNT(*) FROM item",
	"SELECT SUM(i_stock) FROM item",
	"SELECT SUM(i_total_sold) FROM item",
	"SELECT COUNT(*) FROM orders",
	"SELECT SUM(o_c_id) FROM orders",
	"SELECT COUNT(*) FROM order_line",
	"SELECT SUM(ol_qty) FROM order_line",
	"SELECT COUNT(*) FROM cc_xacts",
}

func (w *tpcwWorkload) verify(s *stack) error {
	for _, t := range w.tenants {
		want := int64(t.load.Scale.Orders) + t.buys.Load()
		var first []int64
		var firstMachine string
		err := eachReplica(s, t.db, func(machine string, q queryFunc) error {
			facts := make([]int64, len(replicaChecks))
			for i, sql := range replicaChecks {
				v, err := q(sql)
				if err != nil {
					return err
				}
				facts[i] = v
				if sql == "SELECT COUNT(*) FROM orders" && v != want {
					return fmt.Errorf("%s on %s: %d orders, want %d (%d loaded + %d committed buy-confirms)",
						t.db, machine, v, want, t.load.Scale.Orders, t.buys.Load())
				}
			}
			if first == nil {
				first, firstMachine = facts, machine
				return nil
			}
			for i := range facts {
				if facts[i] != first[i] {
					return fmt.Errorf("%s: replicas disagree on %q: %s has %d, %s has %d",
						t.db, replicaChecks[i], firstMachine, first[i], machine, facts[i])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- shared helpers ----

// clientSeed derives client idx's stream from the run's seed.
func clientSeed(seed int64, idx int) int64 { return seed*7919 + int64(idx)*104729 + 1 }

// queryFunc runs a one-row, one-INT-column query on one replica.
type queryFunc func(sql string) (int64, error)

// eachReplica calls fn once per replica of db with a query function bound to
// that replica's own engine, bypassing the controller: this is what the
// machine holds, not what read routing would show.
func eachReplica(s *stack, db string, fn func(machine string, q queryFunc) error) error {
	if s.eng != nil {
		return fn("engine", func(sql string) (int64, error) { return scalar(s.eng.Exec(db, sql)) })
	}
	cl := s.cluster(db)
	cl.DrainResolvers()
	ids, err := cl.Replicas(db)
	if err != nil {
		return err
	}
	if len(ids) != replicas {
		return fmt.Errorf("%s has %d replicas, want %d", db, len(ids), replicas)
	}
	for _, id := range ids {
		m, err := cl.Machine(id)
		if err != nil {
			return err
		}
		if err := fn(id, func(sql string) (int64, error) { return scalar(m.Engine().Exec(db, sql)) }); err != nil {
			return err
		}
	}
	return nil
}

// churnTargets returns, for each tenant of a churn workload, the machines
// that do not host it: where the driver grows a third replica.
func churnTargets(s *stack, w *tpcwWorkload) ([][]string, *core.Cluster, error) {
	cl := s.cluster(w.tenants[0].db)
	out := make([][]string, len(w.tenants))
	for i, t := range w.tenants {
		hosting, err := cl.Replicas(t.db)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range cl.MachineIDs() {
			if !slices.Contains(hosting, id) {
				out[i] = append(out[i], id)
			}
		}
	}
	return out, cl, nil
}
