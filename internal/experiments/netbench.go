package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/colo"
	"sdp/internal/obs"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/system"
	"sdp/internal/wire"
)

// NetBench holds the wire-protocol benchmark results written to
// BENCH_net.json: a single-connection latency profile of the prepared vs
// simple-query paths, and a throughput curve as concurrent connections
// grow to above ten thousand (see EXPERIMENTS.md, "Wire protocol").
type NetBench struct {
	// PreparedReadNsPerOp is the round-trip time of a prepared point read
	// (MsgExec: statement ID + one parameter) over one loopback connection.
	PreparedReadNsPerOp float64 `json:"prepared_point_read_ns_per_op"`
	// SimpleReadNsPerOp is the same read sent as SQL text (MsgQuery),
	// which the server answers through its text→AST statement cache.
	SimpleReadNsPerOp float64 `json:"simple_point_read_ns_per_op"`
	// Points is the throughput curve: one entry per connection count.
	Points []NetPoint `json:"throughput_vs_conns"`
	// MaxConnsSustained is the largest connection count whose measurement
	// window completed with zero errors on every connection.
	MaxConnsSustained int `json:"max_conns_sustained"`
	// Iterations is the single-connection latency sample count.
	Iterations int `json:"iterations"`
}

// NetPoint is one point of the connection-scaling curve. Every connection
// runs prepared point reads as fast as the server answers them.
type NetPoint struct {
	// Conns is the number of concurrently connected clients.
	Conns int `json:"conns"`
	// ConnsActive is the server's wire_connections_active gauge observed
	// mid-window — the proof the connections were truly concurrent.
	ConnsActive int `json:"conns_active"`
	// TPS is completed point reads per second across all connections.
	TPS float64 `json:"tps"`
	// P50Us and P99Us are client-observed round-trip percentiles.
	P50Us float64 `json:"p50_us"`
	// P99Us is the 99th-percentile round trip in microseconds.
	P99Us float64 `json:"p99_us"`
	// BytesPerOp is total wire traffic (both directions, from the server's
	// wire_bytes_* counters) divided by completed operations.
	BytesPerOp float64 `json:"bytes_per_op"`
	// Errors counts failed operations in the window (0 when sustained).
	Errors int `json:"errors"`
}

// netBenchConns picks the connection counts of the scaling curve.
func (c Config) netBenchConns() []int {
	if c.Quick {
		return []int{1, 8, 64}
	}
	return []int{1, 8, 64, 512, 2048, 10240}
}

// netBenchWindow is each point's measurement duration.
func (c Config) netBenchWindow() time.Duration {
	if c.Quick {
		return 150 * time.Millisecond
	}
	return time.Second
}

// netBenchIters is the single-connection latency sample count.
func (c Config) netBenchIters() int {
	if c.Quick {
		return 2000
	}
	return 20000
}

const netBenchToken = "bench-token"

// netBackend adapts the system controller to wire.Backend with a single
// shared token; the root-level smoke test covers the richer per-tenant
// table behind sdp.Platform.ServeWire.
type netBackend struct {
	sys   *system.Controller
	token string
}

// Authenticate admits sessions that name a routable database and present
// the bench token.
func (b netBackend) Authenticate(db, token string) error {
	if _, err := b.sys.Route(db); err != nil {
		return err
	}
	if token != b.token {
		return errors.New("bad token")
	}
	return nil
}

// Begin opens a routed transaction.
func (b netBackend) Begin(db string) (wire.Txn, error) {
	t, err := b.sys.Begin(db)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// netBenchPlatform boots a system controller + colo with a wire server and
// one seeded database ("app": table t, 1000 rows keyed 0..999), the same
// stack sdp.Platform.ServeWire assembles.
func netBenchPlatform() (*wire.Server, error) {
	reg := obs.NewRegistry()
	sys := system.NewWithRegistry(reg)
	co := colo.New("local", colo.Options{ClusterSize: 4, Metrics: reg})
	co.AddFreeMachines(4)
	sys.AddColo(co, "local")
	if err := sys.CreateDatabase("app", sla.Profile(100, 1), 2, "local"); err != nil {
		return nil, err
	}
	if _, err := sys.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		if _, err := sys.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
			return nil, err
		}
	}
	return wire.Serve("127.0.0.1:0", wire.ServerConfig{
		Backend: netBackend{sys: sys, token: netBenchToken},
		Metrics: reg,
		Banner:  "sdp-bench",
	})
}

// netBenchClient dials one single-connection client at addr.
func netBenchClient(addr string) (*wire.Client, error) {
	return wire.Dial(wire.ClientConfig{
		Addr:     addr,
		Database: "app",
		Token:    netBenchToken,
		PoolSize: 1,
	})
}

// RunNetBench measures the wire protocol: single-connection prepared vs
// simple point-read latency (and the EXPLAIN executor over the wire), then
// the throughput curve of netBenchConns concurrent connections all running
// prepared point reads against one loopback server.
func RunNetBench(cfg Config) (NetBench, error) {
	res := NetBench{Iterations: cfg.netBenchIters()}
	conns := cfg.netBenchConns()
	maxConns := uint64(conns[len(conns)-1])

	var addr string
	var reg netCounters
	if !cfg.Quick {
		// Full scale: run the server in a child process so each side's
		// sockets count against a separate RLIMIT_NOFILE (10k+ loopback
		// connections are two fds each; one process often cannot hold
		// both ends). Works only when this binary installed the
		// RunNetBenchServer env hook — cmd/experiments does.
		if proc, paddr, err := startNetServerProc(); err == nil {
			defer proc.stop()
			raiseFDLimit(maxConns + 4096) // client fds only
			addr, reg = paddr, proc.counters()
		}
	}
	if addr == "" {
		// Quick profile, or no child available: both sides of every
		// connection live in this process, ~2 fds per client plus
		// listener and headroom.
		raiseFDLimit(maxConns*2 + 4096)
		srv, err := netBenchPlatform()
		if err != nil {
			return res, err
		}
		defer srv.Close()
		addr, reg = srv.Addr(), srvRegistryCounters(srv)
	}

	if err := runNetLatency(&res, addr); err != nil {
		return res, err
	}
	for _, n := range conns {
		pt, err := runNetPoint(addr, n, cfg.netBenchWindow(), reg)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
		if pt.Errors == 0 && pt.Conns > res.MaxConnsSustained {
			res.MaxConnsSustained = pt.Conns
		}
	}
	return res, nil
}

// netCounters reads the server's byte counters and active-connection gauge.
type netCounters struct {
	read, written func() uint64
	active        func() float64
}

// srvRegistryCounters binds readers over the server's wire_* metrics.
func srvRegistryCounters(srv *wire.Server) netCounters {
	reg := srv.Metrics()
	read := reg.Counter("wire_bytes_read_total", "")
	written := reg.Counter("wire_bytes_written_total", "")
	active := reg.Gauge("wire_connections_active", "")
	return netCounters{read: read.Value, written: written.Value, active: active.Value}
}

// runNetLatency fills in the single-connection latency fields.
func runNetLatency(res *NetBench, addr string) error {
	client, err := netBenchClient(addr)
	if err != nil {
		return err
	}
	defer client.Close()

	stmt, err := client.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ { // warmup: prepare, fill plan + buffer caches
		if _, err := stmt.Exec(sqldb.NewInt(int64(i % 1000))); err != nil {
			return err
		}
	}
	iters := res.Iterations
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := stmt.Exec(sqldb.NewInt(int64(i % 1000))); err != nil {
			return err
		}
	}
	res.PreparedReadNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := client.Query("SELECT v FROM t WHERE id = ?", sqldb.NewInt(int64(i%1000))); err != nil {
			return err
		}
	}
	res.SimpleReadNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
	return nil
}

// runNetPoint measures one connection-count point: dial n single-connection
// clients, run prepared point reads on all of them for the window, and
// report throughput, percentiles, and bytes per operation.
func runNetPoint(addr string, n int, window time.Duration, counters netCounters) (NetPoint, error) {
	pt := NetPoint{Conns: n}

	clients := make([]*wire.Client, n)
	stmts := make([]*wire.Stmt, n)
	defer func() {
		var wg sync.WaitGroup
		for _, c := range clients {
			if c == nil {
				continue
			}
			wg.Add(1)
			go func(c *wire.Client) { defer wg.Done(); c.Close() }(c)
		}
		wg.Wait()
	}()

	// Dial with bounded parallelism; each client pre-runs one read so the
	// statement is prepared on its connection before the window opens.
	dialers := 256
	if dialers > n {
		dialers = n
	}
	var derr error
	var dmu sync.Mutex
	var dwg sync.WaitGroup
	idx := int64(-1)
	for d := 0; d < dialers; d++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for {
				i := int(atomic.AddInt64(&idx, 1))
				if i >= n {
					return
				}
				c, err := netBenchClient(addr)
				if err == nil {
					var s *wire.Stmt
					s, err = c.Prepare("SELECT v FROM t WHERE id = ?")
					if err == nil {
						_, err = s.Exec(sqldb.NewInt(int64(i % 1000)))
					}
					clients[i], stmts[i] = c, s
				}
				if err != nil {
					dmu.Lock()
					if derr == nil {
						derr = err
					}
					dmu.Unlock()
					return
				}
			}
		}()
	}
	dwg.Wait()
	if derr != nil {
		return pt, derr
	}

	var stop atomic.Bool
	var ops, errs atomic.Int64
	lats := make([][]int64, n)
	startCh := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-startCh
			key := int64(i)
			for !stop.Load() {
				t0 := time.Now()
				_, err := stmts[i].Exec(sqldb.NewInt(key % 1000))
				d := time.Since(t0).Nanoseconds()
				key++
				if err != nil {
					errs.Add(1)
					continue
				}
				ops.Add(1)
				lats[i] = append(lats[i], d)
			}
		}(i)
	}

	bytesBefore := counters.read() + counters.written()
	start := time.Now()
	close(startCh)
	time.Sleep(window / 2)
	active := counters.active() // mid-window: all dialed conns still up?
	time.Sleep(window / 2)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	bytesAfter := counters.read() + counters.written()

	total := ops.Load()
	pt.ConnsActive = int(active)
	pt.Errors = int(errs.Load())
	pt.TPS = float64(total) / elapsed.Seconds()
	if total > 0 {
		pt.BytesPerOp = float64(bytesAfter-bytesBefore) / float64(total)
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		pt.P50Us = float64(all[len(all)/2]) / 1e3
		pt.P99Us = float64(all[len(all)*99/100]) / 1e3
	}
	return pt, nil
}
