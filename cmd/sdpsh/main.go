// Command sdpsh is an interactive SQL shell against the data platform. By
// default it boots an in-process colo with a configurable number of
// machines, lets you create databases with SLAs, run SQL, and inject
// machine failures to watch recovery — a sandbox for the whole system.
//
//	sdpsh -machines 6
//
// With -listen it additionally serves the wire protocol (PROTOCOL.md), so
// other processes can connect; with -connect it is a pure network client
// of such a server and boots nothing locally:
//
//	sdpsh -machines 6 -listen 127.0.0.1:8346     # server + local shell
//	sdpsh -connect 127.0.0.1:8346 -db app1       # remote shell
//	sdpsh -connect ... -db app1 -trace           # remote shell, every
//	                                             # statement traced end to end
//
// Shell commands (everything else is SQL sent to the current database):
//
//	\create <db> [sizeMB] [tps]   create a database with an SLA
//	\use <db>                     switch the current database
//	\dbs                          list databases
//	\machines                     list machines and their databases
//	\fail <machine>               fail a machine for good and re-replicate
//	\crash <machine>              fail a machine that will come back
//	\restart <machine>            restart a crashed machine: log replay + rejoin
//	\checkpoint                   fuzzy-checkpoint every machine's log
//	\migrate <db> <from> <to>     move a replica between machines
//	\rebalance                    spread load by migrating replicas
//	\stats                        platform counters
//	\leader                       controller replica status (needs -controllers)
//	\killleader                   kill the leader controller and watch failover
//	\revivectl                    restart killed controller replicas
//	\quit
//
// BEGIN starts an interactive transaction; statements then run inside it
// until COMMIT or ROLLBACK.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sdp"
	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/wire"
)

func main() {
	machines := flag.Int("machines", 6, "free machines in the colo")
	controllers := flag.Int("controllers", 0, "replicate the cluster controller across this many consensus replicas (3-5; 0 or 1 runs one controller); enables \\leader and \\killleader")
	listen := flag.String("listen", "", "also serve the wire protocol on this address (e.g. 127.0.0.1:8346)")
	connect := flag.String("connect", "", "connect to a wire server at this address instead of booting a platform")
	dbFlag := flag.String("db", "", "database to bind the -connect session to")
	token := flag.String("token", "", "auth token for -connect")
	traced := flag.Bool("trace", false, "sample every -connect statement for distributed tracing and print its trace ID")
	flag.Parse()

	if *connect != "" {
		remoteShell(*connect, *dbFlag, *token, *traced)
		return
	}

	p := sdp.New(sdp.Config{ClusterSize: 4, Listen: *listen, Controllers: *controllers, WAL: &sdp.WALConfig{Compact: true}})
	west := p.AddColo("local", "local", *machines)
	if *listen != "" {
		srv, err := p.ServeWire()
		if err != nil {
			fmt.Println("listen error:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("wire server on %s — connect with: sdpsh -connect %s -db <db>\n", srv.Addr(), srv.Addr())
	}

	fmt.Printf("sdp shell — colo %q with %d machines. \\create <db> to begin, \\quit to exit.\n",
		west.Name(), *machines)

	var current *sdp.Conn
	currentName := ""
	sess := &session{
		begin: func() (sqlTx, error) {
			tx, err := current.Begin()
			if err != nil {
				return nil, err
			}
			return tx, nil
		},
		exec:      func(sql string) (*sdp.Result, error) { return current.Exec(sql) },
		retryable: sdp.IsRetryable,
	}
	scanner := bufio.NewScanner(os.Stdin)
	prompt := func() {
		switch {
		case currentName == "":
			fmt.Print("sdp> ")
		case sess.tx != nil:
			fmt.Printf("sdp:%s*> ", currentName)
		default:
			fmt.Printf("sdp:%s> ", currentName)
		}
	}
	for prompt(); scanner.Scan(); prompt() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if sess.tx != nil {
				fmt.Println("finish the open transaction first (COMMIT or ROLLBACK)")
				continue
			}
			if !command(p, line, &current, &currentName) {
				return
			}
			continue
		}
		if current == nil {
			fmt.Println("no database selected; \\create <db> or \\use <db> first")
			continue
		}
		sess.statement(line)
	}
}

// sqlTx is what the platform's in-process transaction and the wire client's
// have in common.
type sqlTx interface {
	Exec(sql string, params ...sdp.Value) (*sdp.Result, error)
	Commit() error
	Rollback() error
}

// session is the SQL half of a shell, local or remote: where statements go,
// and the open transaction if there is one.
type session struct {
	begin     func() (sqlTx, error)
	exec      func(sql string) (*sdp.Result, error)
	retryable func(error) bool
	tx        sqlTx
}

// statement runs one line — BEGIN, COMMIT, ROLLBACK, or SQL in the open
// transaction or in its own — and prints the outcome. It reports whether a
// result set or row count was printed.
func (s *session) statement(line string) bool {
	switch word := strings.ToUpper(strings.TrimSuffix(line, ";")); word {
	case "BEGIN":
		if s.tx != nil {
			fmt.Println("transaction already open")
		} else if tx, err := s.begin(); err != nil {
			fmt.Println("error:", err)
		} else {
			s.tx = tx
			fmt.Println("transaction started")
		}
		return false
	case "COMMIT", "ROLLBACK":
		if s.tx == nil {
			fmt.Println("no open transaction")
			return false
		}
		finish, done := s.tx.Commit, "committed"
		if word == "ROLLBACK" {
			finish, done = s.tx.Rollback, "rolled back"
		}
		if err := finish(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(done)
		}
		s.tx = nil
		return false
	}
	var res *sdp.Result
	var err error
	if s.tx != nil {
		res, err = s.tx.Exec(line)
	} else {
		res, err = s.exec(line)
	}
	if err != nil {
		fmt.Println("error:", err)
		if s.tx != nil && s.retryable(err) {
			fmt.Println("transaction aborted; start a new one with BEGIN")
			s.tx = nil
		}
		return false
	}
	printResult(res)
	return true
}

func command(p *sdp.Platform, line string, current **sdp.Conn, currentName *string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\create":
		if len(fields) < 2 {
			fmt.Println("usage: \\create <db> [sizeMB] [tps]")
			return true
		}
		sizeMB, tps := 300.0, 2.0
		if len(fields) > 2 {
			sizeMB, _ = strconv.ParseFloat(fields[2], 64)
		}
		if len(fields) > 3 {
			tps, _ = strconv.ParseFloat(fields[3], 64)
		}
		err := p.CreateDatabase(fields[1], sdp.SLA{SizeMB: sizeMB, MinTPS: tps, MaxRejectFraction: 0.001}, "local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		*current = p.Open(fields[1])
		*currentName = fields[1]
		fmt.Printf("created %s (%.0f MB, %.1f TPS) — now current\n", fields[1], sizeMB, tps)
	case "\\use":
		if len(fields) != 2 {
			fmt.Println("usage: \\use <db>")
			return true
		}
		*current = p.Open(fields[1])
		*currentName = fields[1]
	case "\\dbs":
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, db := range co.Databases() {
			cl, _ := co.Route(db)
			reps, _ := cl.Replicas(db)
			fmt.Printf("  %-20s replicas=%v\n", db, reps)
		}
	case "\\machines":
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, cl := range co.Clusters() {
			fmt.Printf("cluster %s:\n", cl.Name())
			for _, id := range cl.MachineIDs() {
				m, _ := cl.Machine(id)
				status := "up"
				if m.Failed() {
					status = "FAILED"
				}
				fmt.Printf("  %-12s %-6s dbs=%v used=%v\n", id, status, m.Engine().Databases(), m.Used())
			}
		}
		fmt.Printf("free pool: %d\n", co.FreeMachines())
	case "\\fail":
		if len(fields) != 2 {
			fmt.Println("usage: \\fail <machine>")
			return true
		}
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		report, err := co.FailMachine(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("recovered: %v", report.Recovered)
		if len(report.Failed) > 0 {
			fmt.Printf(", failed: %v", report.Failed)
		}
		fmt.Println()
	case "\\crash":
		if len(fields) != 2 {
			fmt.Println("usage: \\crash <machine>")
			return true
		}
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		affected, err := co.CrashMachine(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("crashed %s; affected databases %v run on one replica until \\restart\n", fields[1], affected)
	case "\\restart":
		if len(fields) != 2 {
			fmt.Println("usage: \\restart <machine>")
			return true
		}
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		stats, report, err := co.RestartMachine(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("restarted %s: replayed %d statements (checkpoint LSN %d, %d in doubt); rejoined %v",
			fields[1], stats.Applied, stats.CheckpointLSN, stats.InDoubt, report.Recovered)
		if len(report.Failed) > 0 {
			fmt.Printf(", failed: %v", report.Failed)
		}
		fmt.Println()
	case "\\checkpoint":
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, cl := range co.Clusters() {
			if err := cl.CheckpointMachines(); err != nil {
				fmt.Println("error:", err)
				return true
			}
			fmt.Printf("cluster %s: checkpointed\n", cl.Name())
		}
	case "\\migrate":
		if len(fields) != 4 {
			fmt.Println("usage: \\migrate <db> <from> <to>")
			return true
		}
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		cl, err := co.Route(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		if err := cl.MigrateReplica(fields[1], fields[2], fields[3]); err != nil {
			fmt.Println("error:", err)
			return true
		}
		reps, _ := cl.Replicas(fields[1])
		fmt.Printf("migrated; replicas now %v\n", reps)
	case "\\rebalance":
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, cl := range co.Clusters() {
			report, err := cl.Rebalance(16)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("cluster %s: %d moves, peak %.2f -> %.2f\n",
				cl.Name(), len(report.Moves), report.PeakBefore, report.PeakAfter)
			for _, m := range report.Moves {
				fmt.Printf("  moved %s: %s -> %s\n", m.DB, m.From, m.To)
			}
		}
	case "\\stats":
		co, err := p.System().Colo("local")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, cl := range co.Clusters() {
			s := cl.Stats()
			fmt.Printf("cluster %s: committed=%d aborted=%d rejected=%d deadlocks=%d\n",
				cl.Name(), s.Committed, s.Aborted, s.Rejected, s.Deadlocks)
		}
	case "\\leader":
		forEachReplicatedCluster(p, func(cl *core.Cluster) {
			leader, term := cl.LeaderController()
			if leader == "" {
				fmt.Printf("cluster %s: leaderless (election in progress or quorum lost)\n", cl.Name())
			} else {
				fmt.Printf("cluster %s: leader %s, term %d\n", cl.Name(), leader, term)
			}
			for _, st := range cl.ControllerStatus() {
				role := "follower"
				switch {
				case st.Stopped:
					role = "STOPPED"
				case st.Leader:
					role = "leader"
				}
				fmt.Printf("  %-16s %-8s term=%d applied=%d\n", st.ID, role, st.Term, st.Applied)
			}
		})
	case "\\killleader":
		forEachReplicatedCluster(p, func(cl *core.Cluster) {
			killed, err := cl.KillLeaderController()
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("cluster %s: killed %s; waiting for the survivors to elect...\n", cl.Name(), killed)
			if err := cl.WaitControllerSettled(5 * time.Second); err != nil {
				fmt.Println("error:", err)
				return
			}
			leader, term := cl.LeaderController()
			fmt.Printf("cluster %s: new leader %s, term %d (\\revivectl brings %s back)\n",
				cl.Name(), leader, term, killed)
		})
	case "\\revivectl":
		forEachReplicatedCluster(p, func(cl *core.Cluster) {
			n := cl.RestartControllers()
			fmt.Printf("cluster %s: restarted %d controller replica(s)\n", cl.Name(), n)
		})
	default:
		fmt.Println("unknown command", fields[0])
	}
	return true
}

// forEachReplicatedCluster runs fn on every cluster whose control plane is
// replicated, telling the user why nothing happened otherwise (no cluster
// formed yet, or the shell was started without -controllers).
func forEachReplicatedCluster(p *sdp.Platform, fn func(cl *core.Cluster)) {
	co, err := p.System().Colo("local")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	clusters := co.Clusters()
	if len(clusters) == 0 {
		fmt.Println("no clusters formed yet; \\create <db> first")
		return
	}
	any := false
	for _, cl := range clusters {
		if len(cl.ControllerIDs()) == 0 {
			continue
		}
		any = true
		fn(cl)
	}
	if !any {
		fmt.Println("control plane is not replicated; start the shell with -controllers 3")
	}
}

// remoteShell runs the shell as a pure wire-protocol client: SQL and
// BEGIN/COMMIT/ROLLBACK only, since admin operations (\create, \fail, …)
// belong to the process hosting the platform. With traced, every statement
// carries a sampled trace context over the wire and its trace ID is printed
// after the result — paste it into the server's /tracez?trace=<id> to see
// the full cross-process span tree.
func remoteShell(addr, db, token string, traced bool) {
	if db == "" {
		fmt.Println("-connect requires -db <database>")
		os.Exit(1)
	}
	ccfg := wire.ClientConfig{Addr: addr, Database: db, Token: token}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		ccfg.Metrics = reg
		ccfg.TraceSample = 1
	}
	client, err := wire.Dial(ccfg)
	if err != nil {
		fmt.Println("connect error:", err)
		os.Exit(1)
	}
	defer client.Close()
	if traced {
		fmt.Printf("connected to %s, database %s, tracing on. SQL only; \\quit to exit.\n", addr, db)
	} else {
		fmt.Printf("connected to %s, database %s. SQL only; \\quit to exit.\n", addr, db)
	}
	lastTrace := func() {
		if reg == nil {
			return
		}
		if spans := reg.Spans().Select(0, "client", ""); len(spans) > 0 {
			id := obs.TraceIDString(spans[len(spans)-1].TraceID)
			fmt.Printf("trace %s (server: /tracez?trace=%s&format=text)\n", id, id)
		}
	}

	sess := &session{
		begin: func() (sqlTx, error) {
			tx, err := client.Begin()
			if err != nil {
				return nil, err
			}
			return tx, nil
		},
		exec:      func(sql string) (*sdp.Result, error) { return client.Exec(sql) },
		retryable: wire.IsRetryable,
	}
	scanner := bufio.NewScanner(os.Stdin)
	prompt := func() {
		if sess.tx != nil {
			fmt.Printf("sdp:%s*> ", db)
		} else {
			fmt.Printf("sdp:%s> ", db)
		}
	}
	for prompt(); scanner.Scan(); prompt() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "\\quit" || line == "\\q" {
			return
		}
		if sess.statement(line) {
			lastTrace()
		}
	}
}

func printResult(res *sdp.Result) {
	if len(res.Cols) == 0 {
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Cols, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
