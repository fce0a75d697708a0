package main

import (
	"fmt"
	"os"
	"time"

	"sdp"
	"sdp/internal/obs"
	"sdp/internal/wire"
)

// runTraceDemo boots a platform with tracing and the slow-query log on,
// drives a few wire-client calls over a real socket (prepared write and
// prepared reads), then prints the resulting span trees and the slow-query
// log — the `make trace-demo` target. With slowOnly, only the slow-query
// log is printed (the -slow flag).
func runTraceDemo(slowOnly bool) error {
	p := sdp.New(sdp.Config{
		Listen:      "127.0.0.1:0",
		TraceSample: 1,
		SlowQuery:   time.Nanosecond, // record every statement for the demo
	})
	p.AddColo("local", "local", 4)
	if err := p.CreateDatabase("app", sdp.SLA{SizeMB: 1, MinTPS: 1, MaxRejectFraction: 1}, "local"); err != nil {
		return err
	}
	srv, err := p.ServeWire()
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := wire.Dial(wire.ClientConfig{
		Addr:        srv.Addr(),
		Database:    "app",
		Metrics:     p.Metrics(),
		TraceSample: 1,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return err
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1, 'hello')"); err != nil {
		return err
	}
	upd, err := cl.Prepare("UPDATE t SET v = ? WHERE id = ?")
	if err != nil {
		return err
	}
	if _, err := upd.Exec(sdp.Text("traced"), sdp.Int(1)); err != nil {
		return err
	}
	sel, err := cl.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		return err
	}
	if _, err := sel.Exec(sdp.Int(1)); err != nil {
		return err
	}

	reg := p.Metrics()
	if !slowOnly {
		fmt.Println("# span trees, one per traced client call (client → wire → system → core/sql → wal):")
		fmt.Println()
		for _, s := range reg.Spans().Select(0, "client", "") {
			if s.Parent == 0 {
				obs.WriteSpanTree(os.Stdout, reg.Spans().Select(s.TraceID, "", ""))
				fmt.Println()
			}
		}
	}
	fmt.Println("# slow-query log (threshold 1ns for the demo — every statement qualifies):")
	fmt.Println()
	reg.SlowLog().WriteText(os.Stdout)
	if !slowOnly {
		fmt.Println()
		fmt.Println("# the same trees are served by /tracez?trace=<id>&format=text, the log by /slowz")
	}
	return nil
}
