package experiments

import (
	"sync"
	"time"

	"sdp/internal/core"
	"sdp/internal/history"
	"sdp/internal/sqldb"
)

// Table1Cell is one cell of the paper's Table 1.
type Table1Cell struct {
	Option     core.ReadOption
	Mode       core.AckMode
	Trials     int
	Violations int
}

// Serializable reports whether no violation was observed.
func (c Table1Cell) Serializable() bool { return c.Violations == 0 }

// Table1Result is the full 2x3 matrix.
type Table1Result struct {
	Cells []Table1Cell
}

// RunTable1 reproduces Table 1: for each (read option, ack mode) cell it
// drives adversarial transaction pairs shaped like the paper's Section 3.1
// example and checks each trial's execution history for global one-copy
// serializability. Expected: violations only for Options 2 and 3 with the
// aggressive controller.
func RunTable1(cfg Config) Table1Result {
	trials := 150
	if cfg.Quick {
		trials = 40
	}
	var res Table1Result
	for _, mode := range []core.AckMode{core.Conservative, core.Aggressive} {
		for _, opt := range []core.ReadOption{core.ReadOption1, core.ReadOption2, core.ReadOption3} {
			n := trials
			if mode == core.Conservative {
				// Conservative trials resolve distributed deadlocks by
				// timeout and are slower; fewer trials suffice since the
				// theorem guarantees zero violations.
				n = trials / 5
			}
			res.Cells = append(res.Cells, runTable1Cell(opt, mode, n))
		}
	}
	return res
}

func runTable1Cell(opt core.ReadOption, mode core.AckMode, trials int) Table1Cell {
	rec := history.NewRecorder()
	engCfg := sqldb.DefaultConfig()
	engCfg.LockTimeout = 50 * time.Millisecond
	c := core.NewCluster("table1", core.Options{
		ReadOption:   opt,
		AckMode:      mode,
		Replicas:     2,
		EngineConfig: engCfg,
		Recorder:     rec,
	})
	if _, err := c.AddMachines(2); err != nil {
		panic(err)
	}
	mustExec := func(sql string) {
		if _, err := c.Exec("app", sql); err != nil {
			panic(err)
		}
	}
	if err := c.CreateDatabase("app"); err != nil {
		panic(err)
	}
	mustExec("CREATE TABLE obj (id INT PRIMARY KEY, v INT)")
	mustExec("INSERT INTO obj VALUES (1, 0), (2, 0)")

	cell := Table1Cell{Option: opt, Mode: mode, Trials: trials}
	for trial := 0; trial < trials; trial++ {
		rec.Reset()
		// The paper's §3.1 interleaving by construction: both transactions
		// finish their read before either one writes.
		var read sync.WaitGroup
		read.Add(2)
		run := func(readID, writeID int64) {
			tx, err := c.Begin("app")
			if err == nil {
				_, err = tx.Exec("SELECT v FROM obj WHERE id = ?", sqldb.NewInt(readID))
			}
			read.Done()
			read.Wait()
			if err != nil {
				return
			}
			if _, err := tx.Exec("UPDATE obj SET v = v + 1 WHERE id = ?", sqldb.NewInt(writeID)); err != nil {
				return
			}
			_ = tx.Commit()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); run(1, 2) }()
		go func() { defer wg.Done(); run(2, 1) }()
		wg.Wait()
		if ok, _, _ := history.Check(rec); !ok {
			cell.Violations++
		}
	}
	return cell
}

// Render formats the matrix like the paper's Table 1.
func (r Table1Result) Render() *Table {
	t := &Table{
		Title:  "Table 1: Serializability for different read and write options",
		Header: []string{"", "Option 1", "Option 2", "Option 3"},
	}
	rowFor := func(mode core.AckMode) []string {
		row := []string{mode.String() + " controller"}
		for _, cell := range r.Cells {
			if cell.Mode != mode {
				continue
			}
			if cell.Serializable() {
				row = append(row, "Serializable")
			} else {
				row = append(row, "NOT serializable")
			}
		}
		return row
	}
	t.AddRow(rowFor(core.Conservative)...)
	t.AddRow(rowFor(core.Aggressive)...)
	return t
}
