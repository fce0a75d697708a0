// TPC-W: run the paper's evaluation workload against the platform — load
// the TPC-W bookstore schema into a replicated database and drive the three
// standard transaction mixes, printing achieved throughput and abort rates.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sdp"
	"sdp/internal/tpcw"
)

// platformDB adapts a platform connection to the TPC-W client interface.
type platformDB struct{ conn *sdp.Conn }

func (d platformDB) Begin() (tpcw.Txn, error) { return d.conn.Begin() }

func main() {
	sizeMB := flag.Float64("size", 100, "nominal database size in MB")
	sessions := flag.Int("sessions", 4, "concurrent client sessions")
	duration := flag.Duration("duration", 2*time.Second, "measurement duration per mix")
	flag.Parse()

	p := sdp.New(sdp.Config{ClusterSize: 4})
	p.AddColo("west", "us-west", 4)
	if err := p.CreateDatabase("tpcw", sdp.SLA{SizeMB: *sizeMB, MinTPS: 5}, "west"); err != nil {
		log.Fatal(err)
	}

	db := platformDB{conn: p.Open("tpcw")}
	scale := tpcw.ScaleForMB(*sizeMB, 42)
	fmt.Printf("loading TPC-W at ~%.0f MB (%d items, %d customers, %d orders)...\n",
		*sizeMB, scale.Items, scale.Customers, scale.Orders)
	start := time.Now()
	if err := tpcw.Load(db, scale); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %v\n\n", time.Since(start).Round(time.Millisecond))

	// One shared Workload: its order-ID allocator spans all sessions and
	// mixes against this database.
	w := tpcw.NewWorkload(scale)
	fmt.Printf("%-10s %10s %10s %10s %8s\n", "mix", "committed", "aborted", "tps", "writes")
	for _, mix := range tpcw.Mixes {
		client := &tpcw.Client{
			DB:       db,
			Mix:      mix,
			Workload: w,
		}
		st := client.RunConcurrent(*sessions, *duration, 7)
		if st.Fatal > 0 {
			log.Fatalf("%s mix: %d fatal errors", mix.Name, st.Fatal)
		}
		writes := st.ByKind[tpcw.TxCartUpdate] + st.ByKind[tpcw.TxBuyConfirm] + st.ByKind[tpcw.TxAdminUpdate]
		fmt.Printf("%-10s %10d %10d %10.1f %7.1f%%\n",
			mix.Name, st.Committed, st.Aborted, st.TPS(),
			float64(writes)/float64(st.Committed)*100)
	}
}
