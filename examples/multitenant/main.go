// Multitenant: the paper's headline scenario — many small applications,
// each with its own database and SLA, packed onto shared machines by the
// paper's Algorithm 2: First-Fit, which is internal/placement's Pick in
// arrival order against each machine's declared reservations (the same
// selector, with a different ordering, later chooses recovery, grow and
// migration targets). The example creates a fleet of differently sized
// application databases, shows where their replicas landed, and runs all
// the applications concurrently.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"

	"sdp"
)

func main() {
	p := sdp.New(sdp.Config{ClusterSize: 6})
	p.AddColo("west", "us-west", 12)

	// A social platform's user-generated applications: small databases
	// with modest throughput needs, like the paper's Facebook/Widgets apps.
	apps := []struct {
		name   string
		sizeMB float64
		tps    float64
	}{
		{"poll-widget", 220, 2.0},
		{"guestbook", 250, 1.0},
		{"photo-captions", 600, 3.0},
		{"trivia-game", 300, 4.5},
		{"birthday-cal", 210, 0.5},
		{"movie-quotes", 450, 1.5},
		{"recipe-box", 700, 2.5},
		{"pet-profiles", 330, 1.0},
	}
	for _, a := range apps {
		err := p.CreateDatabase(a.name, sdp.SLA{
			SizeMB:            a.sizeMB,
			MinTPS:            a.tps,
			MaxRejectFraction: 0.001,
		}, "west")
		if err != nil {
			log.Fatalf("create %s: %v", a.name, err)
		}
	}

	// Show the resulting packing: which machines host which replicas. Each
	// app's two replicas sit on distinct machines, the earliest two whose
	// reservations still had room when the app arrived.
	west, err := p.System().Colo("west")
	if err != nil {
		log.Fatal(err)
	}
	placement := map[string][]string{}
	for _, db := range west.Databases() {
		cl, _ := west.Route(db)
		reps, _ := cl.Replicas(db)
		for _, m := range reps {
			placement[m] = append(placement[m], db)
		}
	}
	machines := make([]string, 0, len(placement))
	for m := range placement {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	fmt.Println("replica placement (First-Fit, 2 replicas per app):")
	for _, m := range machines {
		sort.Strings(placement[m])
		fmt.Printf("  %-10s %v\n", m, placement[m])
	}
	fmt.Printf("machines in use: %d (free pool remaining: %d)\n\n",
		len(machines), west.FreeMachines())

	// Every application works concurrently, fully isolated from the others.
	var wg sync.WaitGroup
	for i, a := range apps {
		wg.Add(1)
		go func(seed int64, app string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			conn := p.Open(app)
			if _, err := conn.Exec("CREATE TABLE entry (id INT PRIMARY KEY, score INT)"); err != nil {
				log.Fatalf("%s: %v", app, err)
			}
			for j := 0; j < 25; j++ {
				_, err := conn.Exec("INSERT INTO entry VALUES (?, ?)",
					sdp.Int(int64(j)), sdp.Int(int64(rng.Intn(100))))
				if err != nil {
					log.Fatalf("%s: %v", app, err)
				}
			}
		}(int64(i), a.name)
	}
	wg.Wait()

	fmt.Println("per-application summary:")
	for _, a := range apps {
		conn := p.Open(a.name)
		res, err := conn.Query("SELECT COUNT(*), AVG(score) FROM entry")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s rows=%d avg_score=%.1f\n",
			a.name, res.Rows[0][0].Int, res.Rows[0][1].Float)
	}
}
