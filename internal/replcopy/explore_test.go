package replcopy

import (
	"flag"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// The explorer: a breadth-first search over every interleaving of
// Algorithm 1 copies, their writers and their faults. It drives WriteRoute,
// Next, Dumpable, Fails, Driven, Register, Start and Usable — the functions
// core calls at each site — and models only what core does around them:
// the drain counters, the dump under the source's read locks, the control
// state machine's copy record, and machines that fail and restart.
//
// The cluster has three machines and one database of two tables, hosted by
// m0 and m1 and kept at two replicas: when one is lost, a recovery copies
// from the head to a live machine, catching a restarted one up from its
// failure-time marks. Each writer writes one table once: it is routed, runs
// on its targets (the drain counter holds it until then), and commits or
// aborts; a table's committed contents are the set of its committed write
// IDs. A write that runs on a machine that is down aborts, and so does one
// that finds the database or the table missing on a machine that is no
// replica: core reports a stale route. A copy runs core's steps at table
// granularity: copy_begin, create the database on the target (unless the
// copy is no longer Driven), then per table in flight, imaged under the
// source's read lock (once Dumpable), copied, applied; then the
// registration, which holds cp.mu from the driver's guard to copy_complete,
// so no fault falls between them. From the image to the apply the lock
// holds every write on the table at the source, which is the head: a write
// routed with the target then runs nowhere until the apply, or until the
// source fails and the lock goes with it. A write's head share runs first,
// and a write the head refuses runs nowhere else. Any error abandons the
// copy in core's four steps: the copy aborts (writes stop reaching the
// target), copy_abort retires its record, the target's copy is dropped, the
// copy state clears. Each fault costs one from a budget k: a machine fails,
// the controller driving a copy dies (the new leader's takeover then retires
// the copy record nobody drives), a dump call is lost, an apply call runs
// with its answer lost. A failed machine restarts; that is not a fault.
// Every marks check passes one epoch: the database is never dropped and
// re-created, so Usable's epoch rule is not explored.
//
// It checks:
//   - at registration, each table of the target equals the source's;
//   - no committed write is missing from a registered replica;
//   - a rejected or aborted write is in no table;
//   - no write is routed to a target that lacks its table, unless its image
//     is taken and held, and none runs on a replica that lacks it;
//   - once no step but a fault is left, no copy runs, no record is left, and
//     a machine holds the database only as a replica or with usable marks.
//
// A violation comes back as the shortest step list that reaches it.

const (
	nm        = 3 // machines
	nt        = 2 // tables
	maxWrites = 3
)

var machineNames = [nm]string{"m0", "m1", "m2"}

// Writer phases.
const (
	wIdle uint8 = iota
	wRouted
	wRan
	wCommitted
	wAborted
	wRejected
)

type machine struct {
	up, db, marked bool
	has            [nt]bool
	set            [nt]uint8 // committed write IDs, one bit per writer
	marks          [nt]uint8 // each table's routed-write counter when it failed
}

type writer struct {
	phase, table, targets uint8 // targets: one bit per machine
	head                  uint8 // the replica set's head when it was routed
}

type state struct {
	faults, n uint8
	ms        [nm]machine
	reps      [nm]uint8 // the replica set, head first
	nreps     uint8
	seq       [nt]uint8
	ws        [maxWrites]writer

	// The copy as the controller's router and driver hold it.
	phase    Phase
	src, tgt uint8
	tables   [nt]Table
	imaged   uint8     // tables whose image is taken and not yet applied, one bit per table
	held     uint8     // imaged tables the dump still read-locks at the source
	image    [nt]uint8 // each imaged table's image: its committed write IDs at the source
	created  bool
	proposed bool  // the driver's guard passed and copy_complete is proposed (before.killMidRegistration)
	killed   bool  // a controller died; the new leader's takeover is pending
	abandon  uint8 // the abandon's next step: 0 none, then aRetire, aDrop, aClear
	// The control state machine's copy record.
	rec            Phase
	recSrc, recTgt uint8
}

func (s *state) copyOf() Copy {
	return Copy{Phase: s.phase, Source: machineNames[s.src], Target: machineNames[s.tgt]}
}

func (s *state) record() Copy {
	return Copy{Phase: s.rec, Source: machineNames[s.recSrc], Target: machineNames[s.recTgt]}
}

// idle clears the copy the router and driver hold, so states that differ
// only in a finished copy's leftovers are one state.
func (s *state) idle() {
	s.phase, s.src, s.tgt, s.tables = Idle, 0, 0, [nt]Table{}
	s.imaged, s.held, s.image = 0, 0, [nt]uint8{}
	s.created, s.proposed, s.abandon = false, false, 0
}

func (s *state) isReplica(i uint8) bool {
	for _, r := range s.reps[:s.nreps] {
		if r == i {
			return true
		}
	}
	return false
}

func (s *state) mask() (m uint8) {
	for _, r := range s.reps[:s.nreps] {
		m |= 1 << r
	}
	return m
}

// outstanding is a table's drain counter: its writes routed and not yet run.
func (s *state) outstanding(t uint8) (n int) {
	for _, w := range s.ws[:s.n] {
		if w.phase == wRouted && w.table == t {
			n++
		}
	}
	return n
}

// step is one transition; String renders it.
type step struct {
	act, i, v uint8
	fault     bool
}

// Step actions.
const (
	aRoute uint8 = iota
	aRun
	aCommit
	aAbort
	aFail
	aRestart
	aKill
	aTakeover
	aStart
	aCreate
	aInFlight
	aImage
	aCopied
	aApply
	aDumpLost
	aApplyLost
	aRegister
	aAbandon
	aRetire
	aDrop
	aClear
	aGuard
)

func (s step) String() string {
	m := machineNames[s.i%nm]
	what := map[uint8]string{
		aRoute:     fmt.Sprintf("w%d: routed on table %d", s.i, s.v),
		aRun:       fmt.Sprintf("w%d: runs on its targets", s.i),
		aCommit:    fmt.Sprintf("w%d: commits", s.i),
		aAbort:     fmt.Sprintf("w%d: aborts", s.i),
		aFail:      m + " fails",
		aRestart:   m + " restarts",
		aKill:      "the controller driving the copy dies",
		aTakeover:  "the new leader's takeover",
		aStart:     fmt.Sprintf("recovery: copy to %s starts (marks %v)", m, s.v == 1),
		aCreate:    "copy: the target's database is created",
		aInFlight:  fmt.Sprintf("copy: table %d in flight", s.v),
		aImage:     fmt.Sprintf("copy: table %d imaged under its read lock", s.v),
		aCopied:    fmt.Sprintf("copy: table %d copied", s.v),
		aApply:     fmt.Sprintf("copy: table %d applied, its read lock released", s.v),
		aDumpLost:  fmt.Sprintf("copy: the dump of table %d is lost", s.v),
		aApplyLost: fmt.Sprintf("copy: table %d applied, its answer lost", s.v),
		aRegister:  "copy: the target registers",
		aAbandon:   "copy: abandoned; writes stop reaching the target",
		aRetire:    "copy: copy_abort retires the record",
		aDrop:      "copy: the target's copy is dropped",
		aClear:     "copy: the copy state clears",
		aGuard:     "copy: the driver's guard passes; copy_complete is proposed",
	}[s.act]
	if s.fault {
		return "fault: " + what
	}
	return what
}

func formatSteps(steps []step) string {
	var b strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s)
	}
	return b.String()
}

type exploration struct {
	states int
	bad    []step // the shortest path to a violation
	why    string
}

func initial(n, k int) state {
	s := state{faults: uint8(k), n: uint8(n), nreps: 2, reps: [nm]uint8{0, 1}}
	for i := range s.ms {
		s.ms[i].up = true
	}
	for _, i := range s.reps[:2] {
		s.ms[i].db, s.ms[i].has = true, [nt]bool{true, true}
	}
	return s
}

// before names a fault core had before it was mended; the tests that pin
// what it let through set it.
type before struct {
	// KillLeaderController did not take cp.mu, so the controller could die
	// between the driver's guard and copy_complete.
	killMidRegistration bool
	// A write that found its database but not its table on a machine that
	// is no replica failed with a schema error, not as a stale route.
	noTableFatal bool
}

// explore searches every interleaving of n writers with up to k faults.
// The queue holds one search level at a time: the seen set already holds
// every state, and the deep bound's would not fit twice.
func explore(n, k int, b before) *exploration {
	init := initial(n, k)
	level := []state{init}
	parent, via := []int32{-1}, []step{{}}
	seen := map[state]struct{}{init: {}}
	ex := &exploration{}
	path := func(at int32) []step {
		var steps []step
		for ; at > 0; at = parent[at] {
			steps = append(steps, via[at])
		}
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		return steps
	}
	for base := int32(0); len(level) > 0 && ex.bad == nil; {
		var next []state
		for i := 0; i < len(level) && ex.bad == nil; i++ {
			s, head := level[i], base+int32(i)
			progress := false
			successors(s, b, func(st step, t state, why string) {
				progress = progress || !st.fault
				if ex.bad != nil {
					return
				}
				if why == "" {
					why = violated(&t)
				}
				if why != "" {
					ex.bad, ex.why = append(path(head), st), why
					return
				}
				if _, ok := seen[t]; !ok {
					seen[t] = struct{}{}
					next, parent, via = append(next, t), append(parent, head), append(via, st)
				}
			})
			if why := stuck(&s); !progress && why != "" && ex.bad == nil {
				ex.bad, ex.why = path(head), "liveness: "+why
			}
		}
		base += int32(len(level))
		level = next
	}
	ex.states = len(parent)
	return ex
}

// violated names the safety property t breaks, or "".
func violated(t *state) string {
	var committed, lost [nt]uint8
	for i, w := range t.ws[:t.n] {
		switch w.phase {
		case wCommitted:
			committed[w.table] |= 1 << i
		case wAborted, wRejected:
			lost[w.table] |= 1 << i
		}
	}
	for i, m := range t.ms {
		for tb := 0; tb < nt; tb++ {
			if m.set[tb]&lost[tb] != 0 {
				return fmt.Sprintf("%s holds a rejected or aborted write in table %d", machineNames[i], tb)
			}
		}
	}
	for _, r := range t.reps[:t.nreps] {
		m := t.ms[r]
		for tb := 0; tb < nt; tb++ {
			if !m.db || !m.has[tb] || m.set[tb]&committed[tb] != committed[tb] {
				return fmt.Sprintf("registered replica %s misses a committed write of table %d", machineNames[r], tb)
			}
		}
	}
	return ""
}

// stuck names how a state with no step but faults left falls short, or "".
func stuck(s *state) string {
	if s.phase != Idle || s.rec != Idle {
		return "a copy or its record outlives every step"
	}
	for i, m := range s.ms {
		if m.up && m.db && !s.isReplica(uint8(i)) && !Usable(m.marked, 1, 1) {
			return machineNames[i] + " keeps an abandoned copy"
		}
	}
	return ""
}

// successors calls emit with every step s can take, the state it leads to,
// and the property the step itself breaks ("" if none).
func successors(s state, b before, emit func(step, state, string)) {
	fault := func(t state) (state, bool) {
		t.faults--
		return t, s.faults > 0
	}

	// Writers.
	for i := uint8(0); i < s.n; i++ {
		w := s.ws[i]
		switch w.phase {
		case wIdle:
			for tb := uint8(0); tb < nt; tb++ {
				t, why := s, ""
				tw := &t.ws[i]
				tw.table = tb
				switch r := WriteRoute(s.phase, s.tables[tb]); {
				case s.nreps == 0:
					tw.phase = wAborted
				case r == Reject:
					tw.phase = wRejected
				default:
					tw.phase, tw.targets, tw.head = wRouted, s.mask(), s.reps[0]
					if r == WithTarget {
						tw.targets |= 1 << s.tgt
						if !s.ms[s.tgt].has[tb] && s.held&(1<<tb) == 0 {
							why = "a write is routed to a target that lacks its table"
						}
					}
					t.seq[tb]++
				}
				emit(step{act: aRoute, i: i, v: tb}, t, why)
			}
		case wRouted:
			if s.held&(1<<w.table) != 0 && w.targets&(1<<s.src) != 0 {
				continue // it waits at the head for the dump's read lock
			}
			t, why := s, ""
			t.ws[i].phase = wRan
			if h := s.ms[w.head]; !h.up || !h.db || !h.has[w.table] {
				// The head's share runs first, and one it refuses is sent
				// nowhere else.
				t.ws[i].phase = wAborted
				emit(step{act: aRun, i: i}, t, "")
				continue
			}
			for j := uint8(0); j < nm; j++ {
				m := s.ms[j]
				switch {
				case w.targets&(1<<j) == 0, m.up && m.db && m.has[w.table]:
				case m.up && m.db && s.isReplica(j):
					why = fmt.Sprintf("replica %s lacks table %d", machineNames[j], w.table)
				case m.up && m.db && b.noTableFatal:
					why = fmt.Sprintf("a write finds %s's database without table %d: a schema error", machineNames[j], w.table)
				default:
					t.ws[i].phase = wAborted
				}
			}
			emit(step{act: aRun, i: i}, t, why)
		case wRan:
			t := s
			t.ws[i].phase = wCommitted
			for j := uint8(0); j < nm; j++ {
				if w.targets&(1<<j) != 0 {
					t.ms[j].set[w.table] |= 1 << i
				}
			}
			emit(step{act: aCommit, i: i}, t, "")
			t = s
			t.ws[i].phase = wAborted
			emit(step{act: aAbort, i: i}, t, "")
		}
	}

	// Machines.
	for i := uint8(0); i < nm; i++ {
		if !s.ms[i].up {
			t := s
			m := &t.ms[i]
			m.up = true
			if m.db && !Usable(m.marked, 1, 1) {
				drop(&t, i)
			}
			emit(step{act: aRestart, i: i}, t, "")
			continue
		}
		if t, ok := fault(s); ok {
			failMachine(&t, i)
			emit(step{act: aFail, i: i, fault: true}, t, "")
		}
	}

	// The controller.
	if s.phase != Idle {
		if t, ok := fault(s); ok {
			if Driven(t.copyOf()) {
				t.phase = Aborted
			}
			t.killed = true
			emit(step{act: aKill, fault: true}, t, "")
		}
	}
	if s.killed {
		t := s
		t.killed = false
		if t.rec == Running && !Driven(t.copyOf()) {
			t.rec = Idle
		}
		emit(step{act: aTakeover}, t, "")
	}

	// The recovery: a database below two replicas gets a copy.
	if s.phase == Idle && s.nreps == 1 {
		for i := uint8(0); i < nm; i++ {
			if m := s.ms[i]; m.up && !s.isReplica(i) {
				t := s
				t.phase, t.src, t.tgt, t.created, t.tables = Running, s.reps[0], i, false, [nt]Table{}
				fast := m.db && Usable(m.marked, 1, 1)
				if fast {
					marks := map[string]uint64{}
					for tb := range m.marks {
						marks[fmt.Sprint(tb)] = uint64(m.marks[tb])
					}
					for tb := range t.tables {
						t.tables[tb] = Start(marks, fmt.Sprint(tb), uint64(s.seq[tb]))
					}
				}
				t.ms[i].marked, t.ms[i].marks = false, [nt]uint8{}
				t.rec, t.recSrc, t.recTgt = Running, t.src, t.tgt
				v := uint8(0)
				if fast {
					v = 1
				}
				emit(step{act: aStart, i: i, v: v}, t, "")
			}
		}
	}

	if s.phase != Idle {
		driverSteps(s, b, fault, emit)
	}
}

// failMachine is FailMachine: machine i leaves the replica set with marks,
// the record of a copy it is an end of is retired, and the copy aborts.
func failMachine(t *state, i uint8) {
	m := &t.ms[i]
	if t.isReplica(i) {
		m.marked, m.marks = true, t.seq
		var reps [nm]uint8
		n := uint8(0)
		for _, r := range t.reps[:t.nreps] {
			if r != i {
				reps[n] = r
				n++
			}
		}
		t.reps, t.nreps = reps, n
	}
	m.up = false
	if i == t.src {
		t.held = 0 // the dump's locks die with the source's engine
	}
	if t.rec == Running && (t.recSrc == i || t.recTgt == i) {
		t.rec = Idle
	}
	if Fails(t.copyOf(), machineNames[i]) {
		t.phase = Aborted
	}
	lose(t, i)
}

// lose aborts the writes whose branch on machine i died before they
// committed.
func lose(t *state, i uint8) {
	for w := range t.ws[:t.n] {
		if tw := &t.ws[w]; tw.phase == wRan && tw.targets&(1<<i) != 0 {
			tw.phase = wAborted
		}
	}
}

// drop is Machine.dropDatabase: a live machine drops its copy, and any
// machine its marks.
func drop(t *state, i uint8) {
	m := &t.ms[i]
	if m.up {
		m.db, m.has, m.set = false, [nt]bool{}, [nt]uint8{}
		lose(t, i)
	}
	m.marked, m.marks = false, [nt]uint8{}
}

// abandon starts the driver's one abandon path: the copy aborts, its dump
// (if one runs) ends and lets go of its locks, and abandonSteps takes it on.
func abandon(t *state) {
	t.phase, t.abandon, t.proposed = Aborted, aRetire, false
	t.imaged, t.held, t.image = 0, 0, [nt]uint8{}
}

// abandonSteps emits the abandon's next step.
func abandonSteps(s state, emit func(step, state, string)) {
	t := s
	switch s.abandon {
	case aRetire:
		t.rec, t.abandon = Idle, aDrop
	case aDrop:
		drop(&t, s.tgt)
		t.abandon = aClear
	case aClear:
		t.idle()
	}
	emit(step{act: s.abandon}, t, "")
}

// driverSteps emits the copy driver's next step.
func driverSteps(s state, b before, fault func(state) (state, bool), emit func(step, state, string)) {
	if s.abandon != 0 {
		abandonSteps(s, emit)
		return
	}
	src, tgt := &s.ms[s.src], &s.ms[s.tgt]
	if !s.created {
		t := s
		if !Driven(s.copyOf()) || !tgt.up {
			abandon(&t)
			emit(step{act: aAbandon}, t, "")
			return
		}
		t.created, t.ms[s.tgt].db = true, true
		emit(step{act: aCreate}, t, "")
		return
	}
	for tb := uint8(0); tb < nt; tb++ {
		p, imaged := s.tables[tb], s.imaged&(1<<tb) != 0
		if p == Copied && !imaged {
			continue
		}
		t := s
		switch {
		case p == Pending:
			next, ok := Next(s.phase, p)
			if !ok {
				abandon(&t)
				emit(step{act: aAbandon}, t, "")
				return
			}
			t.tables[tb] = next
			emit(step{act: aInFlight, v: tb}, t, "")
		case p == InFlight && imaged:
			next, ok := Next(s.phase, p)
			if !ok {
				abandon(&t)
				emit(step{act: aAbandon}, t, "")
				return
			}
			t.tables[tb] = next
			emit(step{act: aCopied, v: tb}, t, "")
		case imaged:
			// The apply runs whatever the copy's phase: the dump calls the
			// target from under its locks, and only the next step asks Next.
			if !tgt.up {
				abandon(&t)
				emit(step{act: aAbandon}, t, "")
				return
			}
			t.ms[s.tgt].has[tb], t.ms[s.tgt].set[tb] = true, s.image[tb]
			t.imaged, t.held = s.imaged&^(1<<tb), s.held&^(1<<tb)
			emit(step{act: aApply, v: tb}, t, "")
			if t, ok := fault(t); ok {
				abandon(&t)
				emit(step{act: aApplyLost, v: tb, fault: true}, t, "")
			}
		default: // in flight
			if !Dumpable(s.outstanding(tb)) {
				return // the drain waits
			}
			// The dump takes the source's read locks: a write that ran
			// there holds its write lock until it commits or aborts.
			for _, w := range s.ws[:s.n] {
				if w.phase == wRan && w.table == tb && w.targets&(1<<s.src) != 0 {
					return
				}
			}
			if !src.up || !tgt.up {
				abandon(&t)
				emit(step{act: aAbandon}, t, "")
				return
			}
			t.image[tb], t.imaged, t.held = src.set[tb], s.imaged|1<<tb, s.held|1<<tb
			emit(step{act: aImage, v: tb}, t, "")
			if t, ok := fault(s); ok {
				abandon(&t)
				emit(step{act: aDumpLost, v: tb, fault: true}, t, "")
			}
		}
		return
	}
	// Registration: the driver's guard, then copy_complete at the state
	// machine, which asks Register of its record if it has one; both under
	// cp.mu.
	t := s
	target := machineNames[s.tgt]
	guard := s.proposed || Register(s.copyOf(), target, tgt.up)
	if b.killMidRegistration && guard && !s.proposed {
		t.proposed = true
		emit(step{act: aGuard}, t, "")
		return
	}
	if !guard || s.rec == Idle || !Register(s.record(), target, tgt.up) {
		abandon(&t)
		emit(step{act: aAbandon}, t, "")
		return
	}
	why := ""
	for tb := 0; tb < nt; tb++ {
		if !tgt.has[tb] || tgt.set[tb] != src.set[tb] {
			why = fmt.Sprintf("at registration, table %d of the target differs from the source's", tb)
		}
	}
	t.reps[t.nreps] = s.tgt
	t.nreps++
	t.rec = Idle
	t.idle()
	emit(step{act: aRegister}, t, why)
}

// TestExplore checks Algorithm 1 over every interleaving of 2 writers with
// up to 2 faults. TestExploreDeep runs a bound deeper.
func TestExplore(t *testing.T) {
	exploreClean(t, 2, 2)
}

// TestExploreDeep is the nightly bound: 3 writers with up to 2 faults and 2
// with up to 3. It runs only when -run names it.
func TestExploreDeep(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Deep") {
		t.Skip("the nightly bound: go test -run TestExploreDeep ./internal/replcopy")
	}
	// Ten million states: collect early rather than let the heap double.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	exploreClean(t, 3, 2)
	exploreClean(t, 2, 3)
}

func exploreClean(t *testing.T, n, k int) {
	t.Helper()
	start := time.Now()
	ex := explore(n, k, before{})
	t.Logf("writers=%d k=%d: %d states in %v", n, k, ex.states, time.Since(start).Round(time.Millisecond))
	if ex.bad != nil {
		t.Fatalf("writers=%d k=%d: %s:\n%s", n, k, ex.why, formatSteps(ex.bad))
	}
}

// TestExploreKillMidRegistration pins what a controller death between the
// driver's guard and copy_complete did while KillLeaderController marked
// the copy aborted without cp.mu: writes stopped reaching the target while
// the record still admitted it, and the target registered without a write
// committed in between. core's TestControllerKillDuringRegistration replays
// the window.
func TestExploreKillMidRegistration(t *testing.T) {
	ex := explore(2, 2, before{killMidRegistration: true})
	want := `  1. fault: m0 fails
  2. m0 restarts
  3. recovery: copy to m0 starts (marks true)
  4. copy: the target's database is created
  5. copy: the driver's guard passes; copy_complete is proposed
  6. fault: the controller driving the copy dies
  7. w0: routed on table 0
  8. w0: runs on its targets
  9. w0: commits
 10. copy: the target registers
`
	if got := formatSteps(ex.bad); got != want {
		t.Errorf("the shortest run (%s):\n%swant:\n%s", ex.why, got, want)
	}
}

// TestDecisionsAllocateNothing holds the package to its promise: the
// decisions core makes on every write and every copy step allocate nothing.
func TestDecisionsAllocateNothing(t *testing.T) {
	marks := map[string]uint64{"a": 1}
	c := Copy{Phase: Running, Source: "m0", Target: "m2"}
	allocs := testing.AllocsPerRun(100, func() {
		_ = WriteRoute(c.Phase, Copied)
		next, _ := Next(c.Phase, Pending)
		_, _ = Next(c.Phase, next)
		_ = Dumpable(0) && Fails(c, "m1") && Driven(c) && Register(c, "m2", true)
		_ = Start(marks, "a", 1) == Copied && Usable(true, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per decision round, want 0", allocs)
	}
}

// TestExploreStaleTableWrite pins what a write did while core reported a
// table missing on a machine that is no replica as a schema error: a copy
// images table 0, a write is routed to the source and the target, and the
// source fails and restarts before the write reaches it. The source's
// failure aborts the copy and its lock dies with it, so the write runs on
// the target before the image is applied there and finds the database
// without its table. core's TestStaleTargetWriteRetries replays a write
// meeting a target without its table through a copy abandoned and a next
// copy to its target.
func TestExploreStaleTableWrite(t *testing.T) {
	ex := explore(2, 2, before{noTableFatal: true})
	want := `  1. fault: m0 fails
  2. recovery: copy to m2 starts (marks false)
  3. copy: the target's database is created
  4. copy: table 0 in flight
  5. copy: table 0 imaged under its read lock
  6. copy: table 0 copied
  7. w0: routed on table 0
  8. fault: m1 fails
  9. m1 restarts
 10. w0: runs on its targets
`
	if got := formatSteps(ex.bad); got != want {
		t.Errorf("the shortest run (%s):\n%swant:\n%s", ex.why, got, want)
	}
}
