package replcopy

import (
	"flag"
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// The explorer: a breadth-first search over every interleaving of
// Algorithm 1 copies, their writers and their faults. It drives WriteRoute,
// Stale, Rest, Next, Fails, Driven, Register, Start and Usable — the
// functions core calls at each site — and models only what core does around
// them: a write's head share and the rest, the dump under the source's read
// locks, the control state machine's copy record, and machines that fail
// and restart.
//
// The cluster has three machines and one database of two tables, hosted by
// m0 and m1 and kept at two replicas: when one is lost, a recovery copies
// from the head to a live machine, catching a restarted one up from its
// failure-time marks. Each writer writes one table once, in four steps, as
// core's execWrite does. Its route rejects it on a table in flight (line
// 11) and otherwise notes the replica set, head first. Its head share runs
// on that head and holds the table's lock there until the write commits or
// aborts; the head refusing it (down, or without the table) aborts it.
// Then the rest is settled, under the cluster mutex: the write aborts as a
// stale route if its head is no longer the replica set's (Stale), and
// otherwise goes to Rest's machines, and only now counts in its table's
// routed-write counter. Then it runs there, and commits or aborts; a
// table's committed contents are the set of its committed write IDs. A
// share that runs on a machine that is down aborts the write, and so does
// one that finds the database or the table missing on a machine that is no
// replica: core reports a stale route.
//
// A copy runs core's steps: copy_begin, create the database on the target
// (unless the copy is no longer Driven), then per table — or, at database
// granularity, for every table at once — in flight, imaged under the
// source's read locks, copied, and applied one table at a time; then the
// registration, which holds cp.mu from the driver's guard to copy_complete,
// so no fault falls between them. The image waits for every write that
// holds the table's lock at the source, which is the head; from the image
// to the last apply the dump's lock holds every share on the table there,
// until the source fails and the lock goes with it. Any error abandons the
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
//   - no write is sent to a target that lacks its table, unless its image
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
	wIdle   uint8 = iota
	wRouted       // routed: its route and head are noted
	wHead         // its head share ran and holds the table's lock at the head
	wRest         // its rest is settled and counted
	wRan          // it ran on the rest too
	wCommitted
	wAborted
	wRejected
)

type machine struct {
	up, db, marked bool
	has            [nt]bool
	set            [nt]uint8 // committed write IDs, one bit per writer
	marks          [nt]uint8 // each table's write counter when it failed
}

type writer struct {
	phase, table uint8
	head         uint8 // the replica set's head when it was routed
	route        uint8 // the replica set when it was routed, one bit per machine
	targets      uint8 // where it runs: its head from the head share on, the rest once settled
}

// holds says whether w holds its table's lock on machine j.
func (w writer) holds(j uint8) bool {
	switch w.phase {
	case wHead, wRest:
		return w.head == j
	case wRan:
		return w.targets&(1<<j) != 0
	}
	return false
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
	held     uint8     // tables the dump still read-locks at the source
	image    [nt]uint8 // each imaged table's image: its committed write IDs at the source
	created  bool
	proposed bool  // the driver's guard passed and copy_complete is proposed (before.killMidRegistration)
	killed   bool  // a controller died; the new leader's takeover is pending
	abandon  uint8 // the abandon's next step, an index into abandonSteps: 0 none
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

func (s *state) isReplica(i uint8) bool { return slices.Contains(s.reps[:s.nreps], i) }

func (s *state) mask() (m uint8) {
	for _, r := range s.reps[:s.nreps] {
		m |= 1 << r
	}
	return m
}

// waits says whether a share of a write on table tb running on machine j
// waits for the dump's read lock.
func (s *state) waits(tb, j uint8) bool {
	return s.held&(1<<tb) != 0 && j == s.src
}

// batch is the tables the copy's current copyTables call moves: the first
// table it has not copied and applied, or at database granularity all of
// them.
func (s *state) batch(db bool) (b uint8) {
	for tb := uint8(0); tb < nt; tb++ {
		if s.tables[tb] != Copied || s.imaged&(1<<tb) != 0 {
			b |= 1 << tb
			if !db {
				break
			}
		}
	}
	return b
}

// inPhase is the tables of mask b in phase p.
func (s *state) inPhase(b uint8, p Table) (in uint8) {
	for tb := uint8(0); tb < nt; tb++ {
		if b&(1<<tb) != 0 && s.tables[tb] == p {
			in |= 1 << tb
		}
	}
	return in
}

// step is one transition; String renders it.
type step struct {
	act, i, v uint8
	fault     bool
}

// Step actions.
const (
	aRoute uint8 = iota
	aHead
	aRest
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

// tableNames renders a mask of tables.
func tableNames(b uint8) string {
	if b == 1<<nt-1 {
		return "tables 0 and 1"
	}
	return fmt.Sprintf("table %d", bits.TrailingZeros8(b))
}

func (s step) String() string {
	m := machineNames[s.i%nm]
	tbl := tableNames(s.v)
	what := map[uint8]string{
		aRoute:     fmt.Sprintf("w%d: routed on table %d", s.i, s.v),
		aHead:      fmt.Sprintf("w%d: its head share runs", s.i),
		aRest:      fmt.Sprintf("w%d: its rest is settled", s.i),
		aRun:       fmt.Sprintf("w%d: runs on the rest", s.i),
		aCommit:    fmt.Sprintf("w%d: commits", s.i),
		aAbort:     fmt.Sprintf("w%d: aborts", s.i),
		aFail:      m + " fails",
		aRestart:   m + " restarts",
		aKill:      "the controller driving the copy dies",
		aTakeover:  "the new leader's takeover",
		aStart:     fmt.Sprintf("recovery: copy to %s starts (marks %v)", m, s.v == 1),
		aCreate:    "copy: the target's database is created",
		aInFlight:  "copy: " + tbl + " in flight",
		aImage:     "copy: " + tbl + " imaged under the read lock",
		aCopied:    "copy: " + tbl + " copied",
		aApply:     "copy: " + tbl + " applied",
		aDumpLost:  "copy: the dump of " + tbl + " is lost",
		aApplyLost: "copy: " + tbl + " applied, its answer lost",
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

// bound is what one exploration covers: its writers, its fault budget, the
// copy's granularity, and the mended fault it replays.
type bound struct {
	writers, faults int
	db              bool // database granularity: one step moves every table
	before
}

func initial(b bound) state {
	s := state{faults: uint8(b.faults), n: uint8(b.writers), nreps: 2, reps: [nm]uint8{0, 1}}
	for i := range s.ms {
		s.ms[i].up = true
	}
	for _, i := range s.reps[:2] {
		s.ms[i].db, s.ms[i].has = true, [nt]bool{true, true}
	}
	return s
}

// explore searches every interleaving within b. The queue holds one search
// level at a time, and the seen set holds every state packed into a key:
// the deep bound's states would not fit twice, nor unpacked.
func explore(b bound) *exploration {
	init := initial(b)
	level := []state{init}
	parent, via := []int32{-1}, []step{{}}
	seen := map[key]struct{}{init.key(): {}}
	ex := &exploration{}
	path := func(at int32) []step {
		var steps []step
		for ; at > 0; at = parent[at] {
			steps = append(steps, via[at])
		}
		slices.Reverse(steps)
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
				k := t.key()
				if _, ok := seen[k]; !ok {
					seen[k] = struct{}{}
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

// key is a state packed into 128 bits.
type key [2]uint64

// key packs s; n is the same in every state of one exploration.
func (s *state) key() key {
	var p packer
	p.put(s.faults, 2)
	for _, m := range s.ms {
		p.put(b2u(m.up)|b2u(m.db)<<1|b2u(m.marked)<<2|b2u(m.has[0])<<3|b2u(m.has[1])<<4, 5)
		p.put(m.set[0]|m.set[1]<<maxWrites, 2*maxWrites)
		p.put(m.marks[0]|m.marks[1]<<2, 4)
	}
	p.put(s.reps[0]|s.reps[1]<<2|s.reps[2]<<4|s.nreps<<6, 8)
	p.put(s.seq[0]|s.seq[1]<<2, 4)
	for _, w := range s.ws[:s.n] {
		// A field no later step reads is left out, so states that differ
		// only in it are one state.
		switch w.phase {
		case wRouted, wHead: // a head share's targets are its head
			p.put(w.phase|w.table<<3|w.head<<4, 6)
			p.put(w.route, 2*nm)
		case wRest:
			p.put(w.phase|w.table<<3|w.head<<4, 6)
			p.put(w.targets, 2*nm)
		case wRan:
			p.put(w.phase|w.table<<3, 6)
			p.put(w.targets, 2*nm)
		default:
			p.put(w.phase|w.table<<3, 6+2*nm)
		}
	}
	p.put(uint8(s.phase)|s.src<<2|s.tgt<<4, 6)
	p.put(uint8(s.tables[0])|uint8(s.tables[1])<<2|s.imaged<<4|s.held<<6, 8)
	for tb := range s.image {
		if s.imaged&(1<<tb) != 0 {
			p.put(s.image[tb], maxWrites)
		} else {
			p.put(0, maxWrites)
		}
	}
	p.put(b2u(s.created)|b2u(s.proposed)<<1|b2u(s.killed)<<2|s.abandon<<3, 5)
	if s.rec == Idle {
		p.put(0, 6)
	} else {
		p.put(uint8(s.rec)|s.recSrc<<2|s.recTgt<<4, 6)
	}
	if p.n > 128 {
		panic(fmt.Sprintf("a state packs into %d bits", p.n))
	}
	return p.k
}

// packer appends bit fields to a key.
type packer struct {
	k key
	n uint
}

func (p *packer) put(v uint8, width uint) {
	w, off := p.n/64, p.n%64
	p.k[w] |= uint64(v) << off
	if off+width > 64 {
		p.k[w+1] |= uint64(v) >> (64 - off)
	}
	p.n += width
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
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
func successors(s state, b bound, emit func(step, state, string)) {
	fault := func(t state) (state, bool) {
		t.faults--
		return t, s.faults > 0
	}
	for i := uint8(0); i < s.n; i++ {
		writerSteps(s, b, i, emit)
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
				emit(step{act: aStart, i: i, v: b2u(fast)}, t, "")
			}
		}
	}

	if s.phase != Idle {
		driverSteps(s, b, fault, emit)
	}
}

// writerSteps emits writer i's next step: execWrite's route, head share,
// rest and run, then the commit or abort.
func writerSteps(s state, b bound, i uint8, emit func(step, state, string)) {
	w := s.ws[i]
	t, why := s, ""
	tw := &t.ws[i]
	switch w.phase {
	case wIdle:
		for tb := uint8(0); tb < nt; tb++ {
			t := s
			tw := &t.ws[i]
			tw.table = tb
			switch {
			case s.nreps == 0:
				tw.phase = wAborted
			case WriteRoute(s.phase, s.tables[tb]) == Reject:
				tw.phase = wRejected
			default:
				tw.phase, tw.head, tw.route = wRouted, s.reps[0], s.mask()
			}
			emit(step{act: aRoute, i: i, v: tb}, t, "")
		}
	case wRouted:
		if s.waits(w.table, w.head) {
			return // it waits at the head for the dump's read lock
		}
		// The head share; one the head refuses is sent nowhere else.
		tw.phase, tw.targets = wHead, 1<<w.head
		if h := s.ms[w.head]; !h.up || !h.db || !h.has[w.table] {
			tw.phase, tw.targets = wAborted, 0
		}
		emit(step{act: aHead, i: i}, t, "")
	case wHead:
		var rb, db [nm]uint8
		route := append(rb[:0], w.head)
		for j := uint8(0); j < nm; j++ {
			if w.route&(1<<j) != 0 && j != w.head {
				route = append(route, j)
			}
		}
		reps := s.reps[:s.nreps]
		if Stale(w.head, reps) {
			tw.phase = wAborted
			emit(step{act: aRest, i: i}, t, "")
			return
		}
		for _, j := range Rest(db[:0], route, reps, s.phase, s.tables[w.table], s.tgt) {
			tw.targets |= 1 << j
		}
		if WriteRoute(s.phase, s.tables[w.table]) == WithTarget && !s.ms[s.tgt].has[w.table] && s.held&(1<<w.table) == 0 {
			why = "a write is sent to a target that lacks its table"
		}
		tw.phase = wRest
		t.seq[w.table]++
		emit(step{act: aRest, i: i}, t, why)
	case wRest:
		tw.phase = wRan
		for j := uint8(0); j < nm; j++ {
			m := s.ms[j]
			switch {
			case j == w.head || w.targets&(1<<j) == 0:
			case s.waits(w.table, j):
				return // it waits for the dump's read lock
			case m.up && m.db && m.has[w.table]:
			case m.up && m.db && s.isReplica(j):
				why = fmt.Sprintf("replica %s lacks table %d", machineNames[j], w.table)
			case m.up && m.db && b.noTableFatal:
				why = fmt.Sprintf("a write finds %s's database without table %d: a schema error", machineNames[j], w.table)
			default:
				tw.phase = wAborted
			}
		}
		emit(step{act: aRun, i: i}, t, why)
	case wRan:
		tw.phase = wCommitted
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
		if tw := &t.ws[w]; tw.holds(i) {
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

// abandonSteps are the abandon's steps, in order, after the copy aborts.
var abandonSteps = [...]uint8{1: aRetire, aDrop, aClear}

// abandon starts the driver's one abandon path: the copy aborts, its dump
// (if one runs) ends and lets go of its locks, and abandonStep takes it on.
func abandon(t *state) {
	t.phase, t.abandon, t.proposed = Aborted, 1, false
	t.imaged, t.held, t.image = 0, 0, [nt]uint8{}
}

// abandonStep emits the abandon's next step.
func abandonStep(s state, emit func(step, state, string)) {
	t := s
	t.abandon++
	switch abandonSteps[s.abandon] {
	case aRetire:
		t.rec = Idle
	case aDrop:
		drop(&t, s.tgt)
	case aClear:
		t.idle()
	}
	emit(step{act: abandonSteps[s.abandon]}, t, "")
}

// driverSteps emits the copy driver's next step.
func driverSteps(s state, b bound, fault func(state) (state, bool), emit func(step, state, string)) {
	if s.abandon != 0 {
		abandonStep(s, emit)
		return
	}
	src, tgt := &s.ms[s.src], &s.ms[s.tgt]
	t := s
	abandoned := func() {
		abandon(&t)
		emit(step{act: aAbandon}, t, "")
	}
	if !s.created {
		if !Driven(s.copyOf()) || !tgt.up {
			abandoned()
			return
		}
		t.created, t.ms[s.tgt].db = true, true
		emit(step{act: aCreate}, t, "")
		return
	}
	// next moves the tables of mask in one step, or abandons the copy.
	next := func(mask uint8, act uint8) {
		for tb := uint8(0); tb < nt; tb++ {
			if mask&(1<<tb) == 0 {
				continue
			}
			p, ok := Next(s.phase, s.tables[tb])
			if !ok {
				abandoned()
				return
			}
			t.tables[tb] = p
		}
		emit(step{act: act, v: mask}, t, "")
	}
	batch := s.batch(b.db)
	switch {
	case batch == 0:
		register(s, b, emit)
	case s.inPhase(batch, Pending) != 0:
		next(s.inPhase(batch, Pending), aInFlight)
	case s.imaged&batch == 0:
		// The dump takes the source's read locks: a write that holds one of
		// the tables' locks there holds it until it commits or aborts.
		for _, w := range s.ws[:s.n] {
			if batch&(1<<w.table) != 0 && w.holds(s.src) {
				return
			}
		}
		if !src.up || !tgt.up {
			abandoned()
			return
		}
		for tb := uint8(0); tb < nt; tb++ {
			if batch&(1<<tb) != 0 {
				t.image[tb] = src.set[tb]
			}
		}
		t.imaged, t.held = batch, batch
		emit(step{act: aImage, v: batch}, t, "")
		if t, ok := fault(s); ok {
			abandon(&t)
			emit(step{act: aDumpLost, v: batch, fault: true}, t, "")
		}
	case s.inPhase(batch, InFlight) != 0:
		next(s.inPhase(batch, InFlight), aCopied)
	default:
		// The apply runs whatever the copy's phase: the dump calls the
		// target from under its locks, and only the next step asks Next.
		// The dump lets go of its locks after the last apply.
		if !tgt.up {
			abandoned()
			return
		}
		tb := uint8(bits.TrailingZeros8(s.imaged))
		t.ms[s.tgt].has[tb], t.ms[s.tgt].set[tb] = true, s.image[tb]
		if t.imaged &^= 1 << tb; t.imaged == 0 {
			t.held = 0
		}
		emit(step{act: aApply, v: 1 << tb}, t, "")
		if t, ok := fault(t); ok {
			abandon(&t)
			emit(step{act: aApplyLost, v: 1 << tb, fault: true}, t, "")
		}
	}
}

// register emits the registration: the driver's guard, then copy_complete
// at the state machine, which asks Register of its record if it has one;
// both under cp.mu.
func register(s state, b bound, emit func(step, state, string)) {
	t := s
	src, tgt := &s.ms[s.src], &s.ms[s.tgt]
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
// up to 2 faults, at both granularities. TestExploreDeep runs a bound
// deeper.
func TestExplore(t *testing.T) {
	exploreClean(t, bound{writers: 2, faults: 2})
	exploreClean(t, bound{writers: 2, faults: 2, db: true})
}

// TestExploreDeep is the nightly bound: 3 writers with up to 2 faults and 2
// with up to 3, at table granularity, and 2 with up to 3 at database
// granularity. It runs only when -run names it.
func TestExploreDeep(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Deep") {
		t.Skip("the nightly bound: go test -run TestExploreDeep ./internal/replcopy")
	}
	// Tens of millions of states: collect early rather than let the heap
	// double.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	exploreClean(t, bound{writers: 3, faults: 2})
	exploreClean(t, bound{writers: 2, faults: 3})
	exploreClean(t, bound{writers: 2, faults: 3, db: true})
}

func exploreClean(t *testing.T, b bound) {
	t.Helper()
	start := time.Now()
	ex := explore(b)
	at := fmt.Sprintf("writers=%d k=%d database=%v", b.writers, b.faults, b.db)
	t.Logf("%s: %d states in %v", at, ex.states, time.Since(start).Round(time.Millisecond))
	if ex.bad != nil {
		t.Fatalf("%s: %s:\n%s", at, ex.why, formatSteps(ex.bad))
	}
}

// TestExploreKillMidRegistration pins what a controller death between the
// driver's guard and copy_complete did while KillLeaderController marked
// the copy aborted without cp.mu: writes stopped reaching the target while
// the record still admitted it, and the target registered without a write
// committed in between. core's TestControllerKillDuringRegistration replays
// the window.
func TestExploreKillMidRegistration(t *testing.T) {
	ex := explore(bound{writers: 2, faults: 2, before: before{killMidRegistration: true}})
	want := `  1. fault: m0 fails
  2. w0: routed on table 0
  3. w0: its head share runs
  4. m0 restarts
  5. recovery: copy to m0 starts (marks true)
  6. copy: the target's database is created
  7. copy: the driver's guard passes; copy_complete is proposed
  8. fault: the controller driving the copy dies
  9. w0: its rest is settled
 10. w0: runs on the rest
 11. w0: commits
 12. copy: the target registers
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
	route, reps := []string{"m0", "m1"}, []string{"m0", "m1"}
	dst := make([]string, 0, 3)
	allocs := testing.AllocsPerRun(100, func() {
		_ = WriteRoute(c.Phase, Copied)
		next, _ := Next(c.Phase, Pending)
		_, _ = Next(c.Phase, next)
		_ = Rest(dst, route, reps, c.Phase, Copied, c.Target)
		_ = Stale("m0", reps) && Fails(c, "m1") && Driven(c) && Register(c, "m2", true)
		_ = Start(marks, "a", 1) == Copied && Usable(true, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per decision round, want 0", allocs)
	}
}

// TestExploreStaleTableWrite pins what a write did while core reported a
// table missing on a machine that is no replica as a schema error: a write's
// rest is settled with a replica that then fails and restarts, a copy to it
// is abandoned and drops its database, and a next copy re-creates the
// database there without the table before the write's share arrives.
// core's TestStaleTargetWriteRetries replays a write meeting a target
// without its table through a copy abandoned and a next copy to its target.
func TestExploreStaleTableWrite(t *testing.T) {
	ex := explore(bound{writers: 2, faults: 2, before: before{noTableFatal: true}})
	want := `  1. w0: routed on table 0
  2. w0: its head share runs
  3. w0: its rest is settled
  4. fault: m1 fails
  5. m1 restarts
  6. recovery: copy to m1 starts (marks true)
  7. fault: the controller driving the copy dies
  8. copy: abandoned; writes stop reaching the target
  9. copy: copy_abort retires the record
 10. copy: the target's copy is dropped
 11. copy: the copy state clears
 12. recovery: copy to m1 starts (marks false)
 13. copy: the target's database is created
 14. w0: runs on the rest
`
	if got := formatSteps(ex.bad); got != want {
		t.Errorf("the shortest run (%s):\n%swant:\n%s", ex.why, got, want)
	}
}
