package twopc

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The explorer: a breadth-first search over every interleaving of one
// transaction's commit round. It drives Step, Recovered, Coordinator and
// Verdict — the functions sqldb and core call at each site — and
// models only the transport between them: messages that may be lost, and
// machines that may crash and restart.
//
// The round has n participants whose branches have written, one
// coordinator, and three resolutions: the new leader's sweep after a
// failover (core's resolveAll), a restarted participant's (RestartMachine)
// and the coordinator's own when its commit phase left branches undecided
// (settle). Each fault costs one from a budget k: a participant crash, a
// lost request, a lost reply, a lost resolver call, a wound by DDL, the
// coordinator's deposition (its lease ends and a failover's sweep starts)
// and, where asked for, its death. A crashed participant restarts; that is
// not a fault.
//
// It checks three properties:
//   - atomicity: no branch commits while another rolls back, and no client
//     told "aborted" sees the transaction commit;
//   - "acknowledged ⇒ some log holds a durable commit frame": when the
//     client hears "committed", some participant's log holds the frame;
//   - liveness: once no step but a fault is left, every branch is decided
//     and the coordinator, if alive, has answered.
//
// A violation comes back as the shortest step list that reaches it; its
// steps name the calls core and sqldb make, so a targeted core test can
// replay it (TestDeadCoordinatorLeavesPreparedBranch in core does).

const maxParts = 3

// Message kinds, coordinator to participant.
const (
	kindPrepare uint8 = iota + 1
	kindCommit
	kindRollback
)

// errLost is a coordinator's failed answer: a NO vote, or a COMMIT not
// acknowledged.
var errLost = errors.New("no answer")

var kindNames = [...]string{kindPrepare: "PREPARE", kindCommit: "COMMIT", kindRollback: "ROLLBACK"}

// Message stages.
const (
	msgIdle uint8 = iota
	msgInFlight
	msgAnswered
)

// msg is the coordinator's message to one participant in its current phase,
// and the answer. It travels on the transaction's session, which began in
// the participant's first incarnation: after a crash it reaches no branch.
type msg struct {
	kind, stage uint8
	ok, ran     bool // the answer: acknowledged (a yes vote), else whether it may have run
}

// part is one participant: its branch, its log and its history.
type part struct {
	b        Branch
	up       bool
	crashed  bool // it crashed since the session began
	prepared bool // its prepare frame is durable
	commit   bool // its commit frame is durable
	aborted  bool // its forced abort frame is durable
	byGID    bool // a re-instated branch logged the commit or abort frame, under the gid alone
	undone   bool // its branch was rolled back, or lost unprepared in a crash
	doomRun  bool // a wound's rollback is pending
}

// Resolver phases.
const (
	rIdle uint8 = iota
	rListing
	rClaiming
	rReading
	rApplying
	rDone
)

// Resolutions.
const (
	sweep   = iota // the new leader's, after a failover
	restart        // a restarted participant's
	settle         // the coordinator's own
)

var resolverNames = [...]string{"sweep", "restart", "settle"}

// resolver is one resolution: a sequence of attempts, each claiming,
// reading and applying one machine at a time.
type resolver struct {
	phase, at uint8
	found     bool  // the sweep listed a prepared branch
	claimed   uint8 // participants whose claim answered "prepared", one bit each
	applyErr  bool  // a verdict could not be delivered
	known     bool  // a commit is known: acknowledged, or a lookup found the frame
	unreached bool  // a claim or a lookup failed
	again     bool  // another resolution is queued behind this one
}

// Coordinator phases.
const (
	cVoting uint8 = iota
	cCommitting
	cSettling
	cDone
	cDead
)

type state struct {
	n, faults uint8
	parts     [maxParts]part
	msgs      [maxParts]msg
	cphase    uint8
	co        Coordinator
	answer    Move // what the client heard once cphase is cDone
	deposed   bool
	rs        [3]resolver
}

// step is one transition, kept small; String renders it.
type step struct {
	actor uint8 // 0 coordinator, 1 controller, 2+i participant i, 10+r resolver r
	act   uint8
	i, v  uint8
	fault bool
}

// Step actions.
const (
	aSend uint8 = iota
	aRefusedDeposed
	aDepose
	aDie
	aDeliver
	aDrop
	aDeliverLost
	aRestart
	aDoomRollback
	aCrash
	aWound
	aList
	aListLost
	aSkipList
	aClaim
	aClaimDropped
	aClaimLost
	aSkipClaim
	aRead
	aReadLost
	aApply
	aApplyDropped
	aApplyLost
)

func (s step) String() string {
	var who string
	switch {
	case s.actor == 0:
		who = "coordinator"
	case s.actor == 1:
		who = "controller"
	case s.actor < 10:
		who = fmt.Sprintf("p%d", s.actor-2)
	default:
		who = "resolver " + resolverNames[s.actor-10]
	}
	p := fmt.Sprintf("p%d", s.i)
	what := map[uint8]string{
		aSend:           kindNames[s.v] + " to " + p + " sent",
		aRefusedDeposed: "COMMIT to " + p + " refused by the lease check",
		aDepose:         "the coordinator's lease ends; the new leader's sweep starts",
		aDie:            "the coordinator dies; the new leader's sweep starts",
		aDeliver:        kindNames[s.v] + " delivered",
		aDrop:           kindNames[s.v] + " dropped",
		aDeliverLost:    kindNames[s.v] + " delivered, its answer lost",
		aRestart:        "restarts: " + State(s.v).String(),
		aDoomRollback:   "the wound's rollback runs",
		aCrash:          "crashes",
		aWound:          "wounded by DDL",
		aList:           "lists " + p + ": " + State(s.v).String(),
		aListLost:       "cannot list " + p,
		aSkipList:       "skips listing " + p + ": failed",
		aClaim:          "claims " + p + ": " + State(s.v).String(),
		aClaimDropped:   "claim on " + p + " dropped",
		aClaimLost:      "claim on " + p + " made, its answer lost",
		aSkipClaim:      "skips the claim on " + p + ": failed",
		aRead:           fmt.Sprintf("reads the log of %s: commit frame %v", p, s.v == 1),
		aReadLost:       "cannot read the log of " + p,
		aApply:          "delivers " + State(s.v).String() + " to " + p,
		aApplyDropped:   "verdict to " + p + " dropped",
		aApplyLost:      "verdict to " + p + " delivered, its answer lost",
	}[s.act]
	if s.fault {
		return "fault: " + who + ": " + what
	}
	return who + ": " + what
}

func formatSteps(steps []step) string {
	var b strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s)
	}
	return b.String()
}

// exploration is the outcome of one search.
type exploration struct {
	states    int
	safety    []step // the shortest path to a safety violation
	safetyWhy string
	// live[s] is the shortest path to a state with no step but faults left
	// where some branch ends in state s (Active or Prepared), or where the
	// live coordinator never answered (Committed).
	live map[State][]step
}

// explore searches every interleaving of n participants with up to k
// faults; with coordinatorDeath the coordinator may die.
func explore(n, k int, coordinatorDeath bool) *exploration {
	init := state{n: uint8(n), faults: uint8(k)}
	for i := 0; i < n; i++ {
		init.parts[i].up = true
	}
	// keys is the breadth-first queue, each state packed into 16 bytes, and
	// with parent and via the tree every counterexample is read back from.
	keys := []key{pack(&init)}
	parent, via := []int32{-1}, []step{{}}
	index := map[key]int32{keys[0]: 0}
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
	ex := &exploration{live: map[State][]step{}}
	for head := int32(0); int(head) < len(keys) && ex.safety == nil; head++ {
		s := unpack(keys[head])
		progress := false
		successors(s, coordinatorDeath, func(st step, t state) {
			progress = progress || !st.fault
			k := pack(&t)
			if _, ok := index[k]; ok || ex.safety != nil {
				return
			}
			at := int32(len(keys))
			index[k] = at
			keys, parent, via = append(keys, k), append(parent, head), append(via, st)
			if why := violated(&t); why != "" {
				ex.safety, ex.safetyWhy = path(at), why
			}
		})
		if what, ok := undecided(&s); ok && !progress && ex.live[what] == nil {
			ex.live[what] = path(head)
		}
	}
	ex.states = len(keys)
	return ex
}

// key is a state packed into 111 bits.
type key [2]uint64

// codec packs a state into a key, or unpacks one, a field at a time.
type codec struct {
	k      key
	off    uint
	unpack bool
}

// u8 moves one field of the given width between v and the key.
func (c *codec) u8(v *uint8, bits uint) {
	w, o := c.off/64, c.off%64
	if c.unpack {
		x := c.k[w] >> o
		if o+bits > 64 {
			x |= c.k[w+1] << (64 - o)
		}
		*v = uint8(x & (1<<bits - 1))
	} else {
		c.k[w] |= uint64(*v) << o
		if o+bits > 64 {
			c.k[w+1] |= uint64(*v) >> (64 - o)
		}
	}
	c.off += bits
}

func (c *codec) flag(b *bool) {
	v := uint8(0)
	if *b {
		v = 1
	}
	c.u8(&v, 1)
	*b = v == 1
}

// fields moves every field of s, in a fixed order.
func (c *codec) fields(s *state) {
	c.u8(&s.n, 2)
	c.u8(&s.faults, 3)
	for i := range s.parts {
		p := &s.parts[i]
		st := uint8(p.b.State)
		c.u8(&st, 2)
		p.b.State = State(st)
		for _, b := range [...]*bool{&p.b.Claimed, &p.b.Doomed, &p.up, &p.crashed, &p.prepared, &p.commit, &p.aborted, &p.byGID, &p.undone, &p.doomRun} {
			c.flag(b)
		}
	}
	for i := range s.msgs {
		m := &s.msgs[i]
		c.u8(&m.kind, 2)
		c.u8(&m.stage, 2)
		c.flag(&m.ok)
		c.flag(&m.ran)
	}
	c.u8(&s.cphase, 3)
	failed := s.co.Err != nil
	for _, b := range [...]*bool{&failed, &s.co.acked, &s.co.unsure, &s.deposed} {
		c.flag(b)
	}
	s.co.Err = nil
	if failed {
		s.co.Err = errLost
	}
	answer := uint8(s.answer)
	c.u8(&answer, 5)
	s.answer = Move(answer)
	for i := range s.rs {
		r := &s.rs[i]
		c.u8(&r.phase, 3)
		c.u8(&r.at, 2)
		c.u8(&r.claimed, 3)
		for _, b := range [...]*bool{&r.found, &r.applyErr, &r.known, &r.unreached, &r.again} {
			c.flag(b)
		}
	}
}

func pack(s *state) key {
	var c codec
	c.fields(s)
	return c.k
}

func unpack(k key) (s state) {
	c := codec{k: k, unpack: true}
	c.fields(&s)
	return s
}

// violated names the safety property t breaks, or "".
func violated(t *state) string {
	committed, undone := false, false
	for i := 0; i < int(t.n); i++ {
		committed = committed || t.parts[i].commit
		undone = undone || t.parts[i].undone
	}
	switch {
	case committed && undone:
		return "atomicity: one branch committed and another rolled back"
	case t.answer&Acknowledge != 0 && !committed:
		return `acknowledged: the client heard "committed" and no log holds the commit frame`
	case t.cphase == cDone && t.answer&(Acknowledge|Unsure) == 0 && committed:
		return `atomicity: the client heard "aborted" and a branch committed`
	}
	return ""
}

// undecided says how a state falls short of liveness if nothing but a
// fault is left to happen in it: a branch left Active or Prepared, or
// (Committed) a live coordinator that never answered.
func undecided(s *state) (State, bool) {
	for i := 0; i < int(s.n); i++ {
		if st := s.parts[i].b.State; st == Active || st == Prepared {
			return st, true
		}
	}
	return Committed, s.cphase != cDead && s.cphase != cDone
}

// successors calls emit with every step s can take and the state it leads
// to. Steps that touch only their own process's state (a coordinator's
// decision once its last answer is in, a resolver's verdict) run at once
// after the step before them: they commute with every other process.
func successors(s state, coordinatorDeath bool, emit func(step, state)) {
	n := int(s.n)
	fault := func(t state) (state, bool) {
		t.faults--
		return t, s.faults > 0
	}

	// The coordinator sends its phase's messages in session order; the
	// lease check refuses a COMMIT once the coordinator is deposed.
	if s.cphase == cVoting || s.cphase == cCommitting {
		kind := kindPrepare
		if s.cphase == cCommitting {
			kind = kindCommit
		}
		for i := 0; i < n; i++ {
			if s.msgs[i].stage != msgIdle {
				continue
			}
			t := s
			if kind == kindCommit && t.deposed {
				t.msgs[i] = msg{kind: kind, stage: msgAnswered}
				emit(step{actor: 0, act: aRefusedDeposed, i: uint8(i)}, decide(t))
			} else {
				t.msgs[i] = msg{kind: kind, stage: msgInFlight}
				emit(step{actor: 0, act: aSend, i: uint8(i), v: kind}, t)
			}
			break
		}
	}
	if !s.deposed && s.cphase != cDead {
		if t, ok := fault(s); ok {
			t.deposed = true
			startSweep(&t)
			emit(step{actor: 1, act: aDepose, fault: true}, t)
		}
	}
	if coordinatorDeath && s.cphase != cDead && s.cphase != cDone {
		if t, ok := fault(s); ok {
			t.cphase = cDead
			startSweep(&t)
			emit(step{actor: 1, act: aDie, fault: true}, t)
		}
	}

	// Messages in flight. A lost ROLLBACK is re-delivered in the background
	// (rollbackLater), so only its delivery is a step.
	for i := 0; i < n; i++ {
		m := s.msgs[i]
		if m.stage != msgInFlight {
			continue
		}
		who := uint8(2 + i)
		t := s
		deliver(&t, i, false)
		emit(step{actor: who, act: aDeliver, v: m.kind}, decide(t))
		if t, ok := fault(s); ok && m.kind != kindRollback {
			t.msgs[i] = msg{kind: m.kind, stage: msgAnswered}
			emit(step{actor: who, act: aDrop, v: m.kind, fault: true}, decide(t))
			t, _ = fault(s)
			deliver(&t, i, true)
			emit(step{actor: who, act: aDeliverLost, v: m.kind, fault: true}, decide(t))
		}
	}

	// Participants.
	for i := 0; i < n; i++ {
		p := s.parts[i]
		who := uint8(2 + i)
		if !p.up {
			t := s
			recoverPart(&t, i)
			emit(step{actor: who, act: aRestart, v: uint8(t.parts[i].b.State)}, t)
			continue
		}
		if p.doomRun {
			t := s
			t.parts[i].doomRun = false
			_, _ = apply(&t, i, Abort)
			emit(step{actor: who, act: aDoomRollback}, t)
		}
		if t, ok := fault(s); ok {
			tp := &t.parts[i]
			tp.undone = tp.undone || !tp.prepared && !tp.commit
			tp.up, tp.crashed, tp.doomRun, tp.b = false, true, false, Branch{}
			emit(step{actor: who, act: aCrash, fault: true}, t)
		}
		if p.b.State == Active && !p.b.Doomed {
			if t, ok := fault(s); ok {
				act, _ := apply(&t, i, Wound)
				t.parts[i].doomRun = act == Doom
				emit(step{actor: who, act: aWound, fault: true}, t)
			}
		}
	}

	for r := range s.rs {
		resolverSteps(s, r, fault, emit)
	}
}

// decide runs the coordinator's decision once every answer of its phase is
// in: it folds them into the Coordinator and enters the next phase.
func decide(t state) state {
	if t.cphase != cVoting && t.cphase != cCommitting {
		return t
	}
	for i := 0; i < int(t.n); i++ {
		if t.msgs[i].stage != msgAnswered {
			return t
		}
	}
	var mv Move
	for i := 0; i < int(t.n); i++ {
		var err error
		if !t.msgs[i].ok {
			err = errLost
		}
		if t.cphase == cVoting {
			t.co.Vote(err)
		} else {
			t.co.Ack(err, t.msgs[i].ran)
		}
	}
	if t.cphase == cVoting {
		mv = t.co.Voted()
	} else {
		mv = t.co.Acked()
	}
	t.msgs = [maxParts]msg{}
	switch {
	case mv&SendCommit != 0:
		t.cphase = cCommitting
	case mv&Resolve != 0:
		t.cphase = cSettling
		startResolver(&t, settle, mv&Acknowledge != 0)
	default:
		t.cphase = cDone
		t.answer = mv
	}
	if mv&SendRollback != 0 {
		for i := 0; i < int(t.n); i++ {
			t.msgs[i] = msg{kind: kindRollback, stage: msgInFlight}
		}
	}
	return t
}

// deliver runs message i at its participant; lost says its answer is lost
// on the way back.
func deliver(t *state, i int, lost bool) {
	m := &t.msgs[i]
	if p := &t.parts[i]; !p.up || p.crashed {
		// The machine failed since the session began: the session's
		// branch died with it, and the dead engine's sealed log takes no
		// frame.
		*m = msg{kind: m.kind, stage: msgAnswered}
		return
	}
	ev := [...]Event{kindPrepare: Prepare, kindCommit: CommitPrepared, kindRollback: Rollback}[m.kind]
	_, err := apply(t, i, ev)
	if m.kind == kindCommit {
		err = Redelivered(err)
	}
	*m = msg{kind: m.kind, stage: msgAnswered, ok: err == nil && !lost, ran: lost}
}

// apply steps participant i's branch through ev and logs what the step
// asks for; it returns the step's action and answer.
func apply(t *state, i int, ev Event) (Action, error) {
	p := &t.parts[i]
	b, act, err := Step(p.b, ev)
	p.b = b
	switch act {
	case ForcePrepare:
		p.prepared = true
	case ForceCommit:
		p.commit, p.byGID = true, p.crashed
	case Undo:
		p.undone = true
	case ForceUndo:
		p.undone, p.aborted, p.byGID = true, true, p.crashed
	}
	return act, err
}

// recoverPart restarts participant i from its log: its branch is what
// Recovered makes of the log, and one left in doubt starts the restart's
// resolution.
func recoverPart(t *state, i int) {
	p := &t.parts[i]
	own := Active
	switch {
	case p.commit:
		own = Committed
	case p.aborted:
		own = Aborted
	}
	byGID := Active
	if p.byGID {
		own, byGID = Active, own
	}
	p.up = true
	p.b = Branch{State: Recovered(own, byGID, p.prepared, true)}
	if p.b.State != Prepared {
		return
	}
	if r := &t.rs[restart]; r.phase == rIdle || r.phase == rDone {
		startResolver(t, restart, false)
	} else {
		r.again = true
	}
}

func startSweep(t *state) {
	if t.rs[sweep].phase == rIdle {
		t.rs[sweep] = resolver{phase: rListing}
	}
}

func startResolver(t *state, r int, known bool) {
	t.rs[r] = resolver{phase: rClaiming, known: known}
	advance(t, r)
}

// advance runs resolution r's own steps up to the next one that touches a
// participant: the end of a listing or a claim phase, a lookup made
// needless by a known commit, a participant it did not claim, the verdict.
func advance(t *state, r int) {
	rv := &t.rs[r]
	n := t.n
	for {
		switch {
		case rv.phase == rListing && rv.at == n && rv.found:
			startResolver(t, r, false)
			return
		case rv.phase == rListing && rv.at == n:
			rv.phase = rDone
		case rv.phase == rClaiming && rv.at == n:
			rv.phase, rv.at = rReading, 0
		case rv.phase == rReading && (rv.at == n || rv.known):
			if Verdict(rv.known, rv.unreached) == Prepared {
				attempted(t, r, Prepared)
				continue
			}
			rv.phase, rv.at = rApplying, 0
		case rv.phase == rApplying && rv.at == n:
			attempted(t, r, Verdict(rv.known, rv.unreached))
		case rv.phase == rApplying && rv.claimed&(1<<rv.at) == 0:
			rv.at++
		default:
			return
		}
	}
}

// attempted ends one attempt of resolution r with verdict v (Prepared: it
// could not decide). The coordinator's own first attempt answers its
// client. An attempt that could not reach every machine is retried; else a
// resolution queued behind it starts.
func attempted(t *state, r int, v State) {
	rv := &t.rs[r]
	unreached := rv.unreached || rv.applyErr
	if r == settle && t.cphase == cSettling {
		t.cphase = cDone
		t.answer = t.co.Settled(v == Committed, unreached)
	}
	known := rv.known || v == Committed
	switch {
	case unreached:
		*rv = resolver{phase: rClaiming, known: known, again: rv.again}
	case rv.again:
		*rv = resolver{phase: rClaiming}
	default:
		rv.phase = rDone
	}
}

// resolverSteps emits resolution r's next step: one machine at a time it
// lists (the sweep), claims, reads, then applies its verdict.
func resolverSteps(s state, r int, fault func(state) (state, bool), emit func(step, state)) {
	rv := s.rs[r]
	if rv.phase == rIdle || rv.phase == rDone {
		return
	}
	i := int(rv.at)
	p := s.parts[i]
	at := func(t state, act uint8, v uint8, isFault bool) {
		t.rs[r].at++
		advance(&t, r)
		emit(step{actor: uint8(10 + r), act: act, i: uint8(i), v: v, fault: isFault}, t)
	}
	switch rv.phase {
	case rListing:
		t := s
		if !p.up {
			at(t, aSkipList, 0, false)
			return
		}
		t.rs[r].found = rv.found || p.b.State == Prepared
		at(t, aList, uint8(p.b.State), false)
		if t, ok := fault(s); ok {
			at(t, aListLost, 0, true)
		}
	case rClaiming:
		if !p.up {
			at(s, aSkipClaim, 0, false)
			return
		}
		t := s
		if _, err := apply(&t, i, Claim); err == nil {
			t.rs[r].claimed |= 1 << i
		}
		at(t, aClaim, uint8(p.b.State), false)
		if t, ok := fault(s); ok {
			t.rs[r].unreached = true
			at(t, aClaimDropped, 0, true)
			_, _ = apply(&t, i, Claim)
			at(t, aClaimLost, 0, true)
		}
	case rReading:
		// A failed machine's log survives it: the resolver reads it too.
		t := s
		t.rs[r].known = rv.known || p.commit
		found := uint8(0)
		if p.commit {
			found = 1
		}
		at(t, aRead, found, false)
		if t, ok := fault(s); ok {
			t.rs[r].unreached = true
			at(t, aReadLost, 0, true)
		}
	case rApplying:
		v := Verdict(rv.known, rv.unreached)
		ev := ResolveAbort
		if v == Committed {
			ev = ResolveCommit
		}
		t := s
		if p.up {
			_, _ = apply(&t, i, ev)
		}
		at(t, aApply, uint8(v), false)
		if t, ok := fault(s); ok {
			t.rs[r].applyErr = true
			at(t, aApplyDropped, 0, true)
			if p.up {
				_, _ = apply(&t, i, ev)
				at(t, aApplyLost, 0, true)
			}
		}
	}
}

// TestExplore checks the protocol over every interleaving of 2
// participants with up to k = 3 faults and of 3 with up to k = 2, the
// coordinator alive: no safety violation, and every run decides every
// branch once faults stop. TestExploreDeep runs a bound deeper.
func TestExplore(t *testing.T) {
	exploreClean(t, 2, 3)
	exploreClean(t, 3, 2)
}

// TestExploreDeep is the nightly bound: 2 participants with up to 4 faults
// and 3 with up to 3. It runs only when -run names it.
func TestExploreDeep(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Deep") {
		t.Skip("the nightly bound: go test -run TestExploreDeep ./internal/twopc")
	}
	exploreClean(t, 2, 4)
	exploreClean(t, 3, 3)
}

func exploreClean(t *testing.T, n, k int) {
	t.Helper()
	start := time.Now()
	ex := explore(n, k, false)
	t.Logf("n=%d k=%d: %d states in %v", n, k, ex.states, time.Since(start).Round(time.Millisecond))
	if ex.safety != nil {
		t.Fatalf("n=%d k=%d: %s:\n%s", n, k, ex.safetyWhy, formatSteps(ex.safety))
	}
	for what, steps := range ex.live {
		t.Errorf("n=%d k=%d: liveness: a run ends with a branch %v:\n%s", n, k, what, formatSteps(steps))
	}
}

// TestExploreDeadCoordinator pins the liveness gap of a coordinator that
// dies: nothing is unsafe, but a branch its PREPARE reached after the new
// leader's sweep listed that machine stays prepared with nobody to settle
// it, and one it never reached stays active. core's
// TestDeadCoordinatorLeavesPreparedBranch replays the first on a cluster.
func TestExploreDeadCoordinator(t *testing.T) {
	ex := explore(2, 1, true)
	if ex.safety != nil {
		t.Fatalf("%s:\n%s", ex.safetyWhy, formatSteps(ex.safety))
	}
	for what, want := range map[State]string{
		Prepared: `  1. coordinator: PREPARE to p0 sent
  2. fault: controller: the coordinator dies; the new leader's sweep starts
  3. resolver sweep: lists p0: active
  4. p0: PREPARE delivered
  5. resolver sweep: lists p1: active
`,
		Active: `  1. fault: controller: the coordinator dies; the new leader's sweep starts
  2. resolver sweep: lists p0: active
  3. resolver sweep: lists p1: active
`,
	} {
		if got := formatSteps(ex.live[what]); got != want {
			t.Errorf("the shortest run that leaves a branch %v:\n%swant:\n%s", what, got, want)
		}
	}
}

// TestPackRoundTrips checks that every state of a small search survives
// packing: the search compares states by their packed keys.
func TestPackRoundTrips(t *testing.T) {
	n := 0
	seen := map[key]bool{}
	var walk func(s state, depth int)
	walk = func(s state, depth int) {
		k := pack(&s)
		if got := unpack(k); got != s {
			t.Fatalf("state %+v unpacks as %+v", s, got)
		}
		if seen[k] || depth == 0 {
			return
		}
		seen[k] = true
		n++
		successors(s, true, func(_ step, u state) { walk(u, depth-1) })
	}
	init := state{n: 3, faults: 2}
	for i := range init.parts {
		init.parts[i].up = true
	}
	walk(init, 12)
	t.Logf("%d states round-trip", n)
}

// TestDecisionsAllocateNothing holds the package to its promise: the
// decisions the engine and the controller make on every commit allocate
// nothing.
func TestDecisionsAllocateNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		b, _, _ := Step(Branch{}, Prepare)
		b, _, _ = Step(b, CommitPrepared)
		var co Coordinator
		co.Vote(nil)
		co.Ack(ErrDone, true)
		_ = co.Voted() | co.Acked() | co.Settled(false, true)
		_ = Recovered(Active, Verdict(b.State == Committed, false), true, true)
		_ = Redelivered(ErrDone)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per commit round, want 0", allocs)
	}
}
