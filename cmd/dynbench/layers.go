package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// Layer-table rows, in print order. Each is the self time of one layer:
// its span's duration minus the part its child spans cover.
const (
	rowUnroll    = "core.unroll"
	rowEncode    = "encode.initial"
	rowDIPSolve  = "sat.dip_solve"
	rowOracle    = "oracle.session"
	rowBetween   = "satattack.between_dips"
	rowFinal     = "satattack.final_solve"
	rowExtract   = "sat.extract"
	rowEnumerate = "sat.enumerate"
	rowRefine    = "core.refine"
	rowVerify    = "core.verify"
	rowJobExtra  = "daemon.job_overhead"
)

var rowOrder = []string{rowUnroll, rowEncode, rowDIPSolve, rowOracle, rowBetween, rowFinal,
	rowExtract, rowEnumerate, rowRefine, rowVerify, rowJobExtra}

// satRows are the rows spent inside solver calls.
var satRows = []string{rowDIPSolve, rowFinal, rowExtract, rowEnumerate}

// stageRow maps an attack stage span (internal/trace names) to its row.
var stageRow = map[string]string{
	"unroll":    rowUnroll,
	"encode":    rowEncode,
	"extract":   rowExtract,
	"enumerate": rowEnumerate,
	"refine":    rowRefine,
	"verify":    rowVerify,
}

// layerTable accumulates the traced rounds of a run. Rows hold self
// seconds summed over every traced attack; lanes attacks run at once, so
// the rows divided by lanes plus other equal the traced wall time.
type layerTable struct {
	lanes   int
	wall    float64
	attacks int
	rows    map[string]float64
	// dipLoop sums the dip_loop stage, the parent of several rows.
	dipLoop float64
	// sessionUS holds every timed oracle session, in microseconds.
	sessionUS []float64
	// stats sums the solver counters of the traced attacks.
	stats sat.Stats
}

func newLayerTable(lanes int) *layerTable {
	return &layerTable{lanes: lanes, rows: make(map[string]float64)}
}

// other is the traced wall time no layer row accounts for: per-attack
// bookkeeping between stages, idle lanes and the benchmark's own loop.
func (t *layerTable) other() float64 {
	sum := 0.0
	for _, v := range t.rows {
		sum += v
	}
	return t.wall - sum/float64(t.lanes)
}

// perAttack returns a row's mean self seconds per traced attack.
func (t *layerTable) perAttack(row string) float64 {
	return ratio(t.rows[row], float64(t.attacks))
}

// satSeconds is the time spent inside solver calls.
func (t *layerTable) satSeconds() float64 {
	sum := 0.0
	for _, r := range satRows {
		sum += t.rows[r]
	}
	return sum
}

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "  layer self time over %d traced attacks (%d lane(s)); rows + other = traced wall\n", t.attacks, t.lanes)
	for _, r := range rowOrder {
		if v, ok := t.rows[r]; ok {
			fmt.Fprintf(w, "    %-24s %10.4f s %6.2f%%\n", r, v/float64(t.lanes), 100*ratio(v/float64(t.lanes), t.wall))
		}
	}
	fmt.Fprintf(w, "    %-24s %10.4f s %6.2f%%\n", "other", t.other(), 100*ratio(t.other(), t.wall))
	fmt.Fprintf(w, "    %-24s %10.4f s\n", "traced wall", t.wall)
}

// spanRec is one recorded span. Spans of one attack (or daemon job) share
// Attack; Parent is the id of the enclosing span, 0 for an attack's root.
type spanRec struct {
	Attack int    `json:"attack"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// spanLog keeps every span of a traced run in memory; writeFile saves them
// at exit. Times are microseconds since the log was created.
type spanLog struct {
	mu       sync.Mutex
	t0       time.Time
	nextID   int
	attacks  int
	recorded []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newAttack returns a fresh attack identifier.
func (l *spanLog) newAttack() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attacks++
	return l.attacks
}

// add records one span and returns its id.
func (l *spanLog) add(attack, parent int, name, label string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.recorded = append(l.recorded, spanRec{
		Attack: attack, ID: l.nextID, Parent: parent, Name: name, Label: label,
		Start: start.Sub(l.t0).Microseconds(), End: end.Sub(l.t0).Microseconds(),
	})
	return l.nextID
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.recorded {
		if err := enc.Encode(&l.recorded[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageLog collects one attack's stages from its trace events: stage
// durations and spans, the DIP loop's bounds, the last per-DIP progress
// event and the encode counters, plus DIP solve time and oracle counts.
// In-process attacks feed it live; daemon jobs replay their bundles into it.
type stageLog struct {
	stage        map[string]time.Duration
	counters     map[string]uint64 // encode span counters (aig_nodes)
	spans        []pendingSpan
	loopStart    time.Time
	loopEnd      time.Time
	lastProgress time.Time
	dipSolve     time.Duration
	sessions     uint64
	cycles       uint64
}

// pendingSpan is a span waiting for the attack's root span id.
type pendingSpan struct {
	name       string
	start, end time.Time
}

func newStageLog() stageLog {
	return stageLog{stage: make(map[string]time.Duration), counters: make(map[string]uint64)}
}

func (s *stageLog) observe(ev trace.Event) {
	switch ev.Type {
	case "progress":
		s.lastProgress = ev.Time
	case "span_end":
		start := ev.Time.Add(-ev.Duration)
		s.stage[ev.Span] += ev.Duration
		name := stageRow[ev.Span]
		switch ev.Span {
		case "dip_loop":
			s.loopStart, s.loopEnd = start, ev.Time
			name = "satattack.dip_loop"
		case "encode":
			for k, v := range ev.Counters {
				s.counters[k] += v
			}
		}
		if name == "" {
			name = ev.Span
		}
		s.spans = append(s.spans, pendingSpan{name, start, ev.Time})
	}
}

// rows splits the stages into self-time rows. The DIP loop's self time is
// split at the last per-DIP progress event: before it lie the DIP solves,
// the oracle sessions (oracleLoop) and the per-DIP copy encoding and
// simplification (between_dips); after it only the closing UNSAT call
// (final_solve). An attack without DIPs spends its whole loop in that call.
func (s *stageLog) rows(oracleLoop time.Duration) map[string]float64 {
	rows := make(map[string]float64, len(rowOrder))
	for span, row := range stageRow {
		rows[row] = s.stage[span].Seconds()
	}
	loop := s.stage["dip_loop"]
	final := loop
	if s.lastProgress.After(s.loopStart) && !s.lastProgress.After(s.loopEnd) {
		final = s.loopEnd.Sub(s.lastProgress)
	}
	rows[rowDIPSolve] = s.dipSolve.Seconds()
	rows[rowFinal] = final.Seconds()
	rows[rowBetween] = (loop - s.dipSolve - oracleLoop - final).Seconds()
	return rows
}

// attackTrace observes one in-process attack from outside the program: it
// is the attack's trace sink, wraps its chip to time oracle sessions, chains
// a session hook for cycle counts, and observes every DIP through OnDIP.
// The sequential engine calls all of these from the attack's goroutine.
type attackTrace struct {
	stageLog
	log   *spanLog
	id    int
	label string

	oracle       time.Duration
	oracleLoop   time.Duration
	sessionStart time.Time
	sessionUS    []float64
}

func newAttackTrace(log *spanLog, label string) *attackTrace {
	return &attackTrace{stageLog: newStageLog(), log: log, id: log.newAttack(), label: label}
}

// attach hooks the chip the attack will query and returns the timing
// wrapper to pass to core.AttackCtx.
func (a *attackTrace) attach(chip core.Chip) core.Chip {
	prev := chip.SetSessionHook(nil)
	chip.SetSessionHook(func(cycles uint64) {
		a.sessions++
		a.cycles += cycles
		if prev != nil {
			prev(cycles)
		}
	})
	return &timedChip{Chip: chip, a: a}
}

// Emit implements trace.Sink.
func (a *attackTrace) Emit(ev trace.Event) {
	a.observe(ev)
	if ev.Type == "span_end" && ev.Span == "dip_loop" {
		a.oracleLoop = a.oracle
	}
}

// onDIP is the attack's satattack.Options.OnDIP observer. The DIP's solve
// ended just before the oracle session that answered it.
func (a *attackTrace) onDIP(_ int, _, _ []bool, _ sat.Stats, solveTime time.Duration) {
	a.dipSolve += solveTime
	end := a.sessionStart
	a.spans = append(a.spans, pendingSpan{rowDIPSolve, end.Add(-solveTime), end})
}

func (a *attackTrace) session(start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	a.oracle += d
	a.sessionStart = start
	a.sessionUS = append(a.sessionUS, float64(d)/float64(time.Microsecond))
	a.spans = append(a.spans, pendingSpan{rowOracle, start, end})
}

// finish turns the observed stages into layer rows on t and records the
// attack's spans.
func (a *attackTrace) finish(start, end time.Time, stats sat.Stats, t *layerTable) {
	rows := a.rows(a.oracleLoop)
	rows[rowOracle] = a.oracle.Seconds()
	rows[rowVerify] -= (a.oracle - a.oracleLoop).Seconds()
	for r, v := range rows {
		t.rows[r] += v
	}
	t.attacks++
	t.dipLoop += a.stage["dip_loop"].Seconds()
	t.sessionUS = append(t.sessionUS, a.sessionUS...)
	addStats(&t.stats, stats)

	root := a.log.add(a.id, 0, "attack", a.label, start, end)
	for _, s := range a.spans {
		a.log.add(a.id, root, s.name, "", s.start, s.end)
	}
}

func addStats(dst *sat.Stats, s sat.Stats) {
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
	dst.Restarts += s.Restarts
	dst.Learnt += s.Learnt
	dst.Removed += s.Removed
	dst.XorPropagations += s.XorPropagations
	dst.XorConflicts += s.XorConflicts
	dst.SimplifyCalls += s.SimplifyCalls
	dst.SimplifyRemoved += s.SimplifyRemoved
	dst.SimplifyStrengthened += s.SimplifyStrengthened
}

// timedChip times every scan session the attack issues.
type timedChip struct {
	core.Chip
	a *attackTrace
}

func (c *timedChip) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	start := time.Now()
	scanOut, po = c.Chip.Session(testKey, scanIn, pi)
	c.a.session(start)
	return scanOut, po
}

func (c *timedChip) SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	start := time.Now()
	scanOut, pos = c.Chip.SessionN(testKey, scanIn, pis)
	c.a.session(start)
	return scanOut, pos
}
