package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// scale fixes how much work one execution of a workload does. The timed
// phase ends at the first window boundary at which either stop rule
// holds; a rule set to zero never fires.
type scale struct {
	window  int           // ops per measurement window
	warmup  int           // untimed ops before the timed phase
	maxOps  int           // stop rule 1: timed ops (a whole number of windows)
	seconds time.Duration // stop rule 2: wall time of the timed phase
}

// allocWindows is how many windows the allocation metrics are read over.
// What an op allocates depends on the work done so far (kv_heal's AOF and
// the host file behind it grow with every SET), not on the clock. Reading
// it over the same first windows in every run makes the two metrics repeat
// however many windows a machine fits into the run's seconds. They are
// totals over those windows, not medians: a count has no outliers to shed,
// and the growth from window to window is a trend, not a spread.
const allocWindows = 10

// maxFailures ends a run early: past this many failed ops the workload is
// broken and measuring it further only wastes the time budget.
const maxFailures = 100

// stamp is the host-side state read at a window boundary.
type stamp struct {
	wall    time.Time
	cpuUser time.Duration
	cpuSys  time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause uint64
}

func takeStamp() stamp {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{
		wall:    time.Now(),
		cpuUser: time.Duration(ru.Utime.Nano()),
		cpuSys:  time.Duration(ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters is every public counter of the program the C rows read.
type counters struct {
	rt        core.RuntimeStats
	sch       sched.Stats
	comps     map[string]core.ComponentStats
	pkru      uint64
	p9        uint64
	fsyncs    uint64
	fsWrites  uint64
	reboots   int
	micros    int
	virt      time.Duration
	logLen    int
	domainB   int64
	residentB int64
}

func readCounters(inst *unikernel.Instance) counters {
	rt := inst.Runtime()
	c := counters{
		rt:        rt.Stats(),
		sch:       rt.SchedStats(),
		comps:     make(map[string]core.ComponentStats),
		pkru:      rt.Memory().Faults(),
		p9:        inst.Host().Server().Handled,
		fsyncs:    inst.Host().FS().FsyncCount,
		fsWrites:  inst.Host().FS().WriteCount,
		reboots:   len(rt.Reboots()),
		micros:    len(rt.Microreboots()),
		virt:      rt.Clock().Elapsed(),
		domainB:   rt.DomainBytes(),
		residentB: rt.ResidentBytes(),
	}
	for _, name := range rt.Components() {
		if st, ok := rt.ComponentStats(name); ok {
			c.comps[name] = st
			c.logLen += st.LogLen
		}
	}
	return c
}

// run is one execution of a workload on one fresh instance: set-up,
// warm-up, the timed phase and the oracles. Simulated threads are
// cooperative (one holds the baton at a time; host-side client threads
// never run inside a parallel round), so its fields need no locking.
type run struct {
	w    *workload
	sc   scale
	seed int64
	rng  *rand.Rand
	inst *unikernel.Instance

	// setupOnly stops the run when the timed phase would begin: the
	// extra set-ups behind the setup_s median.
	setupOnly bool

	rec   *trace.Recorder // the program's flight recorder; nil when untraced
	spans *spanLog        // the benchmark's own spans; nil when untraced
	recT0 time.Time       // wall instant the flight recorder's clock started

	created time.Time
	setup   time.Duration

	clients  int // client loops that must be warm before timing starts
	warm     int
	finished int
	control  *sched.Thread // parked until the last client finishes

	timed  bool
	stop   bool
	err    error
	onOp   func()       // called after every completed op, warm-up included
	onMark func() error // called at each window boundary that starts a new window

	ops, attempted, failed int
	virtLat, wallLat, late []time.Duration
	marks                  []stamp
	first, last            counters
	rotation               string // kv_heal: the seeded order of its recovery targets

	// The benchmark's own span tree: run > setup | warmup | timed > op.
	runSpan, phaseSpan spanID
	warming            bool
}

func (r *run) virtNow() time.Duration { return r.inst.Runtime().Clock().Elapsed() }

// fail records the first fatal error and ends the run.
func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.stop = true
}

// nextPhase closes the current phase span and opens the next one.
func (r *run) nextPhase(name string) {
	r.spans.end(r.phaseSpan)
	r.phaseSpan = r.spans.begin(r.runSpan, mainLane, name)
}

// closed is the due time of a closed-loop op: it is timed from when it
// was sent.
const closed = time.Duration(-1)

// do runs one op. An open-loop op passes its due time on the virtual
// clock and is timed from there, so a stall is charged to every request
// queued behind it.
func (r *run) do(op func() error, due time.Duration) {
	v0 := r.virtNow()
	var lateBy time.Duration
	if due != closed {
		if v0 > due {
			lateBy = v0 - due
		}
		v0 = due
	}
	timed := r.timed
	var sp spanID
	if timed && r.spans != nil {
		sp = r.spans.begin(r.phaseSpan, r.inst.Runtime().Scheduler().Current().Name(), "op")
	}
	w0 := time.Now()
	err := op()
	wall := time.Since(w0)
	r.spans.end(sp)
	if !timed {
		// Warm-up, drain and oracle traffic: never measured, never
		// allowed to fail.
		if err != nil {
			r.fail(fmt.Errorf("%s: untimed op: %w", r.w.name, err))
		}
	} else if r.timed { // another client may have ended the phase meanwhile
		r.attempted++
		if err != nil {
			r.failed++
			if r.failed > maxFailures {
				r.fail(fmt.Errorf("%s: more than %d failed ops, last: %w", r.w.name, maxFailures, err))
			}
		}
		r.virtLat = append(r.virtLat, r.virtNow()-v0)
		r.wallLat = append(r.wallLat, wall)
		if due != closed {
			r.late = append(r.late, lateBy)
		}
		r.ops++
		if r.ops%r.sc.window == 0 {
			r.mark()
		}
	}
	if r.onOp != nil {
		r.onOp()
	}
}

// mark closes a window and applies the stop rules.
func (r *run) mark() {
	r.marks = append(r.marks, takeStamp())
	elapsed := r.marks[len(r.marks)-1].wall.Sub(r.marks[0].wall)
	if (r.sc.maxOps > 0 && r.ops >= r.sc.maxOps) || (r.sc.seconds > 0 && elapsed >= r.sc.seconds) {
		r.endTimed()
		return
	}
	if r.onMark != nil {
		if err := r.onMark(); err != nil {
			r.fail(err)
		}
	}
}

func (r *run) endTimed() {
	r.last = readCounters(r.inst)
	r.spans.end(r.phaseSpan)
	r.timed = false
	r.stop = true
}

// warmUp runs one client's share of the warm-up, then waits until every
// client is warm. The last one to arrive starts the timed phase, so all
// clients enter it at the same virtual instant. pause yields the baton.
func (r *run) warmUp(pause func(), op func() error) {
	if !r.warming {
		r.warming = true
		r.nextPhase("warmup")
	}
	for i := 0; i < r.sc.warmup/r.clients && !r.stop; i++ {
		r.do(op, closed)
	}
	r.warm++
	if r.warm == r.clients && !r.stop {
		r.beginTimed()
	}
	for r.warm < r.clients && !r.stop {
		pause()
	}
}

func (r *run) beginTimed() {
	r.setup = time.Since(r.created)
	if r.setupOnly {
		r.stop = true
		return
	}
	r.nextPhase("timed")
	r.first = readCounters(r.inst)
	r.marks = append(r.marks, takeStamp())
	r.timed = true
	if r.onMark != nil {
		if err := r.onMark(); err != nil {
			r.fail(err)
		}
	}
}

// closedLoop is a whole closed-loop client: warm up, then one op after
// another until the stop rule fires.
func (r *run) closedLoop(pause func(), op func() error) {
	r.warmUp(pause, op)
	for !r.stop {
		r.do(op, closed)
	}
}

// client spawns a host-side client thread. dial connects it and returns
// the body that drives it; the thread reports its end to the controller.
func (r *run) client(s *unikernel.Sys, name string, body func(th *sched.Thread) error) {
	s.GoHost(r.w.name+"/"+name, func(th *sched.Thread) {
		if err := body(th); err != nil {
			r.fail(fmt.Errorf("%s/%s: %w", r.w.name, name, err))
		}
		r.finished++
		r.control.Wake()
	})
}

// await parks the controller thread until n client threads have ended.
// between runs each time the controller is woken (kv_heal does its
// proactive reboots there). Parking, not polling: a sleeping controller
// would add dispatches and clock advances of its own to every C row.
func (r *run) await(n int, between func()) {
	for r.finished < n {
		if between != nil {
			between()
		}
		if r.finished < n {
			r.control.Block("benchmark: clients running")
		}
	}
}

// measurement is what one execution yields.
type measurement struct {
	ops, attempted, failed int
	setup                  time.Duration
	wall                   time.Duration // timed phase, first to last mark
	virt                   time.Duration

	// Per-window samples of the timing end-to-end metrics.
	opsPerS, cpuUs []float64
	// Mallocs and KiB per op over the first allocWindows windows.
	allocs, allocKB float64

	virtLat, wallLat, late []time.Duration // sorted
	first, last            counters
	sysShare               float64
	gcCycles               uint32
	gcPause                time.Duration
	reboots                []core.RebootRecord
	micros                 []core.MicrorebootRecord
	rotation               string

	rec        *trace.Recorder
	recT0      time.Time
	timedStart time.Time
	timedEnd   time.Time
}

// execute runs the workload once on a fresh instance. With a span log it
// is a traced execution: the program's flight recorder is attached too.
func (w *workload) execute(sc scale, seed int64, setupOnly bool, spans *spanLog) (*measurement, error) {
	r := &run{
		w: w, sc: sc, seed: seed, rng: rand.New(rand.NewSource(seed)),
		setupOnly: setupOnly, spans: spans, clients: 1,
	}
	r.runSpan = spans.begin(0, mainLane, "run:"+w.name)
	r.phaseSpan = spans.begin(r.runSpan, mainLane, "setup")
	r.created = time.Now()
	inst, err := unikernel.New(w.config())
	if err != nil {
		return nil, fmt.Errorf("%s: assemble instance: %w", w.name, err)
	}
	r.inst = inst
	if spans != nil {
		r.recT0 = time.Now()
		r.rec = inst.NewTracer(w.name, trace.WithCapacity(eventBudget))
	}
	var bodyErr error
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		r.control = s.Ctx().Thread()
		bodyErr = w.body(r, s)
	})
	spans.end(r.runSpan)
	if err = errors.Join(err, r.err, bodyErr); err != nil {
		return nil, err
	}
	m := &measurement{setup: r.setup, rotation: r.rotation, rec: r.rec, recT0: r.recT0}
	if setupOnly {
		return m, nil
	}
	if len(r.marks) < 2 {
		return nil, fmt.Errorf("%s: timed phase ended before one window of %d ops completed", w.name, sc.window)
	}
	m.ops, m.attempted, m.failed = r.ops, r.attempted, r.failed
	m.first, m.last = r.first, r.last
	m.virt = r.last.virt - r.first.virt
	first, last := r.marks[0], r.marks[len(r.marks)-1]
	m.timedStart, m.timedEnd = first.wall, last.wall
	m.wall = last.wall.Sub(first.wall)
	n := float64(sc.window)
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		m.opsPerS = append(m.opsPerS, n/b.wall.Sub(a.wall).Seconds())
		cpu := (b.cpuUser - a.cpuUser) + (b.cpuSys - a.cpuSys)
		m.cpuUs = append(m.cpuUs, float64(cpu.Nanoseconds())/1e3/n)
	}
	allocEnd := r.marks[min(allocWindows, len(r.marks)-1)]
	allocOps := n * float64(min(allocWindows, len(r.marks)-1))
	m.allocs = float64(allocEnd.mallocs-first.mallocs) / allocOps
	m.allocKB = float64(allocEnd.bytes-first.bytes) / 1024 / allocOps
	user, sys := last.cpuUser-first.cpuUser, last.cpuSys-first.cpuSys
	if user+sys > 0 {
		m.sysShare = float64(sys) / float64(user+sys)
	}
	m.gcCycles = last.gcs - first.gcs
	m.gcPause = time.Duration(last.gcPause - first.gcPause)
	m.virtLat, m.wallLat, m.late = sorted(r.virtLat), sorted(r.wallLat), sorted(r.late)
	rt := inst.Runtime()
	m.reboots = rt.Reboots()[r.first.reboots:r.last.reboots]
	m.micros = rt.Microreboots()[r.first.micros:r.last.micros]
	return m, nil
}

func sorted(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// quantile returns the q-quantile of sorted samples by nearest rank, or
// zero when there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func perOp(n uint64, ops int) float64 { return float64(n) / float64(ops) }
