package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/apps/echo"
	"vampos/internal/apps/nginx"
	"vampos/internal/apps/redis"
	"vampos/internal/apps/sqlite"
	"vampos/internal/bench"
	"vampos/internal/host"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// driver runs one workload through a trial's three phases. warm builds
// up application state before the fault is armed; run keeps the workload
// going while the fault fires and recovery happens, tolerating (but
// counting) client-visible errors, and fails only when the workload cannot
// go on; verify checks the application-level invariants against the shadow
// model after the system has settled, with zero tolerance.
type driver interface {
	app() unikernel.App
	profile(cfg unikernel.Config) unikernel.Config
	setupHost(inst *unikernel.Instance) error
	warm(s *unikernel.Sys, t *trial) error
	run(s *unikernel.Sys, t *trial) error
	verify(s *unikernel.Sys, t *trial) error
}

func driverFor(workload string) (driver, error) {
	switch workload {
	case "sqlite":
		return newSQLiteApp(), nil
	case "nginx":
		return newNginxApp(), nil
	case "redis":
		return newRedisApp(), nil
	case "echo":
		return newEchoApp(), nil
	default:
		return nil, fmt.Errorf("campaign: unknown workload %q", workload)
	}
}

// sweep invokes every utility component the profile links — PROCESS,
// USER, TIMER, SYSINFO and (through VFS) the file-system path — so that
// wildcard faults armed on components off the workload's hot path still
// fire within a few sweep rounds. Call failures count as client errors:
// crash and hang recovery is transparent to these retried syscalls, so a
// surviving error is a real service violation.
func (t *trial) sweep(s *unikernel.Sys) {
	check := func(err error) {
		if err != nil {
			t.errs++
		}
	}
	_, err := s.Getpid()
	check(err)
	_, err = s.Getuid()
	check(err)
	_, err = s.ClockGettime()
	check(err)
	if t.profile.Sysinfo {
		_, err = s.Uname()
		check(err)
	}
	if t.profile.FS {
		_, _, err = s.Stat("/")
		check(err)
	}
}

// --- network workloads: host clients over the simulated wire ---

// corruption is an exchange that completed with the wrong bytes: never
// tolerated, and the connection is kept.
type corruption struct{ err error }

func (c corruption) Error() string { return c.err.Error() }

// clientLoop runs count exchanges from a host client thread named name
// (thread names break merge-order ties, so each workload keeps its own).
// It dials, and redials after every failed exchange, until the trial
// deadline. A failed dial or exchange is a client error, which a strict
// loop also reports; a corruption is counted as such and always reported.
// The returned func waits for the thread and returns the first report.
func clientLoop[C interface{ Close() }](s *unikernel.Sys, t *trial, name string, count int, strict bool,
	dial func(th *sched.Thread, peer *host.Peer) (C, error), exchange func(cl C, i int) error) func() error {
	done := false
	var firstErr error
	peer := s.NewPeer()
	s.GoHost(name, func(th *sched.Thread) {
		defer func() { done = true }()
		var cl C
		redial := func() bool {
			for !t.pastDeadline(s) {
				var err error
				if cl, err = dial(th, peer); err == nil {
					return true
				}
				if strict && firstErr == nil {
					firstErr = err
				}
				t.errs++
				th.Sleep(20 * time.Millisecond)
			}
			return false
		}
		if !redial() {
			return
		}
		for i := 0; i < count && !t.pastDeadline(s); i++ {
			err := exchange(cl, i)
			if bad, ok := err.(corruption); ok {
				t.corrupt++
				if firstErr == nil {
					firstErr = bad.err
				}
				continue
			}
			if err != nil {
				t.errs++
				if strict && firstErr == nil {
					firstErr = err
				}
				cl.Close()
				if !redial() {
					return
				}
			}
		}
		cl.Close()
	})
	return func() error {
		for !done {
			s.Sleep(time.Millisecond)
		}
		return firstErr
	}
}

// clients starts a workload's client loop of count exchanges.
type clients func(s *unikernel.Sys, t *trial, count int, timeout time.Duration, strict bool) func() error

// cleanPhase runs a strict client loop — the warm and verify phases of a
// network workload — and fails on any client error it counted.
func cleanPhase(s *unikernel.Sys, t *trial, loop clients, count int, what string) error {
	errsBefore := t.errs
	if err := loop(s, t, count, 2*time.Second, true)(); err != nil {
		return err
	}
	if t.errs != errsBefore {
		return fmt.Errorf("%d %s", t.errs-errsBefore, what)
	}
	return nil
}

// busyPhase runs a tolerant client loop while sweeping the utility
// components — the run phase of a network workload.
func busyPhase(s *unikernel.Sys, t *trial, loop clients) error {
	wait := loop(s, t, 40, time.Second, false)
	for i := 0; i < 6; i++ {
		t.sweep(s)
		s.Sleep(50 * time.Millisecond)
	}
	_ = wait()
	return nil
}

// --- sqlite: in-process key/value inserts with a shadow table ---

type sqliteDriver struct {
	db     *sqlite.App
	shadow []kvPair
}

type kvPair struct{ k, v string }

func newSQLiteApp() *sqliteDriver { return &sqliteDriver{db: sqlite.New()} }

func (d *sqliteDriver) app() unikernel.App                            { return d.db }
func (d *sqliteDriver) profile(cfg unikernel.Config) unikernel.Config { return d.db.Profile(cfg) }
func (d *sqliteDriver) setupHost(inst *unikernel.Instance) error      { return nil }

func (d *sqliteDriver) insert(s *unikernel.Sys, t *trial, i int) {
	k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
	if _, err := d.db.Exec(s, fmt.Sprintf("INSERT INTO kv VALUES ('%s', '%s')", k, v)); err != nil {
		t.errs++
		return
	}
	d.shadow = append(d.shadow, kvPair{k, v})
}

func (d *sqliteDriver) warm(s *unikernel.Sys, t *trial) error {
	if _, err := d.db.Exec(s, "CREATE TABLE kv (k, v)"); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		d.insert(s, t, i)
	}
	if t.errs > 0 {
		return fmt.Errorf("%d insert errors before injection", t.errs)
	}
	return nil
}

func (d *sqliteDriver) run(s *unikernel.Sys, t *trial) error {
	for i := 20; i < 60; i++ {
		d.insert(s, t, i)
		if i%8 == 0 {
			t.sweep(s)
		}
	}
	return nil
}

func (d *sqliteDriver) verify(s *unikernel.Sys, t *trial) error {
	for _, p := range d.shadow {
		res, err := d.db.Exec(s, fmt.Sprintf("SELECT * FROM kv WHERE k = '%s'", p.k))
		if err != nil {
			return fmt.Errorf("select %s: %w", p.k, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][1] != p.v {
			return fmt.Errorf("row %s: got %v, want value %q", p.k, res.Rows, p.v)
		}
	}
	return nil
}

// --- nginx: HTTP GETs with byte-correct response checking ---

type nginxDriver struct {
	web  *nginx.App
	body []byte
}

func newNginxApp() *nginxDriver {
	return &nginxDriver{web: nginx.New(), body: []byte(strings.Repeat("campaign-index!\n", 12))}
}

func (d *nginxDriver) app() unikernel.App                            { return d.web }
func (d *nginxDriver) profile(cfg unikernel.Config) unikernel.Config { return d.web.Profile(cfg) }

func (d *nginxDriver) setupHost(inst *unikernel.Instance) error {
	return inst.Host().FS().WriteFile("/www/index.html", d.body)
}

func (d *nginxDriver) fetch(s *unikernel.Sys, t *trial, count int, timeout time.Duration, strict bool) func() error {
	return clientLoop(s, t, "campaign/http", count, strict,
		func(th *sched.Thread, peer *host.Peer) (*bench.HTTPClient, error) {
			return bench.DialHTTP(s, th, peer, nginx.DefaultPort, timeout)
		},
		func(cl *bench.HTTPClient, _ int) error {
			body, err := cl.GetBody("/index.html", timeout)
			if err == nil && string(body) != string(d.body) {
				return corruption{fmt.Errorf("body mismatch: got %d bytes %q...", len(body), clip(body))}
			}
			return err
		})
}

func (d *nginxDriver) warm(s *unikernel.Sys, t *trial) error {
	return cleanPhase(s, t, d.fetch, 5, "fetch errors before injection")
}
func (d *nginxDriver) run(s *unikernel.Sys, t *trial) error { return busyPhase(s, t, d.fetch) }
func (d *nginxDriver) verify(s *unikernel.Sys, t *trial) error {
	return cleanPhase(s, t, d.fetch, 5, "fetch errors after settling")
}

// --- redis: SETs tracked in a shadow store, verified by GETs ---

type redisDriver struct {
	kv     *redis.App
	shadow []kvPair
	next   int // index of the next key to SET
}

func newRedisApp() *redisDriver { return &redisDriver{kv: redis.New()} }

func (d *redisDriver) app() unikernel.App                            { return d.kv }
func (d *redisDriver) profile(cfg unikernel.Config) unikernel.Config { return d.kv.Profile(cfg) }
func (d *redisDriver) setupHost(inst *unikernel.Instance) error      { return nil }

// sets issues count SETs of fresh keys; only acknowledged SETs enter the
// shadow store. Its phases judge SET failures by their count, so the loop
// never reports one.
func (d *redisDriver) sets(s *unikernel.Sys, t *trial, count int, timeout time.Duration, _ bool) func() error {
	first := d.next
	d.next += count
	return clientLoop(s, t, "campaign/redis-set", count, false,
		func(th *sched.Thread, peer *host.Peer) (*bench.RedisClient, error) {
			return bench.DialRedis(s, th, peer, redis.DefaultPort, timeout)
		},
		func(cl *bench.RedisClient, i int) error {
			k, v := fmt.Sprintf("c%03d", first+i), fmt.Sprintf("w%03d", first+i)
			if err := cl.Set(k, v, timeout); err != nil {
				return err
			}
			d.shadow = append(d.shadow, kvPair{k, v})
			return nil
		})
}

func (d *redisDriver) warm(s *unikernel.Sys, t *trial) error {
	return cleanPhase(s, t, d.sets, 20, "SET errors before injection")
}
func (d *redisDriver) run(s *unikernel.Sys, t *trial) error { return busyPhase(s, t, d.sets) }

func (d *redisDriver) verify(s *unikernel.Sys, t *trial) error {
	done := false
	var verr error
	peer := s.NewPeer()
	s.GoHost("campaign/redis-verify", func(th *sched.Thread) {
		defer func() { done = true }()
		cl, err := bench.DialRedis(s, th, peer, redis.DefaultPort, 2*time.Second)
		if err != nil {
			verr = fmt.Errorf("dial after settling: %w", err)
			return
		}
		defer cl.Close()
		for _, p := range d.shadow {
			val, found, err := cl.Get(p.k, 2*time.Second)
			if err != nil {
				verr = fmt.Errorf("GET %s: %w", p.k, err)
				return
			}
			if !found || val != p.v {
				verr = fmt.Errorf("key %s: got (%q, %v), want %q", p.k, val, found, p.v)
				return
			}
		}
	})
	for !done {
		s.Sleep(time.Millisecond)
	}
	return verr
}

// --- echo: fixed payload round trips, byte-compared ---

type echoDriver struct {
	e       *echo.App
	payload []byte
}

func newEchoApp() *echoDriver {
	return &echoDriver{e: echo.New(), payload: []byte(strings.Repeat("campaign-echo-99", 10)[:159])}
}

func (d *echoDriver) app() unikernel.App                            { return d.e }
func (d *echoDriver) profile(cfg unikernel.Config) unikernel.Config { return d.e.Profile(cfg) }
func (d *echoDriver) setupHost(inst *unikernel.Instance) error      { return nil }

func (d *echoDriver) echo(s *unikernel.Sys, t *trial, count int, timeout time.Duration, strict bool) func() error {
	return clientLoop(s, t, "campaign/echo", count, strict,
		func(th *sched.Thread, peer *host.Peer) (*bench.EchoClient, error) {
			return bench.DialEcho(s, th, peer, echo.DefaultPort, timeout)
		},
		func(cl *bench.EchoClient, _ int) error {
			got, err := cl.RoundTripBody(d.payload, timeout)
			if err == nil && string(got) != string(d.payload) {
				return corruption{fmt.Errorf("echo mismatch: %q...", clip(got))}
			}
			return err
		})
}

func (d *echoDriver) warm(s *unikernel.Sys, t *trial) error {
	return cleanPhase(s, t, d.echo, 5, "echo errors before injection")
}
func (d *echoDriver) run(s *unikernel.Sys, t *trial) error { return busyPhase(s, t, d.echo) }
func (d *echoDriver) verify(s *unikernel.Sys, t *trial) error {
	return cleanPhase(s, t, d.echo, 5, "echo errors after settling")
}

func clip(b []byte) []byte {
	if len(b) > 32 {
		return b[:32]
	}
	return b
}
