package bench

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/apps/echo"
	"vampos/internal/apps/nginx"
	"vampos/internal/apps/redis"
	"vampos/internal/apps/sqlite"
	"vampos/internal/host"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// Fig7Apps lists the four applications in paper order.
var Fig7Apps = []string{"sqlite", "nginx", "redis", "echo"}

// Fig7Row is one application × configuration measurement.
type Fig7Row struct {
	App     string
	Config  ConfigName
	Ops     int
	Virtual time.Duration // workload execution time on the virtual clock
	// Memory accounting (Fig. 7b)
	ResidentBytes int64 // materialised guest pages
	DomainBytes   int64 // message-domain bytes (logs + queued messages)
	// IOShare is the fraction of virtual time spent in host storage
	// (the AOF analysis in §VII-C).
	IOShare float64
}

// Throughput returns operations per virtual second.
func (r Fig7Row) Throughput() float64 {
	if r.Virtual <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Virtual.Seconds()
}

// Fig7Result is the full application-overhead matrix.
type Fig7Result struct {
	Rows []Fig7Row
}

// Row fetches one measurement.
func (r *Fig7Result) Row(app string, cfg ConfigName) (Fig7Row, bool) {
	for _, row := range r.Rows {
		if row.App == app && row.Config == cfg {
			return row, true
		}
	}
	return Fig7Row{}, false
}

// RunFig7 measures all four applications across all five configurations.
func RunFig7(scale Scale) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, app := range Fig7Apps {
		for _, cfg := range AllConfigs() {
			row, err := runAppWorkload(app, cfg, scale, 0)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", app, cfg, err)
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// runAppWorkload runs one application workload. A non-zero threshold
// overrides the log-shrink threshold (the Table IV sweep).
func runAppWorkload(app string, cfg ConfigName, scale Scale, threshold int) (*Fig7Row, error) {
	cc := coreConfig(cfg)
	if threshold > 0 {
		cc.LogShrinkThreshold = threshold
	}
	ucfg := fullProfile(cc)
	var prep func(*unikernel.Instance) error
	var body func(s *unikernel.Sys, row *Fig7Row) error
	switch app {
	case "sqlite":
		db := sqlite.New()
		ucfg = db.Profile(ucfg)
		body = func(s *unikernel.Sys, row *Fig7Row) error { return sqliteWorkload(s, db, scale, row) }
	case "nginx":
		web := nginx.New()
		ucfg = web.Profile(ucfg)
		prep = seedIndex
		body = func(s *unikernel.Sys, row *Fig7Row) error { return nginxWorkload(s, web, scale, row) }
	case "redis":
		kv := redis.New()
		ucfg = kv.Profile(ucfg)
		body = func(s *unikernel.Sys, row *Fig7Row) error { return redisWorkload(s, kv, scale, row) }
	case "echo":
		e := echo.New()
		ucfg = e.Profile(ucfg)
		body = func(s *unikernel.Sys, row *Fig7Row) error { return echoWorkload(s, e, scale, row) }
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
	row := &Fig7Row{App: app, Config: cfg}
	err := runInstance(ucfg, prep, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		clk := inst.Runtime().Clock()
		v0 := clk.Elapsed()
		fs := inst.Host().FS()
		fsync0 := fs.FsyncCount
		srvHandled0 := inst.Host().Server().Handled
		if err := body(s, row); err != nil {
			return err
		}
		row.Virtual = clk.Elapsed() - v0
		row.ResidentBytes = inst.Runtime().ResidentBytes()
		row.DomainBytes = inst.Runtime().DomainBytes()
		fsyncs := fs.FsyncCount - fsync0
		others := (inst.Host().Server().Handled - srvHandled0) - fsyncs
		ioTime := time.Duration(fsyncs)*host.P9FsyncLatency + time.Duration(others)*host.P9OpLatency
		if row.Virtual > 0 {
			row.IOShare = float64(ioTime) / float64(row.Virtual)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// sqliteWorkload: N inserts of a 1-byte data item (paper: 10,000).
func sqliteWorkload(s *unikernel.Sys, db *sqlite.App, scale Scale, row *Fig7Row) error {
	if err := s.StartApp(db); err != nil {
		return err
	}
	if _, err := db.Exec(s, "CREATE TABLE bench (k, v)"); err != nil {
		return err
	}
	for i := 0; i < scale.SQLiteInserts; i++ {
		stmt := fmt.Sprintf("INSERT INTO bench VALUES ('k%d', 'x')", i)
		if _, err := db.Exec(s, stmt); err != nil {
			return err
		}
	}
	row.Ops = scale.SQLiteInserts
	return nil
}

// nginxWorkload: the 180-byte file fetched over NginxConns keep-alive
// connections (paper: 40 connections for one minute).
func nginxWorkload(s *unikernel.Sys, web *nginx.App, scale Scale, row *Fig7Row) error {
	web.Workers = 4
	if err := s.StartApp(web); err != nil {
		return err
	}
	conns := scale.NginxConns
	perConn := scale.NginxRequests / conns
	done := 0
	var firstErr error
	for c := 0; c < conns; c++ {
		peer := s.NewPeer()
		s.GoHost(fmt.Sprintf("fig7/http%d", c), func(th *sched.Thread) {
			defer func() { done++ }()
			cl, err := DialHTTP(s, th, peer, nginx.DefaultPort, 5*time.Second)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for i := 0; i < perConn; i++ {
				if _, err := cl.Get("/index.html", 5*time.Second); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
			cl.Close()
		})
	}
	for done < conns {
		s.Sleep(time.Millisecond)
	}
	if firstErr != nil {
		return firstErr
	}
	row.Ops = perConn * conns
	return nil
}

// redisWorkload: N SETs of a 4-byte key and 3-byte value with AOF on
// (paper: 1,000,000).
func redisWorkload(s *unikernel.Sys, kv *redis.App, scale Scale, row *Fig7Row) error {
	if err := s.StartApp(kv); err != nil {
		return err
	}
	peer := s.NewPeer()
	done := false
	var werr error
	s.GoHost("fig7/redis", func(th *sched.Thread) {
		defer func() { done = true }()
		cl, err := DialRedis(s, th, peer, redis.DefaultPort, 5*time.Second)
		if err != nil {
			werr = err
			return
		}
		for i := 0; i < scale.RedisSets; i++ {
			key := fmt.Sprintf("k%03d", i%1000) // 4-byte keys
			if err := cl.Set(key, "val", 5*time.Second); err != nil {
				werr = err
				return
			}
		}
		cl.Close()
	})
	for !done {
		s.Sleep(time.Millisecond)
	}
	if werr != nil {
		return werr
	}
	row.Ops = scale.RedisSets
	return nil
}

// echoWorkload: 159-byte round trips (paper: one minute of them).
func echoWorkload(s *unikernel.Sys, e *echo.App, scale Scale, row *Fig7Row) error {
	if err := s.StartApp(e); err != nil {
		return err
	}
	peer := s.NewPeer()
	done := false
	var werr error
	payload := []byte(strings.Repeat("e", 159))
	s.GoHost("fig7/echo", func(th *sched.Thread) {
		defer func() { done = true }()
		cl, err := DialEcho(s, th, peer, echo.DefaultPort, 5*time.Second)
		if err != nil {
			werr = err
			return
		}
		for i := 0; i < scale.EchoMessages; i++ {
			if err := cl.RoundTrip(payload, 5*time.Second); err != nil {
				werr = err
				return
			}
		}
		cl.Close()
	})
	for !done {
		s.Sleep(time.Millisecond)
	}
	if werr != nil {
		return werr
	}
	row.Ops = scale.EchoMessages
	return nil
}

// Render produces the Fig. 7a/7b tables.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	ta := &table{
		title:   "Fig. 7a — application execution time (virtual) and overhead vs unikraft",
		headers: []string{"app", "ops"},
	}
	for _, cfg := range AllConfigs() {
		ta.headers = append(ta.headers, string(cfg))
	}
	for _, app := range Fig7Apps {
		base, _ := r.Row(app, Vanilla)
		row := []string{app, fmt.Sprintf("%d", base.Ops)}
		for _, cfg := range AllConfigs() {
			m, ok := r.Row(app, cfg)
			if !ok {
				row = append(row, "-")
				continue
			}
			ratio := "-"
			if base.Virtual > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(m.Virtual)/float64(base.Virtual))
			}
			row = append(row, fmt.Sprintf("%s (%s)", fmtDur(m.Virtual), ratio))
		}
		ta.rows = append(ta.rows, row)
	}
	if m, ok := r.Row("redis", Vanilla); ok {
		ta.addNote("redis I/O share of execution (AOF fsync): unikraft %.1f%%", m.IOShare*100)
	}
	b.WriteString(ta.String())
	b.WriteByte('\n')

	tb := &table{
		title:   "Fig. 7b — memory utilization (resident guest pages + message domains)",
		headers: []string{"app"},
	}
	for _, cfg := range AllConfigs() {
		tb.headers = append(tb.headers, string(cfg))
	}
	tb.headers = append(tb.headers, "domain bytes (das)")
	for _, app := range Fig7Apps {
		row := []string{app}
		for _, cfg := range AllConfigs() {
			m, ok := r.Row(app, cfg)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmtBytes(m.ResidentBytes))
		}
		if m, ok := r.Row(app, DaS); ok {
			row = append(row, fmtBytes(m.DomainBytes))
		} else {
			row = append(row, "-")
		}
		tb.rows = append(tb.rows, row)
	}
	b.WriteString(tb.String())
	return b.String()
}

// Table4Result is the log-shrink-threshold sweep (paper Table IV).
type Table4Result struct {
	Thresholds []int
	// Throughput[app][threshold] in ops per virtual second.
	Throughput map[string]map[int]float64
}

// Table4Apps are the applications the paper sweeps.
var Table4Apps = []string{"sqlite", "nginx", "redis"}

// RunTable4 sweeps the log-shrink threshold on the DaS configuration.
func RunTable4(scale Scale) (*Table4Result, error) {
	res := &Table4Result{
		Thresholds: []int{20, 100, 1000},
		Throughput: make(map[string]map[int]float64),
	}
	// A lighter workload keeps the sweep quick without changing shape.
	sweep := scale
	sweep.SQLiteInserts = scale.SQLiteInserts / 2
	sweep.NginxRequests = scale.NginxRequests / 2
	sweep.RedisSets = scale.RedisSets / 2
	for _, app := range Table4Apps {
		res.Throughput[app] = make(map[int]float64)
		for _, th := range res.Thresholds {
			row, err := runAppWorkload(app, DaS, sweep, th)
			if err != nil {
				return nil, fmt.Errorf("table4 %s th=%d: %w", app, th, err)
			}
			res.Throughput[app][th] = row.Throughput()
		}
	}
	return res, nil
}

// Render produces the Table IV table.
func (r *Table4Result) Render() string {
	t := &table{
		title:   "Table IV — throughput over log-shrink-threshold changes (req/s, virtual)",
		headers: []string{"threshold", "sqlite", "nginx", "redis"},
	}
	for _, th := range r.Thresholds {
		t.addRow(
			fmt.Sprintf("%d", th),
			fmt.Sprintf("%.1f", r.Throughput["sqlite"][th]),
			fmt.Sprintf("%.1f", r.Throughput["nginx"][th]),
			fmt.Sprintf("%.1f", r.Throughput["redis"][th]),
		)
	}
	return t.String()
}
