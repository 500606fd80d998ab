package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"vampos/internal/apps/echo"
	"vampos/internal/apps/redis"
	"vampos/internal/apps/sqlite"
	"vampos/internal/bench"
	"vampos/internal/ckpt"
	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// workload is one fixed set of inputs. The configuration is always
// core.DaSConfig() — the paper's default VampOS — plus only what the
// workload names.
type workload struct {
	name string
	why  string
	loop string
	// ops is the fixed op count of a full run (-ops, -workload all); the
	// driver's runs stop on wall time instead. window is the number of ops
	// per measurement window: every host-clock end-to-end metric is the
	// median of its per-window values.
	ops    int
	window int
	// payload is the bytes one op moves through a call; the T batches use
	// it as their argument shape.
	payload int
	// events is the flight-recorder events one op produces, rounded up
	// from a measurement; the traced segment is cut so they fit the ring.
	events int
	config func() unikernel.Config
	body   func(r *run, s *unikernel.Sys) error
}

const (
	dialTimeout = 5 * time.Second // virtual
	opTimeout   = 5 * time.Second // virtual
)

func dasConfig() core.Config {
	cc := core.DaSConfig()
	cc.MaxVirtualTime = 12 * time.Hour
	return cc
}

var workloads = []*workload{
	{
		name:    "echo_rtt",
		why:     "net-only path, 26 messages and 114 dispatches per op: message hop, scheduler handoff and codec cost are nearly the whole op; ninep, ckpt and recovery do nothing",
		loop:    "closed, 1 connection",
		ops:     100000,
		window:  2000,
		payload: 159,
		events:  130,
		config:  func() unikernel.Config { return echo.New().Profile(unikernel.Config{Core: dasConfig()}) },
		body:    echoBody,
	},
	{
		name:    "sqlite_insert",
		why:     "FS-only write path, 6 messages but 146 dispatches per op: pollers, log append and shrink, 9P and a growing host file; lwip and netdev unused - the mirror image of echo_rtt",
		loop:    "closed, in-guest app thread",
		ops:     96000,
		window:  sqliteTableRows,
		payload: 12,
		events:  130,
		config:  func() unikernel.Config { return sqlite.New().Profile(unikernel.Config{Core: dasConfig()}) },
		body:    sqliteBody,
	},
	{
		name:    "kv_sharded",
		why:     "Shards=2, two redis cells: the only workload on the round engine (pen, parallel slices, journaled commit) and the only one where two threads really run at once",
		loop:    "closed, 1 connection per cell",
		ops:     60000,
		window:  1000,
		payload: 512,
		events:  200,
		config: func() unikernel.Config {
			cc := dasConfig()
			cc.Shards = 2
			return unikernel.Config{Core: cc, FS: true, Net: true, Sysinfo: true}
		},
		body: shardedBody,
	},
	{
		name:    "kv_heal",
		why:     "reads beside fsynced writes while one component crash or reboot lands every 50 ops: the paper's headline, so a faster restore that slows the steady path, or the reverse, shows",
		loop:    "closed SETs on A, open-loop GETs on B at 2000/s virtual",
		ops:     40000,
		window:  1000,
		payload: 13,
		events:  200,
		config: func() unikernel.Config {
			cc := dasConfig()
			cc.Microreboot = true
			cc.Ckpt = ckpt.Policy{EveryCalls: 256}
			return redis.New().Profile(unikernel.Config{Core: cc})
		},
		body: healBody,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- echo_rtt ---

// echoBody bounces seeded 159-byte messages (the paper's echo message)
// off the echo app over one connection. Oracle: every reply is the
// request verbatim.
func echoBody(r *run, s *unikernel.Sys) error {
	if err := s.StartApp(echo.New()); err != nil {
		return err
	}
	peer := s.NewPeer()
	r.client(s, "client", func(th *sched.Thread) error {
		cl, err := bench.DialEcho(s, th, peer, echo.DefaultPort, dialTimeout)
		if err != nil {
			return err
		}
		defer cl.Close()
		msg := make([]byte, r.w.payload)
		r.closedLoop(nil, func() error {
			r.rng.Read(msg)
			return cl.RoundTrip(msg, opTimeout)
		})
		return nil
	})
	r.await(1, nil)
	return nil
}

// --- sqlite_insert ---

// sqliteTableRows is the size of one table and of one measurement window.
// The host appends to a table file by reallocating it, so an insert costs
// more the larger the file is. Giving every window a fresh table makes
// each one a whole cycle of that growth: windows are comparable and the
// result does not depend on how many of them fit into the run.
const sqliteTableRows = 6000

// sqliteBody runs single-row INSERTs from the application thread itself
// (the paper's SQLite has no client). Oracle: every table's SELECT
// COUNT(*) equals the rows inserted and the host's table file holds
// exactly the schema record and those rows, in order.
func sqliteBody(r *run, s *unikernel.Sys) error {
	db := sqlite.New()
	if err := s.StartApp(db); err != nil {
		return err
	}
	type table struct {
		name string
		want bytes.Buffer // the host file the inserts must produce
		rows int
	}
	var tables []*table
	newTable := func() error {
		t := &table{name: fmt.Sprintf("t%d", len(tables))}
		if _, err := db.Exec(s, "CREATE TABLE "+t.name+" (k, v)"); err != nil {
			return err
		}
		t.want.WriteString("@schema\x1fk\x1fv\n")
		tables = append(tables, t)
		return nil
	}
	if err := newTable(); err != nil { // the warm-up's table
		return err
	}
	r.onMark = newTable
	r.closedLoop(nil, func() error {
		t := tables[len(tables)-1]
		key := fmt.Sprintf("k%08x", r.rng.Uint32())
		val := string(rune('a' + r.rng.Intn(26))) // the paper inserts one-byte items
		if _, err := db.Exec(s, "INSERT INTO "+t.name+" VALUES ('"+key+"', '"+val+"')"); err != nil {
			return err
		}
		t.want.WriteString(key + "\x1f" + val + "\n")
		t.rows++
		return nil
	})
	for _, t := range tables {
		res, err := db.Exec(s, "SELECT COUNT(*) FROM "+t.name)
		if err != nil {
			return err
		}
		if res.Count != t.rows {
			return fmt.Errorf("oracle: table %s counts %d rows, %d were inserted", t.name, res.Count, t.rows)
		}
		got, err := s.HostFS().ReadFile(sqlite.Dir + "/" + t.name + ".tbl")
		if err != nil {
			return fmt.Errorf("oracle: host file of table %s: %w", t.name, err)
		}
		if !bytes.Equal(got, t.want.Bytes()) {
			return fmt.Errorf("oracle: host file of table %s differs from the %d rows inserted", t.name, t.rows)
		}
	}
	return nil
}

// --- kv_sharded ---

const (
	shardedCells    = 2
	shardedBasePort = 6400
	shardedKeys     = 256 // distinct keys per cell
	// shardedOrdinal0 is the first cell's shard ordinal. Kernel component
	// groups take the low ordinals at boot; cells sit above them so the
	// fold onto two shards puts the cells on different runners.
	shardedOrdinal0 = 10
)

// shardedBody drives two redis cells, each pinned to its own shard and
// fed by its own closed-loop client: SETs of 512-byte values with 256
// checksum passes each, AOF off. Oracle: each cell's DBSIZE equals the
// distinct keys its client set.
func shardedBody(r *run, s *unikernel.Sys) error {
	r.clients = shardedCells
	for i := 0; i < shardedCells; i++ {
		kv := redis.New()
		kv.Port = shardedBasePort + i
		kv.AOF = false
		kv.CPUWork = 256
		s.GoShard(fmt.Sprintf("kv_sharded/cell%d", i), shardedOrdinal0+i, func(cs *unikernel.Sys) {
			// Main returns once the acceptor serves; a failure shows as
			// the client's dial error.
			_ = kv.Main(cs)
		})
	}
	for i := 0; i < shardedCells; i++ {
		port := shardedBasePort + i
		peer := s.NewPeer()
		r.client(s, fmt.Sprintf("client%d", i), func(th *sched.Thread) error {
			cl, err := dialRedis(s, th, peer, port)
			if err != nil {
				return err
			}
			defer cl.Close()
			value := make([]byte, r.w.payload)
			seen := make(map[int]bool)
			r.closedLoop(func() { th.Sleep(50 * time.Microsecond) }, func() error {
				k := r.rng.Intn(shardedKeys)
				for j := range value {
					value[j] = 'a' + byte(r.rng.Intn(26))
				}
				seen[k] = true
				return cl.Set(fmt.Sprintf("k%04d", k), string(value), opTimeout)
			})
			n, err := cl.DBSize(opTimeout)
			if err != nil {
				return err
			}
			if n != len(seen) {
				return fmt.Errorf("oracle: cell on port %d holds %d keys, its client set %d distinct ones", port, n, len(seen))
			}
			return nil
		})
	}
	r.await(shardedCells, nil)
	return nil
}

// dialRedis connects to a redis listener, retrying while its acceptor is
// still coming up (cells start as guest threads beside the client).
func dialRedis(s *unikernel.Sys, th *sched.Thread, peer *host.Peer, port int) (*bench.RedisClient, error) {
	var last error
	for try := 0; try < 200; try++ {
		cl, err := bench.DialRedis(s, th, peer, port, time.Second)
		if err == nil {
			return cl, nil
		}
		last = err
		th.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("dial port %d: %w", port, last)
}

// --- kv_heal ---

const (
	healKeys      = 1024                   // 4-byte keys
	healGetPeriod = 500 * time.Microsecond // 2000 GET/s on the virtual clock
	healEvery     = 50                     // completed ops between two recoveries
	healReboot    = "reboot"               // the proactive Reboot("vfs") slot of the rotation
)

// healValue is the 3-byte value every SET of a key carries, so a GET that
// finds the key can be checked whoever wrote it last.
func healValue(seed int64, key string) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%s", seed, key)
	v := h.Sum32()
	return string([]byte{'a' + byte(v%26), 'a' + byte(v/26%26), 'a' + byte(v/676%26)})
}

// healBody runs redis with the AOF on. Connection A issues closed-loop
// SETs (net + FS write + fsync), connection B open-loop GETs on the
// virtual clock, each timed from its due time. After every healEvery
// completed ops one recovery is triggered, rotating in seeded order over a
// crash armed on vfs, 9pfs, lwip, netdev and a proactive reboot of vfs:
// session microreboots and component reboots with checkpoints and log
// truncation live. Oracle: every acknowledged SET is readable by a final
// GET and present in the host AOF, every armed fault fired and was healed,
// and no restore failed.
func healBody(r *run, s *unikernel.Sys) error {
	kv := redis.New()
	if err := s.StartApp(kv); err != nil {
		return err
	}
	rt := r.inst.Runtime()
	r.clients = 2

	rotation := []string{"vfs", "9pfs", "lwip", "netdev", healReboot}
	r.rng.Shuffle(len(rotation), func(i, j int) { rotation[i], rotation[j] = rotation[j], rotation[i] })
	r.rotation = strings.Join(rotation, ",")
	var completed, armed, proactive, pendingReboots int
	r.onOp = func() {
		completed++
		if r.stop || completed%healEvery != 0 {
			return
		}
		target := rotation[(completed/healEvery)%len(rotation)]
		if target == healReboot {
			pendingReboots++
			r.control.Wake()
			return
		}
		if err := rt.ArmFault(target, core.AnyFunction, core.FaultCrash); err != nil {
			r.fail(err)
			return
		}
		armed++
	}
	reboot := func() {
		for ; pendingReboots > 0; pendingReboots-- {
			if err := s.Reboot("vfs"); err != nil {
				r.fail(fmt.Errorf("proactive reboot of vfs: %w", err))
			}
			proactive++
		}
	}

	key := func() string { return fmt.Sprintf("%04d", r.rng.Intn(healKeys)) }
	acked := make(map[string]int)
	peerA, peerB := s.NewPeer(), s.NewPeer()
	r.client(s, "setter", func(th *sched.Thread) error {
		cl, err := dialRedis(s, th, peerA, redis.DefaultPort)
		if err != nil {
			return err
		}
		defer cl.Close()
		set := func() error {
			k := key()
			if err := cl.Set(k, healValue(r.seed, k), opTimeout); err != nil {
				return err
			}
			acked[k]++
			return nil
		}
		r.closedLoop(func() { th.Sleep(50 * time.Microsecond) }, set)
		// Drain: a fault armed near the end has not met a call yet. A SET
		// crosses vfs, 9pfs, lwip and netdev, so a few more fire them all.
		for i := 0; len(rt.PendingFaults()) > 0 || pendingReboots > 0; i++ {
			if i == 100 {
				return fmt.Errorf("oracle: faults still armed after 100 drain SETs: %v", rt.PendingFaults())
			}
			r.do(set, closed)
		}
		for k := range acked {
			got, found, err := cl.Get(k, opTimeout)
			if err != nil {
				return err
			}
			if !found || got != healValue(r.seed, k) {
				return fmt.Errorf("oracle: acknowledged SET of key %s is not readable (found=%v value=%q)", k, found, got)
			}
		}
		return nil
	})
	r.client(s, "getter", func(th *sched.Thread) error {
		cl, err := dialRedis(s, th, peerB, redis.DefaultPort)
		if err != nil {
			return err
		}
		defer cl.Close()
		get := func() error {
			k := key()
			got, found, err := cl.Get(k, opTimeout)
			if err != nil {
				return err
			}
			if found && got != healValue(r.seed, k) {
				return fmt.Errorf("GET %s returned %q", k, got)
			}
			return nil
		}
		r.warmUp(func() { th.Sleep(50 * time.Microsecond) }, get)
		start := r.virtNow()
		for i := 0; !r.stop; i++ {
			due := start + time.Duration(i)*healGetPeriod
			if now := r.virtNow(); now < due {
				th.Sleep(due - now)
				if r.stop {
					break
				}
			}
			r.do(get, due)
		}
		return nil
	})
	r.await(2, reboot)
	if r.err != nil {
		return nil // already fatal; the oracle below would only add noise
	}

	st := rt.Stats()
	if int(st.Failures) != armed {
		return fmt.Errorf("oracle: %d faults armed, %d failures detected", armed, st.Failures)
	}
	if got := len(rt.Reboots()) + len(rt.Microreboots()); got != armed+proactive {
		return fmt.Errorf("oracle: %d recoveries recorded for %d crashes and %d proactive reboots", got, armed, proactive)
	}
	if st.FailedRestores != 0 {
		return fmt.Errorf("oracle: %d restores failed", st.FailedRestores)
	}
	aof, err := s.HostFS().ReadFile(redis.AOFPath)
	if err != nil {
		return fmt.Errorf("oracle: host AOF: %w", err)
	}
	logged := make(map[string]int)
	for _, line := range strings.Split(string(aof), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "SET" && f[2] == healValue(r.seed, f[1]) {
			logged[f[1]]++
		}
	}
	for k, n := range acked {
		if logged[k] < n {
			return fmt.Errorf("oracle: key %s was acknowledged %d times, the host AOF holds %d of them", k, n, logged[k])
		}
	}
	return nil
}
