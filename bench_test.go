package vampos_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VII). ns/op here is the wall-clock cost of simulating one operation;
// the calibrated virtual-time results the paper's numbers map onto are
// produced by `go run ./cmd/vampos-bench` (or internal/bench directly).

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"vampos"
	"vampos/internal/apps/echo"
	"vampos/internal/apps/nginx"
	"vampos/internal/apps/redis"
	"vampos/internal/apps/sqlite"
	"vampos/internal/bench"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// benchConfigs are the two headline configurations; the full five-way
// comparison runs in internal/bench.
var benchConfigs = []struct {
	name string
	core func() core.Config
}{
	{"unikraft", core.VanillaConfig},
	{"vampos-das", vampos.DaSConfig},
}

// runBench boots an instance and executes body as the controller.
func runBench(b *testing.B, coreCfg core.Config, body func(s *vampos.Sys)) {
	b.Helper()
	coreCfg.MaxVirtualTime = 12 * time.Hour
	inst, err := vampos.New(vampos.Config{Core: coreCfg, FS: true, Net: true, Sysinfo: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Host().FS().WriteFile("/www/index.html", []byte(strings.Repeat("x", 180))); err != nil {
		b.Fatal(err)
	}
	if err := inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		body(s)
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5SyscallOverhead measures the paper's seven system calls
// (Fig. 5) under the vanilla and DaS configurations.
func BenchmarkFig5SyscallOverhead(b *testing.B) {
	type op struct {
		name string
		run  func(s *vampos.Sys, fd int) error
	}
	ops := []op{
		{"getpid", func(s *vampos.Sys, _ int) error {
			_, err := s.Getpid()
			return err
		}},
		{"open_close", func(s *vampos.Sys, _ int) error {
			fd, err := s.Open("/bench.dat", unikernel.ORdonly)
			if err != nil {
				return err
			}
			return s.Close(fd)
		}},
		{"write", func(s *vampos.Sys, fd int) error {
			_, err := s.Pwrite(fd, []byte("y"), 0)
			return err
		}},
		{"read", func(s *vampos.Sys, fd int) error {
			_, err := s.Pread(fd, 1, 0)
			return err
		}},
	}
	for _, cfg := range benchConfigs {
		for _, o := range ops {
			b.Run(cfg.name+"/"+o.name, func(b *testing.B) {
				runBench(b, cfg.core(), func(s *vampos.Sys) {
					fd, err := s.Open("/bench.dat", vampos.OCreate|vampos.ORdwr)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Write(fd, []byte("seed")); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := o.run(s, fd); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
				})
			})
		}
	}
}

// BenchmarkTable3LogShrinking measures the session-aware log shrinking
// machinery (Table III): open/write/close cycles with fd reuse.
func BenchmarkTable3LogShrinking(b *testing.B) {
	for _, shrink := range []bool{false, true} {
		name := "shrink-off"
		if shrink {
			name = "shrink-on"
		}
		b.Run(name, func(b *testing.B) {
			cc := vampos.DaSConfig()
			cc.LogShrinkEnabled = shrink
			cc.LogShrinkThreshold = 1 << 20
			runBench(b, cc, func(s *vampos.Sys) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !shrink && i%1000 == 999 {
						// Without shrinking the log grows without bound
						// (the §V-F failure mode); drain it outside the
						// timed region, with a whole-image restart, so
						// b.N can scale.
						b.StopTimer()
						if err := s.FullReboot(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					fd, err := s.Open("/bench.dat", vampos.OCreate|unikernel.OWronly)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Write(fd, []byte("x")); err != nil {
						b.Fatal(err)
					}
					if err := s.Close(fd); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkFig6ComponentReboot measures one component reboot per
// iteration for each of the paper's Fig. 6 targets.
func BenchmarkFig6ComponentReboot(b *testing.B) {
	for _, target := range []struct {
		name string
		core func() core.Config
		comp string
	}{
		{"PROCESS", vampos.DaSConfig, "process"},
		{"VFS", vampos.DaSConfig, "vfs"},
		{"LWIP", vampos.DaSConfig, "lwip"},
		{"9PFS", vampos.DaSConfig, "9pfs"},
		{"VFS+9PFS", core.FSmConfig, "vfs"},
		{"LWIP+NETDEV", core.NETmConfig, "lwip"},
	} {
		b.Run(target.name, func(b *testing.B) {
			runBench(b, target.core(), func(s *vampos.Sys) {
				// A little state so stateful reboots have logs to replay.
				fd, err := s.Open("/warm.dat", vampos.OCreate|vampos.ORdwr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Write(fd, []byte("warm")); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Reboot(target.comp); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkFig7Applications measures one application operation per
// iteration (Fig. 7): a SQLite insert, an Nginx GET, a Redis SET, an
// Echo round trip.
func BenchmarkFig7Applications(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.name+"/sqlite_insert", func(b *testing.B) {
			runBench(b, cfg.core(), func(s *vampos.Sys) {
				db := sqlite.New()
				if err := s.StartApp(db); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec(s, "CREATE TABLE t (k, v)"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec(s, fmt.Sprintf("INSERT INTO t VALUES ('k%d', 'x')", i)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		})
		b.Run(cfg.name+"/nginx_get", func(b *testing.B) {
			runBench(b, cfg.core(), func(s *vampos.Sys) {
				web := nginx.New()
				if err := s.StartApp(web); err != nil {
					b.Fatal(err)
				}
				benchOverConn(b, s, nginx.DefaultPort, func(th *sched.Thread, send func([]byte) error, recvLine func() ([]byte, error), recvN func(int) ([]byte, error)) error {
					if err := send([]byte("GET /index.html HTTP/1.1\r\nHost: g\r\n\r\n")); err != nil {
						return err
					}
					for {
						line, err := recvLine()
						if err != nil {
							return err
						}
						if strings.TrimRight(string(line), "\r\n") == "" {
							break
						}
					}
					_, err := recvN(180)
					return err
				})
			})
		})
		b.Run(cfg.name+"/redis_set", func(b *testing.B) {
			runBench(b, cfg.core(), func(s *vampos.Sys) {
				kv := redis.New()
				if err := s.StartApp(kv); err != nil {
					b.Fatal(err)
				}
				benchOverConn(b, s, redis.DefaultPort, func(th *sched.Thread, send func([]byte) error, recvLine func() ([]byte, error), recvN func(int) ([]byte, error)) error {
					if err := send([]byte("SET k val\n")); err != nil {
						return err
					}
					_, err := recvLine()
					return err
				})
			})
		})
		b.Run(cfg.name+"/echo_roundtrip", func(b *testing.B) {
			runBench(b, cfg.core(), func(s *vampos.Sys) {
				e := echo.New()
				if err := s.StartApp(e); err != nil {
					b.Fatal(err)
				}
				payload := []byte(strings.Repeat("e", 159))
				benchOverConn(b, s, echo.DefaultPort, func(th *sched.Thread, send func([]byte) error, recvLine func() ([]byte, error), recvN func(int) ([]byte, error)) error {
					if err := send(payload); err != nil {
						return err
					}
					_, err := recvN(len(payload))
					return err
				})
			})
		})
	}
}

// benchOverConn runs b.N iterations of op over one peer connection on a
// host thread, timing only the operation loop.
func benchOverConn(b *testing.B, s *vampos.Sys, port int,
	op func(th *sched.Thread, send func([]byte) error, recvLine func() ([]byte, error), recvN func(int) ([]byte, error)) error) {
	b.Helper()
	peer := s.NewPeer()
	done := false
	var err error
	s.GoHost("bench/client", func(th *sched.Thread) {
		defer func() { done = true }()
		conn, derr := peer.Dial(th, uint16(port), 5*time.Second)
		if derr != nil {
			err = derr
			return
		}
		send := func(p []byte) error { return conn.Send(th, p) }
		recvLine := func() ([]byte, error) { return conn.RecvLine(th, 5*time.Second) }
		recvN := func(n int) ([]byte, error) { return conn.RecvExactly(th, n, 5*time.Second) }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if oerr := op(th, send, recvLine, recvN); oerr != nil {
				err = oerr
				return
			}
		}
		b.StopTimer()
		conn.Close(th)
	})
	for !done {
		s.Sleep(time.Millisecond)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable4ThresholdSweep measures an insert under the three
// log-shrink thresholds of Table IV.
func BenchmarkTable4ThresholdSweep(b *testing.B) {
	for _, th := range []int{20, 100, 1000} {
		b.Run(fmt.Sprintf("threshold-%d", th), func(b *testing.B) {
			cc := vampos.DaSConfig()
			cc.LogShrinkThreshold = th
			runBench(b, cc, func(s *vampos.Sys) {
				db := sqlite.New()
				if err := s.StartApp(db); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec(s, "CREATE TABLE t (k, v)"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec(s, fmt.Sprintf("INSERT INTO t VALUES ('k%d', 'x')", i)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkTable5RejuvenationUnderLoad measures one rolling component
// rejuvenation per iteration while an echo client stays connected — the
// zero-lost-requests property of Table V is asserted, not just timed.
func BenchmarkTable5RejuvenationUnderLoad(b *testing.B) {
	runBench(b, vampos.DaSConfig(), func(s *vampos.Sys) {
		e := echo.New()
		if err := s.StartApp(e); err != nil {
			b.Fatal(err)
		}
		peer := s.NewPeer()
		stop := false
		failures := 0
		clientDone := false
		s.GoHost("bench/siege", func(th *sched.Thread) {
			defer func() { clientDone = true }()
			conn, err := peer.Dial(th, echo.DefaultPort, 5*time.Second)
			if err != nil {
				failures++
				return
			}
			for !stop {
				if err := conn.Send(th, []byte("req")); err != nil {
					failures++
					continue
				}
				if _, err := conn.RecvExactly(th, 3, 5*time.Second); err != nil {
					failures++
					continue
				}
				th.Sleep(200 * time.Microsecond)
			}
			conn.Close(th)
		})
		targets := []string{"vfs", "lwip", "9pfs", "process"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Reboot(targets[i%len(targets)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stop = true
		for !clientDone {
			s.Sleep(time.Millisecond)
		}
		if failures != 0 {
			b.Fatalf("%d requests failed across %d rejuvenations", failures, b.N)
		}
	})
}

// BenchmarkFig8FailureRecovery measures one injected-9PFS-crash recovery
// per iteration on a warm Redis (the Fig. 8 scenario's VampOS side).
func BenchmarkFig8FailureRecovery(b *testing.B) {
	runBench(b, vampos.DaSConfig(), func(s *vampos.Sys) {
		kv := redis.New()
		if err := s.StartApp(kv); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if resp := kv.Execute(s, fmt.Sprintf("SET warm%d v", i)); !strings.HasPrefix(resp, "+OK") {
				b.Fatalf("warm: %s", resp)
			}
		}
		rt := s.Instance().Runtime()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.ArmFault("9pfs", "uk_9pfs_write", vampos.FaultCrash); err != nil {
				b.Fatal(err)
			}
			if resp := kv.Execute(s, "SET trigger x"); !strings.HasPrefix(resp, "+OK") {
				b.Fatalf("recovery SET failed: %s", resp)
			}
		}
		b.StopTimer()
		if int(rt.Stats().Failures) != b.N {
			b.Fatalf("failures = %d, want %d", rt.Stats().Failures, b.N)
		}
	})
}

// BenchmarkSuiteSmoke runs the full internal/bench suite once at tiny
// scale through Suite.Run and WriteJSON, so `go test -bench .` exercises
// every experiment and the report path end to end.
func BenchmarkSuiteSmoke(b *testing.B) {
	scale := bench.DefaultScale()
	scale.SyscallTrials = 5
	scale.RebootTrials = 2
	scale.RebootWarmGETs = 20
	scale.SQLiteInserts = 60
	scale.NginxRequests = 60
	scale.NginxConns = 3
	scale.RedisSets = 60
	scale.EchoMessages = 60
	scale.SiegeClients = 3
	scale.SiegeRequests = 6
	scale.RejuvInterval = 500 * time.Millisecond
	scale.Fig8WarmKeys = 100
	scale.Fig8Duration = 6 * time.Second
	scale.Fig8GETRate = 40
	scale.Fig8InjectAt = 2 * time.Second
	for i := 0; i < b.N; i++ {
		suite := &bench.Suite{Scale: scale}
		if err := suite.Run("all", io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := suite.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
