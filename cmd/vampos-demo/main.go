// Command vampos-demo walks through the paper's case studies in one
// scripted narrative: software rejuvenation of a live web server with
// zero lost requests (§VII-D), failure recovery of a warm key-value
// store after an injected 9PFS fail-stop (§VII-E) with a full-reboot
// baseline for contrast, and sensor-driven adaptive rejuvenation of a
// deliberately leaky TCP/IP stack (§IV's software-aging motivation;
// tune it with -aging, -aging-leak and -aging-frag), and session
// microreboots — rung 1 of the recovery ladder — where a crash
// attributable to one file descriptor is healed by evicting and
// replaying just that session while its neighbours never notice.
// The final scene (skip with -defense=false) turns recovery into a
// security response: a host-side tamper of the VFS arena is caught by
// the arena seal, recovery rolls back to a checkpoint strictly predating
// the taint watermark, and the reboot re-randomizes the arena layout.
//
// With -trace <file>, every scene records into a flight recorder and the
// merged Chrome trace-event JSON is written on exit; load it at
// ui.perfetto.dev to follow the causal chain from a syscall through the
// injected crash, its detection, and the phased component reboot.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vampos"
	"vampos/internal/apps/echo"
	"vampos/internal/apps/nginx"
	"vampos/internal/apps/redis"
	"vampos/internal/mem"
	"vampos/internal/sched"
)

// recorders collects one flight recorder per demo instance when -trace
// is given; nil recording stays disabled (and free).
var recorders []*vampos.TraceRecorder

var (
	tracePath  = flag.String("trace", "", "write a merged Chrome trace of the demos to this file")
	ckptEvery  = flag.Int("ckpt-every", 0, "incremental checkpoint cadence for stateful components (completed calls; 0 = paper behaviour, post-init checkpoint only)")
	ckptThresh = flag.Int("ckpt-threshold", 0, "incremental checkpoint log trigger (retained records; 0 = off)")
	agingPd    = flag.Duration("aging", 10*time.Millisecond, "adaptive rejuvenation sensor sample period for the aging scene")
	agingLeak  = flag.Float64("aging-leak", 256<<10, "adaptive leak-slope threshold (bytes per virtual second)")
	agingFrag  = flag.Float64("aging-frag", -1, "adaptive fragmentation threshold in [0,1] (negative = sensor off)")
	defenseF   = flag.Bool("defense", true, "include the active-defense scene (tamper detection, taint-aware rollback, re-randomized reboot)")
	defSeal    = flag.Int("defense-seal", 4, "defense scene: verify each sealed arena every N completed calls")
)

// demoAgingPolicy builds the aging scene's sensor policy from the flags.
func demoAgingPolicy() vampos.AgingPolicy {
	return vampos.AgingPolicy{
		SamplePeriod: *agingPd,
		Window:       4,
		Thresholds: vampos.AgingThresholds{
			LeakSlope:     *agingLeak,
			Fragmentation: *agingFrag,
			LogBacklog:    -1,
			LatencyDrift:  -1,
			ErrorRate:     -1,
		},
		Cooldown: 200 * time.Millisecond,
	}
}

// demoConfig is the shared instance profile of both scenes, with the
// checkpoint flags applied.
func demoConfig() vampos.Config {
	cfg := vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	cfg.Core.Ckpt = vampos.CkptPolicy{EveryCalls: *ckptEvery, LogThreshold: *ckptThresh}
	return cfg
}

// record attaches a recorder named name to inst when tracing is on.
func record(inst *vampos.Instance, name string) {
	if *tracePath == "" {
		return
	}
	recorders = append(recorders, inst.NewTracer(name))
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "vampos-demo: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "vampos-demo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s (open at ui.perfetto.dev)\n", *tracePath)
	}
}

func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vampos.WriteChromeTrace(f, recorders...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run() error {
	fmt.Println("VampOS demo — component-level reboot recovery of a unikernel")
	fmt.Println(strings.Repeat("=", 64))
	if err := rejuvenationDemo(); err != nil {
		return err
	}
	fmt.Println()
	if err := recoveryDemo(); err != nil {
		return err
	}
	fmt.Println()
	if err := agingDemo(); err != nil {
		return err
	}
	fmt.Println()
	if err := microrebootDemo(); err != nil {
		return err
	}
	if !*defenseF {
		return nil
	}
	fmt.Println()
	return defenseDemo()
}

// rejuvenationDemo reboots every unikernel component under a live HTTP
// client and shows that no request is lost.
func rejuvenationDemo() error {
	fmt.Println("\n[1/5] Software rejuvenation under load (paper §VII-D)")
	inst, err := vampos.New(demoConfig())
	if err != nil {
		return err
	}
	record(inst, "demo/rejuvenation")
	if err := inst.Host().FS().WriteFile("/www/index.html", []byte(strings.Repeat("x", 180))); err != nil {
		return err
	}
	return inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		web := nginx.New()
		if err := s.StartApp(web); err != nil {
			fmt.Println("  start nginx:", err)
			return
		}
		fmt.Println("  nginx serving on :80 with components:",
			strings.Join(inst.Runtime().Components(), ", "))
		peer := s.NewPeer()
		var ok, fail int
		clientDone := false
		s.GoHost("demo/client", func(th *sched.Thread) {
			defer func() { clientDone = true }()
			conn, err := peer.Dial(th, nginx.DefaultPort, 2*time.Second)
			if err != nil {
				fmt.Println("  client dial:", err)
				return
			}
			for i := 0; i < 120; i++ {
				req := "GET / HTTP/1.1\r\nHost: demo\r\n\r\n"
				if err := conn.Send(th, []byte(req)); err != nil {
					fail++
					continue
				}
				if _, err := conn.RecvLine(th, 2*time.Second); err != nil {
					fail++
					continue
				}
				for {
					line, err := conn.RecvLine(th, 2*time.Second)
					if err != nil {
						fail++
						break
					}
					if strings.TrimRight(string(line), "\r\n") == "" {
						break
					}
				}
				if _, err := conn.RecvExactly(th, 180, 2*time.Second); err != nil {
					fail++
					continue
				}
				ok++
				th.Sleep(5 * time.Millisecond)
			}
			conn.Close(th)
		})
		targets := []string{"process", "sysinfo", "user", "timer", "netdev", "9pfs", "lwip", "vfs"}
		i := 0
		for !clientDone {
			s.Sleep(60 * time.Millisecond)
			if clientDone {
				break
			}
			comp := targets[i%len(targets)]
			if err := s.Reboot(comp); err != nil {
				fmt.Println("  reboot", comp, ":", err)
				return
			}
			i++
		}
		fmt.Printf("  rebooted %d components while the client ran\n", i)
		fmt.Printf("  requests: %d ok, %d failed (success ratio %.1f%%)\n",
			ok, fail, 100*float64(ok)/float64(ok+fail))
		for _, rec := range inst.Runtime().Reboots()[:min(3, len(inst.Runtime().Reboots()))] {
			fmt.Printf("  e.g. %-12s rebooted in %v (replayed %d log entries)\n",
				rec.Group, rec.VirtualDuration, rec.ReplayedEntries)
		}
	})
}

// recoveryDemo injects a 9PFS fail-stop under a warm Redis and compares
// VampOS recovery with the full-reboot baseline.
func recoveryDemo() error {
	fmt.Println("[2/5] Failure recovery of a warm Redis (paper §VII-E)")
	for _, variant := range []string{"vampos", "full-reboot"} {
		inst, err := vampos.New(demoConfig())
		if err != nil {
			return err
		}
		record(inst, "demo/recovery-"+variant)
		err = inst.Run(func(s *vampos.Sys) {
			defer s.Stop()
			kv := redis.New()
			if err := s.StartApp(kv); err != nil {
				fmt.Println("  start redis:", err)
				return
			}
			for i := 0; i < 2000; i++ {
				kv.Execute(s, fmt.Sprintf("SET key%05d %s", i, strings.Repeat("v", 16)))
			}
			fmt.Printf("  [%s] warm store: %d keys, AOF persisted\n", variant, kv.Keys())
			before := s.Elapsed()
			switch variant {
			case "vampos":
				if err := inst.Runtime().ArmFault("9pfs", "uk_9pfs_write", vampos.FaultCrash); err != nil {
					fmt.Println("  arm fault:", err)
					return
				}
				if resp := kv.Execute(s, "SET trigger x"); !strings.HasPrefix(resp, "+OK") {
					fmt.Println("  trigger SET failed:", strings.TrimSpace(resp))
					return
				}
				rec := inst.Runtime().Reboots()
				fmt.Printf("  [%s] 9PFS crashed and was rebooted in %v; the SET retried transparently\n",
					variant, rec[len(rec)-1].VirtualDuration)
			case "full-reboot":
				if err := s.FullReboot(); err != nil {
					fmt.Println("  full reboot:", err)
					return
				}
				fmt.Printf("  [%s] whole image restarted; AOF replayed %d entries\n",
					variant, kv.AOFReplayed)
			}
			downtime := s.Elapsed() - before
			if resp := kv.Execute(s, "GET key00042"); !strings.Contains(resp, "v") {
				fmt.Println("  data lost:", strings.TrimSpace(resp))
				return
			}
			fmt.Printf("  [%s] service disruption: %v; key data intact\n", variant, downtime)
		})
		if err != nil {
			return err
		}
	}
	fmt.Println("\nVampOS recovers in milliseconds; the full reboot pays boot + AOF reload.")
	return nil
}

// agingDemo drips an allocator leak into the TCP/IP stack under a live
// echo client and lets the sensor-driven controller notice and heal it.
func agingDemo() error {
	const target = "lwip"
	fmt.Println("[3/5] Adaptive aging-driven rejuvenation (paper §IV motivation)")
	cfg := demoConfig()
	cfg.Core.Aging = demoAgingPolicy()
	cfg.Core.AgingTargets = []string{target}
	inst, err := vampos.New(cfg)
	if err != nil {
		return err
	}
	record(inst, "demo/aging")
	return inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		if err := s.StartApp(echo.New()); err != nil {
			fmt.Println("  start echo:", err)
			return
		}
		pol := inst.Runtime().AgingDriver().Policy()
		fmt.Printf("  watching %s: leak-slope > %.0f B/s (sampled every %v)\n",
			target, pol.Thresholds.LeakSlope, pol.SamplePeriod)
		var ok, fail int
		clientDone := false
		stop := false
		peer := s.NewPeer()
		s.GoHost("demo/echo-client", func(th *sched.Thread) {
			defer func() { clientDone = true }()
			conn, err := peer.Dial(th, echo.DefaultPort, 2*time.Second)
			if err != nil {
				fmt.Println("  client dial:", err)
				return
			}
			defer conn.Close(th)
			payload := []byte("ping-ping-ping-ping")
			for !stop {
				if err := conn.Send(th, payload); err != nil {
					fail++
				} else if _, err := conn.RecvExactly(th, len(payload), 2*time.Second); err != nil {
					fail++
				} else {
					ok++
				}
				th.Sleep(10 * time.Millisecond)
			}
		})
		inj := vampos.NewInjector(inst.Runtime())
		before, err := inj.HeapStats(target)
		if err != nil {
			fmt.Println("  heap stats:", err)
			return
		}
		var leaked int64
		for i := 0; i < 64; i++ {
			if _, err := inj.LeakBytes(target, 8<<10, 8<<10); err != nil {
				fmt.Println("  leak:", err)
				return
			}
			leaked += 8 << 10
			s.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("  dripped a %dKiB leak into %s (heap %dKiB -> observing...)\n",
			leaked>>10, target, before.AllocatedBytes>>10)
		deadline := s.Elapsed() + 10*time.Second
		for s.Elapsed() < deadline {
			if st, okst := inst.Runtime().AgingStats(target); okst && st.Rejuvenations > 0 {
				break
			}
			s.Sleep(pol.SamplePeriod)
		}
		stop = true
		for !clientDone {
			s.Sleep(5 * time.Millisecond)
		}
		st, okst := inst.Runtime().AgingStats(target)
		if !okst || st.Rejuvenations == 0 {
			fmt.Println("  sensors never fired — leak too slow for the configured thresholds")
			return
		}
		after, _ := inj.HeapStats(target)
		fmt.Printf("  sensors fired (%s): %d rejuvenation(s), heap %dKiB -> %dKiB\n",
			st.LastCause, st.Rejuvenations, (before.AllocatedBytes+leaked)>>10, after.AllocatedBytes>>10)
		fmt.Printf("  requests during the scene: %d ok, %d failed\n", ok, fail)
		fmt.Println("\nThe controller healed the aged component from observed health, not a wall timer.")
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// microrebootDemo walks rung 1 of the recovery ladder: a crash
// attributable to one fd's session is healed by evicting and replaying
// just that session inside the live VFS, then a pipe — whose shared
// buffer refuses eviction — shows the honest escalation to rung 2.
func microrebootDemo() error {
	fmt.Println("[4/5] Session microreboot — recovery ladder rung 1 (finest granularity)")
	cfg := demoConfig()
	cfg.Core.Microreboot = true
	inst, err := vampos.New(cfg)
	if err != nil {
		return err
	}
	record(inst, "demo/microreboot")
	return inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		fd1, err := s.Open("/journal.log", vampos.OCreate|vampos.ORdwr)
		if err != nil {
			fmt.Println("  open:", err)
			return
		}
		fd2, err := s.Open("/sidecar.log", vampos.OCreate|vampos.ORdwr)
		if err != nil {
			fmt.Println("  open:", err)
			return
		}
		s.Write(fd1, []byte("journal-"))
		s.Write(fd2, []byte("sidecar"))
		rt := inst.Runtime()
		if err := rt.ArmFaultSpec("vfs", "pwrite", vampos.FaultSpec{Kind: vampos.FaultCrash, After: 1}); err != nil {
			fmt.Println("  arm fault:", err)
			return
		}
		fmt.Printf("  two sessions open (fd:%d, fd:%d); crash armed on fd:%d's next pwrite\n", fd1, fd2, fd1)
		if _, err := s.Pwrite(fd1, []byte("J"), 0); err != nil {
			fmt.Println("  pwrite:", err)
			return
		}
		recs := rt.Microreboots()
		if len(recs) == 0 {
			fmt.Println("  no microreboot happened (is Microreboot enabled?)")
			return
		}
		m := recs[len(recs)-1]
		fmt.Printf("  crash attributed to session %s: evicted + replayed %d log entries in %v\n",
			m.Session, m.ReplayedEntries, m.VirtualDuration)
		fmt.Printf("  component reboots: %d — the other session never noticed\n", len(rt.Reboots()))
		if data, err := s.Pread(fd2, 16, 0); err == nil {
			fmt.Printf("  untouched fd:%d still reads %q\n", fd2, data)
		}
		// A pipe's two fds share one buffer: eviction refuses, and the
		// ladder climbs honestly to the component reboot.
		r, w, err := s.Pipe()
		if err != nil {
			fmt.Println("  pipe:", err)
			return
		}
		s.Write(w, []byte("in-flight"))
		err = s.MicrorebootSession("vfs", fmt.Sprintf("fd:%d", r))
		if errors.Is(err, vampos.ErrMicrorebootEscalated) {
			fmt.Printf("  pipe session refused eviction; escalated to component reboot (%d total)\n",
				len(rt.Reboots()))
		} else if err != nil {
			fmt.Println("  microreboot:", err)
			return
		}
		if data, _, err := s.Read(r, 16); err == nil {
			fmt.Printf("  pipe content survived the rung-2 reboot: %q\n", data)
		}
		fmt.Println("\nThe ladder: session microreboot -> component reboot -> instance kill -> full restart.")
	})
}

// defenseDemo stages a host-side tamper against the live VFS arena and
// follows the active-defense pipeline end to end: the arena seal breaks
// at the next quiescent point, the detection stamps a taint watermark,
// recovery rolls back to a checkpoint image strictly predating it
// (quarantining everything newer), and the reboot re-randomizes the
// arena layout so any address the attacker learned is dead.
func defenseDemo() error {
	fmt.Println("[5/5] Active defense — tamper, taint-aware rollback, re-randomized reboot")
	cfg := demoConfig()
	if cfg.Core.Ckpt.EveryCalls == 0 && cfg.Core.Ckpt.LogThreshold == 0 {
		// The rollback needs an image history to land on.
		cfg.Core.Ckpt = vampos.CkptPolicy{EveryCalls: 8}
	}
	cfg.Core.Defense = vampos.DefensePolicy{
		Enabled:        true,
		Rerandomize:    true,
		SealEveryCalls: *defSeal,
		HistoryDepth:   4,
		Seed:           42,
	}
	inst, err := vampos.New(cfg)
	if err != nil {
		return err
	}
	record(inst, "demo/defense")
	return inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		kv := redis.New() // the AOF keeps the vfs path hot
		if err := s.StartApp(kv); err != nil {
			fmt.Println("  start redis:", err)
			return
		}
		for i := 0; i < 40; i++ {
			kv.Execute(s, fmt.Sprintf("SET key%03d v%03d", i, i))
		}
		rt := inst.Runtime()
		fp0 := rt.LayoutFingerprint("vfs")
		fmt.Printf("  warm store: %d keys, AOF on vfs; arena seals verified every %d calls\n",
			kv.Keys(), *defSeal)
		heap, ok := rt.ComponentHeap("vfs")
		if !ok {
			fmt.Println("  no vfs heap")
			return
		}
		addr, err := heap.Alloc(32)
		if err != nil {
			fmt.Println("  alloc:", err)
			return
		}
		if err := rt.Memory().HostWrite(mem.Addr(addr), []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			fmt.Println("  tamper:", err)
			return
		}
		fmt.Println("  host flipped bytes inside the vfs arena — never legitimate mid-run")
		deadline := s.Elapsed() + 5*time.Second
		for rt.Stats().TamperDetections == 0 && s.Elapsed() < deadline {
			kv.Execute(s, "SET canary x")
			s.Sleep(time.Millisecond)
		}
		if rt.Stats().TamperDetections == 0 {
			fmt.Println("  seal never broke — tamper undetected?")
			return
		}
		recs := rt.Reboots()
		if len(recs) == 0 {
			fmt.Println("  detection without a reboot?")
			return
		}
		r := recs[len(recs)-1]
		fmt.Printf("  seal broke (%s) -> taint watermark seq %d\n", r.Reason, r.TaintWatermark)
		fmt.Printf("  rolled back to the image at epoch seq %d — strictly before the watermark —\n"+
			"  quarantined %d newer image(s), replayed %d un-tainted log entries\n",
			r.RestoredEpochSeq, r.QuarantinedImages, r.ReplayedEntries)
		fp1 := rt.LayoutFingerprint("vfs")
		fmt.Printf("  fresh incarnation re-randomized its arena: fingerprint %#x -> %#x\n", fp0, fp1)
		if resp := kv.Execute(s, "GET key007"); strings.Contains(resp, "v007") {
			fmt.Println("  pre-attack data intact; post-watermark state never trusted again")
		} else {
			fmt.Println("  pre-attack data lost:", strings.TrimSpace(resp))
		}
		fmt.Println("\nRecovery is the security response: detect, roll back past the taint, re-randomize.")
	})
}
