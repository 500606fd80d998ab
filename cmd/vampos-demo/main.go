// Command vampos-demo walks through the paper's case studies in one
// scripted narrative: software rejuvenation of a live web server with
// zero lost requests (§VII-D), failure recovery of a warm key-value
// store after an injected 9PFS fail-stop (§VII-E) with a full-reboot
// baseline for contrast, and sensor-driven adaptive rejuvenation of a
// deliberately leaky TCP/IP stack (§IV's software-aging motivation),
// and session microreboots — rung 1 of the recovery ladder — where a
// crash attributable to one file descriptor is healed by evicting and
// replaying just that session while its neighbours never notice.
// The final scene turns recovery into a security response: a host-side
// tamper of the VFS arena is caught by the arena seal, recovery rolls
// back to a checkpoint strictly predating the taint watermark, and the
// reboot re-randomizes the arena layout. The last two scenes climb past
// the single instance: a gossip-replicated three-member cluster survives
// a VIRTIO fault escalated to killing a whole member, then a network
// partition, and loses no acknowledged write either time.
//
// With -trace <file>, every scene records into a flight recorder and the
// merged Chrome trace-event JSON is written on exit; load it at
// ui.perfetto.dev to follow the causal chain from a syscall through the
// injected crash, its detection, and the phased component reboot.
//
// Exit status is 1 when a scene fails to tell its story.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"vampos"
	"vampos/internal/apps/echo"
	"vampos/internal/apps/nginx"
	"vampos/internal/apps/redis"
	"vampos/internal/sched"
)

// recorders collects one flight recorder per demo instance when -trace
// is given; nil recording stays disabled (and free).
var recorders []*vampos.TraceRecorder

var tracePath = flag.String("trace", "", "write a merged Chrome trace of the demos to this file")

// demoConfig is the shared instance profile of every scene.
func demoConfig() vampos.Config {
	cfg := vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	return cfg
}

// runScene builds an instance from cfg, records it as name when tracing
// is on, and runs body as the controller thread, stopping the simulation
// when body returns. The error is New's or Run's if either failed, else
// body's.
func runScene(cfg vampos.Config, name string, body func(*vampos.Sys, *vampos.Instance) error) error {
	inst, err := vampos.New(cfg)
	if err != nil {
		return err
	}
	defer inst.Close()
	if *tracePath != "" {
		recorders = append(recorders, inst.NewTracer(name))
	}
	var bodyErr error
	if err := inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		bodyErr = body(s, inst)
	}); err != nil {
		return err
	}
	return bodyErr
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
	scenes := []func() error{
		rejuvenationDemo, recoveryDemo, agingDemo, microrebootDemo, defenseDemo,
		func() error { return clusterDemo(false) },
		func() error { return clusterDemo(true) },
	}
	for i, scene := range scenes {
		if i > 0 {
			fmt.Println()
		}
		if err := scene(); err != nil {
			return err
		}
	}
	return nil
}

// rejuvenationDemo reboots every unikernel component under a live HTTP
// client and shows that no request is lost.
func rejuvenationDemo() error {
	fmt.Println("\n[1/7] Software rejuvenation under load (paper §VII-D)")
	return runScene(demoConfig(), "demo/rejuvenation", func(s *vampos.Sys, inst *vampos.Instance) error {
		if err := inst.Host().FS().WriteFile("/www/index.html", []byte(strings.Repeat("x", 180))); err != nil {
			return err
		}
		web := nginx.New()
		if err := s.StartApp(web); err != nil {
			return fmt.Errorf("start nginx: %w", err)
		}
		fmt.Println("  nginx serving on :80 with components:",
			strings.Join(inst.Runtime().Components(), ", "))
		peer := s.NewPeer()
		var ok, fail int
		var clientErr error
		clientDone := false
		s.GoHost("demo/client", func(th *sched.Thread) {
			defer func() { clientDone = true }()
			conn, err := peer.Dial(th, nginx.DefaultPort, 2*time.Second)
			if err != nil {
				clientErr = fmt.Errorf("client dial: %w", err)
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
				return fmt.Errorf("reboot %s: %w", comp, err)
			}
			i++
		}
		if clientErr != nil {
			return clientErr
		}
		fmt.Printf("  rebooted %d components while the client ran\n", i)
		fmt.Printf("  requests: %d ok, %d failed (success ratio %.1f%%)\n",
			ok, fail, 100*float64(ok)/float64(ok+fail))
		recs := inst.Runtime().Reboots()
		for _, rec := range recs[:min(3, len(recs))] {
			fmt.Printf("  e.g. %-12s rebooted in %v (replayed %d log entries)\n",
				rec.Group, rec.VirtualDuration, rec.ReplayedEntries)
		}
		return nil
	})
}

// recoveryDemo injects a 9PFS fail-stop under a warm Redis and compares
// VampOS recovery with the full-reboot baseline.
func recoveryDemo() error {
	fmt.Println("[2/7] Failure recovery of a warm Redis (paper §VII-E)")
	for _, variant := range []string{"vampos", "full-reboot"} {
		err := runScene(demoConfig(), "demo/recovery-"+variant, func(s *vampos.Sys, inst *vampos.Instance) error {
			kv := redis.New()
			if err := s.StartApp(kv); err != nil {
				return fmt.Errorf("start redis: %w", err)
			}
			for i := 0; i < 2000; i++ {
				kv.Execute(s, fmt.Sprintf("SET key%05d %s", i, strings.Repeat("v", 16)))
			}
			fmt.Printf("  [%s] warm store: %d keys, AOF persisted\n", variant, kv.Keys())
			before := s.Elapsed()
			switch variant {
			case "vampos":
				if err := inst.Runtime().ArmFault("9pfs", "uk_9pfs_write", vampos.FaultCrash); err != nil {
					return fmt.Errorf("arm fault: %w", err)
				}
				if resp := kv.Execute(s, "SET trigger x"); !strings.HasPrefix(resp, "+OK") {
					return fmt.Errorf("trigger SET failed: %s", strings.TrimSpace(resp))
				}
				rec := inst.Runtime().Reboots()
				if len(rec) == 0 {
					return errors.New("the armed 9PFS crash never fired")
				}
				fmt.Printf("  [%s] 9PFS crashed and was rebooted in %v; the SET retried transparently\n",
					variant, rec[len(rec)-1].VirtualDuration)
			case "full-reboot":
				if err := s.FullReboot(); err != nil {
					return fmt.Errorf("full reboot: %w", err)
				}
				fmt.Printf("  [%s] whole image restarted; AOF replayed %d entries\n",
					variant, kv.AOFReplayed)
			}
			downtime := s.Elapsed() - before
			if resp := kv.Execute(s, "GET key00042"); !strings.Contains(resp, "v") {
				return fmt.Errorf("data lost: %s", strings.TrimSpace(resp))
			}
			fmt.Printf("  [%s] service disruption: %v; key data intact\n", variant, downtime)
			return nil
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
	fmt.Println("[3/7] Adaptive aging-driven rejuvenation (paper §IV motivation)")
	cfg := demoConfig()
	cfg.Core.Aging = vampos.AgingPolicy{
		SamplePeriod: 10 * time.Millisecond,
		LeakSlope:    256 << 10, // bytes per virtual second
		Cooldown:     200 * time.Millisecond,
	}
	cfg.Core.AgingTargets = []string{target}
	return runScene(cfg, "demo/aging", func(s *vampos.Sys, inst *vampos.Instance) error {
		if err := s.StartApp(echo.New()); err != nil {
			return fmt.Errorf("start echo: %w", err)
		}
		pol := cfg.Core.Aging
		fmt.Printf("  watching %s: leak-slope > %.0f B/s (sampled every %v)\n",
			target, pol.LeakSlope, pol.SamplePeriod)
		var ok, fail int
		var clientErr error
		clientDone := false
		stop := false
		peer := s.NewPeer()
		s.GoHost("demo/echo-client", func(th *sched.Thread) {
			defer func() { clientDone = true }()
			conn, err := peer.Dial(th, echo.DefaultPort, 2*time.Second)
			if err != nil {
				clientErr = fmt.Errorf("client dial: %w", err)
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
		rt := inst.Runtime()
		inj := vampos.NewInjector(rt)
		before, _ := rt.ComponentStats(target)
		var leaked int64
		for i := 0; i < 64; i++ {
			if _, err := inj.LeakBytes(target, 8<<10, 8<<10); err != nil {
				return fmt.Errorf("leak: %w", err)
			}
			leaked += 8 << 10
			s.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("  dripped a %dKiB leak into %s (heap %dKiB -> observing...)\n",
			leaked>>10, target, before.Heap.AllocatedBytes>>10)
		deadline := s.Elapsed() + 10*time.Second
		for s.Elapsed() < deadline {
			if cs, _ := rt.ComponentStats(target); cs.Aging != nil && cs.Aging.Rejuvenations > 0 {
				break
			}
			s.Sleep(pol.SamplePeriod)
		}
		stop = true
		for !clientDone {
			s.Sleep(5 * time.Millisecond)
		}
		if clientErr != nil {
			return clientErr
		}
		after, _ := rt.ComponentStats(target)
		st := after.Aging
		if st == nil || st.Rejuvenations == 0 {
			return errors.New("sensors never fired: the leak is too slow for the policy's thresholds")
		}
		fmt.Printf("  sensors fired (%s): %d rejuvenation(s), heap %dKiB -> %dKiB\n",
			st.LastCause, st.Rejuvenations, (before.Heap.AllocatedBytes+leaked)>>10, after.Heap.AllocatedBytes>>10)
		fmt.Printf("  requests during the scene: %d ok, %d failed\n", ok, fail)
		fmt.Println("\nThe controller healed the aged component from observed health, not a wall timer.")
		return nil
	})
}

// microrebootDemo walks rung 1 of the recovery ladder: a crash
// attributable to one fd's session is healed by evicting and replaying
// just that session inside the live VFS, then a pipe — whose shared
// buffer refuses eviction — shows the honest escalation to rung 2.
func microrebootDemo() error {
	fmt.Println("[4/7] Session microreboot — recovery ladder rung 1 (finest granularity)")
	cfg := demoConfig()
	cfg.Core.Microreboot = true
	return runScene(cfg, "demo/microreboot", func(s *vampos.Sys, inst *vampos.Instance) error {
		fd1, err := s.Open("/journal.log", vampos.OCreate|vampos.ORdwr)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		fd2, err := s.Open("/sidecar.log", vampos.OCreate|vampos.ORdwr)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		s.Write(fd1, []byte("journal-"))
		s.Write(fd2, []byte("sidecar"))
		rt := inst.Runtime()
		if err := rt.ArmFaultSpec("vfs", "pwrite", vampos.FaultSpec{Kind: vampos.FaultCrash, After: 1}); err != nil {
			return fmt.Errorf("arm fault: %w", err)
		}
		fmt.Printf("  two sessions open (fd:%d, fd:%d); crash armed on fd:%d's next pwrite\n", fd1, fd2, fd1)
		if _, err := s.Pwrite(fd1, []byte("J"), 0); err != nil {
			return fmt.Errorf("pwrite: %w", err)
		}
		recs := rt.Microreboots()
		if len(recs) == 0 {
			return errors.New("no microreboot happened")
		}
		m := recs[len(recs)-1]
		fmt.Printf("  crash attributed to session %s: evicted + replayed %d log entries in %v\n",
			m.Session, m.ReplayedEntries, m.VirtualDuration)
		fmt.Printf("  component reboots: %d — the other session never noticed\n", len(rt.Reboots()))
		data, err := s.Pread(fd2, 16, 0)
		if err != nil {
			return fmt.Errorf("pread the untouched session: %w", err)
		}
		fmt.Printf("  untouched fd:%d still reads %q\n", fd2, data)
		// A pipe's two fds share one buffer: eviction refuses, and the
		// ladder climbs honestly to the component reboot.
		r, w, err := s.Pipe()
		if err != nil {
			return fmt.Errorf("pipe: %w", err)
		}
		s.Write(w, []byte("in-flight"))
		if err := s.MicrorebootSession("vfs", fmt.Sprintf("fd:%d", r)); !errors.Is(err, vampos.ErrMicrorebootEscalated) {
			return fmt.Errorf("pipe microreboot did not escalate: %v", err)
		}
		fmt.Printf("  pipe session refused eviction; escalated to component reboot (%d total)\n",
			len(rt.Reboots()))
		data, _, err = s.Read(r, 16)
		if err != nil {
			return fmt.Errorf("read the pipe after the reboot: %w", err)
		}
		fmt.Printf("  pipe content survived the rung-2 reboot: %q\n", data)
		fmt.Println("\nThe ladder: session microreboot -> component reboot -> instance kill -> full restart.")
		return nil
	})
}

// defenseDemo stages a host-side tamper against the live VFS arena and
// follows the active-defense pipeline end to end: the arena seal breaks
// at the next quiescent point, the detection stamps a taint watermark,
// recovery rolls back to a checkpoint image strictly predating it
// (quarantining everything newer), and the reboot re-randomizes the
// arena layout so any address the attacker learned is dead.
func defenseDemo() error {
	const sealEvery = 4 // verify each sealed arena every N completed calls
	fmt.Println("[5/7] Active defense — tamper, taint-aware rollback, re-randomized reboot")
	cfg := demoConfig()
	// The rollback needs an image history to land on.
	cfg.Core.Ckpt = vampos.CkptPolicy{EveryCalls: 8}
	cfg.Core.Defense = vampos.DefensePolicy{
		Enabled:        true,
		SealEveryCalls: sealEvery,
		HistoryDepth:   4,
		Seed:           42,
	}
	return runScene(cfg, "demo/defense", func(s *vampos.Sys, inst *vampos.Instance) error {
		kv := redis.New() // the AOF keeps the vfs path hot
		if err := s.StartApp(kv); err != nil {
			return fmt.Errorf("start redis: %w", err)
		}
		for i := 0; i < 40; i++ {
			kv.Execute(s, fmt.Sprintf("SET key%03d v%03d", i, i))
		}
		rt := inst.Runtime()
		before, _ := rt.ComponentStats("vfs")
		fmt.Printf("  warm store: %d keys, AOF on vfs; arena seals verified every %d calls\n",
			kv.Keys(), sealEvery)
		heap, ok := rt.ComponentHeap("vfs")
		if !ok {
			return errors.New("no vfs heap")
		}
		addr, err := heap.Alloc(32)
		if err != nil {
			return fmt.Errorf("alloc: %w", err)
		}
		if err := rt.Memory().HostWrite(addr, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			return fmt.Errorf("tamper: %w", err)
		}
		fmt.Println("  host flipped bytes inside the vfs arena — never legitimate mid-run")
		deadline := s.Elapsed() + 5*time.Second
		for rt.Stats().TamperDetections == 0 && s.Elapsed() < deadline {
			kv.Execute(s, "SET canary x")
			s.Sleep(time.Millisecond)
		}
		if rt.Stats().TamperDetections == 0 {
			return errors.New("seal never broke: the tamper went undetected")
		}
		recs := rt.Reboots()
		if len(recs) == 0 {
			return errors.New("detection without a reboot")
		}
		r := recs[len(recs)-1]
		fmt.Printf("  seal broke (%s) -> taint watermark seq %d\n", r.Reason, r.TaintWatermark)
		fmt.Printf("  rolled back to the image at epoch seq %d — strictly before the watermark —\n"+
			"  quarantined %d newer image(s), replayed %d un-tainted log entries\n",
			r.RestoredEpochSeq, r.QuarantinedImages, r.ReplayedEntries)
		after, _ := rt.ComponentStats("vfs")
		fmt.Printf("  fresh incarnation re-randomized its arena: fingerprint %#x -> %#x\n",
			before.LayoutFingerprint, after.LayoutFingerprint)
		if resp := kv.Execute(s, "GET key007"); !strings.Contains(resp, "v007") {
			return fmt.Errorf("pre-attack data lost: %s", strings.TrimSpace(resp))
		}
		fmt.Println("  pre-attack data intact; post-watermark state never trusted again")
		fmt.Println("\nRecovery is the security response: detect, roll back past the taint, re-randomize.")
		return nil
	})
}

// The cluster scenes' fixed walk-through: three DaS members with write
// quorum W=2, member 1 takes the fault, and 60 client writes run with a
// background gossip round every 8.
const (
	clusterNodes       = 3
	clusterReplication = 2 // owner + one backup apply before the ack
	clusterVictim      = 1
	clusterWrites      = 60
	clusterGossipEvery = 8
)

// clusterDemo walks a gossip-replicated cluster up the rung above the
// component reboot: warm a replicated write set, fail one member — a
// VIRTIO fault escalated to a whole-instance kill, or a network
// partition — keep serving through the outage, recover, and check that
// every live replica holds every acknowledged write.
func clusterDemo(partition bool) error {
	name := "demo/cluster-instancekill"
	if partition {
		name = "demo/cluster-partition"
		fmt.Println("[7/7] Cluster — a partitioned member refuses writes, heals and reconverges")
	} else {
		fmt.Println("[6/7] Cluster — a VIRTIO fault escalated to killing the whole member")
	}
	cfg := vampos.ClusterConfig{Nodes: clusterNodes, Replication: clusterReplication, Core: vampos.DaSConfig()}
	if *tracePath != "" {
		cfg.OnInstance = func(id int, inst *vampos.Instance) {
			recorders = append(recorders, inst.NewTracer(fmt.Sprintf("%s/node%d", name, id)))
		}
	}
	c, err := vampos.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Stop()
	fmt.Printf("  booted %d members (replication W=%d, das)\n", clusterNodes, clusterReplication)

	shadow := map[string]string{} // every acknowledged write
	// writes issues n writes named prefix000.., the i-th via member
	// first+i (the next one when that member is down), with a gossip
	// round every clusterGossipEvery writes when gossip is set.
	writes := func(prefix string, n, first int, gossip bool) error {
		for i := 0; i < n; i++ {
			via := (first + i) % clusterNodes
			if !c.Alive(via) {
				via = (via + 1) % clusterNodes
			}
			key, val := fmt.Sprintf("%s%03d", prefix, i), fmt.Sprintf("v%d", i)
			if err := c.PutVia(via, key, val); err != nil {
				fmt.Printf("    write %s via node %d refused: %v\n", key, via, err)
			} else {
				shadow[key] = val
			}
			if gossip && (i+1)%clusterGossipEvery == 0 {
				if _, err := c.GossipRound(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	third := clusterWrites / 3
	if err := writes("warm", third, 0, true); err != nil {
		return err
	}
	if _, err := c.GossipUntilQuiet(); err != nil {
		return err
	}
	fmt.Printf("  warm: %d writes acknowledged and converged\n", len(shadow))

	if partition {
		fmt.Printf("  partitioning node %d from its peers ...\n", clusterVictim)
		c.Isolate(clusterVictim)
	} else {
		fmt.Printf("  injecting VIRTIO fault on node %d ...\n", clusterVictim)
		rec, err := c.RecoverComponent(clusterVictim, "virtio")
		if err != nil {
			return err
		}
		if c.Alive(clusterVictim) {
			return fmt.Errorf("VIRTIO fault did not escalate to an instance kill: %+v", rec)
		}
		fmt.Printf("    component reboot refused (%v) -> escalated to instance kill\n", rec.Err)
	}

	before := len(shadow)
	if err := writes("out", third, clusterVictim+1, true); err != nil {
		return err
	}
	fmt.Printf("  outage: %d of %d writes acknowledged\n", len(shadow)-before, third)

	if partition {
		c.Heal()
		fmt.Println("  partition healed; queued deltas flow on the next gossip round")
	} else {
		if err := c.ReviveInstance(clusterVictim); err != nil {
			return err
		}
		fmt.Printf("  revived node %d (boot + anti-entropy resync), virtual clock %v\n",
			clusterVictim, c.NodeVirtual(clusterVictim))
	}

	if err := writes("post", clusterWrites-2*third, clusterVictim, false); err != nil {
		return err
	}
	if _, err := c.GossipUntilQuiet(); err != nil {
		return err
	}
	conv, err := c.Converged()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lost := 0
	for _, k := range keys {
		for id := 0; id < clusterNodes; id++ {
			if !c.Alive(id) {
				continue
			}
			got, ok, err := c.GetFrom(id, k)
			if err != nil || !ok || got != shadow[k] {
				lost++
				fmt.Printf("    LOST: %s on node %d (got %q, present=%v, err=%v)\n", k, id, got, ok, err)
				break
			}
		}
	}
	st := c.Stats()
	fmt.Printf("  converged=%v, acked=%d rejected=%d, acked-writes-lost=%d\n", conv, st.Acked, st.Rejected, lost)
	fmt.Printf("  stats: kills=%d revives=%d resyncs=%d componentReboots=%d escalations=%d gossipRounds=%d deltas=%d\n",
		st.Kills, st.Revives, st.Resyncs, st.ComponentReboots, st.Escalations, st.GossipRounds, st.DeltasDelivered)
	if !conv || lost > 0 {
		return fmt.Errorf("cluster recovery broke an invariant: converged=%v, %d acknowledged writes lost", conv, lost)
	}
	if partition {
		fmt.Println("\nA cut-off member refuses what it cannot replicate, so no acknowledged write is lost.")
	} else {
		fmt.Println("\nA member the component reboot cannot save is killed, served around and rebuilt from its peers.")
	}
	return nil
}
