package unikernel_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vampos/internal/aging"
	"vampos/internal/apps/redis"
	"vampos/internal/core"
	"vampos/internal/faults"
	"vampos/internal/unikernel"
)

// TestRejuvenationUnderWorkloadE2E is the checkpoint × rejuvenation
// end-to-end test: a checkpointed component (VFS, holding Redis's AOF
// file descriptor) is leaked into mid-workload until the sensor-driven
// controller rejuvenates it, while incremental checkpointing is live.
// The host-side shadow store must stay consistent with the guest — no
// acknowledged SET may be lost, no command may fail — and the
// rejuvenation must leave a fresh checkpoint behind. Run under -race
// this also exercises the controller's cross-goroutine stop paths.
func TestRejuvenationUnderWorkloadE2E(t *testing.T) {
	const target = "vfs"
	cfg := unikernel.Config{Core: core.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	cfg.Core.Ckpt.EveryCalls = 32
	cfg.Core.Aging = aging.Policy{
		SamplePeriod: 2 * time.Millisecond,
		LeakSlope:    1 << 20, // bytes per virtual second
		Cooldown:     20 * time.Millisecond,
	}
	cfg.Core.AgingTargets = []string{target}
	inst, err := unikernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[string]string{}
	var fails []string
	var baseAlloc, peakAlloc int64
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		kv := redis.New()
		if err := s.StartApp(kv); err != nil {
			t.Errorf("start redis: %v", err)
			return
		}
		inj := faults.NewInjector(inst.Runtime())
		set := func(i int) {
			k := fmt.Sprintf("key%04d", i)
			v := fmt.Sprintf("val%04d", i)
			if resp := kv.Execute(s, "SET "+k+" "+v); strings.HasPrefix(resp, "+OK") {
				shadow[k] = v
			} else {
				fails = append(fails, strings.TrimSpace(resp))
			}
		}
		rt := inst.Runtime()
		if cs, ok := rt.ComponentStats(target); ok {
			baseAlloc = cs.Heap.AllocatedBytes
		}
		// Phase 1: workload with a drip leak into the target. The sensor
		// window sees a ~2 MB/s slope against a 1 MB/s threshold.
		for i := 0; i < 100; i++ {
			set(i)
			if i%2 == 0 {
				if _, err := inj.LeakBytes(target, 4<<10, 4<<10); err != nil {
					t.Errorf("leak drip: %v", err)
					return
				}
			}
			if cs, ok := rt.ComponentStats(target); ok && cs.Heap.AllocatedBytes > peakAlloc {
				peakAlloc = cs.Heap.AllocatedBytes
			}
			s.Sleep(time.Millisecond)
		}
		// The controller must react on the virtual clock, not a deadline.
		limit := s.Elapsed() + 10*time.Second
		for s.Elapsed() < limit {
			if cs, _ := rt.ComponentStats(target); cs.Aging != nil && cs.Aging.Rejuvenations > 0 {
				break
			}
			s.Sleep(5 * time.Millisecond)
		}
		// Phase 2: the workload continues across and after rejuvenation.
		for i := 100; i < 160; i++ {
			set(i)
			s.Sleep(time.Millisecond)
		}
		// Host-shadow invariant: every acknowledged SET is readable.
		for k, v := range shadow {
			resp := kv.Execute(s, "GET "+k)
			if !strings.Contains(resp, v) {
				t.Errorf("GET %s = %q, shadow says %q", k, strings.TrimSpace(resp), v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("%d commands failed during rejuvenation: %v", len(fails), fails)
	}
	if len(shadow) != 160 {
		t.Fatalf("shadow holds %d keys, want 160", len(shadow))
	}
	cs, _ := inst.Runtime().ComponentStats(target)
	st := cs.Aging
	if st == nil || st.Rejuvenations == 0 {
		t.Fatalf("sensors never fired: stats=%+v", st)
	}
	if st.LastCause != "leak-slope" {
		t.Fatalf("rejuvenation cause = %q, want leak-slope", st.LastCause)
	}
	var rejuv int
	for _, rec := range inst.Runtime().Reboots() {
		if rec.Group != target {
			t.Fatalf("unexpected reboot of %q (%s)", rec.Group, rec.Reason)
		}
		if rec.Reason == "rejuvenation" {
			rejuv++
		}
	}
	if rejuv == 0 {
		t.Fatal("no rejuvenation reboot recorded")
	}
	// The rejuvenation left a fresh checkpoint of the clean component
	// behind (on top of the incremental cadence's own images).
	if cs.Ckpt.CheckpointCount == 0 {
		t.Fatalf("no checkpoint recorded for %s: %+v", target, cs.Ckpt)
	}
	// And the leak was actually shed: the arena ends well below its
	// dripped peak, within half the drip of the pre-leak baseline
	// (phase 2's own workload growth rides on top of the baseline).
	if peakAlloc <= baseAlloc {
		t.Fatalf("drip never grew the arena: base=%d peak=%d", baseAlloc, peakAlloc)
	}
	if got := cs.Heap.AllocatedBytes; got >= peakAlloc || got > baseAlloc+(peakAlloc-baseAlloc)/2 {
		t.Fatalf("%s holds %d bytes after rejuvenation (base %d, peak %d): leak not shed",
			target, got, baseAlloc, peakAlloc)
	}
}
