package bench

import "testing"

func TestAblationShapeInvariants(t *testing.T) {
	res, err := RunAblation(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation", res)
	// Shrinking keeps the retained log flat; without it the log grows
	// with history.
	n := len(res.ShrinkOps)
	if res.LogLenShrinkOff[n-1] <= res.LogLenShrinkOff[0] {
		t.Errorf("shrink-off log did not grow: %v", res.LogLenShrinkOff)
	}
	if res.LogLenShrinkOn[n-1] > res.LogLenShrinkOn[0]+4 {
		t.Errorf("shrink-on log grew: %v", res.LogLenShrinkOn)
	}
	if res.RebootShrinkOff[n-1] <= res.RebootShrinkOn[n-1] {
		t.Errorf("shrink-off reboot (%v) not slower than shrink-on (%v) at max history",
			res.RebootShrinkOff[n-1], res.RebootShrinkOn[n-1])
	}
	// Dependency-aware scheduling needs fewer dispatches than RR polling.
	if res.DispatchesDaS >= res.DispatchesRR {
		t.Errorf("das dispatches %.1f >= rr %.1f", res.DispatchesDaS, res.DispatchesRR)
	}
	if res.CheckpointReboot.Mean == 0 || res.ColdReboot.Mean == 0 {
		t.Fatal("missing reboot samples")
	}
	// The §V-E containment property: checkpoint restore never calls into
	// running components; cold re-init does (the 9P re-mount).
	if res.CheckpointSideEffectCalls != 0 {
		t.Errorf("checkpoint restore made %d side-effect calls", res.CheckpointSideEffectCalls)
	}
	if res.ColdSideEffectCalls == 0 {
		t.Error("cold re-init made no side-effect calls; the ablation shows nothing")
	}
	if out := res.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}
