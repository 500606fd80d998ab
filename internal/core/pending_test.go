package core

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestPendingTableMatchesMap drives the pending table and a map reference
// through the same random runs — inserts in seq order, as handlePush mints
// them, resolutions in random order, lookups of live, resolved and unknown
// seqs — and then walks it, resolving every odd seq on the way, as failStop
// and FullRestart do. The table must answer every lookup as the map does,
// walk exactly the map's calls in ascending seq, and never hold more than
// twice the live calls plus one.
func TestPendingTableMatchesMap(t *testing.T) {
	check := func(ops []uint16) bool {
		var p pendingTable
		ref := make(map[uint64]*pendingCall)
		var next uint64
		for _, op := range ops {
			arg := uint64(op / 4)
			switch op % 4 {
			case 0, 1:
				next++
				pc := &pendingCall{seq: next}
				p.add(pc)
				ref[next] = pc
			case 2:
				if len(ref) == 0 {
					continue
				}
				live := sortedSeqs(ref)
				pc := ref[live[arg%uint64(len(live))]]
				p.resolve(pc)
				delete(ref, pc.seq)
			case 3:
				seq := arg % (next + 2)
				if p.get(seq) != ref[seq] {
					t.Logf("get(%d) = %v, the map holds %v", seq, p.get(seq), ref[seq])
					return false
				}
			}
			if len(p.calls) > 2*len(ref)+1 {
				t.Logf("%d entries for %d live calls", len(p.calls), len(ref))
				return false
			}
		}
		want := sortedSeqs(ref)
		var walked []uint64
		p.each(func(pc *pendingCall) {
			walked = append(walked, pc.seq)
			if pc.seq%2 == 1 {
				p.resolve(pc)
				delete(ref, pc.seq)
			}
		})
		if !slices.Equal(walked, want) {
			t.Logf("walked %v, want %v", walked, want)
			return false
		}
		var left []uint64
		p.each(func(pc *pendingCall) { left = append(left, pc.seq) })
		return slices.Equal(left, sortedSeqs(ref))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingTableBoundedWithOneCallHeldOpen: one call held open while
// 10,000 others come and go must not keep their entries alive. The others
// resolve oldest first, one step behind, so most resolve away from the
// tail; the slice stays within twice the live count plus one.
func TestPendingTableBoundedWithOneCallHeldOpen(t *testing.T) {
	var p pendingTable
	held := &pendingCall{seq: 1}
	p.add(held)
	var prev *pendingCall
	for seq := uint64(2); seq <= 10_001; seq++ {
		pc := &pendingCall{seq: seq}
		p.add(pc)
		if prev != nil {
			p.resolve(prev)
		}
		prev = pc
		if live := 2; len(p.calls) > 2*live+1 {
			t.Fatalf("after call %d: %d entries for %d live calls", seq, len(p.calls), live)
		}
	}
	if p.get(1) != held || cap(p.calls) > 8 {
		t.Fatalf("held call lost or slice grown: get(1) = %v, cap %d", p.get(1), cap(p.calls))
	}
}

func sortedSeqs(m map[uint64]*pendingCall) []uint64 {
	seqs := make([]uint64, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}
