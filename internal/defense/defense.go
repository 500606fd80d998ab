// Package defense turns reboot-based recovery into an active security
// response (ROADMAP item 4; "Unlimited Lives" in PAPERS.md).
//
// Three mechanisms compose into the pipeline detect → watermark →
// taint-aware rollback → re-randomize:
//
//   - Seal: a host-write stamp capture over a component's arena, taken at
//     quiescent points. Host writes into a component's private arena are
//     never legitimate mid-run, so a moved stamp between two seals is
//     direct evidence of out-of-band tampering.
//   - Taint: once a detector fires (a broken seal, or a replayed call
//     whose results diverge from the log), the first suspect log seq becomes the
//     taint watermark W. Recovery then restores the newest checkpoint
//     image whose epoch seq strictly predates W (ckpt.History.SelectBefore),
//     quarantines every image at or after W, drops the tainted log tail,
//     and replays only the un-tainted prefix.
//   - RebootSeed: a per-reboot arena-layout seed derived deterministically
//     from the trial seed, the component name, and the reboot ordinal, so
//     layouts differ across reboots (a leaked address dies with the
//     reboot) while campaign matrices stay byte-identical across -parallel.
//
// The package is pure policy and arithmetic: no clocks, no goroutines, no
// I/O. The mechanism lives in internal/mem (stamps, layout permutation),
// internal/ckpt (image history), and internal/core (wiring).
package defense

import (
	"encoding/binary"
	"hash/fnv"
)

// Policy configures the defense pipeline for one runtime.
type Policy struct {
	// Enabled turns the pipeline on: seals are captured and verified,
	// detections stamp taint watermarks, recovery becomes taint-aware,
	// and every reboot re-randomizes its component's arena layout from a
	// fresh per-reboot seed.
	Enabled bool
	// SealEveryCalls verifies each checkpointed component's arena seal
	// every N completed inbound calls (at the quiescent point). Smaller
	// windows detect tampering sooner and quarantine fewer images.
	// Defaults to 8 when Enabled.
	SealEveryCalls int
	// HistoryDepth bounds the per-component checkpoint-image ring.
	// Defaults to 4 when Enabled; the minimum useful depth is 2 (latest
	// plus one pre-watermark fallback).
	HistoryDepth int
	// RebootOnFault reboots a component whose handler raised protection
	// faults (PKRU misuse): the attempt was confined, but the component
	// is now suspect and gets a fresh — re-randomized — incarnation.
	RebootOnFault bool
	// Seed is the base seed per-reboot layout seeds derive from; campaign
	// trials set it to the trial seed so matrices stay reproducible.
	Seed uint64
}

// Fill returns p with defaults applied. A disabled policy is untouched.
func (p Policy) Fill() Policy {
	if !p.Enabled {
		return p
	}
	if p.SealEveryCalls <= 0 {
		p.SealEveryCalls = 8
	}
	if p.HistoryDepth <= 0 {
		p.HistoryDepth = 4
	}
	return p
}

// Seal is a capture of a component arena's host-write stamps at a
// quiescent point, together with the log seq the arena state corresponds
// to. Verify against the current stamps detects host-boundary writes
// that landed since the capture.
type Seal struct {
	// Stamps holds one host-write version stamp per arena page.
	Stamps []uint64
	// Seq is the highest completed inbound seq at capture time. When the
	// seal later breaks, the first suspect seq — the taint watermark — is
	// Seq+1: every call up to and including Seq completed against an
	// arena this seal vouches for.
	Seq uint64
}

// Verify reports whether the arena is still clean: true when no stamp
// moved since capture. A length mismatch (arena remapped) reads as
// broken.
func (s *Seal) Verify(current []uint64) bool {
	if s == nil || len(current) != len(s.Stamps) {
		return false
	}
	for i, v := range current {
		if v != s.Stamps[i] {
			return false
		}
	}
	return true
}

// Watermark returns the first suspect log seq implied by this seal
// breaking: the seq right after the last vouched-for call.
func (s *Seal) Watermark() uint64 { return s.Seq + 1 }

// Taint records a detection against one component: the watermark (first
// suspect log seq) and which detector fired.
type Taint struct {
	// Watermark is the first suspect seq: records with Seq >= Watermark
	// are dropped, images with EpochSeq >= Watermark are quarantined.
	Watermark uint64
	// Detector names what fired: "seal" (arena tamper) or "divergence"
	// (a replay return mismatch).
	Detector string
}

// Tighten merges a new detection into t, keeping the earliest watermark
// (the most conservative rollback point). It reports whether the new
// detection changed anything.
func (t *Taint) Tighten(n Taint) bool {
	if t.Detector != "" && n.Watermark >= t.Watermark {
		return false
	}
	if t.Detector == "" || n.Watermark < t.Watermark {
		t.Watermark = n.Watermark
	}
	if t.Detector == "" {
		t.Detector = n.Detector
	} else if n.Detector != t.Detector {
		t.Detector = t.Detector + "+" + n.Detector
	}
	return true
}

// RebootSeed derives the arena-layout seed for one component's Nth
// reboot from the base (trial) seed: FNV-1a over the base seed, the
// component name, and the reboot ordinal. Deterministic in its inputs,
// different across reboots, never zero (zero would disable
// re-randomization in mem.Buddy).
func RebootSeed(base uint64, component string, reboot uint64) uint64 {
	h := fnv.New64a()
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], base)
	h.Write(v[:])
	h.Write([]byte(component))
	binary.LittleEndian.PutUint64(v[:], reboot)
	h.Write(v[:])
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 14695981039346656037 // the FNV-1a offset basis
}
