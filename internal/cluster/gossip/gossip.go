// Package gossip is the replication component of a VampOS cluster
// node: a delta-gossip key-value metadata table with per-key vector
// clocks, modelled on the gkv mesh/state protocol (SNIPPETS.md #1).
// Writes produce deltas that flood to every peer; concurrent clocks
// resolve last-writer-wins through a deterministic total order; a
// joining (or rebooted-and-resyncing) instance installs a full-state
// snapshot through the same merge path as any delta.
//
// The component holds only replication metadata plus the value bytes a
// delta must carry on the wire; the application state itself lives in
// the node's redis store, which the cluster coordinator keeps in step
// by applying every accepted entry as a SET/DEL. All exchange happens
// through logged component calls (gsp_put, gsp_apply, gsp_drain,
// gsp_state), so gossip traffic rides the same interposition substrate
// — and obeys the same statically-checked invariants — as every other
// component interaction, and a component-level reboot of "gossip"
// rebuilds the table by encapsulated replay.
package gossip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"vampos/internal/core"
	"vampos/internal/msg"
)

// Name is the component's registration name.
const Name = "gossip"

// MaxKeyLen is the longest key the wire format can carry: the per-entry
// key length rides a u16, so anything longer would silently truncate in
// EncodeEntries. gsp_put refuses oversized keys at the component
// boundary and cluster.validate rejects them before they reach it.
const MaxKeyLen = 1<<16 - 1

// MaxClockLen bounds vector-clock width the same way (u16 slot count on
// the wire); clocks are nodes-wide, so cluster.New bounds the member
// count by it.
const MaxClockLen = 1<<16 - 1

// Entry is one replicated key's state: a per-key vector clock (indexed
// by node ordinal), the writing node, a tombstone flag, and the value
// bytes. Entries form a join-semilattice under Merge.
type Entry struct {
	Key     string
	Clock   []uint64
	Origin  int
	Deleted bool
	Val     []byte
}

// clockSum is the total event count a clock has witnessed.
func clockSum(c []uint64) uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// clockAt reads index i, treating missing tail entries as zero so
// clocks of different lengths compare consistently.
func clockAt(c []uint64, i int) uint64 {
	if i < len(c) {
		return c[i]
	}
	return 0
}

// Compare totally orders two entries for the same key: by clock sum
// first (causal dominance implies a strictly greater sum, so a write
// that has seen another always beats it), then lexicographic clock,
// value bytes, origin, and tombstone flag as deterministic tiebreaks
// for genuinely concurrent writes — the last-writer-wins rule. Returns
// -1, 0, or +1; 0 only for entries with identical content.
func Compare(a, b Entry) int {
	sa, sb := clockSum(a.Clock), clockSum(b.Clock)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	n := len(a.Clock)
	if len(b.Clock) > n {
		n = len(b.Clock)
	}
	for i := 0; i < n; i++ {
		va, vb := clockAt(a.Clock, i), clockAt(b.Clock, i)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
	}
	if c := bytes.Compare(a.Val, b.Val); c != 0 {
		return c
	}
	switch {
	case a.Origin < b.Origin:
		return -1
	case a.Origin > b.Origin:
		return 1
	}
	switch {
	case !a.Deleted && b.Deleted:
		return -1
	case a.Deleted && !b.Deleted:
		return 1
	}
	return 0
}

// Next builds the clock of a fresh local write at node self: the
// current winner's clock with self's slot bumped. The new clock's sum
// strictly exceeds everything this node has seen for the key, so a
// local write always supersedes the state it was issued against.
func Next(cur []uint64, self, nodes int) []uint64 {
	out := make([]uint64, nodes)
	copy(out, cur)
	if self >= 0 && self < nodes {
		out[self]++
	}
	return out
}

// MergeState folds src into dst key by key (dst is mutated): the
// full-state merge that anti-entropy sync performs.
func MergeState(dst map[string]Entry, src []Entry) (accepted []Entry) {
	for _, e := range src {
		cur, ok := dst[e.Key]
		if !ok || Compare(e, cur) > 0 {
			dst[e.Key] = e
			accepted = append(accepted, e)
		}
	}
	return accepted
}

// SortEntries orders entries by key: the canonical order every encoded
// snapshot uses, so two converged replicas serialise byte-identically.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
}

// --- wire codec ---
// Deltas, snapshots and accepted-sets all use one format: u32 entry
// count, then per entry u16 key length + key bytes, u8 flags (bit 0 =
// tombstone), u32 origin, u16 clock length + that many u64 slots, u32
// value length + value bytes. Big-endian throughout, no maps, no
// pointers: the payload is a plain []byte and crosses the component
// boundary under the nosharedref rule.

// EncodeEntries serialises entries in the order given.
func EncodeEntries(entries []Entry) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.Key)))
		b = append(b, e.Key...)
		var flags byte
		if e.Deleted {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint32(b, uint32(e.Origin))
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.Clock)))
		for _, c := range e.Clock {
			b = binary.BigEndian.AppendUint64(b, c)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.Val)))
		b = append(b, e.Val...)
	}
	return b
}

// DecodeEntries parses a payload produced by EncodeEntries.
func DecodeEntries(p []byte) ([]Entry, error) {
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("gossip: truncated payload (need %d bytes, have %d)", n, len(p))
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	entries := make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if err := need(2); err != nil {
			return nil, err
		}
		klen := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if err := need(klen + 1 + 4 + 2); err != nil {
			return nil, err
		}
		e := Entry{Key: string(p[:klen])}
		p = p[klen:]
		e.Deleted = p[0]&1 != 0
		e.Origin = int(binary.BigEndian.Uint32(p[1:]))
		clen := int(binary.BigEndian.Uint16(p[5:]))
		p = p[7:]
		if err := need(8 * clen); err != nil {
			return nil, err
		}
		e.Clock = make([]uint64, clen)
		for c := 0; c < clen; c++ {
			e.Clock[c] = binary.BigEndian.Uint64(p[8*c:])
		}
		p = p[8*clen:]
		if err := need(4); err != nil {
			return nil, err
		}
		vlen := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		if err := need(vlen); err != nil {
			return nil, err
		}
		if vlen > 0 {
			e.Val = append([]byte(nil), p[:vlen]...)
		}
		p = p[vlen:]
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("gossip: %d trailing bytes after %d entries", len(p), count)
	}
	return entries, nil
}

// --- the component ---

// Comp is the gossip replication component of one cluster node.
type Comp struct {
	self  int
	nodes int

	table map[string]Entry
	out   [][]Entry // per-peer pending deltas; out[self] unused

	puts, applies, accepted, rejected, drains uint64
}

// New creates the gossip component for node self of a nodes-wide
// cluster.
func New(self, nodes int) *Comp { return &Comp{self: self, nodes: nodes} }

// Describe implements core.Component. The component is stateful: its
// table and outboxes are rebuilt by encapsulated replay on a
// component-level reboot — the first rung of the cluster's escalation
// ladder.
func (g *Comp) Describe() core.Descriptor {
	return core.Descriptor{Name: Name, Stateful: true, HeapPages: 16, DomainPages: 16}
}

// Init implements core.Component: reset to the empty table (replay
// rebuilds state after a reboot).
func (g *Comp) Init(*core.Ctx) error {
	g.table = make(map[string]Entry)
	g.out = make([][]Entry, g.nodes)
	g.puts, g.applies, g.accepted, g.rejected, g.drains = 0, 0, 0, 0, 0
	return nil
}

// LogPolicies implements core.LogPolicyProvider: every state-changing
// export is durable so replay reconstructs the table and outboxes
// exactly; the read-only snapshots are not logged.
func (g *Comp) LogPolicies() (*msg.Namespace, map[string]core.LogPolicy) {
	durable := core.LogPolicy{Class: msg.ClassDurable}
	return nil, map[string]core.LogPolicy{
		"gsp_put":   durable,
		"gsp_apply": durable,
		"gsp_drain": durable,
	}
}

// enqueue appends e to every peer's outbox except self and skip.
func (g *Comp) enqueue(e Entry, skip int) {
	for j := 0; j < g.nodes; j++ {
		if j == g.self || j == skip {
			continue
		}
		g.out[j] = append(g.out[j], e)
	}
}

// Exports implements core.Component.
func (g *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		// gsp_put(key string, val []byte, deleted bool) -> (delta []byte)
		// Local write: bump the clock past everything seen for the key,
		// install, and queue the delta for every peer.
		"gsp_put": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			key, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			val, err := args.Bytes(1)
			if err != nil {
				return nil, err
			}
			deleted, err := args.Bool(2)
			if err != nil {
				return nil, err
			}
			if len(key) > MaxKeyLen {
				return nil, fmt.Errorf("gossip: key length %d exceeds wire maximum %d", len(key), MaxKeyLen)
			}
			cur := g.table[key]
			e := Entry{
				Key:     key,
				Clock:   Next(cur.Clock, g.self, g.nodes),
				Origin:  g.self,
				Deleted: deleted,
			}
			if !deleted {
				e.Val = val
			}
			g.table[key] = e
			g.enqueue(e, -1)
			g.puts++
			return ctx.Ret(EncodeEntries([]Entry{e}))
		},
		// gsp_apply(payload []byte, from int) -> (accepted []byte, n int)
		// Merge incoming entries; winners re-flood to every peer except
		// the sender (stale deltas lose the merge and stop propagating,
		// which is what makes flooding converge).
		"gsp_apply": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			payload, err := args.Bytes(0)
			if err != nil {
				return nil, err
			}
			from, err := args.Int(1)
			if err != nil {
				return nil, err
			}
			entries, err := DecodeEntries(payload)
			if err != nil {
				return nil, err
			}
			g.applies++
			accepted := MergeState(g.table, entries)
			for _, e := range accepted {
				g.enqueue(e, from)
			}
			g.accepted += uint64(len(accepted))
			g.rejected += uint64(len(entries) - len(accepted))
			return ctx.Ret(EncodeEntries(accepted), len(accepted))
		},
		// gsp_drain(peer int) -> (payload []byte, n int)
		// Hand the pending deltas for one peer to the coordinator wire
		// and clear the queue.
		"gsp_drain": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			peer, err := args.Int(0)
			if err != nil {
				return nil, err
			}
			if peer < 0 || peer >= g.nodes {
				return nil, fmt.Errorf("gossip: no peer %d", peer)
			}
			q := g.out[peer]
			g.out[peer] = nil
			g.drains++
			return ctx.Ret(EncodeEntries(q), len(q))
		},
		// gsp_get(key string) -> (payload []byte, n int)
		// Read one key's current entry (n=0 when absent). Read-only, not
		// logged: the coordinator's targeted lookup for quorum reads and
		// for repairing a stale owner after a rejected write delta.
		"gsp_get": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			key, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			e, ok := g.table[key]
			if !ok {
				return ctx.Ret(EncodeEntries(nil), 0)
			}
			return ctx.Ret(EncodeEntries([]Entry{e}), 1)
		},
		// gsp_state() -> (payload []byte, n int)
		// Canonical full-state snapshot, sorted by key: the anti-entropy
		// payload for joiners and the byte-comparable convergence digest.
		"gsp_state": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			entries := make([]Entry, 0, len(g.table))
			for _, e := range g.table {
				entries = append(entries, e)
			}
			SortEntries(entries)
			return ctx.Ret(EncodeEntries(entries), len(entries))
		},
		// gsp_stats() -> (puts, applies, accepted, rejected, drains)
		"gsp_stats": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret(g.puts, g.applies, g.accepted, g.rejected, g.drains)
		},
	}
}

var (
	_ core.Component         = (*Comp)(nil)
	_ core.LogPolicyProvider = (*Comp)(nil)
)
