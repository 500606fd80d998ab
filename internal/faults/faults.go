// Package faults is the experiment-facing fault-injection toolkit beside
// the runtime's own armed faults (the fail-stop crashes and hangs of the
// paper's fault model, §II-B, armed with core.Runtime.ArmFault): the
// allocator leaks of software aging that motivate rejuvenation, and a
// saboteur component demonstrating that MPK-style protection domains
// confine wild writes (§V-D).
package faults

import (
	"fmt"

	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

// Injector wears out one runtime's component arenas: the software-aging
// faults. Crashes, hangs and errnos are armed on the runtime itself
// (core.Runtime.ArmFault and ArmFaultSpec).
type Injector struct {
	rt *core.Runtime
}

// NewInjector creates an injector for the runtime.
func NewInjector(rt *core.Runtime) *Injector { return &Injector{rt: rt} }

// LeakBytes allocates total bytes from the component's arena in blockSize
// chunks and never frees them: the memory-leak flavour of software aging
// (the paper's ukallocbuddy leak, issue #689).
func (i *Injector) LeakBytes(component string, total, blockSize int64) (leaked int64, err error) {
	heap, ok := i.rt.ComponentHeap(component)
	if !ok {
		return 0, fmt.Errorf("faults: no heap for component %q", component)
	}
	if blockSize <= 0 {
		blockSize = 256
	}
	for leaked < total {
		if _, err := heap.Alloc(blockSize); err != nil {
			return leaked, fmt.Errorf("faults: arena exhausted after leaking %d bytes: %w", leaked, err)
		}
		leaked += blockSize
	}
	return leaked, nil
}

// Saboteur is a component whose only purpose is to misbehave: its
// wild_write export attempts to store a byte at an arbitrary guest
// address. Under VampOS protection domains the write faults instead of
// corrupting the victim; the isolation experiments register it alongside
// the real components.
type Saboteur struct{}

// NewSaboteur creates the saboteur component.
func NewSaboteur() *Saboteur { return &Saboteur{} }

// Describe implements core.Component.
func (Saboteur) Describe() core.Descriptor {
	return core.Descriptor{Name: "saboteur", HeapPages: 4, DomainPages: 4}
}

// Init implements core.Component.
func (Saboteur) Init(*core.Ctx) error { return nil }

// Exports implements core.Component.
func (Saboteur) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		// wild_write(addr uint64, value int) — attempt a stray store.
		"wild_write": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			addr, err := args.Uint64(0)
			if err != nil {
				return nil, err
			}
			val, err := args.Int(1)
			if err != nil {
				return nil, err
			}
			if err := ctx.Mem().Write(mem.Addr(addr), []byte{byte(val)}); err != nil {
				return nil, core.Errno("EFAULT: " + err.Error())
			}
			return nil, nil
		},
		// own_write scribbles inside the saboteur's own arena (allowed).
		"own_write": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			addr, err := ctx.Heap().Alloc(64)
			if err != nil {
				return nil, err
			}
			if err := ctx.Mem().Write(addr, []byte("mine")); err != nil {
				return nil, core.Errno("EFAULT: " + err.Error())
			}
			return ctx.Ret(uint64(addr))
		},
	}
}
