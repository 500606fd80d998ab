// Package redis implements the paper's Redis application: an in-memory
// key-value server speaking a line-oriented RESP-like protocol, with an
// optional synchronous AOF (append-only file) persisted through
// VFS→9PFS→virtio-9p, exactly the configuration §VII-C benchmarks ("we
// turn on the AOF backup feature … it preserves volatile KVs into
// storage synchronously via fsync()").
//
// Values live in the application arena (guest memory pages), so the
// Fig. 7b memory-utilization numbers reflect real resident pages.
package redis

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vampos/internal/mem"
	"vampos/internal/unikernel"
)

// DefaultPort is the Redis port.
const DefaultPort = 6379

// Protocol bounds. A request line arrives from the network boundary —
// attacker turf — and the AOF is a line-oriented replica of accepted
// mutations, so anything that could smuggle a line break or an unbounded
// length into the store must be rejected before any state changes.
const (
	// MaxKeyLen caps key bytes per command.
	MaxKeyLen = 512
	// MaxValueLen caps value bytes per command.
	MaxValueLen = 64 << 10
	// MaxLineLen caps a buffered request line; connections exceeding it
	// are answered with a protocol error and dropped.
	MaxLineLen = MaxValueLen + MaxKeyLen + 16
)

// AOFPath is where the append-only file lives on the export.
const AOFPath = "/data/appendonly.aof"

// valueRef locates a value in the application arena.
type valueRef struct {
	addr mem.Addr
	size int
}

// App is the Redis application.
type App struct {
	// Port overrides DefaultPort when non-zero.
	Port int
	// AOF enables the synchronous append-only file.
	AOF bool
	// FsyncEvery controls AOF fsync frequency: 1 = every write (the
	// paper's synchronous configuration), N > 1 batches.
	FsyncEvery int
	// ReplayCost charges virtual time per AOF entry replayed at startup,
	// modelling the hash-table rebuild a real Redis pays when reloading
	// its AOF after a full reboot (the multi-second outage of Fig. 8).
	ReplayCost time.Duration
	// CPUWork makes each accepted SET perform that many real checksum
	// passes over the value before it is stored. A real Redis spends
	// per-request CPU on parsing, hashing, and serialization that this
	// model otherwise skips; the sustained-load scaling figure sets this
	// so request handling is CPU-bound and core scaling is measurable.
	// Zero (the default) keeps the historical behaviour.
	CPUWork int

	store    map[string]valueRef
	aofFD    int
	writes   int
	workSink uint64

	// Stats
	Sets, Gets, Dels uint64
	AOFReplayed      int
}

// New creates a Redis application with AOF enabled.
func New() *App {
	return &App{AOF: true, FsyncEvery: 1, ReplayCost: 20 * time.Microsecond}
}

// Name implements unikernel.App.
func (a *App) Name() string { return "redis" }

// Profile returns the instance profile for Redis (paper §VI: nine
// components, everything linked).
func (a *App) Profile(cfg unikernel.Config) unikernel.Config {
	cfg.FS = true
	cfg.Net = true
	cfg.Sysinfo = true
	return cfg
}

// Keys returns the number of stored keys.
func (a *App) Keys() int { return len(a.store) }

// Main implements unikernel.App: reload the AOF if present, then serve.
func (a *App) Main(s *unikernel.Sys) error {
	a.store = make(map[string]valueRef)
	a.aofFD = -1
	a.writes = 0
	a.AOFReplayed = 0
	if a.FsyncEvery == 0 {
		a.FsyncEvery = 1
	}
	if a.AOF {
		if _, _, err := s.Stat("/data"); err != nil {
			if err := s.Mkdir("/data"); err != nil {
				return fmt.Errorf("redis: mkdir /data: %w", err)
			}
		}
		if err := a.loadAOF(s); err != nil {
			return err
		}
		fd, err := s.Open(AOFPath, unikernel.OCreate|unikernel.OWronly|unikernel.OAppend)
		if err != nil {
			return fmt.Errorf("redis: open aof: %w", err)
		}
		a.aofFD = fd
	}
	port := a.Port
	if port == 0 {
		port = DefaultPort
	}
	lfd, err := s.Socket()
	if err != nil {
		return err
	}
	if err := s.Bind(lfd, port); err != nil {
		return err
	}
	if err := s.Listen(lfd, 128); err != nil {
		return err
	}
	s.Go("redis/acceptor", func(as *unikernel.Sys) {
		for {
			cfd, err := as.Accept(lfd)
			if err != nil {
				return
			}
			as.Go("redis/conn"+strconv.Itoa(cfd), func(cs *unikernel.Sys) {
				a.serve(cs, cfd)
			})
		}
	})
	return nil
}

// loadAOF replays the append-only file: the expensive restore a full
// reboot pays and a VampOS component reboot avoids (Fig. 8).
func (a *App) loadAOF(s *unikernel.Sys) error {
	fd, err := s.Open(AOFPath, unikernel.ORdonly)
	if err != nil {
		return nil // no AOF yet
	}
	defer func() { _ = s.Close(fd) }()
	var pending []byte
	for {
		data, eof, err := s.ReadNB(fd, 1<<16)
		if err != nil {
			return err
		}
		pending = append(pending, data...)
		if eof {
			break
		}
	}
	for _, line := range strings.Split(string(pending), "\n") {
		if line == "" {
			continue
		}
		// The AOF sits in durable state an in-domain tamper campaign can
		// flip bytes in; replay through the same validator as the wire so
		// a corrupted entry is skipped, not installed.
		fields, n := splitCommand(line)
		switch parts := fields[:n]; parts[0] {
		case "SET":
			if len(parts) == 3 && validKey(parts[1]) && validValue(parts[2]) {
				a.setValue(s, parts[1], []byte(parts[2]))
				a.AOFReplayed++
			}
		case "DEL":
			if len(parts) == 2 && validKey(parts[1]) {
				a.delValue(s, parts[1])
				a.AOFReplayed++
			}
		}
		if a.ReplayCost > 0 && a.AOFReplayed%64 == 0 {
			s.Sleep(64 * a.ReplayCost)
		}
	}
	return nil
}

// setValue stores a value in the application arena. The mutation runs
// through Thread.Do: the application heap is one allocator shared by
// every app thread, so inside a buffered round slice the alloc/free and
// the store-map update are journaled and execute at the round commit in
// merge order — the only way concurrent cells can share the allocator
// without racing and without making addresses depend on runner timing.
// Outside a round Do runs the closure inline, so the legacy baton's
// behaviour is bit-for-bit unchanged. Deferral is invisible to the
// protocol: the +OK response crosses the network strictly after the
// commit, so a follow-up GET always sees the committed value.
func (a *App) setValue(s *unikernel.Sys, key string, val []byte) {
	s.Ctx().Thread().Do(func() {
		if old, ok := a.store[key]; ok {
			_ = s.Ctx().Heap().Free(old.addr)
		}
		size := len(val)
		if size == 0 {
			size = 1
		}
		addr, err := s.Ctx().Heap().Alloc(int64(size))
		if err != nil {
			// Arena full: fall back to dropping the oldest semantics would
			// be an eviction policy; the model simply refuses.
			return
		}
		if err := s.Ctx().Mem().Write(addr, val); err != nil {
			_ = s.Ctx().Heap().Free(addr)
			return
		}
		a.store[key] = valueRef{addr: addr, size: len(val)}
	})
}

func (a *App) getValue(s *unikernel.Sys, key string) ([]byte, bool) {
	ref, ok := a.store[key]
	if !ok {
		return nil, false
	}
	val, err := s.Ctx().Mem().ReadBytes(ref.addr, ref.size)
	if err != nil {
		return nil, false
	}
	return val, true
}

// delValue removes a key; the arena free is deferred exactly as in
// setValue (shared-allocator rule). The existence check stays in-slice:
// only this connection's thread mutates this cell's store, so the check
// is stale only against writes journaled earlier in the same slice — a
// same-chunk pipelined mutation, which the one-command-per-round-trip
// clients never produce (a double DEL in one chunk degrades to an
// idempotent no-op free at commit).
func (a *App) delValue(s *unikernel.Sys, key string) bool {
	ref, ok := a.store[key]
	if !ok {
		return false
	}
	s.Ctx().Thread().Do(func() {
		_ = s.Ctx().Heap().Free(ref.addr)
		delete(a.store, key)
	})
	return true
}

// appendAOF persists one mutation synchronously. Callers build the line
// only when the AOF is open (aofFD >= 0).
func (a *App) appendAOF(s *unikernel.Sys, line string) error {
	if _, err := s.Write(a.aofFD, []byte(line)); err != nil {
		return err
	}
	a.writes++
	if a.writes%a.FsyncEvery == 0 {
		return s.Fsync(a.aofFD)
	}
	return nil
}

func (a *App) serve(s *unikernel.Sys, fd int) {
	defer func() { _ = s.Close(fd) }()
	var buf []byte
	for {
		data, eof, err := s.Recv(fd, 4096)
		if err != nil || eof {
			return
		}
		buf = append(buf, data...)
		for {
			nl := indexByte(buf, '\n')
			if nl < 0 {
				// An unterminated line must not buffer without bound: a
				// client streaming newline-free bytes would otherwise grow
				// buf until the host OOMs. Answer and hang up.
				if len(buf) > MaxLineLen {
					_, _ = s.Send(fd, []byte("-ERR protocol: request line too long\n"))
					return
				}
				break
			}
			line := strings.TrimRight(string(buf[:nl]), "\r")
			buf = buf[nl+1:]
			resp := a.Execute(s, line)
			if _, err := s.Send(fd, []byte(resp)); err != nil {
				return
			}
		}
	}
}

// fnvFold runs one FNV-1a pass over s seeded with acc: the CPUWork
// checksum kernel. Folding into an accumulator the caller stores keeps
// the work observable, so it cannot be optimized away.
func fnvFold(acc uint64, s string) uint64 {
	h := acc ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func indexByte(p []byte, b byte) int {
	for i, v := range p {
		if v == b {
			return i
		}
	}
	return -1
}

// command is one parsed, validated request.
type command struct {
	Name string // upper-cased verb
	Key  string
	Val  string
}

// validKey rejects keys that could corrupt the line-oriented AOF or the
// wire protocol: empty, oversized, or containing control bytes (which
// include '\n' and '\r' — an embedded line break in a key would let one
// SET forge a second AOF entry).
func validKey(k string) bool {
	if k == "" || len(k) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] < 0x20 || k[i] == 0x7F {
			return false
		}
	}
	return true
}

// validValue rejects oversized values and embedded line breaks. Other
// control bytes are allowed — values are binary-ish — but CR/LF would
// split the AOF line on replay.
func validValue(v string) bool {
	if len(v) > MaxValueLen {
		return false
	}
	for i := 0; i < len(v); i++ {
		if v[i] == '\n' || v[i] == '\r' {
			return false
		}
	}
	return true
}

// parseCommand turns one request line into a validated command. On
// rejection it returns a non-empty protocol error reply and no command is
// executed — the caller must not touch the store or the AOF. Pure, so the
// fuzz target can hammer it without a runtime.
func parseCommand(line string) (command, string) {
	fields, n := splitCommand(line)
	return parseFields(fields[:n])
}

// parseFields is parseCommand on the line's fields as splitCommand splits
// them.
func parseFields(parts []string) (command, string) {
	if parts[0] == "" {
		return command{}, "-ERR protocol: empty command\n"
	}
	cmd := command{Name: strings.ToUpper(parts[0])}
	switch cmd.Name {
	case "PING", "DBSIZE":
		if len(parts) != 1 {
			return command{}, "-ERR wrong number of arguments for '" + strings.ToLower(cmd.Name) + "'\n"
		}
		return cmd, ""
	case "SET":
		if len(parts) != 3 {
			return command{}, "-ERR wrong number of arguments for 'set'\n"
		}
		cmd.Key, cmd.Val = parts[1], parts[2]
		if !validKey(cmd.Key) {
			return command{}, "-ERR protocol: invalid key\n"
		}
		if !validValue(cmd.Val) {
			return command{}, "-ERR protocol: invalid value\n"
		}
		return cmd, ""
	case "GET", "DEL":
		if len(parts) != 2 {
			return command{}, "-ERR wrong number of arguments for '" + strings.ToLower(cmd.Name) + "'\n"
		}
		cmd.Key = parts[1]
		if !validKey(cmd.Key) {
			return command{}, "-ERR protocol: invalid key\n"
		}
		return cmd, ""
	default:
		if !validKey(parts[0]) {
			// Don't echo attacker-controlled control bytes back onto the wire.
			return command{}, "-ERR protocol: malformed command\n"
		}
		return command{}, "-ERR unknown command '" + parts[0] + "'\n"
	}
}

// splitCommand splits line at its first two spaces into n fields, the
// fields strings.SplitN(line, " ", 3) returns, without allocating them a
// slice: an empty line is one empty field, and a run of spaces yields
// empty fields.
func splitCommand(line string) (fields [3]string, n int) {
	for n < 2 {
		f, rest, ok := strings.Cut(line, " ")
		fields[n] = f
		n++
		if !ok {
			return fields, n
		}
		line = rest
	}
	fields[2] = line
	return fields, 3
}

// Execute runs one command line and returns the protocol response. It is
// exported so workloads can also drive the store in-process. A line that
// fails validation gets a typed "-ERR protocol" reply and mutates
// nothing — neither the store nor the AOF.
func (a *App) Execute(s *unikernel.Sys, line string) string {
	cmd, errReply := parseCommand(line)
	if errReply != "" {
		return errReply
	}
	switch cmd.Name {
	case "PING":
		return "+PONG\n"
	case "SET":
		for p := 0; p < a.CPUWork; p++ {
			a.workSink = fnvFold(a.workSink, cmd.Val)
		}
		a.setValue(s, cmd.Key, []byte(cmd.Val))
		a.Sets++
		if a.aofFD >= 0 {
			if err := a.appendAOF(s, "SET "+cmd.Key+" "+cmd.Val+"\n"); err != nil {
				return "-ERR aof: " + err.Error() + "\n"
			}
		}
		return "+OK\n"
	case "GET":
		a.Gets++
		val, ok := a.getValue(s, cmd.Key)
		if !ok {
			return "$-1\n"
		}
		return "$" + strconv.Itoa(len(val)) + "\n" + string(val) + "\n"
	case "DEL":
		n := 0
		if a.delValue(s, cmd.Key) {
			n = 1
			a.Dels++
			if a.aofFD >= 0 {
				if err := a.appendAOF(s, "DEL "+cmd.Key+"\n"); err != nil {
					return "-ERR aof: " + err.Error() + "\n"
				}
			}
		}
		return ":" + strconv.Itoa(n) + "\n"
	case "DBSIZE":
		return ":" + strconv.Itoa(len(a.store)) + "\n"
	default:
		return "-ERR unknown command\n" // unreachable: parseCommand rejected it
	}
}

var _ unikernel.App = (*App)(nil)
