// Package core implements the VampOS runtime: message-passing component
// interaction (§V-A), encapsulated restoration (§V-B), dependency-aware
// scheduling (§V-C), component-level protection domains (§V-D),
// checkpoint-based initialization (§V-E), component merging and
// session-aware log shrinking (§V-F), plus the failure detectors and the
// reboot manager that tie them together.
package core

import (
	"errors"
	"fmt"
	"strings"
)

// Errno is a POSIX-flavoured error that survives the message-passing
// boundary: handler errors are carried between components as strings and
// rehydrated as Errno values, so expected conditions (EAGAIN, ENOENT…)
// stay comparable with errors.Is across component reboots and replays.
type Errno string

// Error implements error.
func (e Errno) Error() string { return string(e) }

// Common errnos used by the component interfaces.
const (
	EAGAIN       Errno = "EAGAIN"
	EBADF        Errno = "EBADF"
	EEXIST       Errno = "EEXIST"
	EINVAL       Errno = "EINVAL"
	EISDIR       Errno = "EISDIR"
	ENFILE       Errno = "ENFILE"
	ENOENT       Errno = "ENOENT"
	ENOSPC       Errno = "ENOSPC"
	ENOSYS       Errno = "ENOSYS"
	ENOTDIR      Errno = "ENOTDIR"
	ENOTEMPTY    Errno = "ENOTEMPTY"
	ENOTCONN     Errno = "ENOTCONN"
	ECONNRESET   Errno = "ECONNRESET"
	ECONNREFUSED Errno = "ECONNREFUSED"
	EPIPE        Errno = "EPIPE"
	EADDRINUSE   Errno = "EADDRINUSE"
	EMSGSIZE     Errno = "EMSGSIZE"
	EIO          Errno = "EIO"
)

// Sentinel errors surfaced by the runtime itself.
var (
	// ErrComponentFailed reports the deterministic-fault fail-stop of
	// §II-B. A call whose target fails or reboots mid-call is re-executed
	// once, transparently, with the same input; if that retry fails too,
	// the target's registered fallback version (if any) is swapped in and
	// the call retried on it, and only then does Call return this error.
	// Every later call to the fail-stopped group returns it at once.
	ErrComponentFailed = errors.New("core: component failed permanently")

	// ErrUnrebootable reports an attempt to reboot a component whose
	// state is shared with the host (VIRTIO, §VIII).
	ErrUnrebootable = errors.New("core: component is unrebootable")

	// ErrStopped reports that the runtime is shutting down.
	ErrStopped = errors.New("core: runtime stopped")
)

// UnknownComponentError reports a call to a component that was never
// registered in this unikernel configuration. Known, when populated,
// lists the components that are registered, so a misdirected fault
// injection or call is self-diagnosing.
type UnknownComponentError struct {
	Name  string
	Known []string
}

func (e *UnknownComponentError) Error() string {
	if len(e.Known) == 0 {
		return fmt.Sprintf("core: unknown component %q", e.Name)
	}
	return fmt.Sprintf("core: unknown component %q (registered: %s)", e.Name, strings.Join(e.Known, ", "))
}

// UnknownFunctionError reports a call to a function the target component
// does not export. Known, when populated, lists the functions the
// component does export.
type UnknownFunctionError struct {
	Component, Fn string
	Known         []string
}

func (e *UnknownFunctionError) Error() string {
	if len(e.Known) == 0 {
		return fmt.Sprintf("core: component %q does not export %q", e.Component, e.Fn)
	}
	return fmt.Sprintf("core: component %q does not export %q (exports: %s)", e.Component, e.Fn, strings.Join(e.Known, ", "))
}

// ReplayDivergenceError reports that during encapsulated restoration a
// component diverged from its log: it issued an outbound call that does
// not match the logged one, or a replayed call produced different results
// than the original — either way, the log can no longer restore this
// component consistently.
type ReplayDivergenceError struct {
	Component  string
	WantTarget string
	WantFn     string
	GotTarget  string
	GotFn      string
	// RetMismatch marks a return-value divergence found by the replay
	// return check; Detail describes the mismatch.
	RetMismatch bool
	Detail      string
	// Seq is the log sequence number of the diverging record — the first
	// suspect seq. Taint-aware recovery uses it as the taint watermark:
	// roll back to an image strictly predating it.
	Seq uint64
}

func (e *ReplayDivergenceError) Error() string {
	if e.RetMismatch {
		return fmt.Sprintf("core: replay of %q diverged on %s results: %s",
			e.Component, e.WantFn, e.Detail)
	}
	return fmt.Sprintf("core: replay of %q diverged: logged outbound %s.%s, component issued %s.%s",
		e.Component, e.WantTarget, e.WantFn, e.GotTarget, e.GotFn)
}

// errnoString flattens a handler error for transport; empty means nil.
func errnoString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// declaredErrnos holds the constants above already boxed as errors, so
// rehydrating one (an EAGAIN per empty poll) does not allocate.
var declaredErrnos = func() map[string]error {
	m := make(map[string]error)
	for _, e := range []Errno{
		EAGAIN, EBADF, EEXIST, EINVAL, EISDIR, ENFILE, ENOENT, ENOSPC, ENOSYS,
		ENOTDIR, ENOTEMPTY, ENOTCONN, ECONNRESET, ECONNREFUSED, EPIPE,
		EADDRINUSE, EMSGSIZE, EIO,
	} {
		m[string(e)] = e
	}
	return m
}()

// errnoFromString rehydrates a transported error.
func errnoFromString(s string) error {
	if s == "" {
		return nil
	}
	if err, ok := declaredErrnos[s]; ok {
		return err
	}
	return Errno(s)
}
