package redis

import (
	"strings"
	"testing"

	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// Regression tests for the RESP-side protocol hardening: every malformed
// shape the defense campaign injects at the network boundary gets a typed
// "-ERR protocol" reply and must mutate neither the store nor the AOF.

func TestParseCommandRejections(t *testing.T) {
	cases := []struct {
		name, line, wantSub string
	}{
		{"empty", "", "protocol: empty command"},
		{"key control byte", "SET k\x01ey v", "protocol: invalid key"},
		{"key DEL injection", "GET k\x0d", "protocol: invalid key"},
		{"key too long", "SET " + strings.Repeat("k", MaxKeyLen+1) + " v", "protocol: invalid key"},
		{"value CR injection", "SET k v\rDEL k", "protocol: invalid value"},
		{"value LF injection", "SET k v\nDEL k", "protocol: invalid value"},
		{"value too long", "SET k " + strings.Repeat("v", MaxValueLen+1), "protocol: invalid value"},
		{"verb control bytes", "\x1b[2JPING", "protocol: malformed command"},
		{"set arity", "SET k", "wrong number of arguments"},
		{"get arity", "GET", "wrong number of arguments"},
		{"ping arity", "PING extra", "wrong number of arguments"},
		{"unknown verb", "FLUSHALL", "unknown command"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd, errReply := parseCommand(tc.line)
			if errReply == "" {
				t.Fatalf("accepted %q as %+v", tc.line, cmd)
			}
			if !strings.Contains(errReply, tc.wantSub) {
				t.Fatalf("reply %q does not mention %q", errReply, tc.wantSub)
			}
			if !strings.HasPrefix(errReply, "-ERR") || !strings.HasSuffix(errReply, "\n") {
				t.Fatalf("reply %q is not a well-formed error line", errReply)
			}
		})
	}
}

func TestParseCommandAccepts(t *testing.T) {
	cmd, errReply := parseCommand("set k1 hello world") // value may contain spaces
	if errReply != "" {
		t.Fatal(errReply)
	}
	if cmd.Name != "SET" || cmd.Key != "k1" || cmd.Val != "hello world" {
		t.Fatalf("parsed %+v", cmd)
	}
	if _, errReply := parseCommand("PING"); errReply != "" {
		t.Fatal(errReply)
	}
}

// splitNReference parses line the way parseCommand did before it split
// without allocating: through strings.SplitN.
func splitNReference(line string) (command, string) {
	return parseFields(strings.SplitN(line, " ", 3))
}

// TestParseCommandMatchesSplitN: parseCommand yields the command and the
// error reply of the strings.SplitN reference on lines whose fields are
// empty, doubled or trailing, whatever the arity.
func TestParseCommandMatchesSplitN(t *testing.T) {
	for _, line := range []string{
		"", " ", "  ", "   ", "\r", "SET\r", "GET k\r", "SET k v\r",
		"PING", "PING ", " PING", "ping", "DBSIZE", "DBSIZE x",
		"GET k", "GET  k", "GET k ", "GET k  ", "GET", "GET ", "GET k v",
		"DEL k", "del k", "DEL  k", "DEL k extra", "DEL",
		"SET k v", "SET  k v", "SET k  v", "SET k v ", "SET k v  w", "SET k", "SET k ", "SET",
		"set k1 hello world", "SET k\x01ey v", "FLUSHALL", "FLUSHALL now", "\x1b[2JPING",
	} {
		gotCmd, gotErr := parseCommand(line)
		wantCmd, wantErr := splitNReference(line)
		if gotCmd != wantCmd || gotErr != wantErr {
			t.Errorf("parseCommand(%q) = %+v, %q; SplitN gives %+v, %q", line, gotCmd, gotErr, wantCmd, wantErr)
		}
	}
}

// TestParseCommandAllocatesNothing: a valid SET, GET or DEL line parses
// into fields that point into the line, with no slice to hold them.
func TestParseCommandAllocatesNothing(t *testing.T) {
	for _, line := range []string{"SET k0042 " + strings.Repeat("v", 512), "GET k0042", "DEL k0042"} {
		var errReply string
		if allocs := testing.AllocsPerRun(100, func() { _, errReply = parseCommand(line) }); allocs != 0 || errReply != "" {
			t.Errorf("parseCommand(%.9q): %v allocations, reply %q; want 0 and none", line, allocs, errReply)
		}
	}
}

// TestRejectedCommandMutatesNothing drives the full app: a rejected line
// must leave the store empty and the AOF unwritten — rejection happens
// before the mutation path, not after.
func TestRejectedCommandMutatesNothing(t *testing.T) {
	app := New()
	withRedis(t, core.DaSConfig(), app, func(s *unikernel.Sys, a *App) {
		for _, line := range []string{
			"SET k v\nDEL other", // AOF injection via embedded newline
			"SET k\x00ey v",      // NUL in key
			"SET " + strings.Repeat("k", MaxKeyLen+1) + " v",
		} {
			if resp := a.Execute(s, line); !strings.HasPrefix(resp, "-ERR protocol") {
				t.Fatalf("Execute(%.20q) = %q, want -ERR protocol", line, resp)
			}
		}
		if a.Sets != 0 || a.Keys() != 0 {
			t.Fatalf("store mutated by rejected commands: sets=%d keys=%d", a.Sets, a.Keys())
		}
		if size, _, err := s.Stat(AOFPath); err != nil || size != 0 {
			t.Fatalf("AOF touched by rejected commands: size=%d err=%v", size, err)
		}
		// A clean command still works afterwards.
		if resp := a.Execute(s, "SET k v"); resp != "+OK\n" {
			t.Fatalf("clean SET after rejects = %q", resp)
		}
	})
}

// TestCorruptedAOFEntriesSkippedOnReplay models in-domain tampering of
// durable state: flip a byte of the AOF into a control character and the
// reload must skip that entry rather than install a corrupted key.
func TestCorruptedAOFEntriesSkippedOnReplay(t *testing.T) {
	app := New()
	withRedis(t, core.DaSConfig(), app, func(s *unikernel.Sys, a *App) {
		if resp := a.Execute(s, "SET good v1"); resp != "+OK\n" {
			t.Fatal(resp)
		}
		if resp := a.Execute(s, "SET doomed v2"); resp != "+OK\n" {
			t.Fatal(resp)
		}
		// Tamper: corrupt the second entry's key byte into a control char.
		fd, err := s.Open(AOFPath, unikernel.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := s.ReadNB(fd, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Close(fd)
		tampered := strings.Replace(string(raw), "doomed", "doo\x01ed", 1)
		if tampered == string(raw) {
			t.Fatalf("AOF %q does not contain the doomed entry", raw)
		}
		wfd, err := s.Open(AOFPath, unikernel.OCreate|unikernel.OWronly|unikernel.OTrunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(wfd, []byte(tampered)); err != nil {
			t.Fatal(err)
		}
		_ = s.Close(wfd)
		// Reload into a fresh app instance (same Sys, fresh store).
		reloaded := &App{AOF: true, FsyncEvery: 1, Port: DefaultPort + 1}
		if err := s.StartApp(reloaded); err != nil {
			t.Fatal(err)
		}
		if reloaded.AOFReplayed != 1 {
			t.Fatalf("AOFReplayed = %d, want 1 (tampered entry skipped)", reloaded.AOFReplayed)
		}
		if _, ok := reloaded.getValue(s, "good"); !ok {
			t.Fatal("clean entry lost on replay")
		}
		for _, k := range []string{"doomed", "doo\x01ed"} {
			if _, ok := reloaded.getValue(s, k); ok {
				t.Fatalf("tampered key %q installed on replay", k)
			}
		}
	})
}
