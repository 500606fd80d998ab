package redis

import (
	"strings"
	"testing"
)

// FuzzRESPFrame throws arbitrary request lines at the command parser —
// the network-boundary choke point every mutation passes before it may
// touch the store or the AOF. Properties: the parser never panics, every
// rejection is a well-formed single-line "-ERR" reply that reflects no
// attacker-controlled control bytes back onto the wire, and every
// accepted command carries a key and value the validators vouch for
// (so an accepted SET can never smuggle a second line into the AOF). The
// parse agrees with the strings.SplitN reference on every line.
func FuzzRESPFrame(f *testing.F) {
	f.Add("PING")
	f.Add("SET k1 hello world")
	f.Add("GET k1")
	f.Add("DEL k1")
	f.Add("DBSIZE")
	f.Add("")
	f.Add("SET k v\nDEL other")
	f.Add("SET k\x01ey v")
	f.Add("\x1b[2JPING")
	f.Add("SET " + strings.Repeat("k", MaxKeyLen+1) + " v")
	f.Fuzz(func(t *testing.T, line string) {
		cmd, errReply := parseCommand(line)
		if refCmd, refErr := splitNReference(line); cmd != refCmd || errReply != refErr {
			t.Fatalf("parseCommand(%q) = %+v, %q; SplitN gives %+v, %q", line, cmd, errReply, refCmd, refErr)
		}
		if errReply != "" {
			if !strings.HasPrefix(errReply, "-ERR") || !strings.HasSuffix(errReply, "\n") {
				t.Fatalf("reply %q is not a -ERR line", errReply)
			}
			if n := strings.IndexByte(errReply, '\n'); n != len(errReply)-1 {
				t.Fatalf("reply %q spans multiple lines", errReply)
			}
			for i := 0; i < len(errReply)-1; i++ {
				if errReply[i] < 0x20 || errReply[i] == 0x7F {
					t.Fatalf("reply %q reflects control byte 0x%02x", errReply, errReply[i])
				}
			}
			return
		}
		switch cmd.Name {
		case "PING", "DBSIZE":
			if cmd.Key != "" || cmd.Val != "" {
				t.Fatalf("%s accepted with operands: %+v", cmd.Name, cmd)
			}
		case "SET":
			if !validKey(cmd.Key) || !validValue(cmd.Val) {
				t.Fatalf("SET accepted invalid operands: %+v", cmd)
			}
		case "GET", "DEL":
			if !validKey(cmd.Key) {
				t.Fatalf("%s accepted invalid key: %+v", cmd.Name, cmd)
			}
		default:
			t.Fatalf("unknown verb %q accepted", cmd.Name)
		}
	})
}
