package vfs

import (
	"testing"

	"vampos/internal/mem"
	"vampos/internal/msg"
)

// BenchmarkCompactLog: Comp.CompactLog over a log just past the default
// shrink threshold of 100 records, with four open file fds of which one
// holds transients. Each compaction drops that fd's transients and its
// previous synthetic record and logs one synthetic offset install.
func BenchmarkCompactLog(b *testing.B) {
	d, err := msg.NewDomain("bench", mem.New(256*mem.PageSize), 7, 64)
	if err != nil {
		b.Fatal(err)
	}
	lg := d.Log()
	args, err := msg.AppendArgs(nil, msg.Args{3, make([]byte, 159)})
	if err != nil {
		b.Fatal(err)
	}
	rets, err := msg.EncodeArgs(msg.Args{159})
	if err != nil {
		b.Fatal(err)
	}
	record := func(seq uint64, sess msg.SessionID, class msg.Class) {
		rec, err := lg.BeginInboundEncoded(seq, "write", args)
		if err != nil {
			b.Fatal(err)
		}
		if err := lg.EndInboundEncoded(rec, sess, class, rets, ""); err != nil {
			b.Fatal(err)
		}
	}
	c := &Comp{fds: map[int]*file{}}
	for fd := 3; fd <= 6; fd++ {
		c.fds[fd] = &file{FD: fd, Kind: kindFile}
		record(uint64(fd), fdSessions.ID(fd), msg.ClassOpener)
	}
	const transients = 97
	seq := uint64(len(c.fds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < transients; k++ {
			seq++
			record(seq, fdSessions.ID(4), msg.ClassTransient)
		}
		c.fds[4].Offset = int64(i)
		b.StartTimer()
		if err := c.CompactLog(lg); err != nil {
			b.Fatal(err)
		}
	}
	if want := len(c.fds) + 1; lg.Len() != want {
		b.Fatalf("log holds %d records after compaction, want %d", lg.Len(), want)
	}
}
