package msg

import (
	"testing"

	"vampos/internal/mem"
)

// The benchmarks time one message hop's work in this package on the shape
// of the hot call of the echo workload: write(fd, 159-byte payload).

func benchArgs() Args { return Args{3, make([]byte, 159)} }

func benchDomain(b *testing.B) *Domain {
	b.Helper()
	d, err := NewDomain("bench", mem.New(256*mem.PageSize), 7, 64)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// Typed sinks: boxing a result into an interface would be an allocation of
// the benchmark's own.
var (
	sinkBytes []byte
	sinkArgs  Args
)

func BenchmarkEncodeArgs(b *testing.B) {
	args := benchArgs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := EncodeArgs(args)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = p
	}
}

func BenchmarkDecodeArgs(b *testing.B) {
	p, err := EncodeArgs(benchArgs())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		args, err := DecodeArgs(p)
		if err != nil {
			b.Fatal(err)
		}
		sinkArgs = args
	}
}

// BenchmarkEncodedRead: a handler reads write's arguments in place, the
// descriptor and its copy of the payload.
func BenchmarkEncodedRead(b *testing.B) {
	e, err := AppendArgs(nil, benchArgs())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Int(0); err != nil {
			b.Fatal(err)
		}
		p, err := e.Bytes(1)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = p
	}
}

// BenchmarkPushPull: the message thread stores a call in the mailbox, the
// worker pulls it out.
func BenchmarkPushPull(b *testing.B) {
	d := benchDomain(b)
	m := &Message{From: "app", To: "vfs", Fn: "write", Args: benchArgs()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i + 1)
		if err := d.Push(m); err != nil {
			b.Fatal(err)
		}
		out, ok := d.Pull()
		if !ok {
			b.Fatal("mailbox empty after push")
		}
		sinkArgs = out.Args
	}
}

// BenchmarkLogRecord: one logged call as the hop logs it — arguments
// already encoded by the caller, one outbound result, the results at the
// end. The log is emptied every 64 records, as the shrinker and
// truncation do.
func BenchmarkLogRecord(b *testing.B) {
	lg := benchDomain(b).Log()
	args, err := AppendArgs(nil, benchArgs())
	if err != nil {
		b.Fatal(err)
	}
	outbound, rets := mustEncode(Args{159}), mustEncode(Args{159})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := lg.BeginInboundEncoded(uint64(i+1), "write", args)
		if err != nil {
			b.Fatal(err)
		}
		if err := lg.AppendOutboundTo(rec, "lwip", "sock_net_write", outbound, ""); err != nil {
			b.Fatal(err)
		}
		if err := lg.EndInboundEncoded(rec, "fd:3", ClassTransient, rets, ""); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			lg.Reset()
		}
	}
}

// BenchmarkDropRecord: the call in flight at the back of a 100-record log
// fails with EAGAIN and its record is dropped, as the hop drops it.
func BenchmarkDropRecord(b *testing.B) {
	lg := benchDomain(b).Log()
	args, err := AppendArgs(nil, benchArgs())
	if err != nil {
		b.Fatal(err)
	}
	rets := mustEncode(Args{159})
	for i := 0; i < 99; i++ {
		rec, err := lg.BeginInboundEncoded(uint64(i+1), "write", args)
		if err != nil {
			b.Fatal(err)
		}
		if err := lg.EndInboundEncoded(rec, "fd:3", ClassDurable, rets, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := lg.BeginInboundEncoded(uint64(100+i), "write", args)
		if err != nil {
			b.Fatal(err)
		}
		lg.DropRecord(rec)
	}
	if lg.Len() != 99 {
		b.Fatalf("log holds %d records, want 99", lg.Len())
	}
}
