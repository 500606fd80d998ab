package msg

import (
	"fmt"
	"slices"

	"vampos/internal/mem"
)

// Message is one entry in a component's mailbox: a function invocation
// requested by another component (or by the application thread).
type Message struct {
	Seq  uint64
	From string
	To   string
	Fn   string
	Args Args
}

// Domain is one component's message domain: its mailbox plus the
// function-call/return-value log used for encapsulated restoration. All
// entry payloads are stored encoded inside pages tagged with the domain's
// own protection key, managed by a buddy allocator, so space usage is
// observable and a faulty component cannot scribble over the log that
// will later rebuild it.
type Domain struct {
	owner string
	m     *mem.Memory
	base  mem.Addr
	pages int
	heap  *mem.Buddy

	// queue[qhead:] is the mailbox, oldest first.
	queue []storedMessage
	qhead int
	log   *Log

	// enc and stage are the codec's scratch for the Args forms: encode
	// writes into enc before store copies it into the pages, Pull copies
	// out of the pages into stage before decoding. They are per domain
	// because the workers of two domains may pull inside one parallel
	// round; one domain's stores (message thread) and pulls (its group's
	// worker) never overlap.
	enc, stage []byte
}

type storedMessage struct {
	seq          uint64
	from, to, fn string
	addr         mem.Addr
	length       int
}

// NewDomain creates a message domain for the named component, backed by
// npages pages (a power of two) tagged with key.
func NewDomain(owner string, m *mem.Memory, key mem.Key, npages int) (*Domain, error) {
	if npages <= 0 || npages&(npages-1) != 0 {
		return nil, fmt.Errorf("msg: domain pages %d must be a power of two", npages)
	}
	base, err := m.AllocPages(npages, key)
	if err != nil {
		return nil, fmt.Errorf("msg: domain %q: %w", owner, err)
	}
	heap, err := mem.NewBuddy(base, int64(npages)*mem.PageSize)
	if err != nil {
		return nil, err
	}
	d := &Domain{owner: owner, m: m, base: base, pages: npages, heap: heap}
	d.log = newLog(d)
	return d, nil
}

// Log returns the domain's restoration log.
func (d *Domain) Log() *Log { return d.log }

// BytesInUse returns the bytes currently allocated inside the domain for
// queued messages and log entries.
func (d *Domain) BytesInUse() int64 { return d.heap.Stats().AllocatedBytes }

// encode encodes args into the domain's scratch, valid until the next
// encode.
func (d *Domain) encode(args Args) (Encoded, error) {
	p, err := AppendArgs(d.enc[:0], args)
	if err == nil {
		d.enc = p
	}
	return p, err
}

// store copies an encoding into domain memory and returns its location.
func (d *Domain) store(p []byte) (mem.Addr, int, error) {
	if len(p) == 0 {
		return 0, 0, nil
	}
	addr, err := d.heap.Alloc(int64(len(p)))
	if err != nil {
		return 0, 0, fmt.Errorf("msg: domain %q full: %w", d.owner, err)
	}
	if err := d.m.HostWrite(addr, p); err != nil {
		return 0, 0, err
	}
	return addr, len(p), nil
}

// storeArgs encodes args and stores the encoding.
func (d *Domain) storeArgs(args Args) (mem.Addr, int, error) {
	p, err := d.encode(args)
	if err != nil {
		return 0, 0, err
	}
	return d.store(p)
}

// read copies an encoding placed by store into buf, reusing buf's array,
// without freeing it.
func (d *Domain) read(buf []byte, addr mem.Addr, length int) (Encoded, error) {
	p := slices.Grow(buf[:0], length)[:length]
	if length == 0 {
		return p, nil
	}
	return p, d.m.HostRead(addr, p)
}

// readValid copies an encoding placed by store into a buffer of its own,
// without freeing it, and checks that it parses: replay must not start on
// a malformed record.
func (d *Domain) readValid(addr mem.Addr, length int) (Encoded, error) {
	if length == 0 {
		return nil, nil
	}
	p, err := d.read(nil, addr, length)
	if err == nil {
		_, err = p.Len()
	}
	return p, err
}

func (d *Domain) release(addr mem.Addr, length int) {
	if length == 0 {
		return
	}
	// A free failure here would mean corrupted domain bookkeeping, which
	// only a bug in this package can cause.
	if err := d.heap.Free(addr); err != nil {
		panic(fmt.Sprintf("msg: domain %q: %v", d.owner, err))
	}
}

// Push appends a call message to the mailbox, storing its arguments in
// domain memory. This is the vo_push_msgs half of the paper's interface.
func (d *Domain) Push(m *Message) error {
	p, err := d.encode(m.Args)
	if err != nil {
		return err
	}
	return d.PushEncoded(m, p)
}

// PushEncoded is Push for arguments already encoded: it copies args into
// domain memory and ignores m.Args.
func (d *Domain) PushEncoded(m *Message, args Encoded) error {
	addr, n, err := d.store(args)
	if err != nil {
		return err
	}
	to := m.To
	if to == "" {
		to = d.owner
	}
	if d.qhead > 0 && d.qhead >= len(d.queue)-d.qhead {
		// Drop the pulled prefix once it is at least as long as the
		// mailbox: the array stays within twice the backlog, and a
		// drained mailbox reuses it from the start.
		d.queue = d.queue[:copy(d.queue, d.queue[d.qhead:])]
		d.qhead = 0
	}
	d.queue = append(d.queue, storedMessage{
		seq: m.Seq, from: m.From, to: to, fn: m.Fn, addr: addr, length: n,
	})
	return nil
}

// Pull removes and returns the oldest pending message, releasing its
// domain storage. This is the vo_pull_msgs half.
func (d *Domain) Pull() (Message, bool) {
	m, p, ok := d.PullEncoded(d.stage)
	if !ok {
		return m, false
	}
	d.stage = p
	args, err := DecodeArgs(p)
	if err != nil {
		// Storage we wrote ourselves must decode; anything else is a
		// domain-integrity bug.
		panic(fmt.Sprintf("msg: domain %q: corrupt message payload: %v", d.owner, err))
	}
	m.Args = args
	return m, true
}

// PullEncoded is Pull without the decode: it copies the message's
// arguments into buf, reusing buf's array, and leaves m.Args nil.
func (d *Domain) PullEncoded(buf []byte) (m Message, args Encoded, ok bool) {
	if d.Pending() == 0 {
		return Message{}, nil, false
	}
	s := d.queue[d.qhead]
	d.qhead++
	args, err := d.read(buf, s.addr, s.length)
	d.release(s.addr, s.length)
	if err != nil {
		panic(fmt.Sprintf("msg: domain %q: unreadable message payload: %v", d.owner, err))
	}
	return Message{Seq: s.seq, From: s.from, To: s.to, Fn: s.fn}, args, true
}

// Pending returns the number of queued messages.
func (d *Domain) Pending() int { return len(d.queue) - d.qhead }

// DropQueued discards every pending message, releasing their storage.
// The reboot manager clears a failed component's mailbox of messages the
// crash may have half-consumed.
func (d *Domain) DropQueued() int {
	n := d.Pending()
	for _, s := range d.queue[d.qhead:] {
		d.release(s.addr, s.length)
	}
	d.queue, d.qhead = d.queue[:0], 0
	return n
}
