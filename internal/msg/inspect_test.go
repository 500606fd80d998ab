package msg

// ClosedSessions returns the number of closed-session marks currently
// retained. Session ids are monotonically increasing resource numbers,
// so without purging at truncation this would grow without bound under
// sustained open/close load (the regression the boundedness test pins).
func (l *Log) ClosedSessions() int { return len(l.closed) }

// Bytes extracts args[i] as a []byte; nil is returned for a nil element.
func (a Args) Bytes(i int) ([]byte, error) {
	v, err := a.want(i, "[]byte", kindBytes, kindNil)
	b, _ := v.elem.([]byte)
	return b, err
}
