package gossip

// Merge returns the greater entry under Compare. Because it is a pure
// semilattice join (max of a total order), it is commutative,
// associative and idempotent — the properties the quick tests pin and
// the reason delta application in any interleaving equals a full-state
// merge.
func Merge(a, b Entry) Entry {
	if Compare(b, a) > 0 {
		return b
	}
	return a
}
