package simcheck

import "gpunoc/internal/noc"

// ledgerEntry is one injected packet's lifetime record.
type ledgerEntry struct {
	id        uint64
	src, dst  int
	flits     int
	createdAt int64
	// minLat is the zero-load floor: Manhattan hops plus flit count.
	minLat int64
	// delivered counts flits the sinks have accepted so far.
	delivered int
	// doneAt is the cycle the tail was accepted, or -1 in flight.
	doneAt int64
}

// ledger is the flit-conservation book. Entries live in a slice in
// injection order; the id index exists only for O(1) lookup on the
// delivery path and is never ranged over (iteration always walks the
// slice), so no ledger read depends on map order.
type ledger struct {
	entries []ledgerEntry
	index   map[uint64]int

	injectedFlits  int64
	deliveredFlits int64
	deliveredPkts  int64
}

func newLedger() ledger {
	return ledger{index: map[uint64]int{}}
}

// record opens an entry for a freshly injected packet and returns
// false if the packet ID is already on the books (an ID reuse).
func (l *ledger) record(p noc.Packet, minLat int64) bool {
	if _, dup := l.index[p.ID]; dup {
		return false
	}
	l.entries = append(l.entries, ledgerEntry{
		id: p.ID, src: p.Src, dst: p.Dst, flits: p.Flits,
		createdAt: p.CreatedAt, minLat: minLat, doneAt: -1,
	})
	l.index[p.ID] = len(l.entries) - 1
	l.injectedFlits += int64(p.Flits)
	return true
}

// lookup returns the entry for a packet ID, or nil. It is called from
// the delivery hot path and performs a single map read.
func (l *ledger) lookup(id uint64) *ledgerEntry {
	idx, ok := l.index[id]
	if !ok {
		return nil
	}
	return &l.entries[idx]
}

// inFlightFlits is the conservation balance: what went in minus what
// came out.
func (l *ledger) inFlightFlits() int64 { return l.injectedFlits - l.deliveredFlits }

// openEntries walks the slice (never the map) and returns how many
// packets have not completed, plus the first such entry for reporting.
func (l *ledger) openEntries() (count int, first *ledgerEntry) {
	for i := range l.entries {
		if l.entries[i].doneAt < 0 {
			if first == nil {
				first = &l.entries[i]
			}
			count++
		}
	}
	return count, first
}
