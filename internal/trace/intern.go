package trace

import (
	"hash/maphash"
	"sync/atomic"
)

// internTab is an open-addressing table from string to id. Entries are
// only ever added, under Journal.mu, so a reader that misses a string
// rechecks under the lock before adding it; a full table is replaced by
// a doubled copy rather than grown in place.
type internTab struct {
	slots []atomic.Pointer[internEntry] // a power of two long
}

type internEntry struct {
	s  string
	id uint32
}

func (t *internTab) find(s string, h uint64) (uint32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.s == s {
			return e.id, true
		}
	}
}

// add stores e in the first free slot of its probe sequence. Callers
// hold Journal.mu and keep the table at most half full.
func (t *internTab) add(e *internEntry, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}

// intern returns s's id, adding s to the journal's table on first sight.
func (j *Journal) intern(s string) uint32 {
	h := maphash.String(j.seed, s)
	if id, ok := j.tab.Load().find(s, h); ok {
		return id
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.tab.Load()
	if id, ok := t.find(s, h); ok {
		return id
	}
	if len(j.strs) > maxID {
		panic("trace: journal holds more distinct strings than a tag can name")
	}
	if 2*(len(j.strs)+1) > len(t.slots) {
		grown := &internTab{slots: make([]atomic.Pointer[internEntry], 2*len(t.slots))}
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				grown.add(e, maphash.String(j.seed, e.s))
			}
		}
		j.tab.Store(grown)
		t = grown
	}
	if len(j.entries) == cap(j.entries) {
		// A fresh chunk: entries already handed out stay where they are.
		j.entries = make([]internEntry, 0, internChunk)
	}
	j.entries = append(j.entries, internEntry{s: s, id: uint32(len(j.strs))})
	e := &j.entries[len(j.entries)-1]
	j.strs = append(j.strs, s)
	t.add(e, h)
	return e.id
}

// strings returns the id → string table as it stands; exporters read
// their strings from it.
func (j *Journal) strings() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.strs
}

// internChunk is how many strings a journal interns per allocation; a
// traced solve uses a few dozen.
const internChunk = 32
