package obs

import (
	"sync"
	"testing"
)

func TestSeriesRingSemantics(t *testing.T) {
	s := newSeries(4)
	if s.n != 0 || s.Total() != 0 {
		t.Fatalf("fresh series not empty: len=%d total=%d", s.n, s.Total())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported a point")
	}
	for i := 0; i < 6; i++ {
		s.Append(int64(i), float64(10*i))
	}
	if s.n != 4 || s.Total() != 6 {
		t.Fatalf("after 6 appends into cap 4: len=%d total=%d", s.n, s.Total())
	}
	got := s.Tail(0)
	want := []Point{{2, 20}, {3, 30}, {4, 40}, {5, 50}}
	if len(got) != len(want) {
		t.Fatalf("tail = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tail[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if last, ok := s.Last(); !ok || last != (Point{5, 50}) {
		t.Errorf("Last = %v/%v, want {5 50}/true", last, ok)
	}
	if tail2 := s.Tail(2); len(tail2) != 2 || tail2[0] != (Point{4, 40}) || tail2[1] != (Point{5, 50}) {
		t.Errorf("Tail(2) = %v", tail2)
	}
	if over := s.Tail(100); len(over) != 4 {
		t.Errorf("Tail(100) returned %d points, want 4", len(over))
	}
}

func TestSeriesDefaultCapAndRegistry(t *testing.T) {
	r := NewRegistry()
	s := r.Series("cap")
	for i := 0; i < DefaultSeriesCap+5; i++ {
		s.Append(int64(i), 1)
	}
	if s.n != DefaultSeriesCap {
		t.Fatalf("len = %d, want %d", s.n, DefaultSeriesCap)
	}
	r = NewRegistry()
	if r.Series("x") != r.Series("x") {
		t.Error("same name returned different series")
	}
	r.Series("x").Append(7, 1.5)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindSeries || snap[0].Count != 1 ||
		snap[0].Value != 1.5 || len(snap[0].Points) != 1 || snap[0].Points[0] != (Point{7, 1.5}) {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Append(1, 2)
	if s.Total() != 0 || s.Tail(3) != nil {
		t.Error("nil series not inert")
	}
	if _, ok := s.Last(); ok {
		t.Error("nil series has a last point")
	}
	var r *Registry
	if r.Series("x") != nil {
		t.Error("nil registry returned a series")
	}
}

func TestSeriesDisabledAndEnabledAllocs(t *testing.T) {
	var nilS *Series
	if n := testing.AllocsPerRun(100, func() { nilS.Append(1, 2) }); n != 0 {
		t.Errorf("nil Append allocates %v/op", n)
	}
	s := newSeries(16)
	if n := testing.AllocsPerRun(100, func() { s.Append(1, 2) }); n != 0 {
		t.Errorf("enabled Append allocates %v/op", n)
	}
}

func TestSeriesConcurrentAppend(t *testing.T) {
	s := newSeries(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Append(int64(g), float64(i))
				s.Tail(4)
				s.Last()
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 8000 || s.n != 32 {
		t.Fatalf("total=%d len=%d after concurrent appends", s.Total(), s.n)
	}
}
