package trace

import (
	"io"
	"testing"
)

// BenchmarkJournalDisabled pins the nil-journal (disabled) instrumentation
// path at 0 allocs/op — the acceptance bar shared with internal/obs: code
// paths are instrumented unconditionally and the disabled cost must be a
// handful of nil checks.
func BenchmarkJournalDisabled(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := j.Root().Begin("strategy")
		sc := NewScope(sp)
		p, done := sc.Enter("probe")
		p.F64("target", 412.5)
		sc.Event("compute_stage").Int("first_task", 0).Int("end", 2).Bool("ok", true)
		done()
	}
	if n := testing.AllocsPerRun(100, func() {
		sc := NewScope(j.Root().Begin("s"))
		sc.Event("e").Int("k", 1)
	}); n != 0 {
		b.Fatalf("disabled journal path allocates %v/op", n)
	}
}

// BenchmarkJournalEnabled measures the recording cost with a live journal.
func BenchmarkJournalEnabled(b *testing.B) {
	j := New()
	sc := NewScope(j.Root().Begin("strategy"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, done := sc.Enter("probe")
		p.F64("target", 412.5)
		sc.Event("compute_stage").Int("first_task", 0).Int("end", 2).Bool("ok", true)
		done()
	}
}

// BenchmarkExport measures the three exporters — the canonical JSONL
// encoder, the -explain narrative and the Chrome trace-event view — on one
// journal of ~3k events.
func BenchmarkExport(b *testing.B) {
	j := New()
	for s := 0; s < 5; s++ {
		sp := j.Root().Begin("strategy").Str("name", "FERTAC")
		for p := 0; p < 20; p++ {
			ps := sp.Begin("probe").F64("target", float64(p)+0.5)
			for e := 0; e < 30; e++ {
				ps.Event("max_packing").Int("first_task", e).F64("target", 1.25).Int("end", e+1)
			}
		}
	}
	for _, ex := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"jsonl", j.WriteJSONL},
		{"explain", j.WriteExplain},
		{"chrome", func(w io.Writer) error { return j.WriteChromeTrace(w) }},
	} {
		b.Run(ex.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ex.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
