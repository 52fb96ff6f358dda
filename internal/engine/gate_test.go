package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/minic"
)

// verdict is a checker.Quieter with a fixed verdict that counts the
// callbacks the engine runs it for.
type verdict struct {
	name  string
	quiet bool
	ran   *int
}

func (v verdict) Name() string                     { return "test." + v.name }
func (verdict) BugType() string                    { return "None" }
func (v verdict) QuietOn(fp *minic.Footprint) bool { return v.quiet }
func (v verdict) CheckLocation(ac *checker.Access, c *checker.Context) {
	*v.ran++
	c.Report(v, "seen", ac.Pointee)
}

// TestGateDropsQuietCheckers: AnalyzeFuncEach never runs a checker on a
// function it is quiet on. A rider keeps its other checkers, one left
// with none explores as the empty rider, and the caller's riders are
// left as they were.
func TestGateDropsQuietCheckers(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d)
{
	return d->len;
}
`)
	fn := f.Funcs[0]
	ranQuiet, ranLoud := 0, 0
	quiet := verdict{"quiet", true, &ranQuiet}
	loud := verdict{"loud", false, &ranLoud}
	riders := [][]checker.Checker{{quiet, loud}, {quiet}, {siteReporter{}, quiet}}
	before := append([][]checker.Checker(nil), riders...)
	inner := append([]checker.Checker(nil), riders[0]...)
	got := AnalyzeFuncEach(f, fn, nil, riders, Options{})
	if ranQuiet != 0 || ranLoud == 0 {
		t.Fatalf("the quiet checker ran %d callbacks, the loud one %d", ranQuiet, ranLoud)
	}
	if !reflect.DeepEqual(riders, before) || !reflect.DeepEqual(riders[0], inner) {
		t.Fatal("the gate changed the caller's riders")
	}
	for i, want := range []*Result{
		AnalyzeFunc(f, fn, Options{Checkers: []checker.Checker{loud}}),
		AnalyzeFunc(f, fn, Options{}),
		AnalyzeFunc(f, fn, Options{Checkers: []checker.Checker{siteReporter{}}}),
	} {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("rider %d: %s, want %s", i, g, w)
		}
	}
}

// TestGateAllocatesOnlyWhenItDrops: over riders none of whose checkers is
// quiet, the gate allocates nothing; dropping one costs the copies of the
// outer slice and of that rider.
func TestGateAllocatesOnlyWhenItDrops(t *testing.T) {
	f := parse(t, "int probe(int a)\n{\n\treturn a;\n}\n")
	var fp minic.Footprint
	fp.Reset(f.Funcs[0])
	ran := 0
	loud := [][]checker.Checker{{verdict{"a", false, &ran}, siteReporter{}}, {verdict{"b", false, &ran}}}
	g := new(graph)
	if err := g.lower(f.Funcs[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { g.gate(&fp, loud) }); n != 0 {
		t.Errorf("gating loud riders made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.gate(nil, loud) }); n != 0 {
		t.Errorf("gating loud riders on the graph's own footprint made %v allocations, want 0", n)
	}
	quiet := [][]checker.Checker{{verdict{"a", true, &ran}, siteReporter{}}, {verdict{"b", false, &ran}}}
	if n := testing.AllocsPerRun(100, func() { g.gate(&fp, quiet) }); n != 2 {
		t.Errorf("dropping one checker made %v allocations, want 2", n)
	}
}
