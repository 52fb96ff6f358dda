package scan

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/store"
	"knighter/internal/synth"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/reports.golden from this run")

// TestReportsGolden pins what every valid synthesized checker reports
// over the scale-1 corpus at seeds 1 and 2: one line per checker
// (reportLine) of Codebase.Run's reports, in testdata/reports.golden, and
// the scheduler's cold scan, quiet gate and all, must report the same.
// An optimization of the engine or of a checker may not move a line; a
// change that means to regenerates the file with
// `go test ./internal/scan -run TestReportsGolden -update` and says why.
func TestReportsGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 2} {
		cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: seed, Scale: 1}))
		if err != nil {
			t.Fatal(err)
		}
		pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
		for _, c := range kernel.BuildHandCommits(seed + 10).All() {
			out := pipe.GenChecker(c)
			if !out.Valid {
				continue
			}
			ck, err := ckdsl.Compile(out.Spec)
			if err != nil {
				t.Fatal(err)
			}
			line := reportLine(seed, ck.Name(), cb.RunOne(ck, Options{}))
			if got := reportLine(seed, ck.Name(), NewIncremental(cb, store.NewMemory(0)).RunOne(ck, Options{})); got != line {
				t.Fatalf("the scheduler's reports differ from Codebase.Run's:\n got: %s\nwant: %s", got, line)
			}
			b.WriteString(line)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "reports.golden")
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(g), len(w)); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("reports moved from %s at line %d:\n got: %q\nwant: %q", path, i+1, gl, wl)
			}
		}
	}
}

// reportLine is a checker's line of the report pin: the seed, its name,
// its report and runtime-error counts, and a digest of its reports (each
// Report.String() and its trace) and runtime errors.
func reportLine(seed int64, name string, res *Result) string {
	h := sha256.New()
	for _, r := range res.Reports {
		fmt.Fprintln(h, r.String())
		for _, st := range r.Trace {
			fmt.Fprintf(h, "\t%d:%d %s\n", st.Pos.Line, st.Pos.Col, st.Note)
		}
	}
	for _, e := range res.RuntimeErrs {
		fmt.Fprintf(h, "error %s %s: %s\n", e.Checker, e.Func, e.Panic)
	}
	return fmt.Sprintf("seed=%d %s reports=%d errors=%d %x\n", seed, name, len(res.Reports), len(res.RuntimeErrs), h.Sum(nil)[:12])
}
