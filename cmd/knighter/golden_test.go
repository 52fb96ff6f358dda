package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/eval_seed*.golden from this run")

// builtIn and wallTime match the only two parts of `knighter eval`
// that depend on the clock: the first line's corpus build time and the
// last line's total.
var (
	builtIn  = regexp.MustCompile(`\(built in [^)]*\)`)
	wallTime = regexp.MustCompile(`^total wall time: .*$`)
)

// section matches the heading line of each of the paper's tables,
// figures and research questions in the eval output.
var section = regexp.MustCompile(`^(Table \d+|Figure \w+|RQ\d+):`)

// TestEvalGolden pins every number of `knighter eval -seed N` for seeds
// 1 and 2 to testdata/eval_seedN.golden, with only the wall-clock lines
// masked: the paper's tables, figures and research questions may not
// move unless a change means them to. Regenerate with
// `go test ./cmd/knighter -run TestEvalGolden -update`.
func TestEvalGolden(t *testing.T) {
	for _, seed := range []int{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			code, stdout, stderr := runCLI("eval", "-seed", fmt.Sprint(seed))
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr)
			}
			got := maskWallClock(stdout)
			path := filepath.Join("testdata", fmt.Sprintf("eval_seed%d.golden", seed))
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if msg := firstMove(got, string(want)); msg != "" {
				t.Errorf("knighter eval -seed %d moved from %s: %s", seed, path, msg)
			}
		})
	}
}

// maskWallClock masks the clock-dependent parts of an eval output,
// which ends in a newline: the first line's build time and the last
// line's wall time.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	lines[0] = builtIn.ReplaceAllString(lines[0], "(built in <masked>)")
	if last := len(lines) - 2; last > 0 {
		lines[last] = wallTime.ReplaceAllString(lines[last], "total wall time: <masked>")
	}
	return strings.Join(lines, "\n")
}

// firstMove returns "" if got equals want, and otherwise names the first
// line that differs: its number, the table it sits in and both versions
// of the row.
func firstMove(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	table := "the corpus line"
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Sprintf("line %d, in %q:\n got: %q\nwant: %q\n(%d lines, golden has %d)",
				i+1, table, gl, wl, len(g), len(w))
		}
		if section.MatchString(wl) {
			table = wl
		}
	}
}
