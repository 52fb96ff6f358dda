package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/scan"
)

const npdChecker = `
checker cli_npd {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRun(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "npd.ck")
	if err := os.WriteFile(ckPath, []byte(npdChecker), 0o644); err != nil {
		t.Fatal(err)
	}
	npd := kernel.BuildHandCommits(11).ByClass(kernel.ClassNPD)
	statsArgs := []string{"corpus", "-stats", "-scale", "0.1"}

	// The scale-0.1 corpus, dumped: scan's file-argument path.
	var corpusFiles []string
	dumpDir := t.TempDir()
	for _, f := range kernel.Generate(kernel.Config{Seed: 1, Scale: 0.1}).Files {
		path := filepath.Join(dumpDir, f.Path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Src), 0o644); err != nil {
			t.Fatal(err)
		}
		corpusFiles = append(corpusFiles, path)
	}
	scanFiles := func(flags ...string) []string {
		return append(append([]string{"scan", "-checker", ckPath}, flags...), corpusFiles...)
	}

	usageOnStderr := func(t *testing.T, stdout, stderr string) {
		if stdout != "" || !strings.Contains(stderr, "usage: knighter <subcommand>") {
			t.Errorf("want usage on stderr only; stdout %q, stderr %q", stdout, stderr)
		}
	}
	commitBlocks := func(want int) func(t *testing.T, stdout, stderr string) {
		return func(t *testing.T, stdout, _ string) {
			if got := strings.Count(stdout, "=== commit "); got != want {
				t.Errorf("%d commit blocks, want %d:\n%s", got, want, stdout)
			}
			if got := strings.Count(stdout, "=== commit "+npd[0].ID); got != 1 {
				t.Errorf("commit %s ran %d times, want once", npd[0].ID, got)
			}
		}
	}

	for _, tc := range []struct {
		name  string
		args  []string
		code  int
		check func(t *testing.T, stdout, stderr string)
	}{
		{"no subcommand", nil, 2, usageOnStderr},
		{"unknown subcommand", []string{"lint", "-scale", "0.1"}, 2, usageOnStderr},
		{"corpus -cat of a missing path", []string{"corpus", "-scale", "0.1", "-cat", "no/such/file.c"}, 1, nil},
		{"eval with no such table", []string{"eval", "-scale", "0.1", "-table", "7"}, 2, nil},
		{"corpus -stats is deterministic", statsArgs, 0, func(t *testing.T, stdout, _ string) {
			if _, again, _ := runCLI(statsArgs...); again != stdout {
				t.Errorf("two runs differ:\n%s\n---\n%s", stdout, again)
			}
			var subs []string
			for _, line := range strings.Split(stdout, "\n") {
				if strings.HasPrefix(line, "  ") {
					subs = append(subs, strings.Fields(line)[0])
				}
			}
			if len(subs) < 2 || !sort.StringsAreSorted(subs) {
				t.Errorf("subsystems not listed in sorted order: %v", subs)
			}
		}},
		{"scan prints one line per report", []string{"scan", "-scale", "0.1", "-checker", ckPath}, 0, func(t *testing.T, stdout, _ string) {
			cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.1}))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := ckdsl.CompileSource(npdChecker)
			if err != nil {
				t.Fatal(err)
			}
			want := len(cb.RunOne(ck, scan.Options{}).Reports)
			if got := strings.Count(stdout, "\n"); got != want || want == 0 {
				t.Errorf("%d report lines, RunOne returns %d", got, want)
			}
		}},
		{"scan -max-reports caps file-argument reports", scanFiles("-max-reports", "1"), 0, func(t *testing.T, stdout, _ string) {
			if _, all, _ := runCLI(scanFiles()...); strings.Count(all, "\n") < 2 {
				t.Fatalf("uncapped scan of the dumped corpus printed %d reports; the cap needs at least 2", strings.Count(all, "\n"))
			}
			if got := strings.Count(stdout, "\n"); got != 1 {
				t.Errorf("%d report lines under -max-reports 1:\n%s", got, stdout)
			}
		}},
		{"scan -triage with file arguments", scanFiles("-triage"), 2, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || !strings.Contains(stderr, "-triage") {
				t.Errorf("want a -triage usage error and no reports; stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"synth one commit", []string{"synth", "-scale", "0.1", "-commit", npd[0].ID, "-no-refine"}, 0, commitBlocks(1)},
		{"synth one commit with refinement", []string{"synth", "-scale", "0.1", "-commit", npd[0].ID}, 0, func(t *testing.T, stdout, stderr string) {
			commitBlocks(1)(t, stdout, stderr)
			if got := strings.Count(stdout, "\n-- refinement: "); got != 1 {
				t.Errorf("%d refinement lines, want 1:\n%s", got, stdout)
			}
		}},
		{"synth a commit matching -commit and -class", []string{"synth", "-scale", "0.1", "-commit", npd[0].ID, "-class", kernel.ClassNPD, "-no-refine"}, 0, commitBlocks(len(npd))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout, stderr)
			}
		})
	}
}
