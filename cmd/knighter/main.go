// Command knighter runs the KNighter pipeline on the synthetic kernel
// substrate, one subcommand per stage:
//
//	knighter synth -list                   # list the benchmark commits
//	knighter synth -commit <id-prefix>     # synthesize + refine a checker for one commit
//	knighter synth -class NPD -show-patch  # every commit of a class, with its diff
//	knighter scan -checker npd.ck          # scan the corpus with a checker DSL file
//	knighter scan -checker npd.ck file.c   # scan mini-C files on disk instead
//	knighter scan -checker npd.ck -triage  # label reports with the triage agent
//	knighter scan -smatch                  # run the baseline analyzer instead
//	knighter corpus -stats                 # corpus shape summary
//	knighter corpus -dump /tmp/kernel      # write the tree to disk
//	knighter corpus -bugs | -baits         # ground-truth bug / FP-bait ledgers
//	knighter corpus -cat drivers/spi/...   # print one generated file
//	knighter eval                          # every table and figure of the paper
//	knighter eval -table 1|2|3 -fig 9 -rq 1|2|3|4
//
// Every subcommand takes -seed and -scale, which pick the generated
// corpus. A usage error exits 2; any other failure exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/eval"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/refine"
	"knighter/internal/scan"
	"knighter/internal/smatch"
	"knighter/internal/synth"
	"knighter/internal/triage"
	"knighter/internal/vcs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what every subcommand shares: the output streams and the
// corpus flags.
type env struct {
	stdout, stderr io.Writer
	seed           int64
	scale          float64
}

// corpus generates the corpus -seed and -scale name.
func (e *env) corpus() *kernel.Corpus {
	return kernel.Generate(kernel.Config{Seed: e.seed, Scale: e.scale})
}

// A subcommand registers its own flags on fs and returns the action
// that runs, with the positional arguments, once they are parsed.
type subcommand struct {
	name, summary string
	setup         func(fs *flag.FlagSet, e *env) func(args []string) error
}

var subcommands = []subcommand{
	{"synth", "synthesize and refine checkers for benchmark commits", synthCmd},
	{"scan", "run a checker or the baseline analyzer over the corpus or mini-C files", scanCmd},
	{"corpus", "generate and inspect the synthetic kernel corpus", corpusCmd},
	{"eval", "regenerate the paper's tables and figures", evalCmd},
}

// errUsage marks an error fixed by changing the command line.
var errUsage = errors.New("usage")

func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: knighter <subcommand> [flags] [args]")
	fmt.Fprintln(w)
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-7s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(w, "\nEvery subcommand takes -seed and -scale; 'knighter <subcommand> -h' lists its flags.")
}

// run is the whole command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var sc *subcommand
	for i := range subcommands {
		if subcommands[i].name == args[0] {
			sc = &subcommands[i]
		}
	}
	if sc == nil {
		fmt.Fprintf(stderr, "knighter: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	name := "knighter " + sc.name
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{stdout: stdout, stderr: stderr}
	fs.Int64Var(&e.seed, "seed", 1, "corpus seed")
	fs.Float64Var(&e.scale, "scale", 1.0, "corpus scale")
	action := sc.setup(fs, e)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := action(fs.Args())
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.Is(err, errUsage) {
		fs.Usage()
		return 2
	}
	return 1
}

// synthCmd runs the checker-synthesis pipeline (Algorithm 1 +
// refinement) on benchmark commits and prints every intermediate
// artifact: the patch, the inferred bug pattern, the plan, the
// synthesized checker, validation counts and the refinement outcome.
func synthCmd(fs *flag.FlagSet, e *env) func([]string) error {
	list := fs.Bool("list", false, "list the benchmark commits")
	commitID := fs.String("commit", "", "commit id prefix to synthesize a checker for")
	class := fs.String("class", "", "synthesize checkers for every commit of this class")
	showPatch := fs.Bool("show-patch", false, "print the unified diff")
	noRefine := fs.Bool("no-refine", false, "skip the corpus refinement phase")
	commitSeed := fs.Int64("commit-seed", eval.CommitSeed, "commit dataset seed")
	return func([]string) error {
		commits := kernel.BuildHandCommits(*commitSeed).All()
		if *list {
			for _, c := range commits {
				fmt.Fprintf(e.stdout, "%s  %-18s %-22s %s\n", c.ID, c.Class, c.Flavor, c.Subject)
			}
			return nil
		}
		// A commit matching both -commit and -class still runs once.
		var targets []*vcs.Commit
		for _, c := range commits {
			if (*commitID != "" && strings.HasPrefix(c.ID, *commitID)) || (*class != "" && c.Class == *class) {
				targets = append(targets, c)
			}
		}
		if len(targets) == 0 {
			return errors.New("no matching commits (use -list, -commit <id>, or -class <name>)")
		}
		pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
		var loop *refine.Loop
		if !*noRefine {
			corpus := e.corpus()
			cb, err := scan.NewCodebase(corpus)
			if err != nil {
				return err
			}
			loop = refine.NewLoop(scan.NewIncremental(cb, nil), triage.NewAgent(corpus), pipe)
		}
		for _, c := range targets {
			synthOne(e.stdout, pipe, loop, c, *showPatch)
		}
		return nil
	}
}

func synthOne(w io.Writer, pipe *synth.Pipeline, loop *refine.Loop, c *vcs.Commit, showPatch bool) {
	fmt.Fprintf(w, "=== commit %s (%s / %s)\n%s\n\n", c.ID, c.Class, c.Flavor, c.Message())
	if showPatch {
		fmt.Fprintln(w, c.Diff())
	}
	out := pipe.GenChecker(c)
	if out.Pattern != nil {
		fmt.Fprintln(w, "-- bug pattern --")
		fmt.Fprintln(w, out.Pattern.Text)
	}
	if out.Plan != nil && len(out.Plan.Steps) > 0 {
		fmt.Fprintln(w, "\n-- plan --")
		fmt.Fprintln(w, out.Plan.Text())
	}
	if !out.Valid {
		fmt.Fprintf(w, "\nsynthesis FAILED after %d iterations (%d failed attempts)\n\n", out.Iterations, len(out.Failed))
		for _, f := range out.Failed {
			fmt.Fprintf(w, "  iteration %d: %s\n", f.Iteration, f.Symptom)
		}
		return
	}
	fmt.Fprintf(w, "\n-- checker (valid after %d iteration(s); N_buggy=%d, N_patched=%d) --\n",
		out.Iterations, out.NBuggy, out.NPatched)
	fmt.Fprintln(w, out.Spec.String())
	if loop == nil {
		return
	}
	rr := loop.Run(c, out.Checker)
	fmt.Fprintf(w, "-- refinement: %s after %d round(s), %d accepted step(s); final scan: %d report(s) --\n",
		rr.Disposition, rr.Rounds, rr.Steps, len(rr.FinalReports))
	if rr.Steps > 0 {
		fmt.Fprintln(w, "\n-- refined checker --")
		fmt.Fprintln(w, rr.Spec.String())
	}
	for _, r := range rr.FinalReports[:min(len(rr.FinalReports), 5)] {
		fmt.Fprintln(w, "  "+r.String())
	}
	fmt.Fprintln(w)
}

// scanCmd runs a checker-DSL program over the corpus, or over the
// mini-C files named as arguments, printing one report per line; counts
// go to stderr. -triage needs the corpus: the agent's ground truth is
// the generated corpus's bug ledger.
func scanCmd(fs *flag.FlagSet, e *env) func([]string) error {
	checkerPath := fs.String("checker", "", "path to a checker DSL file")
	runSmatch := fs.Bool("smatch", false, "run the Smatch-analog baseline instead of a checker")
	doTriage := fs.Bool("triage", false, "classify reports with the triage agent")
	maxReports := fs.Int("max-reports", 0, "cap collected reports (0 = unlimited)")
	return func(files []string) error {
		if *runSmatch {
			res, err := smatch.Run(e.corpus())
			if err != nil {
				return err
			}
			for _, f := range res.Findings {
				fmt.Fprintln(e.stdout, f)
			}
			fmt.Fprintf(e.stdout, "\n%d errors, %d warnings\n", res.Errors(), res.Warnings())
			return nil
		}
		if *checkerPath == "" {
			return usagef("missing -checker (or -smatch)")
		}
		if *doTriage && len(files) > 0 {
			return usagef("-triage labels corpus reports; it takes no file arguments")
		}
		src, err := os.ReadFile(*checkerPath)
		if err != nil {
			return err
		}
		ck, err := ckdsl.CompileSource(string(src))
		if err != nil {
			return fmt.Errorf("checker does not compile: %w", err)
		}

		var reports []*checker.Report
		var agent *triage.Agent
		if len(files) > 0 {
			for _, path := range files {
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				f, err := minic.ParseFile(path, string(data))
				if err != nil {
					return err
				}
				res := engine.AnalyzeFile(f, engine.Options{Checkers: []checker.Checker{ck}})
				reports = append(reports, res.Reports...)
				for _, re := range res.RuntimeErrs {
					fmt.Fprintln(e.stderr, "knighter scan:", re.Error())
				}
			}
			if *maxReports > 0 && len(reports) > *maxReports {
				reports = reports[:*maxReports]
			}
		} else {
			corpus := e.corpus()
			cb, err := scan.NewCodebase(corpus)
			if err != nil {
				return err
			}
			res := cb.RunOne(ck, scan.Options{MaxReports: *maxReports})
			reports = res.Reports
			if *doTriage {
				agent = triage.NewAgent(corpus)
			}
			fmt.Fprintf(e.stderr, "scanned %d files / %d functions\n", res.FilesScanned, res.FuncsScanned)
		}

		if agent == nil {
			for _, r := range reports {
				fmt.Fprintln(e.stdout, r)
			}
			fmt.Fprintf(e.stderr, "%d reports\n", len(reports))
			return nil
		}
		bugs := 0
		for _, r := range reports {
			label := "not-a-bug"
			if agent.Classify(r, 0).Bug {
				label = "bug"
				bugs++
			}
			fmt.Fprintf(e.stdout, "[%s] %s\n", label, r)
		}
		fmt.Fprintf(e.stderr, "%d reports, %d labeled bug\n", len(reports), bugs)
		return nil
	}
}

// corpusCmd generates the synthetic kernel corpus and prints one view
// of it.
func corpusCmd(fs *flag.FlagSet, e *env) func([]string) error {
	stats := fs.Bool("stats", false, "print corpus statistics")
	dump := fs.String("dump", "", "write the corpus tree under this directory")
	bugs := fs.Bool("bugs", false, "print the ground-truth bug ledger")
	baits := fs.Bool("baits", false, "print the planted FP-bait ledger")
	cat := fs.String("cat", "", "print one generated file by path")
	return func([]string) error {
		corpus := e.corpus()
		w := e.stdout
		switch {
		case *stats:
			lines := 0
			perSub := map[string]int{}
			for _, f := range corpus.Files {
				lines += strings.Count(f.Src, "\n")
				perSub[f.Subsystem]++
			}
			fmt.Fprintf(w, "files: %d   lines: %d   seeded bugs: %d   bait functions: %d\n",
				len(corpus.Files), lines, len(corpus.Bugs), len(corpus.Baits))
			subs := make([]string, 0, len(perSub))
			for sub := range perSub {
				subs = append(subs, sub)
			}
			sort.Strings(subs)
			for _, sub := range subs {
				fmt.Fprintf(w, "  %-10s %d files\n", sub, perSub[sub])
			}
		case *dump != "":
			for _, f := range corpus.Files {
				path := filepath.Join(*dump, f.Path)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(path, []byte(f.Src), 0o644); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "wrote %d files under %s\n", len(corpus.Files), *dump)
		case *bugs:
			for _, b := range corpus.Bugs {
				fmt.Fprintf(w, "%s %-18s %-20s %s:%s (introduced %s)\n",
					b.ID, b.Class, b.Flavor, b.File, b.Func, b.Introduced.Format("2006-01-02"))
			}
		case *baits:
			for _, b := range corpus.Baits {
				fmt.Fprintf(w, "%-18s %-20s %s:%s\n", b.Kind, b.Flavor, b.File, b.Func)
			}
		case *cat != "":
			for _, f := range corpus.Files {
				if f.Path == *cat {
					fmt.Fprint(w, f.Src)
					return nil
				}
			}
			return fmt.Errorf("no such file %q in the corpus", *cat)
		default:
			return usagef("pick one of -stats, -dump, -bugs, -baits or -cat")
		}
		return nil
	}
}

// evalCmd regenerates the paper's tables and figures; with no
// selection it runs every experiment.
func evalCmd(fs *flag.FlagSet, e *env) func([]string) error {
	all := fs.Bool("all", false, "run every experiment (the default)")
	table := fs.Int("table", 0, "regenerate table 1, 2, or 3")
	fig := fs.Int("fig", 0, "regenerate figure 9")
	rq := fs.Int("rq", 0, "run research question 1-4")
	return func([]string) error {
		if *table < 0 || *table > 3 || (*fig != 0 && *fig != 9) || *rq < 0 || *rq > 4 {
			return usagef("-table takes 1-3, -fig takes 9, -rq takes 1-4")
		}
		if *table == 0 && *fig == 0 && *rq == 0 {
			*all = true
		}
		start := time.Now()
		h, err := eval.NewHarness(kernel.Config{Seed: e.seed, Scale: e.scale})
		if err != nil {
			return err
		}
		w := e.stdout
		fmt.Fprintf(w, "corpus: %d files, %d seeded bugs, %d bait functions (built in %s)\n\n",
			len(h.Corpus.Files), len(h.Corpus.Bugs), len(h.Corpus.Baits), time.Since(start).Round(time.Millisecond))

		var t1 *eval.Table1Result
		if *all || *table == 1 || *table == 2 || *fig == 9 || *rq != 0 {
			t1 = h.RunTable1()
		}
		if *all || *table == 1 || *rq == 1 {
			fmt.Fprintln(w, t1.Render())
		}
		var bugs *eval.BugDetectionResult
		if *all || *table == 2 || *fig == 9 || *rq == 2 || *rq == 3 {
			bugs = h.RunBugDetection(t1.Outcomes)
			fmt.Fprintln(w, bugs.Render(h.Corpus))
		}
		if *all || *rq == 3 {
			orth, err := h.RunOrthogonality(bugs)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, orth.Render())
		}
		if *all || *rq == 4 {
			fmt.Fprintln(w, h.RunTriageEval(t1.Outcomes).Render())
		}
		if *all || *table == 3 {
			fmt.Fprintln(w, h.RunAblation().Render())
		}
		fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
}
