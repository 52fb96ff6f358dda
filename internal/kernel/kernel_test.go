package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

func TestEveryPatternRendersParsableCode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range Patterns {
		nm := newNames(r, "drivers")
		buggy, fixed := p.Render(nm, r)
		if _, err := minic.ParseFile("buggy.c", buggy); err != nil {
			t.Errorf("%s/%s buggy does not parse: %v\n%s", p.Class, p.Flavor, err, buggy)
		}
		if _, err := minic.ParseFile("fixed.c", fixed); err != nil {
			t.Errorf("%s/%s fixed does not parse: %v\n%s", p.Class, p.Flavor, err, fixed)
		}
		if buggy == fixed {
			t.Errorf("%s/%s: buggy and fixed are identical", p.Class, p.Flavor)
		}
	}
}

func TestEveryBaitRendersParsableCode(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	kinds := []BaitKind{BaitUnlikelyCheck, BaitHelperBound, BaitCleanupAssigned,
		BaitTerminatedBuf, BaitWarnOnCheck, BaitFreeReassign, BaitFreeClearFree}
	for _, k := range kinds {
		nm := newNames(r, "drivers")
		src := baitFunc(k, "kzalloc", nm, r)
		if src == "" {
			t.Errorf("bait %s rendered empty", k)
			continue
		}
		if _, err := minic.ParseFile("bait.c", src); err != nil {
			t.Errorf("bait %s does not parse: %v\n%s", k, err, src)
		}
	}
}

func TestBenignFunctionsParse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		nm := newNames(r, "drivers")
		src := benignFunc(nm, r)
		if _, err := minic.ParseFile("benign.c", src); err != nil {
			t.Fatalf("benign %d does not parse: %v\n%s", i, err, src)
		}
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	c1 := Generate(Config{Seed: 42, Scale: 0.1})
	c2 := Generate(Config{Seed: 42, Scale: 0.1})
	if len(c1.Files) != len(c2.Files) || len(c1.Bugs) != len(c2.Bugs) {
		t.Fatal("corpus generation is not deterministic in shape")
	}
	for i := range c1.Files {
		if c1.Files[i].Src != c2.Files[i].Src {
			t.Fatalf("file %s differs between runs", c1.Files[i].Path)
		}
	}
	c3 := Generate(Config{Seed: 43, Scale: 0.1})
	same := true
	for i := range c1.Files {
		if i < len(c3.Files) && c1.Files[i].Src != c3.Files[i].Src {
			same = false
		}
	}
	if same && len(c1.Files) == len(c3.Files) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestCorpusShape(t *testing.T) {
	c := Generate(Config{Seed: 1})
	if len(c.Bugs) != 92 {
		t.Errorf("seeded bugs = %d, want 92", len(c.Bugs))
	}
	// Fig 9a totals per class.
	byClass := map[string]int{}
	for _, b := range c.Bugs {
		byClass[b.Class]++
	}
	want := map[string]int{
		ClassNPD: 54, ClassIntOver: 16, ClassMisuse: 7, ClassConcurrency: 4,
		ClassOOB: 3, ClassMemLeak: 3, ClassBufOver: 3, ClassUAF: 1, ClassUBI: 1,
	}
	for cls, n := range want {
		if byClass[cls] != n {
			t.Errorf("class %s: %d bugs, want %d", cls, byClass[cls], n)
		}
	}
	if byClass[ClassDoubleFree] != 0 {
		t.Errorf("double-free latent bugs = %d, want 0", byClass[ClassDoubleFree])
	}
	// Fig 9b: drivers must dominate.
	bySub := map[string]int{}
	for _, b := range c.Bugs {
		bySub[b.Subsystem]++
	}
	if bySub["drivers"] != 67 {
		t.Errorf("drivers bugs = %d, want 67", bySub["drivers"])
	}
	// Fig 9a split: 24 hand NPD + 30 auto NPD.
	auto := 0
	for _, b := range c.Bugs {
		if b.FromAuto {
			auto++
		}
	}
	if auto != 30 {
		t.Errorf("auto-collected bugs = %d, want 30", auto)
	}
}

func TestCorpusLifetimes(t *testing.T) {
	c := Generate(Config{Seed: 1})
	var totalYears float64
	buckets := map[int]int{}
	for _, b := range c.Bugs {
		years := c.NowDate.Sub(b.Introduced).Hours() / 24 / 365.25
		totalYears += years
		switch {
		case years < 1:
			buckets[0]++
		case years < 2:
			buckets[1]++
		case years < 5:
			buckets[2]++
		case years < 10:
			buckets[3]++
		case years < 15:
			buckets[4]++
		default:
			buckets[5]++
		}
	}
	mean := totalYears / float64(len(c.Bugs))
	if mean < 3.0 || mean > 6.0 {
		t.Errorf("mean lifetime = %.1f years, want ~4.3", mean)
	}
	if buckets[0] != 26 || buckets[1] != 16 || buckets[2] != 22 ||
		buckets[3] != 16 || buckets[4] != 7 || buckets[5] != 5 {
		t.Errorf("lifetime buckets = %v, want [26 16 22 16 7 5]", buckets)
	}
}

func TestEveryCorpusFileParses(t *testing.T) {
	c := Generate(Config{Seed: 5, Scale: 0.25})
	for _, f := range c.Files {
		if _, err := minic.ParseFile(f.Path, f.Src); err != nil {
			t.Fatalf("%s does not parse: %v", f.Path, err)
		}
	}
}

func TestCorpusAnalyzableWithoutCrash(t *testing.T) {
	c := Generate(Config{Seed: 5, Scale: 0.1})
	for _, f := range c.Files {
		pf, err := minic.ParseFile(f.Path, f.Src)
		if err != nil {
			t.Fatalf("parse %s: %v", f.Path, err)
		}
		res := engine.AnalyzeFile(pf, engine.Options{Checkers: []checker.Checker{}})
		if len(res.RuntimeErrs) != 0 {
			t.Fatalf("%s: runtime errors: %v", f.Path, res.RuntimeErrs)
		}
	}
}

func TestHandCommitDataset(t *testing.T) {
	store := BuildHandCommits(11)
	if n := len(store.All()); n != 61 {
		t.Fatalf("hand commits = %d, want 61", n)
	}
	perClass := map[string]int{}
	for _, c := range store.All() {
		perClass[c.Class]++
		if c.Before == c.After {
			t.Errorf("commit %s has no change", c.ID)
		}
		if c.Diff() == "" {
			t.Errorf("commit %s has empty diff", c.ID)
		}
		if _, err := minic.ParseFile(c.File, c.Before); err != nil {
			t.Errorf("commit %s buggy side does not parse: %v", c.ID, err)
		}
		if _, err := minic.ParseFile(c.File, c.After); err != nil {
			t.Errorf("commit %s fixed side does not parse: %v", c.ID, err)
		}
	}
	want := map[string]int{
		ClassNPD: 6, ClassIntOver: 7, ClassOOB: 6, ClassBufOver: 5,
		ClassMemLeak: 5, ClassUAF: 7, ClassDoubleFree: 8, ClassUBI: 5,
		ClassConcurrency: 5, ClassMisuse: 7,
	}
	for cls, n := range want {
		if perClass[cls] != n {
			t.Errorf("class %s: %d commits, want %d (Table 1)", cls, perClass[cls], n)
		}
	}
}

func TestAutoCommitDataset(t *testing.T) {
	store := BuildAutoNPDCommits(13, 100)
	if n := len(store.All()); n != 100 {
		t.Fatalf("auto commits = %d, want 100", n)
	}
	for _, c := range store.All() {
		if c.Class != ClassNPD || !c.AutoCollected {
			t.Fatalf("auto commit %s mislabeled: %s auto=%v", c.ID, c.Class, c.AutoCollected)
		}
	}
}

func TestCommitDiffLooksLikeAPatch(t *testing.T) {
	store := BuildHandCommits(11)
	c := store.ByClass(ClassNPD)[0]
	d := c.Diff()
	if !strings.Contains(d, "--- a/") || !strings.Contains(d, "+++ b/") ||
		!strings.Contains(d, "@@") || !strings.Contains(d, "+") {
		t.Errorf("diff malformed:\n%s", d)
	}
	// The NPD fix adds a NULL check.
	if !strings.Contains(d, "return -ENOMEM") {
		t.Errorf("NPD diff should add -ENOMEM return:\n%s", d)
	}
}

func TestBugTypeNames(t *testing.T) {
	if BugTypeName(ClassNPD) != "Null-Pointer-Dereference" {
		t.Error("NPD name wrong")
	}
	if BugTypeName(ClassUBI) != "Use-Before-Initialization" {
		t.Error("UBI name wrong")
	}
	if BugTypeName(ClassMemLeak) != "Memory-Leak" {
		t.Error("pass-through name wrong")
	}
}

func TestGroundTruthLookups(t *testing.T) {
	c := Generate(Config{Seed: 1, Scale: 0.25})
	b := c.Bugs[0]
	got, ok := c.IsBugSite(b.File, b.Func)
	if !ok || got.ID != b.ID {
		t.Error("IsBugSite failed for a known bug")
	}
	if _, ok := c.IsBugSite("nonexistent.c", "nope"); ok {
		t.Error("IsBugSite false positive")
	}
}
