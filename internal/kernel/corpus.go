package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"knighter/internal/minic"
)

// SourceFile is one generated file of the corpus.
type SourceFile struct {
	Path      string
	Subsystem string
	Src       string
}

// SeededBug is a ground-truth latent bug planted in the corpus — the
// reproduction's analog of the 92 real vulnerabilities of §5.2.
type SeededBug struct {
	ID         string
	File       string
	Func       string
	Class      string
	Flavor     string
	Subsystem  string
	Introduced time.Time
	// FromAuto marks bugs whose flavor is only covered by the
	// auto-collected commit set (the light-purple split in Fig. 9a/9b).
	FromAuto bool
}

// PlantedBait is a correct function that a naive checker may flag; any
// report against it is a false positive by construction.
type PlantedBait struct {
	File   string
	Func   string
	Kind   BaitKind
	Flavor string
}

// Corpus is the generated source tree plus its ground truth.
type Corpus struct {
	Files []*SourceFile
	Bugs  []SeededBug
	Baits []PlantedBait
	// NowDate anchors bug-lifetime computation.
	NowDate time.Time
}

// IsBugSite reports whether (file, function) hosts a seeded bug of a
// class, and returns it.
func (c *Corpus) IsBugSite(file, fn string) (*SeededBug, bool) {
	for i := range c.Bugs {
		if c.Bugs[i].File == file && c.Bugs[i].Func == fn {
			return &c.Bugs[i], true
		}
	}
	return nil, false
}

// Config controls corpus generation.
type Config struct {
	Seed int64
	// Scale multiplies the benign-function volume (1.0 = default layout,
	// roughly 2000 functions). Seeded bugs and bait counts are fixed by
	// the plans regardless of scale.
	Scale float64
}

type bugSeed struct {
	class  string
	flavor string
	count  int
	auto   bool
}

// defaultBugPlan plants the latent-bug population whose totals match the
// paper's Fig. 9a distribution (54 NPD — 24 hand + 30 auto — 16 IntOver,
// 7 Misuse, 4 Concurrency, 3 OOB, 3 MemLeak, 3 BufOver, 1 UAF, 1 UBI).
var defaultBugPlan = []bugSeed{
	{ClassNPD, "devm_kzalloc", 8, false},
	{ClassNPD, "kzalloc", 7, false},
	{ClassNPD, "kmalloc", 5, false},
	{ClassNPD, "kcalloc", 4, false},
	{ClassNPD, "devm_kcalloc", 6, true},
	{ClassNPD, "kmemdup", 5, true},
	{ClassNPD, "vzalloc", 4, true},
	{ClassNPD, "kvzalloc", 4, true},
	{ClassNPD, "devm_kmalloc", 4, true},
	{ClassNPD, "kzalloc_node", 3, true},
	{ClassNPD, "alloc_workqueue", 2, true},
	{ClassNPD, "devm_kstrdup", 2, true},
	{ClassIntOver, "kmalloc", 5, false},
	{ClassIntOver, "kzalloc", 4, false},
	{ClassIntOver, "kvmalloc", 4, false},
	{ClassIntOver, "vmalloc", 3, false},
	{ClassOOB, "le16_to_cpu", 2, false},
	{ClassOOB, "le32_to_cpu", 1, false},
	{ClassBufOver, "debugfs", 2, false},
	{ClassBufOver, "sysfs", 1, false},
	{ClassMemLeak, "kmalloc", 2, false},
	{ClassMemLeak, "kzalloc", 1, false},
	{ClassUAF, "free_netdev", 1, false},
	{ClassUBI, "kfree", 1, false},
	{ClassConcurrency, "spin_lock", 2, false},
	{ClassConcurrency, "mutex_lock", 2, false},
	{ClassMisuse, "sscanf_unterminated", 4, false},
	{ClassMisuse, "platform_get_irq", 3, false},
}

type baitSeed struct {
	kind   BaitKind
	flavor string
	count  int
}

// defaultBaitPlan plants false-positive bait. Flavors whose checker must
// go through refinement get >= 20 instances (so the naive checker
// exceeds T_plausible and enters the refinement loop); the rest get a
// handful (residual FP pressure for the triage agent).
var defaultBaitPlan = []baitSeed{
	// Drives NPD refinement (kzalloc/kmalloc commits).
	{BaitUnlikelyCheck, "kzalloc", 24},
	{BaitUnlikelyCheck, "kmalloc", 22},
	{BaitUnlikelyCheck, "devm_kzalloc", 3},
	{BaitUnlikelyCheck, "kcalloc", 2},
	// Drives IntOver refinement (kzalloc/kvmalloc/vmalloc commits).
	{BaitHelperBound, "kzalloc", 22},
	{BaitHelperBound, "kvmalloc", 22},
	{BaitHelperBound, "vmalloc", 21},
	{BaitHelperBound, "kmalloc", 4},
	// Drives UBI refinement (3 cleanup flavors).
	{BaitCleanupAssigned, "kfree", 22},
	{BaitCleanupAssigned, "x509_free_certificate", 21},
	{BaitCleanupAssigned, "fwnode_handle_put", 21},
	{BaitCleanupAssigned, "bitmap_free", 4},
	// Drives Misuse refinement (platform_get_irq flavor).
	{BaitIrqRangeCheck, "platform_get_irq", 22},
	{BaitIrqRangeCheck, "of_irq_get", 3},
	// Residual pressure only: terminate-guarded checkers stay quiet here.
	{BaitTerminatedBuf, "copy_from_user", 4},
	// Drives UAF refinement (kfree flavor).
	{BaitFreeReassign, "kfree", 22},
	// Keeps the crypto double-free checker unrefinable ("fail"): the
	// reinit idiom is outside the refinement repertoire.
	{BaitFreeReinitFree, "crypto_free_shash", 22},
	// Keeps the devm_ioremap NPD checker unrefinable ("fail").
	{BaitWarnOnCheck, "devm_ioremap", 22},
	// Residual FP pressure on plausible checkers (triage-agent food);
	// counts stay below T_plausible margins per flavor.
	{BaitWarnOnCheck, "devm_kzalloc", 8},
	{BaitWarnOnCheck, "kzalloc", 8},
	{BaitWarnOnCheck, "kmalloc", 7},
	{BaitWarnOnCheck, "kcalloc", 9},
	{BaitWarnOnCheck, "devm_kcalloc", 8},
	{BaitWarnOnCheck, "kmemdup", 8},
	{BaitWarnOnCheck, "vzalloc", 8},
	{BaitWarnOnCheck, "kvzalloc", 8},
	{BaitWarnOnCheck, "devm_kmalloc", 8},
	{BaitWarnOnCheck, "kzalloc_node", 8},
	{BaitWarnOnCheck, "alloc_workqueue", 6},
	{BaitWarnOnCheck, "devm_kstrdup", 8},
}

// subsystemLayout fixes the relative file volume per subsystem and the
// seeded-bug allocation, shaped like Fig. 9b (drivers 67/92, ...).
var subsystemLayout = []struct {
	name     string
	files    int
	bugShare int // out of 92
}{
	{"drivers", 190, 67},
	{"sound", 34, 10},
	{"net", 30, 7},
	{"fs", 22, 3},
	{"samples", 6, 2},
	{"arch", 14, 1},
	{"lib", 11, 1},
	{"include", 8, 1},
}

// lifetimeBuckets shapes Fig. 9c: how long the seeded bugs have been
// latent (bucket bounds in years, counts out of 92; mean ≈ 4.3y).
var lifetimeBuckets = []struct {
	minY, maxY float64
	count      int
}{
	{0, 1, 26}, {1, 2, 16}, {2, 5, 22}, {5, 10, 16}, {10, 15, 7}, {15, 22, 5},
}

// Generate builds the corpus deterministically from cfg.
func Generate(cfg Config) *Corpus {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	now := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	c := &Corpus{NowDate: now}

	// 1. Lay out the files per subsystem.
	type fileSlot struct {
		file   *SourceFile
		names  []*NameSet
		bodies []string
		used   map[string]bool
	}
	var slots []*fileSlot
	slotsBySub := map[string][]*fileSlot{}
	for _, sub := range subsystemLayout {
		n := int(float64(sub.files) * cfg.Scale)
		if n < 3 {
			n = 3
		}
		for i := 0; i < n; i++ {
			nm := newNames(r, sub.name)
			path := filePathFor(sub.name, nm, i)
			fs := &fileSlot{
				file: &SourceFile{Path: path, Subsystem: sub.name},
				used: map[string]bool{},
			}
			fs.names = append(fs.names, nm)
			slots = append(slots, fs)
			slotsBySub[sub.name] = append(slotsBySub[sub.name], fs)
		}
	}

	// freshNames draws a NameSet whose function name is unused in slot.
	freshNames := func(fs *fileSlot) *NameSet {
		for {
			nm := newNames(r, fs.file.Subsystem)
			if !fs.used[nm.Fn] {
				fs.used[nm.Fn] = true
				return nm
			}
		}
	}

	// 2. Plant the latent bugs, honoring the subsystem shares.
	bugSlots := buildBugSubsystems(r)
	bi := 0
	for _, seed := range defaultBugPlan {
		pat := PatternFor(seed.class, seed.flavor)
		if pat == nil {
			panic("kernel: no pattern for " + seed.class + "/" + seed.flavor)
		}
		for k := 0; k < seed.count; k++ {
			sub := bugSlots[bi%len(bugSlots)]
			bi++
			group := slotsBySub[sub]
			fs := group[r.Intn(len(group))]
			nm := freshNames(fs)
			buggy, _ := pat.Render(nm, r)
			fs.bodies = append(fs.bodies, buggy)
			c.Bugs = append(c.Bugs, SeededBug{
				ID:        fmt.Sprintf("KB-%03d", len(c.Bugs)+1),
				File:      fs.file.Path,
				Func:      renderedFuncName(buggy, nm.Fn),
				Class:     seed.class,
				Flavor:    seed.flavor,
				Subsystem: sub,
				FromAuto:  seed.auto,
			})
		}
	}

	// 3. Assign lifetimes per the bucket distribution.
	assignLifetimes(r, c)

	// 4. Plant the FP bait.
	for _, seed := range defaultBaitPlan {
		for k := 0; k < seed.count; k++ {
			// Bait concentrates where the code is: mostly drivers.
			sub := "drivers"
			if r.Intn(5) == 0 {
				sub = []string{"sound", "net", "fs"}[r.Intn(3)]
			}
			group := slotsBySub[sub]
			fs := group[r.Intn(len(group))]
			nm := freshNames(fs)
			body := baitFunc(seed.kind, seed.flavor, nm, r)
			fs.bodies = append(fs.bodies, body)
			c.Baits = append(c.Baits, PlantedBait{
				File: fs.file.Path, Func: renderedFuncName(body, nm.Fn), Kind: seed.kind, Flavor: seed.flavor,
			})
		}
	}

	// 5. Fill with benign functions and assemble the files.
	for _, fs := range slots {
		benign := 2 + r.Intn(4)
		for k := 0; k < benign; k++ {
			nm := freshNames(fs)
			fs.bodies = append(fs.bodies, benignFunc(nm, r))
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "// SPDX-License-Identifier: GPL-2.0\n// %s\n\n", fs.file.Path)
		sb.WriteString(structDecls(fs.names[0]))
		sb.WriteString("\n")
		for i, body := range fs.bodies {
			if i > 0 {
				sb.WriteString("\n")
			}
			sb.WriteString(body)
		}
		fs.file.Src = sb.String()
		c.Files = append(c.Files, fs.file)
	}
	sort.Slice(c.Files, func(i, j int) bool { return c.Files[i].Path < c.Files[j].Path })
	return c
}

// renderedFuncName extracts the actual function name from a rendered
// body: templates may decorate the base name (e.g. "_write"/"_store"
// handler suffixes), and the ground-truth ledger must record the name
// reports will carry.
func renderedFuncName(src, base string) string {
	if f, err := minic.ParseFile("x.c", src); err == nil && len(f.Funcs) > 0 {
		return f.Funcs[len(f.Funcs)-1].Name
	}
	return base
}

// buildBugSubsystems expands the per-subsystem bug shares into a shuffled
// assignment list of length 92.
func buildBugSubsystems(r *rand.Rand) []string {
	var out []string
	for _, sub := range subsystemLayout {
		for i := 0; i < sub.bugShare; i++ {
			out = append(out, sub.name)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func assignLifetimes(r *rand.Rand, c *Corpus) {
	var ages []float64
	for _, b := range lifetimeBuckets {
		for i := 0; i < b.count; i++ {
			ages = append(ages, b.minY+r.Float64()*(b.maxY-b.minY))
		}
	}
	r.Shuffle(len(ages), func(i, j int) { ages[i], ages[j] = ages[j], ages[i] })
	for i := range c.Bugs {
		age := ages[i%len(ages)]
		c.Bugs[i].Introduced = c.NowDate.Add(-time.Duration(age * 365.25 * 24 * float64(time.Hour)))
	}
}

var subDirs = map[string][]string{
	"drivers": {"spi", "i2c", "net/ethernet", "gpu", "usb", "mmc", "tty", "iio", "media", "pinctrl"},
	"sound":   {"soc", "pci", "usb", "core"},
	"net":     {"core", "ipv4", "mac80211", "sched"},
	"fs":      {"ext4", "btrfs", "nfs", "proc"},
	"samples": {"bpf", "kobject"},
	"arch":    {"arm64", "x86", "riscv"},
	"lib":     {""},
	"include": {"linux"},
}

func filePathFor(sub string, nm *NameSet, i int) string {
	dirs := subDirs[sub]
	dir := dirs[i%len(dirs)]
	base := strings.ReplaceAll(nm.Chip, "_", "-") + ".c"
	if sub == "include" {
		base = strings.ReplaceAll(nm.Chip, "_", "-") + ".h"
	}
	if dir == "" {
		return sub + "/" + base
	}
	return sub + "/" + dir + "/" + base
}
