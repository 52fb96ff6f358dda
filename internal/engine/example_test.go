package engine_test

import (
	"fmt"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// A checker in the synthesis DSL: track devm_kzalloc() results, mark
// them checked on NULL tests (seeing through unlikely()), and report
// dereferences of unchecked results. This is the running example of the
// paper (Fig. 2).
const quickstartChecker = `
checker quickstart_npd {
  bugtype "Null-Pointer-Dereference"
  description "missing NULL check on devm_kzalloc() result"
  track aliases
  unwrap "unlikely" "likely"
  source { call "devm_kzalloc" yields nullable }
  guard  { nullcheck }
  sink   { deref unchecked report "pointer may be NULL when dereferenced" }
}
`

const quickstartBuggy = `
static int pci1xxxx_spi_probe(struct pci_dev *pdev, int iter)
{
	struct spi_sub *spi_sub_ptr;
	spi_sub_ptr = devm_kzalloc(&pdev->dev, sizeof(struct spi_sub), GFP_KERNEL);
	spi_sub_ptr->irq = 0;
	return 0;
}
`

const quickstartFixed = `
static int pci1xxxx_spi_probe(struct pci_dev *pdev, int iter)
{
	struct spi_sub *spi_sub_ptr;
	spi_sub_ptr = devm_kzalloc(&pdev->dev, sizeof(struct spi_sub), GFP_KERNEL);
	if (!spi_sub_ptr)
		return -ENOMEM;
	spi_sub_ptr->irq = 0;
	return 0;
}
`

// Write a checker in the DSL, compile it, and run the path-sensitive
// engine over a buggy and a fixed version of a function: the inner loop
// of everything KNighter does.
func ExampleAnalyzeFile() {
	ck, err := ckdsl.CompileSource(quickstartChecker)
	if err != nil {
		panic(err)
	}
	for _, tc := range []struct{ name, src string }{{"buggy", quickstartBuggy}, {"fixed", quickstartFixed}} {
		file, err := minic.ParseFile(tc.name+".c", tc.src)
		if err != nil {
			panic(err)
		}
		res := engine.AnalyzeFile(file, engine.Options{Checkers: []checker.Checker{ck}})
		fmt.Printf("%s version: %d report(s), %d path(s) explored\n", tc.name, len(res.Reports), res.Paths)
		for _, r := range res.Reports {
			fmt.Println("  " + r.String())
			for _, step := range r.Trace {
				fmt.Printf("    trace %d: %s\n", step.Pos.Line, step.Note)
			}
		}
	}
	// Output:
	// buggy version: 1 report(s), 1 path(s) explored
	//   buggy.c:6:13: [knighter.quickstart_npd] Null-Pointer-Dereference: pointer may be NULL when dereferenced (in pci1xxxx_spi_probe)
	// fixed version: 0 report(s), 2 path(s) explored
}
