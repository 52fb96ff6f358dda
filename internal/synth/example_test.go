package synth_test

import (
	"fmt"
	"strings"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/synth"
	"knighter/internal/triage"
)

// The paper's motivating scenario (§2.2, Fig. 2-4) end to end: start
// from the historical devm_kzalloc patch commit, run the multi-stage
// synthesis pipeline (pattern analysis -> plan -> implementation ->
// validation), then deploy the checker across the synthetic kernel and
// find the latent CVE-2024-50103-style bugs it was never trained on.
func ExamplePipeline_GenChecker_nullDeref() {
	// 1. The input patch: the hand-benchmark's devm_kzalloc commit.
	commits := kernel.BuildHandCommits(11)
	input := commits.ByClass(kernel.ClassNPD)[0]
	fmt.Printf("input patch %s: %s\n\n%s\n", input.ID, input.Subject, input.Diff())

	// 2. Multi-stage synthesis (Algorithm 1).
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	out := pipe.GenChecker(input)
	if !out.Valid {
		panic("synthesis failed for the motivating commit")
	}
	fmt.Printf("bug pattern: %s\n\nplan:\n%s\n\n", out.Pattern.Text, out.Plan.Text())
	fmt.Printf("synthesized checker (valid: N_buggy=%d > N_patched=%d):\n%s\n",
		out.NBuggy, out.NPatched, out.Spec.String())

	// 3. Deploy across the whole synthetic kernel.
	corpus := kernel.Generate(kernel.Config{Seed: 1})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		panic(err)
	}
	res := cb.RunOne(out.Checker, scan.Options{})
	fmt.Printf("whole-kernel scan: %d files, %d reports\n\n", res.FilesScanned, len(res.Reports))

	// 4. Triage and match against the ground-truth ledger.
	agent := triage.NewAgent(corpus)
	newBugs, fps := 0, 0
	for _, r := range res.Reports {
		if !agent.Classify(r, 0).Bug {
			continue
		}
		if bug, ok := corpus.IsBugSite(r.File, r.Func); ok {
			newBugs++
			years := corpus.NowDate.Sub(bug.Introduced).Hours() / 24 / 365.25
			fmt.Printf("NEW BUG %s (latent %.1f years): %s\n", bug.ID, years, r)
		} else {
			fps++
		}
	}
	fmt.Printf("\n%d new bugs found by a checker synthesized from one historical patch (%d false positives)\n",
		newBugs, fps)
	// Output:
	// input patch bc4edfcea90f: drivers: spi/nxp8036-eth: Fix a possible null pointer dereference after devm_kzalloc
	//
	// --- a/drivers/spi/nxp8036-eth.c
	// +++ b/drivers/spi/nxp8036-eth.c
	// @@ -7,6 +7,8 @@
	//  {
	//  	struct nxp8036_eth_ctx *cfg;
	//  	cfg = devm_kzalloc(&pdev->dev, sizeof(struct nxp8036_eth_ctx), GFP_KERNEL);
	// +	if (!cfg)
	// +		return -ENOMEM;
	//  	cfg->flags = 0;
	//  	platform_set_drvdata(pdev, cfg);
	//  	return 0;
	//
	// bug pattern: The bug pattern is add-null-check anchored on devm_kzalloc: code calling devm_kzalloc without the corresponding guard is likely to exhibit the same defect.
	//
	// plan:
	// 1. Program state: map regions returned by devm_kzalloc() to a checked/unchecked flag.
	// 2. checkPostCall: on devm_kzalloc(), record the returned region as unchecked.
	// 3. checkBranchCondition: recognize if (!p) / p == NULL and mark the region checked.
	// 4. checkLocation: report a dereference of an unchecked region.
	// 5. checkBind: propagate the flag across pointer aliases.
	//
	// synthesized checker (valid: N_buggy=1 > N_patched=0):
	// checker npd_devm_kzalloc_bc4edf {
	//   bugtype "Null-Pointer-Dereference"
	//   description "synthesized from commit bc4edfcea90f (add-null-check)"
	//   track aliases
	//   source { call "devm_kzalloc" yields nullable }
	//   guard { nullcheck }
	//   sink { deref unchecked report "devm_kzalloc() may return NULL and is dereferenced without a check" }
	// }
	//
	// whole-kernel scan: 315 files, 19 reports
	//
	// NEW BUG KB-008 (latent 3.6 years): drivers/i2c/qcom1222-i2c.c:21:6: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in nxp8316_mmc_reset)
	// NEW BUG KB-003 (latent 0.8 years): drivers/media/hisi3523-hdmi.c:21:6: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in sun8i4796_dma_suspend)
	// NEW BUG KB-007 (latent 0.6 years): drivers/net/ethernet/cdns3847-mipi.c:21:7: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in rtl7966_phy_detach)
	// NEW BUG KB-001 (latent 3.3 years): drivers/pinctrl/ingenic8375-pwm.c:21:6: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in bcm7761_tsc_flush)
	// NEW BUG KB-004 (latent 10.6 years): net/sched/mvebu1069-mac.c:21:7: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in nxp9533_bt_attach)
	// NEW BUG KB-006 (latent 4.3 years): samples/kobject/ingenic8345-hello.c:21:6: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in davinci5017_hello_update)
	// NEW BUG KB-002 (latent 20.5 years): sound/core/omap8802-dai.c:21:6: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in tegra8681_codec_resume)
	// NEW BUG KB-005 (latent 1.6 years): sound/soc/st4936-dai.c:21:5: [knighter.npd_devm_kzalloc_bc4edf] Null-Pointer-Dereference: devm_kzalloc() may return NULL and is dereferenced without a check (in tegra4780_amp_remove)
	//
	// 8 new bugs found by a checker synthesized from one historical patch (3 false positives)
}

// The paper's Fig. 10b target: dm9000_drv_remove uses the private data
// after free_netdev() releases it.
const dm9000 = `
struct board_info {
	int power_supply;
};

static void dm9000_drv_remove(struct platform_device *pdev)
{
	struct net_device *ndev = platform_get_drvdata(pdev);
	struct board_info *dm = netdev_priv(ndev);

	dm9000_release_board(pdev, dm);
	free_netdev(ndev);
	if (dm->power_supply)
		regulator_disable(dm->power_supply);
}
`

// The CVE-2025-21715 case study (§5.2.2, Fig. 10a/10b): a use-after-free
// patch that moves free_netdev() after the last use of netdev_priv()
// data teaches a checker that then finds the same pattern in an
// unrelated driver's remove path.
func ExamplePipeline_GenChecker_useAfterFree() {
	commits := kernel.BuildHandCommits(11)
	input := commits.ByClass(kernel.ClassUAF)[0] // the free_netdev ordering patch
	// Example output is compared with trailing spaces trimmed, so the
	// diff's blank context line (" ") prints empty.
	diff := strings.ReplaceAll(input.Diff(), "\n \n", "\n\n")
	fmt.Printf("input patch %s: %s\n\n%s\n", input.ID, input.Subject, diff)

	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	out := pipe.GenChecker(input)
	if !out.Valid {
		panic("synthesis failed for the free_netdev commit")
	}
	fmt.Printf("synthesized checker:\n%s\n", out.Spec.String())

	file, err := minic.ParseFile("drivers/net/ethernet/davicom/dm9000.c", dm9000)
	if err != nil {
		panic(err)
	}
	res := engine.AnalyzeFile(file, engine.Options{Checkers: []checker.Checker{out.Checker}})
	fmt.Printf("scan of dm9000_drv_remove: %d report(s)\n", len(res.Reports))
	for _, r := range res.Reports {
		fmt.Println("  " + r.String())
		for _, step := range r.Trace {
			fmt.Printf("    trace %d: %s\n", step.Pos.Line, step.Note)
		}
	}
	fmt.Println("\nThe checker learned from one driver's ordering fix and found the")
	fmt.Println("same use-after-free in another driver — the CVE-2025-21715 story.")
	// Output:
	// input patch 67cf4a9863b3: drivers: net/ethernet/ti2462-pwm: Fix use-after-free of private data in remove path
	//
	// --- a/drivers/net/ethernet/ti2462-pwm.c
	// +++ b/drivers/net/ethernet/ti2462-pwm.c
	// @@ -7,7 +7,7 @@
	//  	struct net_device *ndev = platform_get_drvdata(pdev);
	//  	struct ti2462_pwm_chan *cfg = netdev_priv(ndev);
	//
	// -	free_netdev(ndev);
	//  	if (cfg->version)
	//  		regulator_disable(cfg->version);
	// +	free_netdev(ndev);
	//  }
	//
	// synthesized checker:
	// checker use_after_free_free_netdev_67cf4a {
	//   bugtype "Use-After-Free"
	//   description "synthesized from commit 67cf4a9863b3 (move-free-later)"
	//   track aliases
	//   source { call "free_netdev" frees arg 0 }
	//   source { call "netdev_priv" derives arg 0 }
	//   sink { deref freed report "object used after free_netdev()" }
	// }
	//
	// scan of dm9000_drv_remove: 2 report(s)
	//   drivers/net/ethernet/davicom/dm9000.c:13:8: [knighter.use_after_free_free_netdev_67cf4a] Use-After-Free: object used after free_netdev() (in dm9000_drv_remove)
	//   drivers/net/ethernet/davicom/dm9000.c:14:23: [knighter.use_after_free_free_netdev_67cf4a] Use-After-Free: object used after free_netdev() (in dm9000_drv_remove)
	//     trace 13: assuming 'dm->power_supply' is true
	//
	// The checker learned from one driver's ordering fix and found the
	// same use-after-free in another driver — the CVE-2025-21715 story.
}
