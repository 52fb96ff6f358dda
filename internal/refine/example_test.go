package refine_test

import (
	"fmt"

	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/refine"
	"knighter/internal/scan"
	"knighter/internal/synth"
	"knighter/internal/triage"
)

// baitAt returns the bait planted at (file, fn), if any.
func baitAt(c *kernel.Corpus, file, fn string) (*kernel.PlantedBait, bool) {
	for i := range c.Baits {
		if c.Baits[i].File == file && c.Baits[i].Func == fn {
			return &c.Baits[i], true
		}
	}
	return nil, false
}

// The closed-loop refinement story (§3.2, Fig. 7): a first-draft checker
// validates against its patch but drowns in false positives on real
// code because it does not see through unlikely(); the triage agent
// labels sampled reports, the refinement agent fixes the checker, and
// the loop re-validates — ending with a plausible checker.
func ExampleLoop_Run() {
	commits := kernel.BuildHandCommits(11)
	// The kzalloc NPD commit: its first valid checker is naive (no
	// unlikely() handling), which the corpus punishes.
	input := commits.ByClass(kernel.ClassNPD)[1]
	fmt.Printf("input patch %s (%s/%s)\n\n", input.ID, input.Class, input.Flavor)

	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	out := pipe.GenChecker(input)
	if !out.Valid {
		panic("synthesis failed for the kzalloc commit")
	}
	fmt.Printf("first valid checker:\n%s\n", out.Spec.String())

	corpus := kernel.Generate(kernel.Config{Seed: 1})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		panic(err)
	}

	// The pre-refinement scan: count how many reports are bait
	// functions that use if (unlikely(!p)) — correct code the naive
	// checker cannot understand (paper Fig. 7).
	pre := cb.RunOne(out.Checker, scan.Options{MaxReports: 100})
	baitHits := 0
	for _, r := range pre.Reports {
		if bait, ok := baitAt(corpus, r.File, r.Func); ok && bait.Kind == kernel.BaitUnlikelyCheck {
			baitHits++
		}
	}
	fmt.Printf("pre-refinement scan: %d reports, of which %d are unlikely()-guarded false positives\n\n",
		len(pre.Reports), baitHits)

	loop := refine.NewLoop(scan.NewIncremental(cb, nil), triage.NewAgent(corpus), pipe)
	rr := loop.Run(input, out.Checker)
	fmt.Printf("refinement: %s after %d round(s), %d accepted step(s)\n\n", rr.Disposition, rr.Rounds, rr.Steps)
	fmt.Printf("refined checker:\n%s\n", rr.Spec.String())
	fmt.Printf("post-refinement scan: %d reports\n", len(rr.FinalReports))
	for _, r := range rr.FinalReports {
		label := "?"
		if _, ok := corpus.IsBugSite(r.File, r.Func); ok {
			label = "TRUE BUG"
		} else if _, ok := baitAt(corpus, r.File, r.Func); ok {
			label = "residual FP"
		}
		fmt.Printf("  [%s] %s\n", label, r)
	}
	// Output:
	// input patch 8b5fa0b6e3a9 (NPD/kzalloc)
	//
	// first valid checker:
	// checker npd_kzalloc_8b5fa0 {
	//   bugtype "Null-Pointer-Dereference"
	//   description "synthesized from commit 8b5fa0b6e3a9 (add-null-check)"
	//   track aliases
	//   source { call "kzalloc" yields nullable }
	//   guard { nullcheck }
	//   sink { deref unchecked report "kzalloc() may return NULL and is dereferenced without a check" }
	// }
	//
	// pre-refinement scan: 39 reports, of which 24 are unlikely()-guarded false positives
	//
	// refinement: refined after 2 round(s), 1 accepted step(s)
	//
	// refined checker:
	// checker npd_kzalloc_8b5fa0 {
	//   bugtype "Null-Pointer-Dereference"
	//   description "synthesized from commit 8b5fa0b6e3a9 (add-null-check)"
	//   track aliases
	//   unwrap "unlikely" "likely"
	//   source { call "kzalloc" yields nullable }
	//   guard { nullcheck }
	//   sink { deref unchecked report "kzalloc() may return NULL and is dereferenced without a check" }
	// }
	//
	// post-refinement scan: 15 reports
	//   [residual FP] drivers/gpu/exar1288-spi.c:39:7: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in ti7996_wdt_disable)
	//   [residual FP] drivers/gpu/mtk8000-mmc.c:52:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in hisi8478_thermal_reset)
	//   [TRUE BUG] drivers/media/exar5867-i2c.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in mtk2149_hdmi_sync)
	//   [residual FP] drivers/mmc/fsl8401-eth.c:31:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in sun8i4801_eth_read)
	//   [TRUE BUG] drivers/mmc/omap7412-gpio.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in mvebu6295_adc_enable)
	//   [residual FP] drivers/mmc/omap8494-adc.c:28:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in rcar4246_thermal_remove)
	//   [residual FP] drivers/mmc/tegra1643-crypto.c:56:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in rzg7732_csi_suspend)
	//   [TRUE BUG] drivers/net/ethernet/rtl2973-tsc.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in mvebu5775_csi_remove)
	//   [residual FP] drivers/pinctrl/mvebu2826-hdmi.c:50:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in cdns7882_gpio_start)
	//   [residual FP] drivers/spi/atmel5937-spi.c:29:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in sun8i7908_hdmi_probe)
	//   [TRUE BUG] drivers/tty/mtk1200-gpio.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in hisi9339_mipi_attach)
	//   [residual FP] drivers/tty/tegra6679-phy.c:33:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in sprd7435_uart_config)
	//   [TRUE BUG] drivers/usb/atmel9470-eth.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in atmel8818_gpio_stop)
	//   [TRUE BUG] lib/cdns2656-radix.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in sun8i9579_crc_init)
	//   [TRUE BUG] sound/soc/atmel8190-pcm.c:21:6: [knighter.npd_kzalloc_8b5fa0] Null-Pointer-Dereference: kzalloc() may return NULL and is dereferenced without a check (in davinci8014_amp_reset)
}
