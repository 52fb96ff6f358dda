package kernel

import (
	"fmt"
	"math/rand"
	"strings"
)

// Bug class labels (the Table 1 taxonomy).
const (
	ClassNPD         = "NPD"
	ClassIntOver     = "Integer-Overflow"
	ClassOOB         = "Out-of-Bound"
	ClassBufOver     = "Buffer-Overflow"
	ClassMemLeak     = "Memory-Leak"
	ClassUAF         = "Use-After-Free"
	ClassDoubleFree  = "Double-Free"
	ClassUBI         = "UBI"
	ClassConcurrency = "Concurrency"
	ClassMisuse      = "Misuse"
)

// AllClasses lists the ten categories in Table 1 order.
var AllClasses = []string{
	ClassNPD, ClassIntOver, ClassOOB, ClassBufOver, ClassMemLeak,
	ClassUAF, ClassDoubleFree, ClassUBI, ClassConcurrency, ClassMisuse,
}

// BugTypeName maps a class label to the human bug-type string checkers
// report.
func BugTypeName(class string) string {
	switch class {
	case ClassNPD:
		return "Null-Pointer-Dereference"
	case ClassUBI:
		return "Use-Before-Initialization"
	default:
		return class
	}
}

// Pattern describes one bug idiom anchored on an API ("flavor"): how to
// render a buggy and a fixed version of a function exhibiting it, plus
// commit-message templates.
type Pattern struct {
	Class  string
	Flavor string
	// Render produces a self-contained buggy and fixed source file pair
	// using the given names.
	Render func(nm *NameSet, r *rand.Rand) (buggy, fixed string)
	// Subject and DetailBody template a commit message; %[1]s is the
	// function name, %[2]s the flavor API.
	Subject    string
	DetailBody string
}

// PatternFor returns the registered pattern for (class, flavor), or nil.
func PatternFor(class, flavor string) *Pattern {
	for _, p := range Patterns {
		if p.Class == class && p.Flavor == flavor {
			return p
		}
	}
	return nil
}

// allocCall renders a call to an allocator flavor with idiomatic args.
func allocCall(flavor string, sizeExpr string) string {
	switch {
	case strings.HasPrefix(flavor, "devm_"):
		return fmt.Sprintf("%s(&pdev->dev, %s, GFP_KERNEL)", flavor, sizeExpr)
	case flavor == "kcalloc" || flavor == "devm_kcalloc":
		return fmt.Sprintf("%s(8, %s, GFP_KERNEL)", flavor, sizeExpr)
	case flavor == "kstrdup" || flavor == "devm_kstrdup":
		return fmt.Sprintf("%s(name, GFP_KERNEL)", flavor)
	case flavor == "kmemdup":
		return fmt.Sprintf("kmemdup(src, %s, GFP_KERNEL)", sizeExpr)
	case flavor == "vzalloc" || flavor == "kvzalloc" || flavor == "vmalloc":
		if flavor == "vmalloc" || flavor == "vzalloc" {
			return fmt.Sprintf("%s(%s)", flavor, sizeExpr)
		}
		return fmt.Sprintf("%s(%s, GFP_KERNEL)", flavor, sizeExpr)
	case flavor == "alloc_workqueue":
		return "alloc_workqueue(name, 0, 0)"
	default:
		return fmt.Sprintf("%s(%s, GFP_KERNEL)", flavor, sizeExpr)
	}
}

// npdPattern builds the missing-NULL-check pattern for one allocator.
func npdPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassNPD,
		Flavor:  flavor,
		Subject: fmt.Sprintf("Fix a possible null pointer dereference after %s", flavor),
		DetailBody: fmt.Sprintf(
			"In function %%[1]s, there is a potential null pointer that may be\n"+
				"caused by a failed memory allocation by the function %s. Hence, a\n"+
				"null pointer check needs to be added to prevent null pointer\n"+
				"dereferencing later in the code.", flavor),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			alloc := allocCall(flavor, fmt.Sprintf("sizeof(struct %s)", nm.Struct))
			header := fmt.Sprintf(`struct %s {
	int %s;
	int %s;
};

static int %s(struct platform_device *pdev, char *name)
{
	struct %s *%s;
	%s = %s;
`, nm.Struct, nm.Field, nm.Field2, nm.Fn, nm.Struct, nm.Ptr, nm.Ptr, alloc)
			tail := fmt.Sprintf(`	%s->%s = 0;
	platform_set_drvdata(pdev, %s);
	return 0;
}
`, nm.Ptr, nm.Field, nm.Ptr)
			buggy := header + tail
			fixed := header + fmt.Sprintf("\tif (!%s)\n\t\treturn -ENOMEM;\n", nm.Ptr) + tail
			return buggy, fixed
		},
	}
}

// intOverPattern builds the unchecked size-multiplication pattern.
func intOverPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassIntOver,
		Flavor:  flavor,
		Subject: fmt.Sprintf("Fix integer overflow in %s size computation", flavor),
		DetailBody: fmt.Sprintf(
			"The allocation size passed to %s is computed by multiplying a\n"+
				"user-controlled count by the element size without checking for\n"+
				"overflow. On 32-bit the product can wrap, leading to a short\n"+
				"allocation and subsequent heap corruption. Bound the count before\n"+
				"the multiplication.", flavor),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			elem := []int{8, 16, 32, 64}[r.Intn(4)]
			bound := []int{256, 1024, 4096}[r.Intn(3)]
			header := fmt.Sprintf(`static int %s(struct platform_device *pdev, size_t %s)
{
	u8 *table;
`, nm.Fn, nm.Size)
			allocStmt := fmt.Sprintf("\ttable = %s;\n", allocCall(flavor, fmt.Sprintf("%s * %d", nm.Size, elem)))
			tail := `	if (!table)
		return -ENOMEM;
	setup_table(pdev, table);
	return 0;
}
`
			buggy := header + allocStmt + tail
			fixed := header +
				fmt.Sprintf("\tif (%s > %d)\n\t\treturn -EINVAL;\n", nm.Size, bound) +
				allocStmt + tail
			return buggy, fixed
		},
	}
}

// oobPattern builds the untrusted-index pattern for one decoder.
func oobPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassOOB,
		Flavor:  flavor,
		Subject: fmt.Sprintf("Fix out-of-bounds read with index from %s", flavor),
		DetailBody: fmt.Sprintf(
			"The index obtained from %s comes straight from the wire and is\n"+
				"used to subscript a fixed-size table without validation, allowing\n"+
				"an out-of-bounds access. Validate the index against the table\n"+
				"size first.", flavor),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static int %s(struct sk_buff *skb)
{
	u32 map[%d];
	int %s;

	load_map(skb, map);
	%s = %s(skb->data);
`, nm.Fn, nm.TabLen, nm.Idx, nm.Idx, flavor)
			tail := fmt.Sprintf("\treturn map[%s];\n}\n", nm.Idx)
			buggy := header + tail
			fixed := header + fmt.Sprintf("\tif (%s >= %d)\n\t\treturn -EINVAL;\n", nm.Idx, nm.TabLen) + tail
			return buggy, fixed
		},
	}
}

// bufOverPattern builds the unbounded copy_from_user pattern; the flavor
// distinguishes the surrounding handler context.
func bufOverPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassBufOver,
		Flavor:  flavor,
		Subject: "Fix possible buffer overflow in " + flavor + " write handler",
		DetailBody: "The write handler copies nbytes from userspace into a fixed\n" +
			"on-stack buffer without limiting the size, so a large write\n" +
			"overflows the buffer. Clamp the copy to sizeof(buf) - 1 so a\n" +
			"trailing NUL always fits.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static ssize_t %s_write(struct file *file, char *ubuf, size_t %s)
{
	char %s[%d];

	memset(%s, 0, sizeof(%s));
`, nm.Fn, nm.Size, nm.Buf, nm.BufLen, nm.Buf, nm.Buf)
			tail := fmt.Sprintf(`	%s_apply(file, %s);
	return %s;
}
`, nm.Chip, nm.Buf, nm.Size)
			buggy := header + fmt.Sprintf("\tif (copy_from_user(%s, ubuf, %s))\n\t\treturn -EFAULT;\n", nm.Buf, nm.Size) + tail
			fixed := header + fmt.Sprintf(`	size_t bsize;
	bsize = min(%s, sizeof(%s) - 1);
	if (copy_from_user(%s, ubuf, bsize))
		return -EFAULT;
`, nm.Size, nm.Buf, nm.Buf) + tail
			return buggy, fixed
		},
	}
}

// memLeakPattern builds the leak-on-error-path pattern.
func memLeakPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassMemLeak,
		Flavor:  flavor,
		Subject: fmt.Sprintf("Fix memory leak of %s buffer on error path", flavor),
		DetailBody: fmt.Sprintf(
			"When the hardware init step fails, the function returns without\n"+
				"releasing the buffer allocated with %s earlier, leaking it on\n"+
				"every failed probe. Free the buffer before returning the error.", flavor),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static int %s(struct platform_device *pdev)
{
	u8 *%s;
	int ret;

	%s = %s;
	if (!%s)
		return -ENOMEM;
	ret = %s_hw_init(pdev);
`, nm.Fn, nm.Buf, nm.Buf, allocCall(flavor, fmt.Sprintf("%d", nm.BufLen)), nm.Buf, nm.Chip)
			tail := fmt.Sprintf(`	%s_apply(pdev, %s);
	kfree(%s);
	return 0;
}
`, nm.Chip, nm.Buf, nm.Buf)
			buggy := header + "\tif (ret)\n\t\treturn ret;\n" + tail
			fixed := header + fmt.Sprintf("\tif (ret) {\n\t\tkfree(%s);\n\t\treturn ret;\n\t}\n", nm.Buf) + tail
			return buggy, fixed
		},
	}
}

// uafPattern builds the use-after-free pattern; the free_netdev flavor
// mirrors the paper's CVE-2025-21715 case study.
func uafPattern(flavor string) *Pattern {
	switch flavor {
	case "free_netdev":
		return &Pattern{
			Class:   ClassUAF,
			Flavor:  flavor,
			Subject: "Fix use-after-free of private data in remove path",
			DetailBody: "free_netdev() releases the net_device together with its private\n" +
				"area obtained via netdev_priv(), so the private data must not be\n" +
				"touched after the free. Move free_netdev() after all accesses to\n" +
				"the private data.",
			Render: func(nm *NameSet, r *rand.Rand) (string, string) {
				header := fmt.Sprintf(`struct %s {
	int %s;
};

static void %s(struct platform_device *pdev)
{
	struct net_device *ndev = platform_get_drvdata(pdev);
	struct %s *%s = netdev_priv(ndev);

`, nm.Struct, nm.Field, nm.Fn, nm.Struct, nm.Ptr)
				use := fmt.Sprintf("\tif (%s->%s)\n\t\tregulator_disable(%s->%s);\n", nm.Ptr, nm.Field, nm.Ptr, nm.Field)
				buggy := header + "\tfree_netdev(ndev);\n" + use + "}\n"
				fixed := header + use + "\tfree_netdev(ndev);\n}\n"
				return buggy, fixed
			},
		}
	default: // kfree-style ordering flavors
		return &Pattern{
			Class:   ClassUAF,
			Flavor:  flavor,
			Subject: fmt.Sprintf("Fix use-after-free: %s called before last use", flavor),
			DetailBody: fmt.Sprintf(
				"The object is released with %s and then dereferenced to log its\n"+
					"state, a use-after-free. Reorder the free after the final use.", flavor),
			Render: func(nm *NameSet, r *rand.Rand) (string, string) {
				header := fmt.Sprintf(`struct %s {
	int %s;
};

static void %s(struct %s *%s)
{
`, nm.Struct, nm.Field, nm.Fn, nm.Struct, nm.Ptr)
				use := fmt.Sprintf("\tlog_state(%s->%s);\n", nm.Ptr, nm.Field)
				free := fmt.Sprintf("\t%s(%s);\n", flavor, nm.Ptr)
				buggy := header + free + use + "}\n"
				fixed := header + use + free + "}\n"
				return buggy, fixed
			},
		}
	}
}

// doubleFreePattern builds the duplicated-release pattern. fixStyle is
// "clear" (NULL the pointer after the first release, the common kernel
// fix) or "remove" (drop the duplicated release entirely).
func doubleFreePattern(flavor, fixStyle string) *Pattern {
	return &Pattern{
		Class:   ClassDoubleFree,
		Flavor:  flavor,
		Subject: fmt.Sprintf("Fix double free via duplicated %s on error path", flavor),
		DetailBody: fmt.Sprintf(
			"The descriptor is released with %s both in the failure branch and\n"+
				"in the common error label, so a failing reset frees it twice.", flavor),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`struct %s {
	u8 *%s;
};

static int %s(struct %s *ctx, struct platform_device *pdev)
{
	%s(ctx->%s);
`, nm.Struct, nm.Ptr2, nm.Fn, nm.Struct, flavor, nm.Ptr2)
			tail := fmt.Sprintf(`	if (%s_reset(pdev))
		goto %s;
	return 0;
%s:
	%s(ctx->%s);
	return -EIO;
}
`, nm.Chip, nm.Label, nm.Label, flavor, nm.Ptr2)
			buggy := header + tail
			var fixed string
			if fixStyle == "remove" {
				fixed = header + fmt.Sprintf(`	if (%s_reset(pdev))
		goto %s;
	return 0;
%s:
	return -EIO;
}
`, nm.Chip, nm.Label, nm.Label)
			} else {
				fixed = header + fmt.Sprintf("\tctx->%s = NULL;\n", nm.Ptr2) + tail
			}
			return buggy, fixed
		},
	}
}

// ubiPattern builds the uninitialized-cleanup-pointer pattern (paper
// Fig. 8a, commit 90ca6956d383).
func ubiPattern(flavor string) *Pattern {
	return &Pattern{
		Class:   ClassUBI,
		Flavor:  flavor,
		Subject: "Fix freeing uninitialized pointer in early-return path",
		DetailBody: "The __free(" + flavor + ") auto-cleanup pointer is declared without an\n" +
			"initializer, so the early parameter-validation return runs the\n" +
			"cleanup handler on a garbage pointer. Initialize it to NULL.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`struct %s_caps {
	int %s;
};

static int %s(struct ice_port_info *pi, int mode)
{
`, nm.Chip, nm.Field, nm.Fn)
			declBuggy := fmt.Sprintf("\tstruct %s_caps *pcaps __free(%s);\n", nm.Chip, flavor)
			declFixed := fmt.Sprintf("\tstruct %s_caps *pcaps __free(%s) = NULL;\n", nm.Chip, flavor)
			tail := fmt.Sprintf(`	if (!pi)
		return -EINVAL;
	pcaps = kzalloc(sizeof(struct %s_caps), GFP_KERNEL);
	if (!pcaps)
		return -ENOMEM;
	%s_fill_caps(pi, pcaps);
	return 0;
}
`, nm.Chip, nm.Chip)
			return header + declBuggy + tail, header + declFixed + tail
		},
	}
}

// concurrencyPattern builds the missing-unlock-on-early-return pattern.
func concurrencyPattern(lockFn, unlockFn string) *Pattern {
	return &Pattern{
		Class:   ClassConcurrency,
		Flavor:  lockFn,
		Subject: fmt.Sprintf("Fix missing %s on error path", unlockFn),
		DetailBody: fmt.Sprintf(
			"The early validation return leaves the function without calling\n"+
				"%s, so the lock taken with %s is never released and the next\n"+
				"writer deadlocks. Unlock before returning the error.", unlockFn, lockFn),
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`struct %s {
	int %s;
	int %s;
};

static int %s(struct %s *dev, int val)
{
	%s(&dev->%s);
`, nm.Struct, nm.Lock, nm.Field, nm.Fn, nm.Struct, lockFn, nm.Lock)
			tail := fmt.Sprintf(`	dev->%s = val;
	%s(&dev->%s);
	return 0;
}
`, nm.Field, unlockFn, nm.Lock)
			buggy := header + "\tif (val < 0)\n\t\treturn -EINVAL;\n" + tail
			fixed := header + fmt.Sprintf("\tif (val < 0) {\n\t\t%s(&dev->%s);\n\t\treturn -EINVAL;\n\t}\n", unlockFn, nm.Lock) + tail
			return buggy, fixed
		},
	}
}

// misuseUntermPattern: parsing a user buffer that may lack a NUL.
func misuseUntermPattern() *Pattern {
	return &Pattern{
		Class:   ClassMisuse,
		Flavor:  "sscanf_unterminated",
		Subject: "Fix string parsing of unterminated user buffer",
		DetailBody: "copy_from_user() does not NUL-terminate the destination, but the\n" +
			"buffer is then handed to sscanf(), which requires a terminated\n" +
			"string; a size-long write leaves the buffer unterminated and\n" +
			"sscanf reads past the end. Store a trailing zero after the copy.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static ssize_t %s_store(struct device *dev, char *ubuf, size_t %s)
{
	char %s[%d];
	int val;

	if (%s > sizeof(%s) - 1)
		return -EINVAL;
	if (copy_from_user(%s, ubuf, %s))
		return -EFAULT;
`, nm.Fn, nm.Size, nm.Buf, nm.BufLen, nm.Size, nm.Buf, nm.Buf, nm.Size)
			tail := fmt.Sprintf(`	sscanf(%s, "%%d", &val);
	%s_set_level(dev, val);
	return %s;
}
`, nm.Buf, nm.Chip, nm.Size)
			buggy := header + tail
			fixed := header + fmt.Sprintf("\t%s[%s] = 0;\n", nm.Buf, nm.Size) + tail
			return buggy, fixed
		},
	}
}

// misuseIrqPattern: platform_get_irq() result used without a sign check.
func misuseIrqPattern() *Pattern {
	return &Pattern{
		Class:   ClassMisuse,
		Flavor:  "platform_get_irq",
		Subject: "Fix unchecked platform_get_irq() result",
		DetailBody: "platform_get_irq() returns a negative errno on failure, and\n" +
			"passing that negative value to request_irq() registers a bogus\n" +
			"interrupt line. Check the result before requesting the IRQ.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static int %s(struct platform_device *pdev)
{
	int irq;

	irq = platform_get_irq(pdev, 0);
`, nm.Fn)
			tail := fmt.Sprintf("\treturn request_irq(irq, %s_isr);\n}\n", nm.Chip)
			buggy := header + tail
			fixed := header + "\tif (irq < 0)\n\t\treturn irq;\n" + tail
			return buggy, fixed
		},
	}
}

// Patterns is the full registry: every (class, flavor) the corpus,
// commit dataset, and oracle know about.
var Patterns = buildPatterns()

func buildPatterns() []*Pattern {
	var ps []*Pattern
	// NPD: hand-labeled flavors first, then auto-collected flavors.
	for _, f := range []string{
		"devm_kzalloc", "kzalloc", "kmalloc", "kcalloc", "kstrdup", "devm_ioremap",
		// auto-collected NPD flavors
		"devm_kcalloc", "kmemdup", "vzalloc", "kvzalloc", "devm_kmalloc",
		"kzalloc_node", "alloc_workqueue", "devm_kstrdup",
	} {
		ps = append(ps, npdPattern(f))
	}
	for _, f := range []string{"kmalloc", "kzalloc", "kvmalloc", "vmalloc", "dma_alloc_coherent", "sock_kmalloc", "usb_alloc_coherent"} {
		ps = append(ps, intOverPattern(f))
	}
	for _, f := range []string{"le16_to_cpu", "le32_to_cpu", "be16_to_cpu", "get_unaligned_le16", "simple_strtoul", "hex_to_bin"} {
		ps = append(ps, oobPattern(f))
	}
	for _, f := range []string{"debugfs", "sysfs", "procfs", "tracefs", "netdevsim"} {
		ps = append(ps, bufOverPattern(f))
	}
	for _, f := range []string{"kmalloc", "kzalloc", "kmemdup", "vmalloc", "kvzalloc"} {
		ps = append(ps, memLeakPattern(f))
	}
	for _, f := range []string{"free_netdev", "kfree", "usb_free_urb", "vfree", "kvfree", "mmc_free_host", "dma_free_coherent"} {
		ps = append(ps, uafPattern(f))
	}
	for _, f := range []string{"kfree", "vfree", "kvfree", "usb_free_urb", "bio_put", "mmc_free_host", "sock_release"} {
		ps = append(ps, doubleFreePattern(f, "clear"))
	}
	// The crypto flavor's historical fix removed the duplicated release
	// instead of NULL-clearing, which is what lets a syntactic checker
	// validate against it (and later fail refinement on the corpus).
	ps = append(ps, doubleFreePattern("crypto_free_shash", "remove"))
	for _, f := range []string{"kfree", "x509_free_certificate", "fwnode_handle_put", "put_device", "bitmap_free"} {
		ps = append(ps, ubiPattern(f))
	}
	ps = append(ps,
		concurrencyPattern("spin_lock", "spin_unlock"),
		concurrencyPattern("mutex_lock", "mutex_unlock"),
		concurrencyPattern("spin_lock_irqsave", "spin_unlock_irqrestore"),
		concurrencyPattern("read_lock", "read_unlock"),
		concurrencyPattern("write_lock", "write_unlock"),
	)
	ps = append(ps, misuseUntermPattern(), misuseIrqPattern())
	// Misuse variants that anchor on other APIs but reuse the two
	// mechanics (sign-check and termination).
	ps = append(ps, &Pattern{
		Class:   ClassMisuse,
		Flavor:  "of_irq_get",
		Subject: "Fix unchecked of_irq_get() result",
		DetailBody: "of_irq_get() can return a negative errno which must not be\n" +
			"passed to devm_request_irq() unchecked.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static int %s(struct platform_device *pdev)
{
	int irq;

	irq = of_irq_get(pdev, 0);
`, nm.Fn)
			tail := fmt.Sprintf("\treturn devm_request_irq(irq, %s_isr);\n}\n", nm.Chip)
			return header + tail, header + "\tif (irq < 0)\n\t\treturn irq;\n" + tail
		},
	}, &Pattern{
		Class:   ClassMisuse,
		Flavor:  "strscpy_nul",
		Subject: "Fix strim() on unterminated buffer",
		DetailBody: "The buffer filled by copy_from_user() is passed to strim() which\n" +
			"requires NUL termination.",
		Render: func(nm *NameSet, r *rand.Rand) (string, string) {
			header := fmt.Sprintf(`static ssize_t %s_store(struct device *dev, char *ubuf, size_t %s)
{
	char %s[%d];

	if (%s > sizeof(%s) - 1)
		return -EINVAL;
	if (copy_from_user(%s, ubuf, %s))
		return -EFAULT;
`, nm.Fn, nm.Size, nm.Buf, nm.BufLen, nm.Size, nm.Buf, nm.Buf, nm.Size)
			tail := fmt.Sprintf("\tstrim(%s);\n\treturn %s;\n}\n", nm.Buf, nm.Size)
			return header + tail, header + fmt.Sprintf("\t%s[%s] = 0;\n", nm.Buf, nm.Size) + tail
		},
	})
	return ps
}
