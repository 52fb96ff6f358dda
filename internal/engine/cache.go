package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint returns a stable content hash of the analysis bounds that
// affect per-function results. Unset bounds hash identically to their
// defaults, so Options{} and Options{MaxPaths: 512, ...} share cache
// entries. Checkers are deliberately excluded: the scan-service cache
// keys them separately, so one engine configuration can be shared across
// many checker runs. Ctx is also excluded — it is a liveness guard, not
// a semantic bound, and results it truncates are flagged Canceled and
// never cached.
func (o Options) Fingerprint() string {
	d := o.withDefaults()
	h := sha256.Sum256([]byte(fmt.Sprintf("engine:v1:%d:%d:%d:%d",
		d.MaxBlockVisits, d.MaxPaths, d.MaxSteps, d.MaxTrace)))
	return hex.EncodeToString(h[:16])
}
