package obs

import (
	"fmt"
	"regexp"
	"strings"
)

// CheckExposition validates a Prometheus text-format payload: every
// non-comment line must match the sample grammar, no series (name +
// label set) may appear twice, and every # EXEMPLAR comment must match
// the exemplar grammar AND reference a series already emitted (the
// writer puts each exemplar directly after its bucket line). It returns
// the series identities in order. Shared by the obs unit tests and the
// store and serve /metrics tests, so all check the same grammar: it
// stays exported although only tests call it, because a _test.go
// export cannot cross packages.
func CheckExposition(text string) ([]string, error) {
	// One sample: name{labels} value, where a label value is anything
	// but an unescaped quote. Compiled here, so the daemons never do.
	sample := regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	// An exemplar comment: the referenced series identity (a _bucket
	// series with its le label) plus the trace id.
	exemplar := regexp.MustCompile(
		`^# EXEMPLAR ([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*")*\})?) trace_id="(?:\\.|[^"\\])*"$`)
	var ids []string
	seen := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# EXEMPLAR ") {
			m := exemplar.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d does not match the exemplar grammar: %q", ln+1, line)
			}
			if !seen[m[1]] {
				return nil, fmt.Errorf("line %d: exemplar references unknown series %q", ln+1, m[1])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			return nil, fmt.Errorf("line %d does not match the Prometheus sample grammar: %q", ln+1, line)
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		if seen[id] {
			return nil, fmt.Errorf("duplicate series %q", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}
