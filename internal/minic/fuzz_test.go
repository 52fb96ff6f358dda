package minic_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"knighter/internal/kernel"
	"knighter/internal/minic"
)

// seedCorpus is the scale-0.25 kernel corpus the daemons serve by
// default: real files for the fuzz seeds.
var seedCorpus = sync.OnceValue(func() *kernel.Corpus {
	return kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25})
})

// addSeeds seeds a source-text fuzz target with every corpus file,
// every kernel bug pattern's buggy and fixed rendering, and the inputs
// of the TestLex* tests.
func addSeeds(f *testing.F) {
	for _, sf := range seedCorpus().Files {
		f.Add(sf.Src)
	}
	r := rand.New(rand.NewSource(1))
	nm := &kernel.NameSet{
		Fn: "foo_probe", Chip: "foo", Struct: "foo_priv", Dev: "platform_device",
		Field: "count", Field2: "flags", Ptr: "priv", Ptr2: "buf2", Buf: "buf",
		Size: "len", Idx: "idx", Lock: "lock", Label: "err_free", BufLen: 32, TabLen: 8,
	}
	for _, p := range kernel.Patterns {
		buggy, fixed := p.Render(nm, r)
		f.Add(buggy)
		f.Add(fixed)
	}
	for _, src := range []string{
		"int x = 42;",
		"-> && || == != <= >= << >> += -= ++ -- * & ! ~ ? : % ^",
		"*= /= |= &= ( ) { } [ ] ; , . | + - / < > =",
		"struct structx __free sizeof sizeofx",
		"int a; // line comment\n/* block\n   comment */ int b;\n#include <linux/module.h>\nint c;",
		"0x1F 42UL 7u",
		`"hello \"world\"\n"`,
		"int\nx;",
		`"unterminated`,
		"/* unterminated",
		"`",
		`'a' '\0'`,
		"int f(void) { return 0 }\nint g(void) { return `; }",
		"struct s { int x }\n/* open",
		"int f(void) { return (u8 `) p; }",
	} {
		f.Add(src)
	}
}

// FuzzLexMatchesReference holds Lexer.Next, driven over the whole input
// by the Lex test helper, to the map-based reference lexer: for any
// input, the same tokens — kind, value and position — or the same error.
func FuzzLexMatchesReference(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := minic.Lex("fuzz.c", src)
		want, wantErr := minic.ReferenceLex("fuzz.c", src)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("error = %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d tokens, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("token %d = %#v, reference %#v", i, got[i], want[i])
			}
		}
	})
}

// parseDeadline bounds one FuzzParseFile input: a linear parse of any
// input the fuzzer builds takes milliseconds, so missing it means a
// loop that does not terminate or blows up.
const parseDeadline = 5 * time.Second

// FuzzParseFile feeds the parser arbitrary source, as /changeset does.
// The parser must not panic and must finish within parseDeadline; it
// must return the same file, or the same error at the same position, as
// ReferenceParseFile, which lexes the whole input before it parses; and
// whatever parses must render to source that re-parses to the same
// rendering — the property a function patch relies on when it re-renders
// and re-parses the patched file.
func FuzzParseFile(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
				}
			}()
			if err := matchesReference(src); err != nil {
				done <- err
				return
			}
			done <- renderFixedPoint(src)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(parseDeadline):
			t.Fatalf("parsing %d bytes did not finish within %v", len(src), parseDeadline)
		}
	})
}

// matchesReference checks that ParseFile, pulling its tokens, parses src
// to the same file or fails with the same error as ReferenceParseFile.
func matchesReference(src string) error {
	got, gotErr := minic.ParseFile("fuzz.c", src)
	want, wantErr := minic.ReferenceParseFile("fuzz.c", src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Errorf("error = %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("parsed file differs from the reference's")
	}
	return nil
}

// renderFixedPoint checks that a source that parses renders to source
// that parses back to the same rendering. Input that does not parse
// passes: rejecting it is the parser's job.
func renderFixedPoint(src string) error {
	f, err := minic.ParseFile("fuzz.c", src)
	if err != nil {
		return nil
	}
	out := minic.FormatFile(f)
	f2, err := minic.ParseFile("fuzz.c", out)
	if err != nil {
		return fmt.Errorf("rendering does not re-parse: %v\n--- rendering ---\n%s", err, out)
	}
	if out2 := minic.FormatFile(f2); out2 != out {
		return fmt.Errorf("rendering is not a fixed point\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
	return nil
}
