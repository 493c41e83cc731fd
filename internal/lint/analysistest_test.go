package lint

// An analysistest-style harness: fixture packages live under
// testdata/src/<import path>, carry `// want "regexp"` expectations on
// the lines where diagnostics must fire, and are type-checked against
// stub dependencies from the same tree (plus real export data for the
// standard library). Fixture import paths mirror the real module
// (xdeal/internal/...) so the analyzers' funcKey matching sees the
// genuine keys.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestDetRangeFixtures(t *testing.T) {
	runFixture(t, "xdeal/internal/engine", DetRange)
	runFixture(t, "xdeal/internal/misc", DetRange)
	// obs runs under DetRange too, with NoClock, in TestNoClockFixtures.
}

func TestNoClockFixtures(t *testing.T) {
	runFixture(t, "xdeal/internal/clock", NoClock)
	// The sanctioned wrapper packages: banned calls, zero diagnostics.
	runFixture(t, "xdeal/internal/sim", NoClock)
	// obs is also a detrange target: its wall-clock reads stay silent
	// while its float fold over a map is flagged.
	runFixture(t, "xdeal/internal/obs", NoClock, DetRange)
	// A lookalike prefix must NOT inherit the obs exemption.
	runFixture(t, "xdeal/internal/obsfake", NoClock)
}

func TestReceiptCheckFixtures(t *testing.T) {
	runFixture(t, "xdeal/internal/rcpt", ReceiptCheck)
}

func TestLabelCheckFixtures(t *testing.T) {
	runFixture(t, "xdeal/internal/party", LabelCheck)
	runFixture(t, "xdeal/internal/labels", LabelCheck)
}

// runFixture loads one fixture package, runs the analyzers over it,
// and reconciles their diagnostics against the // want expectations.
func runFixture(t *testing.T, path string, as ...*Analyzer) {
	t.Helper()
	l := newFixtureLoader(t)
	if _, err := l.Import(path); err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	pkg := l.pkg[path]
	diags, err := RunAnalyzers(pkg, as)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
		matched := false
		for _, e := range wants[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s: unexpected diagnostic: %s", path, key, d.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: %s: no diagnostic matched %q", path, key, e.raw)
			}
		}
	}
}

// expectation is one parsed // want pattern awaiting its diagnostic.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

// collectWants indexes every // want expectation by file:line. The
// marker may sit inside another comment (e.g. after an
// //xdeal:unordered justification), mirroring analysistest.
func collectWants(t *testing.T, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
				for _, pat := range parseWantPatterns(t, key, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits `"p1" "p2"` (quoted or backquoted) into its
// component patterns.
func parseWantPatterns(t *testing.T, key, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: want expectation %q is not a quoted pattern: %v", key, s, err)
		}
		lit, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: cannot unquote %q: %v", key, q, err)
		}
		pats = append(pats, lit)
		s = strings.TrimSpace(s[len(q):])
	}
	return pats
}

// fixtureLoader resolves imports against testdata/src first, then the
// real standard library (via export data from the go command).
type fixtureLoader struct {
	t    *testing.T
	root string
	fset *token.FileSet
	std  types.Importer
	typ  map[string]*types.Package
	pkg  map[string]*Package
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	fset := token.NewFileSet()
	exports := stdExportData(t)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return &fixtureLoader{
		t:    t,
		root: filepath.Join("testdata", "src"),
		fset: fset,
		std:  std,
		typ:  make(map[string]*types.Package),
		pkg:  make(map[string]*Package),
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.typ[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return l.std.Import(path)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	pkg, err := TypeCheck(l.fset, path, files, l, "")
	if err != nil {
		return nil, err
	}
	l.typ[path] = pkg.Types
	l.pkg[path] = pkg
	return pkg.Types, nil
}

// stdExportData produces export-data files for the standard-library
// packages the fixtures may import, once per test binary.
var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

func stdExportData(t *testing.T) map[string]string {
	t.Helper()
	stdExportsOnce.Do(func() {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export",
			"time", "math/rand", "math/rand/v2", "os", "encoding/json", "sort")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdExportsErr = fmt.Errorf("go list: %v\n%s", err, stderr.String())
			return
		}
		stdExports = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var lp struct{ ImportPath, Export string }
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				stdExportsErr = err
				return
			}
			if lp.Export != "" {
				stdExports[lp.ImportPath] = lp.Export
			}
		}
	})
	if stdExportsErr != nil {
		t.Fatal(stdExportsErr)
	}
	return stdExports
}
