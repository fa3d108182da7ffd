package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

const historyMarker = "<!-- history -->"

// citedDocs are the files besides Go comments whose DESIGN citations must
// resolve. CHANGES.md is history and is not checked.
var citedDocs = []string{"ROADMAP.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	goName      = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
	citation    = regexp.MustCompile(`DESIGN(?:\.md)?\s+§([0-9]+[a-z]?)\b(?:,?\s+"([^"]+)")?`)
	sectionHead = regexp.MustCompile(`^## ([0-9]+[a-z]?)\. `)
	fence       = regexp.MustCompile("^\\s*```")
	spaces      = regexp.MustCompile(`\s+`)
)

// TestDocs keeps the two documents a reader starts from honest about the
// tree. It fails when
//
//   - README.md or DESIGN.md names, in backticks, Go code the module does not
//     declare (or a standard-library name GOROOT does not declare);
//   - a "DESIGN §N" citation in a Go comment, ROADMAP.md, README.md,
//     EXPERIMENTS.md or the verify skill names a section DESIGN.md does not
//     have, or quotes a title that is not a ### heading of that section;
//   - the module map of DESIGN.md §3 and the package tree disagree.
//
// A name is Go-shaped when a part of it after the qualifier has an upper-case
// letter: `sem.Pool`, `core.IBESEM.TokenX`, `montXY`. Metric and baseline
// entry names (`sempool_frames_total`, `fp.mul`) and file names
// (`BENCH_pr8.json`) are not. A line that ends with the history marker
// <!-- history --> records what the tree used to have and is exempt from the
// name check; no such line may sit in DESIGN §7's invariant table.
//
// Run it alone with: go test -run '^TestDocs$' .
func TestDocs(t *testing.T) {
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	ix := newDeclIndex(files)
	design := readDoc(t, "DESIGN.md")
	t.Run("extractor", func(t *testing.T) { testDocsExtractor(t, ix) })
	t.Run("names", func(t *testing.T) {
		for _, doc := range []string{"README.md", "DESIGN.md"} {
			for _, miss := range unresolvedNames(ix, readDoc(t, doc)) {
				t.Errorf("%s:%d: `%s` names code the tree does not have", doc, miss.line, miss.name)
			}
		}
	})
	t.Run("citations", func(t *testing.T) {
		secs, err := designSections(design)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range citedDocs {
			for _, bad := range badCitations(secs, readDoc(t, doc)) {
				t.Errorf("%s: %s", doc, bad)
			}
		}
		for _, f := range files {
			for _, cg := range f.file.Comments {
				for _, bad := range badCitations(secs, cg.Text()) {
					t.Errorf("%s: %s", f.path, bad)
				}
			}
		}
	})
	t.Run("modulemap", func(t *testing.T) {
		rows := moduleMapRows(design)
		seen := map[string]int{}
		for _, r := range rows {
			seen[r]++
		}
		for _, dir := range packageDirs(files) {
			switch seen[dir] {
			case 0:
				t.Errorf("DESIGN §3 has no row for %s", dir)
			case 1:
			default:
				t.Errorf("DESIGN §3 has %d rows for %s", seen[dir], dir)
			}
			delete(seen, dir)
		}
		for dir := range seen {
			t.Errorf("DESIGN §3 has a row for %s, which holds no Go package", dir)
		}
	})
	t.Run("history", func(t *testing.T) {
		for _, line := range invariantTable(design) {
			if strings.Contains(line, historyMarker) {
				t.Errorf("DESIGN §7's invariant table has a history-marked row: %s", line)
			}
		}
	})
}

// testDocsExtractor runs the name and citation extractors over inline
// fixtures, so a change that makes them blind shows here and not as a
// silently passing document check.
func testDocsExtractor(t *testing.T, ix *declIndex) {
	names := []struct {
		line string
		want []string // the names reported as unresolved
	}{
		{"`sem.Pool` and `big.Int.ModInverse`", nil},
		{"`sem.Client` was the old client", []string{"sem.Client"}},
		{"`gf.lucasLadder` walked the real parts", []string{"gf.lucasLadder"}},
		{"`sempool_frames_total`, `fp.mul` and `BENCH_pr8.json`", nil},
		{"`sem.Client` and `gf.lucasLadder` are gone " + historyMarker, nil},
		{"`*pairing.HashArg`, `Pool.Stats()` and `atomic.Uint64`", nil},
	}
	for _, c := range names {
		var got []string
		for _, m := range unresolvedNames(ix, c.line) {
			got = append(got, m.name)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("unresolvedNames(%q) = %v, want %v", c.line, got, c.want)
		}
	}

	secs, err := designSections("## 7. Static analysis\n\n### The type\n\n## 7a. Next\n")
	if err != nil {
		t.Fatal(err)
	}
	cites := []struct {
		text string
		bad  int
	}{
		{`see DESIGN §7`, 0},
		{`DESIGN.md §7, "The type" has it`, 0},
		{"// DESIGN §7\n// \"The type\"", 0},
		{`DESIGN §12`, 1},
		{`DESIGN §7 "No such title"`, 1},
		{`DESIGN §7a "The type"`, 1},
	}
	for _, c := range cites {
		if got := badCitations(secs, c.text); len(got) != c.bad {
			t.Errorf("badCitations(%q) = %q, want %d", c.text, got, c.bad)
		}
	}
	if _, err := designSections("## 6. A\n## 6. B\n"); err == nil {
		t.Error("designSections accepted a section number used twice")
	}
}

type missingName struct {
	line int
	name string
}

// unresolvedNames returns the Go-shaped code spans of a Markdown text that
// do not resolve, skipping fenced code blocks and history-marked lines.
func unresolvedNames(ix *declIndex, text string) []missingName {
	var out []missingName
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		if fence.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence || strings.HasSuffix(strings.TrimSpace(line), historyMarker) {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			name := strings.TrimSuffix(strings.TrimLeft(m[1], "*&"), "()")
			if goShaped(name) && !ix.resolves(name) {
				out = append(out, missingName{i + 1, name})
			}
		}
	}
	return out
}

// goShaped reports whether a code span is a Go name this check holds to the
// tree: dot-separated identifiers, one part of which after the qualifier
// has an upper-case letter.
func goShaped(name string) bool {
	if !goName.MatchString(name) {
		return false
	}
	parts := strings.Split(name, ".")
	if len(parts) > 1 {
		parts = parts[1:]
	}
	for _, p := range parts {
		if strings.IndexFunc(p, unicode.IsUpper) >= 0 {
			return true
		}
	}
	return false
}

// designSections maps each "## N." section of DESIGN.md to the titles of its
// ### headings. A number used twice is an error.
func designSections(design string) (map[string]map[string]bool, error) {
	secs := map[string]map[string]bool{}
	var cur map[string]bool
	for _, line := range strings.Split(design, "\n") {
		if m := sectionHead.FindStringSubmatch(line); m != nil {
			if secs[m[1]] != nil {
				return nil, fmt.Errorf("DESIGN.md numbers two sections §%s", m[1])
			}
			cur = map[string]bool{}
			secs[m[1]] = cur
		} else if strings.HasPrefix(line, "## ") {
			cur = nil
		} else if title, ok := strings.CutPrefix(line, "### "); ok && cur != nil {
			cur[strings.TrimSpace(title)] = true
		}
	}
	return secs, nil
}

// badCitations returns one message per DESIGN citation in text that names a
// missing section, or quotes a title that is not a heading of it.
func badCitations(secs map[string]map[string]bool, text string) []string {
	text = spaces.ReplaceAllString(strings.ReplaceAll(text, "\n//", " "), " ")
	var out []string
	for _, m := range citation.FindAllStringSubmatch(text, -1) {
		titles, ok := secs[m[1]]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%q cites a section DESIGN.md does not have", m[0]))
		case m[2] != "" && !titles[m[2]]:
			out = append(out, fmt.Sprintf("%q quotes a title that is not a ### heading of §%s", m[0], m[1]))
		}
	}
	return out
}

// sectionLines returns the lines of one "## N." section.
func sectionLines(design, num string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(design, "\n") {
		if strings.HasPrefix(line, "## ") {
			m := sectionHead.FindStringSubmatch(line)
			in = m != nil && m[1] == num
			continue
		}
		if in {
			out = append(out, line)
		}
	}
	return out
}

// moduleMapRows returns the first cell of every table row in §3 that is a
// backticked path: one per package directory, "." for the module root.
func moduleMapRows(design string) []string {
	var out []string
	for _, line := range sectionLines(design, "3") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		cell := strings.TrimSpace(cells[1])
		if len(cell) > 2 && cell[0] == '`' && cell[len(cell)-1] == '`' {
			out = append(out, strings.TrimSuffix(cell[1:len(cell)-1], "/"))
		}
	}
	return out
}

// invariantTable returns the rows of the first table in §7.
func invariantTable(design string) []string {
	var out []string
	for _, line := range sectionLines(design, "7") {
		if strings.HasPrefix(line, "|") {
			out = append(out, line)
		} else if len(out) > 0 {
			break
		}
	}
	return out
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.FromSlash(name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type parsedFile struct {
	path string // slash-separated, relative to the module root
	file *ast.File
}

// parseModule parses every Go file of the module, tests included, leaving
// out hidden directories (.git, build caches) and analyzer fixtures.
func parseModule() ([]parsedFile, error) {
	var files []parsedFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{filepath.ToSlash(path), f})
		return nil
	})
	return files, err
}

// packageDirs lists every directory that holds a non-test Go file, "." for
// the module root.
func packageDirs(files []parsedFile) []string {
	set := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f.path, "_test.go") {
			set[filepath.ToSlash(filepath.Dir(f.path))] = true
		}
	}
	var dirs []string
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// declIndex holds the names a document may use: per package, every
// package-level name, method and struct field, and the union of them all.
// Standard-library packages are indexed from GOROOT on first use.
type declIndex struct {
	pkgs    map[string]map[string]bool // by package name and by directory name
	all     map[string]bool
	stdDirs map[string][]string        // GOROOT/src directories by base name
	std     map[string]map[string]bool // by package name; nil entry: no such package
}

func newDeclIndex(files []parsedFile) *declIndex {
	ix := &declIndex{pkgs: map[string]map[string]bool{}, all: map[string]bool{}, std: map[string]map[string]bool{}}
	for _, f := range files {
		for _, key := range []string{strings.TrimSuffix(f.file.Name.Name, "_test"), path.Base(path.Dir(f.path))} {
			if ix.pkgs[key] == nil {
				ix.pkgs[key] = map[string]bool{}
			}
			addDecls(ix.pkgs[key], f.file)
		}
		addDecls(ix.all, f.file)
	}
	return ix
}

// resolves reports whether a Go-shaped name is declared. A qualified name
// resolves in its module or standard-library package; its first selector
// must be declared there, later ones anywhere in it or the module. An
// unqualified name, or one whose qualifier is no package, resolves part by
// part against the whole module.
func (ix *declIndex) resolves(name string) bool {
	parts := strings.Split(name, ".")
	if len(parts) > 1 {
		decls := ix.pkgs[parts[0]]
		if decls == nil {
			decls = ix.stdPackage(parts[0])
		}
		if decls != nil {
			if !decls[parts[1]] {
				return false
			}
			for _, p := range parts[2:] {
				if !decls[p] && !ix.all[p] {
					return false
				}
			}
			return true
		}
	}
	for _, p := range parts {
		if !ix.all[p] {
			return false
		}
	}
	return true
}

// stdPackage indexes every standard-library package named name (math/rand
// and crypto/rand are both "rand"), finding them by one walk of GOROOT.
func (ix *declIndex) stdPackage(name string) map[string]bool {
	if ix.stdDirs == nil {
		ix.stdDirs = map[string][]string{}
		root := filepath.Join(build.Default.GOROOT, "src")
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return nil
			}
			switch d.Name() {
			case "cmd", "internal", "vendor", "testdata":
				return filepath.SkipDir
			}
			ix.stdDirs[d.Name()] = append(ix.stdDirs[d.Name()], path)
			return nil
		})
	}
	if decls, ok := ix.std[name]; ok {
		return decls
	}
	var decls map[string]bool
	fset := token.NewFileSet()
	for _, dir := range ix.stdDirs[name] {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, p := range pkgs {
			if decls == nil {
				decls = map[string]bool{}
			}
			for _, f := range p.Files {
				addDecls(decls, f)
			}
		}
	}
	ix.std[name] = decls
	return decls
}

// addDecls records a file's package-level names, methods, struct fields and
// interface methods.
func addDecls(into map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			into[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					into[s.Name.Name] = true
					ast.Inspect(s.Type, func(n ast.Node) bool {
						if field, ok := n.(*ast.Field); ok {
							for _, id := range field.Names {
								into[id.Name] = true
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						into[id.Name] = true
					}
				}
			}
		}
	}
}
