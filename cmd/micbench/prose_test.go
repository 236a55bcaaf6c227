package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs quote figures in marked blocks. A figure block
//
//	<!-- golden 9a -->
//	| path_len | TCP | ... |
//	|---|---|...|
//	| 1 | 956.34 | ... |
//	<!-- /golden -->
//
// is a markdown table of one figure of testdata/all.seed1.golden: its header
// names golden columns, the first the golden's first; each row's first cell
// names a golden row; every cell is the golden's, verbatim. An EXPERIMENTS
// block holds the whole figure, every column and row in the golden's order;
// a block elsewhere (README's headline) may hold a subset. A micsim block
//
//	<!-- micsim chaos -->
//	```
//	delivered 1048576 bytes in ...
//	```
//	<!-- /micsim -->
//
// holds lines that appear, in that order, in
// cmd/micsim/testdata/chaos.seed7.golden.

const (
	repoRoot     = "../.."
	figureGolden = "testdata/all.seed1.golden"
	experiments  = "EXPERIMENTS.md"
)

// blockDocs are the documents whose marked blocks are checked.
var blockDocs = []string{"README.md", experiments, "DESIGN.md", "ROADMAP.md"}

// figure is one table of a micbench golden.
type figure struct {
	header []string
	rows   [][]string
}

// row returns the row whose first cell is key, or nil when none or several
// are.
func (f *figure) row(key string) []string {
	var found []string
	for _, r := range f.rows {
		if r[0] == key {
			if found != nil {
				return nil
			}
			found = r
		}
	}
	return found
}

func (f *figure) column(name string) int {
	for i, h := range f.header {
		if h == name {
			return i
		}
	}
	return -1
}

// readFigures parses a micbench golden into its figures by ID, and their IDs
// in golden order. A figure's columns are where its dash rule puts them.
func readFigures(t *testing.T, path string) (map[string]*figure, []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^=== (\S+): .* ===$`)
	figs := map[string]*figure{}
	var ids []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		m := head.FindStringSubmatch(lines[i])
		if m == nil || i+2 >= len(lines) {
			continue
		}
		rule := []rune(lines[i+2])
		var starts []int
		for j, r := range rule {
			if r == '-' && (j == 0 || rule[j-1] == ' ') {
				starts = append(starts, j)
			}
		}
		cut := func(line string) []string {
			rs := []rune(line)
			cells := make([]string, len(starts))
			for k, s := range starts {
				end := len(rs)
				if k+1 < len(starts) {
					end = min(starts[k+1], len(rs))
				}
				if s < end {
					cells[k] = strings.TrimSpace(string(rs[s:end]))
				}
			}
			return cells
		}
		f := &figure{header: cut(lines[i+1])}
		for i += 3; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note: "); i++ {
			f.rows = append(f.rows, cut(lines[i]))
		}
		figs[m[1]] = f
		ids = append(ids, m[1])
	}
	return figs, ids
}

// block is one marked block of a document.
type block struct {
	kind, name string // "golden" or "micsim", and the figure or scenario
	line       int    // 1-based line of the opening marker
	body       []string
	start, end int // body's line indexes: [start, end)
}

var marker = regexp.MustCompile(`^<!-- (golden|micsim) (\S+) -->$`)

// readBlocks returns doc's lines and its marked blocks.
func readBlocks(t *testing.T, doc string) ([]string, []block) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, doc))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var blocks []block
	for i := 0; i < len(lines); i++ {
		m := marker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		b := block{kind: m[1], name: m[2], line: i + 1, start: i + 1}
		closing := "<!-- /" + m[1] + " -->"
		for i++; i < len(lines) && lines[i] != closing; i++ {
			b.body = append(b.body, lines[i])
		}
		if i == len(lines) {
			t.Fatalf("%s:%d: %s block %s is never closed by %s", doc, b.line, b.kind, b.name, closing)
		}
		b.end = i
		blocks = append(blocks, b)
	}
	return lines, blocks
}

// cells splits a markdown table row into trimmed cells.
func cells(line string) []string {
	line = strings.TrimSpace(line)
	line = strings.TrimSuffix(strings.TrimPrefix(line, "|"), "|")
	out := strings.Split(line, "|")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

func tableRow(cs []string) string { return "| " + strings.Join(cs, " | ") + " |" }

// render returns the markdown table of the given columns of rows.
func render(header []string, rows [][]string) []string {
	out := []string{tableRow(header), "|" + strings.Repeat("---|", len(header))}
	for _, r := range rows {
		out = append(out, tableRow(r))
	}
	return out
}

// checkFigureBlock compares a figure block with its golden figure cell by
// cell. whole requires every column and row; otherwise the block's own
// columns and rows are looked up. It returns the findings and the block as
// the golden renders it.
func checkFigureBlock(doc string, b block, f *figure, whole bool) ([]string, []string) {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s:%d: fig %s: ", doc, b.line, b.name)+fmt.Sprintf(format, args...))
	}
	if whole {
		want := render(f.header, f.rows)
		for i := 0; i < len(want) || i < len(b.body); i++ {
			switch {
			case i >= len(b.body):
				fail("row %q missing", cells(want[i])[0])
			case i >= len(want):
				fail("row %q is not in the golden", cells(b.body[i])[0])
			case i == 1:
				if b.body[i] != want[i] {
					fail("the header rule reads %q, want %q", b.body[i], want[i])
				}
			default:
				got, wantc := cells(b.body[i]), cells(want[i])
				for c := 0; c < len(got) || c < len(wantc); c++ {
					g, w := "", ""
					if c < len(got) {
						g = got[c]
					}
					if c < len(wantc) {
						w = wantc[c]
					}
					if g != w {
						col := "column " + fmt.Sprint(c+1)
						if c < len(f.header) {
							col = f.header[c]
						}
						key := "header"
						if i > 1 {
							key = "row " + wantc[0]
						}
						fail("%s, %s: doc %q, golden %q", key, col, g, w)
					}
				}
			}
		}
		return errs, want
	}
	if len(b.body) < 2 {
		fail("no table")
		return errs, b.body
	}
	header := cells(b.body[0])
	cols := make([]int, len(header))
	for c, h := range header {
		if cols[c] = f.column(h); cols[c] < 0 || (c == 0 && cols[c] != 0) {
			fail("column %q is not the golden's (first column %q)", h, f.header[0])
			return errs, b.body
		}
	}
	var rows [][]string
	for _, line := range b.body[2:] {
		got := cells(line)
		r := f.row(got[0])
		if r == nil {
			fail("row %q names no single golden row", got[0])
			return errs, b.body
		}
		want := make([]string, len(cols))
		for c, gc := range cols {
			want[c] = r[gc]
			if c >= len(got) || got[c] != want[c] {
				g := ""
				if c < len(got) {
					g = got[c]
				}
				fail("row %s, %s: doc %q, golden %q", got[0], header[c], g, want[c])
			}
		}
		rows = append(rows, want)
	}
	return errs, render(header, rows)
}

// checkMicsimBlock reports the first line of b not found, in order, in its
// scenario's seed-7 golden.
func checkMicsimBlock(doc string, b block) []string {
	path := filepath.Join("..", "micsim", "testdata", b.name+".seed7.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s:%d: micsim block names no golden: %v", doc, b.line, err)}
	}
	golden := strings.Split(string(data), "\n")
	at := 0
	for _, line := range b.body {
		if strings.HasPrefix(line, "```") {
			continue
		}
		for at < len(golden) && golden[at] != line {
			at++
		}
		if at == len(golden) {
			return []string{fmt.Sprintf("%s:%d: micsim %s: line %q is not in %s after the lines before it", doc, b.line, b.name, line, path)}
		}
		at++
	}
	return nil
}

// TestDocsMatchGoldens holds every marked block of the docs to the committed
// goldens, without running a figure: a differing cell, a golden figure with
// no EXPERIMENTS block and a block that names no figure all fail it. With
// -update it rewrites the figure blocks from testdata/all.seed1.golden
// instead (in the default order it runs after TestFiguresMatchGolden, so
// one -update run moves the goldens and the docs together); a micsim block
// that no longer matches is reported, not rewritten.
func TestDocsMatchGoldens(t *testing.T) {
	figs, ids := readFigures(t, figureGolden)
	if len(ids) == 0 {
		t.Fatalf("no figure in %s", figureGolden)
	}
	var errs []string
	inExperiments := map[string]int{}
	for _, doc := range blockDocs {
		lines, blocks := readBlocks(t, doc)
		changed := false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			if b.kind == "micsim" {
				errs = append(errs, checkMicsimBlock(doc, b)...)
				continue
			}
			f := figs[b.name]
			if f == nil {
				errs = append(errs, fmt.Sprintf("%s:%d: block names no figure of %s: %q", doc, b.line, figureGolden, b.name))
				continue
			}
			if doc == experiments {
				inExperiments[b.name]++
			}
			found, want := checkFigureBlock(doc, b, f, doc == experiments)
			if *update {
				if strings.Join(want, "\n") != strings.Join(b.body, "\n") {
					lines = append(lines[:b.start], append(want, lines[b.end:]...)...)
					changed = true
				}
				continue
			}
			errs = append(errs, found...)
		}
		if changed {
			if err := os.WriteFile(filepath.Join(repoRoot, doc), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		if n := inExperiments[id]; n != 1 {
			errs = append(errs, fmt.Sprintf("%s: fig %s has %d marked blocks, want 1", experiments, id, n))
		}
	}
	for _, e := range errs {
		t.Error(e)
	}
}

// Citations of a doc section by name: DESIGN[.md] §<n>, optionally with a
// title list, a bare §<n> with a title list, and EXPERIMENTS[.md] with a
// title list. A title list is one or more quoted titles joined by commas or
// "and".
var (
	titleList       = `((?:,? "[^"]+")(?:(?:,|,? and) "[^"]+")*)`
	designCitation  = regexp.MustCompile(`(DESIGN(?:\.md)?,? )?(\w+\.md )?§(\d+[a-z]?)(?:'s)?` + titleList + `?`)
	experimentsCite = regexp.MustCompile(`EXPERIMENTS(?:\.md)?'?` + titleList)
	quoted          = regexp.MustCompile(`"([^"]+)"`)
	// lineBreak joins a wrapped line to the next: the newline, the next
	// line's indentation and its comment marker.
	lineBreak = regexp.MustCompile(`\n[ \t]*(?://+ ?|# )?[ \t]*`)
)

// citationSources are the files whose citations must resolve: every Go,
// markdown and CI workflow file outside benchmark/, except the history in
// CHANGES.md and a numbered change request (a document headed
// "# <KIND> <n> · <title>"), which cites sections as they stood before it.
func citationSources(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, path)
		if d.IsDir() {
			if rel == ".git" || rel == "benchmark" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case rel == "CHANGES.md", strings.HasSuffix(rel, ".md") && isChangeRequest(t, path):
		case strings.HasSuffix(rel, ".go"), strings.HasSuffix(rel, ".md"), rel == filepath.Join(".github", "workflows", "ci.yml"):
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// changeRequestHeading is the first line of a numbered change request.
var changeRequestHeading = regexp.MustCompile(`^# [A-Z]+ \d+ · `)

// isChangeRequest reports whether the markdown file at path opens with a
// change request's heading.
func isChangeRequest(t *testing.T, path string) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(b), "\n")
	return changeRequestHeading.MatchString(first)
}

// anchors returns the section titles a document can be cited by, keyed by
// the DESIGN section number they sit under ("" for a document without
// numbered sections): every heading and every bold lead-in, with a trailing
// period or parenthetical dropped.
func anchors(t *testing.T, doc string) map[string]map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.Join(repoRoot, doc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	section := regexp.MustCompile(`^## (\d+[a-z]?)\. `)
	heading := regexp.MustCompile(`^#+ (.+)$`)
	lead := regexp.MustCompile(`^(?:- |\d+\. )?\*\*([^*]+)\*\*`)
	out := map[string]map[string]bool{"": {}}
	num := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := section.FindStringSubmatch(line); m != nil {
			num = m[1]
			out[num] = map[string]bool{}
		}
		var title string
		if m := heading.FindStringSubmatch(line); m != nil {
			title = m[1]
			if m := section.FindStringSubmatch(line); m != nil {
				title = strings.TrimPrefix(line, m[0])
			}
		} else if m := lead.FindStringSubmatch(line); m != nil {
			title = m[1]
		} else {
			continue
		}
		// A heading "Title: subtitle" or "Title — subtitle" answers to
		// its title alone too.
		for _, t := range []string{title, strings.Split(title, ": ")[0], strings.Split(title, " — ")[0]} {
			t = normTitle(t)
			out[""][t] = true
			out[num][t] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// normTitle drops a title's trailing period, colon or parenthetical.
func normTitle(s string) string {
	s = strings.TrimSpace(strings.TrimRight(s, ".:"))
	if i := strings.LastIndex(s, " ("); i > 0 && strings.HasSuffix(s, ")") {
		s = s[:i]
	}
	return strings.TrimSpace(strings.TrimRight(s, ".:"))
}

// TestDocCitationsResolve fails on a citation of a DESIGN or EXPERIMENTS
// section, by number or by title, that no heading or bold lead-in answers,
// naming the citing file and line.
func TestDocCitationsResolve(t *testing.T) {
	design, exp := anchors(t, "DESIGN.md"), anchors(t, experiments)
	for _, file := range citationSources(t) {
		data, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		// Join wrapped lines, remembering where each joined byte came from.
		text := string(data)
		var joined strings.Builder
		var lineAt []int // line of each byte of joined
		line, last := 1, 0
		for _, m := range lineBreak.FindAllStringIndex(text, -1) {
			for _, c := range []byte(text[last:m[0]]) {
				joined.WriteByte(c)
				lineAt = append(lineAt, line)
			}
			joined.WriteByte(' ')
			lineAt = append(lineAt, line)
			line++
			last = m[1]
		}
		for _, c := range []byte(text[last:]) {
			joined.WriteByte(c)
			lineAt = append(lineAt, line)
		}
		s := joined.String()
		report := func(at int, format string, args ...any) {
			t.Errorf("%s:%d: %s", file, lineAt[at], fmt.Sprintf(format, args...))
		}
		for _, m := range designCitation.FindAllStringSubmatchIndex(s, -1) {
			prefixed, otherDoc := m[2] >= 0, m[4] >= 0
			if otherDoc || (!prefixed && m[8] < 0) {
				continue // another document's §, or a bare number
			}
			num := s[m[6]:m[7]]
			titles, ok := design[num]
			if !ok {
				report(m[0], "DESIGN has no §%s", num)
				continue
			}
			if m[8] < 0 {
				continue
			}
			for _, q := range quoted.FindAllStringSubmatch(s[m[8]:m[9]], -1) {
				if !titles[normTitle(q[1])] {
					report(m[0], "DESIGN §%s has no heading or bold lead-in %q", num, q[1])
				}
			}
		}
		for _, m := range experimentsCite.FindAllStringSubmatchIndex(s, -1) {
			for _, q := range quoted.FindAllStringSubmatch(s[m[2]:m[3]], -1) {
				if !exp[""][normTitle(q[1])] {
					report(m[0], "EXPERIMENTS has no heading or bold lead-in %q", q[1])
				}
			}
		}
	}
}
