// Command doccheck enforces the repository's documentation discipline.
// It has two modes selected per argument, and one selected by flag:
//
//   - A package directory: every exported top-level identifier must
//     carry a doc comment. ci.sh runs this over the API-bearing
//     packages so exported surface cannot silently grow undocumented.
//   - A markdown file (argument ending in .md): every repo-path
//     reference the document makes — inline-code tokens under
//     internal/, cmd/, or examples/, and relative link targets — must
//     exist on disk, so design references (INCREMENTAL.md,
//     OBSERVABILITY.md, ...) cannot drift to naming files or packages
//     that were renamed away.
//   - -errata doc.md: every backticked benchmark row name (a dotted
//     lower-case token such as `shard.transport_calls`) in the first
//     column of the document's "Benchmark errata" table must still occur
//     somewhere under benchmark/ or in BENCHMARK.json (beside the
//     document), so the list of frozen rows that no longer mean what
//     they say cannot outlive the rows.
//
// Usage:
//
//	doccheck ./internal/core ./internal/parallel . INCREMENTAL.md
//	doccheck -errata EXPERIMENTS.md
//
// Package arguments are directories (not recursive). Exported
// functions, methods on exported types, type declarations, and
// const/var specs are checked; a doc comment on the enclosing
// const/var/type block covers all its specs. Exit status 1 lists every
// undocumented identifier / dangling doc reference with its position.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	errata := flag.String("errata", "", "markdown file whose \"Benchmark errata\" table must name only rows the benchmark still has")
	flag.Parse()
	if flag.NArg() == 0 && *errata == "" {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-errata doc.md] <package-dir|doc.md> [...]")
		os.Exit(2)
	}
	bad := 0
	run := func(check func(string) ([]string, error), arg string) {
		missing, err := check(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", arg, err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
			bad++
		}
	}
	for _, arg := range flag.Args() {
		if strings.HasSuffix(arg, ".md") {
			run(checkDoc, arg)
		} else {
			run(checkDir, arg)
		}
	}
	if *errata != "" {
		run(checkErrata, *errata)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d documentation failure(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test .go file of one package directory and
// returns "file:line: name" strings for undocumented exported
// identifiers.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(d, report)
				case *ast.GenDecl:
					checkGen(d, report)
				}
			}
		}
	}
	return missing, nil
}

// checkFunc flags exported functions, and exported methods whose
// receiver type is itself exported (methods on unexported types are not
// part of the package surface).
func checkFunc(d *ast.FuncDecl, report func(token.Pos, string, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind := "function"
	name := d.Name.Name
	if d.Recv != nil && len(d.Recv.List) > 0 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv != "" && !ast.IsExported(recv) {
			return
		}
		kind = "method"
		name = recv + "." + name
	}
	report(d.Pos(), kind, name)
}

// checkGen flags exported types and const/var specs. A doc comment on
// the grouped declaration documents every spec in it, matching godoc's
// rendering of const/var blocks.
func checkGen(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
					report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
				}
			}
		}
	}
}

// checkDoc scans one markdown file for repo-path references that do not
// resolve on disk, relative to the file's directory. Two reference
// forms are checked: inline-code tokens (`internal/...`, `cmd/...`,
// `examples/...`) and relative markdown link targets. Fenced code
// blocks are skipped — shell transcripts legitimately mention
// ephemeral files.
func checkDoc(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	root := filepath.Dir(path)
	var missing []string
	exists := func(rel string) bool {
		if _, err := os.Stat(filepath.Join(root, rel)); err == nil {
			return true
		}
		// A package-qualified symbol (`internal/intern.Table`) resolves
		// through its package directory.
		if i := strings.LastIndexByte(rel, '.'); i > 0 {
			if _, err := os.Stat(filepath.Join(root, rel[:i])); err == nil {
				return true
			}
		}
		return false
	}
	inFence := false
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, tok := range inlineCode(line) {
			if !pathLike(tok) {
				continue
			}
			if !exists(tok) {
				missing = append(missing, fmt.Sprintf("%s:%d: reference `%s` does not exist", path, n, tok))
			}
		}
		for _, target := range linkTargets(line) {
			if !exists(target) {
				missing = append(missing, fmt.Sprintf("%s:%d: link target %q does not exist", path, n, target))
			}
		}
	}
	return missing, sc.Err()
}

// rowNameRE is the shape of a benchmark row name: dotted lower-case
// segments, the last possibly `*` for a family of rows.
var rowNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\.([a-z0-9_]+|\*)$`)

// checkErrata reads the table under the document's "## Benchmark errata"
// heading and returns one failure per row name in its first column that
// occurs in no file under benchmark/ and not in BENCHMARK.json, both
// looked up beside the document. A name ending in `.*` matches by its
// prefix.
func checkErrata(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(path)
	corpus, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(root, "benchmark", "*"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if b, err := os.ReadFile(f); err == nil { // a directory reads as an error and holds no row
			corpus = append(append(corpus, '\n'), b...)
		}
	}
	var missing []string
	rows, inSection := 0, false
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.TrimSpace(line[3:]) == "Benchmark errata"
			continue
		}
		if !inSection || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, tok := range inlineCode(cells[1]) {
			if !rowNameRE.MatchString(tok) {
				continue
			}
			rows++
			if !strings.Contains(string(corpus), strings.TrimSuffix(tok, "*")) {
				missing = append(missing, fmt.Sprintf("%s:%d: errata row `%s` occurs nowhere under benchmark/ or in BENCHMARK.json", path, n+1, tok))
			}
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("no \"Benchmark errata\" table with row names found")
	}
	return missing, nil
}

// inlineCode returns the contents of every single-backtick span on the
// line.
func inlineCode(line string) []string {
	var toks []string
	for {
		i := strings.IndexByte(line, '`')
		if i < 0 {
			return toks
		}
		j := strings.IndexByte(line[i+1:], '`')
		if j < 0 {
			return toks
		}
		toks = append(toks, line[i+1:i+1+j])
		line = line[i+j+2:]
	}
}

// pathLike reports whether an inline-code token is a checkable repo
// path: rooted at internal/, cmd/, or examples/, with a plain-filename
// character set (no flags, placeholders, URLs, or endpoint paths).
func pathLike(tok string) bool {
	tok = strings.TrimSuffix(tok, "/")
	if !strings.HasPrefix(tok, "internal/") && !strings.HasPrefix(tok, "cmd/") &&
		!strings.HasPrefix(tok, "examples/") {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-' || c == '/':
		default:
			return false
		}
	}
	return true
}

// linkTargets returns the relative-file targets of the line's markdown
// links: `](target)` occurrences that are not absolute URLs or
// in-page anchors, with any #fragment stripped.
func linkTargets(line string) []string {
	var targets []string
	for {
		i := strings.Index(line, "](")
		if i < 0 {
			return targets
		}
		rest := line[i+2:]
		j := strings.IndexByte(rest, ')')
		if j < 0 {
			return targets
		}
		target := rest[:j]
		line = rest[j+1:]
		if frag := strings.IndexByte(target, '#'); frag >= 0 {
			target = target[:frag]
		}
		if target == "" || strings.Contains(target, "://") || strings.ContainsAny(target, " <>") {
			continue
		}
		targets = append(targets, target)
	}
}

// receiverName unwraps a method receiver type expression to its base
// type identifier.
func receiverName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr: // generic receiver
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
