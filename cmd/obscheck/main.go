// Command obscheck keeps the observability registry honest: the metric
// and trace span names the code emits must match the names documented
// in OBSERVABILITY.md, in both directions, and the registry itself must
// survive the Prometheus name mangling losslessly. ci.sh runs it over
// every emitting package, so a new emission without a registry row — or
// a registry row whose emission was renamed or deleted — fails the
// build.
//
// Usage:
//
//	obscheck -doc OBSERVABILITY.md <package-dir> [<package-dir>...]
//	obscheck -doc OBSERVABILITY.md -prom scrape.txt [<package-dir>...]
//
// Each argument is one package directory (not recursive; test files are
// skipped). internal/obs itself is scannable: its generic helpers pass
// names through variables, which read as pure wildcards and are
// skipped, while its literal emissions (the runtime sampler) check like
// any other package's.
//
// Code side. obscheck scans call expressions by callee name:
//
//   - Count / Gauge / Observe emit the metric name as written;
//   - StartSpan / ObserveSince / ObserveDuration emit "<name>.seconds"
//     (the obs duration convention);
//   - StartChild / StartTrace / Event, and the repo's thin wrappers
//     traceCtx / startQuerySpan / ReplayBound,
//     emit trace span (or span event) names.
//
// The first string-shaped argument that looks like a dotted lower-case
// name is taken; concatenation with a non-literal part becomes a `*`
// segment (so `"server.http."+name+".requests"` reads as
// `server.http.*.requests`).
//
// Doc side. Every backticked dotted lower-case token in the doc is an
// allowed name (`<placeholder>` segments read as `*`); tokens in the
// first cell of a markdown table row form the registry proper, and the
// second cell names the row's kind (counter / gauge / observation).
// Checks:
//
//  1. every emitted name must match an allowed name;
//  2. every registry row must match at least one emitted name;
//  3. every registry metric row must mangle to a valid Prometheus
//     family name (obs.PromName + `_total` for counters), injectively —
//     two rows may not collide after mangling;
//  4. the registry must carry at least one row per ops-health prefix
//     (`runtime.`, `slo.`, `wal.`).
//
// With -prom, the file is additionally parsed as a Prometheus text
// exposition (obs.CheckExposition: declared types, monotone buckets,
// consistent _sum/_count) and every scraped family must match a
// documented name — a live scrape may not carry an undocumented
// metric. -prom with no package dirs runs the doc-side and exposition
// checks only.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"topkdedup/internal/obs"
)

// nameRE is the shape of a registry name: dotted lower-case segments,
// possibly with `*` wildcards from concatenation or placeholders.
var nameRE = regexp.MustCompile(`^[a-z*][a-z0-9_*]*(\.[a-z0-9_*]+)+$`)

// promNameRE is the shape of a valid Prometheus family name.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metricEmitters map a callee name to the suffix appended to the name
// argument ("" for metrics and span names, ".seconds" for durations).
var metricEmitters = map[string]string{
	"Count":           "",
	"Gauge":           "",
	"Observe":         "",
	"StartSpan":       ".seconds",
	"ObserveSince":    ".seconds",
	"ObserveDuration": ".seconds",
	"StartChild":      "",
	"StartTrace":      "",
	"Event":           "",
	"traceCtx":        "",
	"startQuerySpan":  "",
	"ReplayBound":     "",
}

// opsPrefixes are the registry prefixes the ops-health surface depends
// on; each must keep at least one registry row.
var opsPrefixes = []string{"runtime.", "slo.", "wal."}

func main() {
	doc := flag.String("doc", "OBSERVABILITY.md", "registry document to check against")
	promFile := flag.String("prom", "", "Prometheus exposition file to validate against the registry")
	flag.Parse()
	if flag.NArg() == 0 && *promFile == "" {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-doc OBSERVABILITY.md] [-prom scrape.txt] <package-dir> [<package-dir>...]")
		os.Exit(2)
	}

	data, err := os.ReadFile(*doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(2)
	}
	allowed, registry, kinds := parseDoc(string(data))

	emitted := map[string][]string{} // name -> positions
	for _, dir := range flag.Args() {
		if err := scanDir(dir, emitted); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
	}

	bad := 0
	var names []string
	for n := range emitted {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !matchesAny(n, allowed) {
			fmt.Printf("%s: emitted name %q is not in %s\n", emitted[n][0], n, *doc)
			bad++
		}
	}
	var rows []string
	for r := range registry {
		rows = append(rows, r)
	}
	sort.Strings(rows)
	if flag.NArg() > 0 {
		for _, r := range rows {
			found := false
			for n := range emitted {
				if matchNames(n, r) {
					found = true
					break
				}
			}
			if !found {
				fmt.Printf("%s: registry row %q has no emitting call in the scanned packages\n", *doc, r)
				bad++
			}
		}
	}

	bad += checkMangling(*doc, rows, kinds)
	bad += checkOpsPrefixes(*doc, rows)
	if *promFile != "" {
		bad += checkPromFile(*promFile, allowed)
	}

	if bad > 0 {
		fmt.Fprintf(os.Stderr, "obscheck: %d registry mismatch(es)\n", bad)
		os.Exit(1)
	}
}

// checkMangling verifies every registry metric row survives the
// Prometheus mangling: a valid family name, and no two rows colliding
// after the dots collapse to underscores (`*` segments stand in as a
// literal sample segment, "x").
func checkMangling(doc string, rows []string, kinds map[string]string) int {
	bad := 0
	families := map[string]string{} // mangled family -> source row
	for _, r := range rows {
		kind, ok := kinds[r]
		if !ok {
			continue // span rows and kindless tables have no exposition form
		}
		fam := obs.PromName(strings.ReplaceAll(r, "*", "x"))
		if kind == "counter" {
			fam += "_total"
		}
		if !promNameRE.MatchString(fam) {
			fmt.Printf("%s: registry row %q mangles to invalid Prometheus name %q\n", doc, r, fam)
			bad++
			continue
		}
		if prev, dup := families[fam]; dup {
			fmt.Printf("%s: registry rows %q and %q collide as Prometheus family %q\n", doc, prev, r, fam)
			bad++
			continue
		}
		families[fam] = r
	}
	return bad
}

// checkOpsPrefixes requires the ops-health registry sections to stay
// populated.
func checkOpsPrefixes(doc string, rows []string) int {
	bad := 0
	for _, prefix := range opsPrefixes {
		found := false
		for _, r := range rows {
			if strings.HasPrefix(r, prefix) {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%s: no registry row under the %q prefix\n", doc, prefix)
			bad++
		}
	}
	return bad
}

// checkPromFile validates a scraped exposition and diffs every family
// against the documented names.
func checkPromFile(path string, allowed map[string]bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		return 1
	}
	defer f.Close()
	families, err := obs.CheckExposition(f)
	if err != nil {
		fmt.Printf("%s: exposition does not parse: %v\n", path, err)
		return 1
	}
	if len(families) == 0 {
		fmt.Printf("%s: exposition declares no families\n", path)
		return 1
	}
	var patterns []*regexp.Regexp
	for tok := range allowed {
		patterns = append(patterns, promTokenRE(tok))
	}
	bad := 0
	for _, fam := range families {
		found := false
		for _, p := range patterns {
			if p.MatchString(fam) {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%s: scraped family %q matches no documented name\n", path, fam)
			bad++
		}
	}
	return bad
}

// promTokenRE compiles one documented dotted token into a regexp over
// mangled family names: literal runs mangle via obs.PromName, `*`
// wildcards span one or more mangled segments, and counters may carry
// the `_total` suffix.
func promTokenRE(tok string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for i, part := range strings.Split(tok, "*") {
		if i > 0 {
			b.WriteString(`[a-zA-Z0-9_]+`)
		}
		b.WriteString(regexp.QuoteMeta(obs.PromName(part)))
	}
	b.WriteString(`(_total)?$`)
	return regexp.MustCompile(b.String())
}

// matchesAny reports whether name matches any pattern in the set.
func matchesAny(name string, set map[string]bool) bool {
	if set[name] {
		return true
	}
	for p := range set {
		if matchNames(name, p) {
			return true
		}
	}
	return false
}

// matchNames compares two dotted names segment-wise; a `*` segment on
// either side matches anything.
func matchNames(a, b string) bool {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] && as[i] != "*" && bs[i] != "*" {
			return false
		}
	}
	return true
}

// backtickRE captures backticked tokens; placeholderRE rewrites
// `<placeholder>` segments to `*` before shape-checking.
var (
	backtickRE    = regexp.MustCompile("`([^`]+)`")
	placeholderRE = regexp.MustCompile(`<[^<>]+>`)
)

// parseDoc extracts the allowed name set (every backticked dotted token
// in the doc), the registry set (first-cell tokens of table rows), and
// each registry row's kind (the second table cell, when it names one).
func parseDoc(doc string) (allowed, registry map[string]bool, kinds map[string]string) {
	allowed, registry = map[string]bool{}, map[string]bool{}
	kinds = map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		first := true
		trimmed := strings.TrimSpace(line)
		inTable := strings.HasPrefix(trimmed, "|")
		kind := ""
		if inTable {
			if cells := strings.Split(trimmed, "|"); len(cells) > 2 {
				switch k := strings.TrimSpace(cells[2]); k {
				case "counter", "gauge", "observation":
					kind = k
				}
			}
		}
		for _, m := range backtickRE.FindAllStringSubmatch(line, -1) {
			tok := placeholderRE.ReplaceAllString(m[1], "*")
			if nameRE.MatchString(tok) {
				allowed[tok] = true
				if inTable && first {
					registry[tok] = true
					if kind != "" {
						kinds[tok] = kind
					}
				}
			}
			first = false
		}
	}
	return allowed, registry, kinds
}

// scanDir parses one package directory's non-test files and collects
// every emitted name with its first position.
func scanDir(dir string, emitted map[string][]string) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				suffix, ok := metricEmitters[calleeName(call.Fun)]
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					s, isStr := evalString(arg)
					if !isStr {
						continue
					}
					name := s + suffix
					if !nameRE.MatchString(name) {
						continue
					}
					p := fset.Position(call.Pos())
					emitted[name] = append(emitted[name], fmt.Sprintf("%s:%d", p.Filename, p.Line))
					break
				}
				return true
			})
		}
	}
	return nil
}

// calleeName unwraps a call's function expression to its base name
// (`obs.Count` -> "Count", `s.metrics.Observe` -> "Observe").
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// evalString folds an expression to a name string: literals keep their
// value, non-literal parts of a concatenation become one `*` segment.
// Returns false when no literal part is present at all.
func evalString(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		l, lok := evalString(x.X)
		r, rok := evalString(x.Y)
		if !lok && !rok {
			return "", false
		}
		if !lok {
			l = "*"
		}
		if !rok {
			r = "*"
		}
		return l + r, true
	case *ast.ParenExpr:
		return evalString(x.X)
	}
	return "", false
}
