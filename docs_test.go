package grp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose commands a reader is expected to run.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// docCommands are the commands whose flags the docs are checked against.
var docCommands = []string{"grpsim", "grpsweep", "grptables", "grpconform", "grpserve"}

var (
	docPathRE    = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples)/[\w-]+)`)
	docBenchRE   = regexp.MustCompile(`Benchmark[A-Z]\w*\*?`)
	benchFuncRE  = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	flagDefRE    = regexp.MustCompile(`flag\.(?:Var\([^,]+,\s*|[A-Z]\w*\()"([\w-]+)"`)
	flagUseRE    = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
	codeSpanRE   = regexp.MustCompile("`([^`]+)`")
	quotedRE     = regexp.MustCompile(`'[^']*'|"[^"]*"`)
	shellSplitRE = regexp.MustCompile(`&&|\|\||[|;&()]`)
)

// TestDocsNameOnlyWhatExists fails when a document names a ./cmd or
// ./examples path that does not exist, a Benchmark function that no test
// file defines, or passes one of the commands a flag that its main
// package does not define. Command lines are read from fenced code
// blocks and code spans; it reads sources only and builds nothing.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	benches := benchmarkFuncs(t)
	flags := map[string]map[string]bool{}
	for _, cmd := range docCommands {
		flags[cmd] = commandFlags(t, cmd)
	}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range docPathRE.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
		for _, name := range docBenchRE.FindAllString(text, -1) {
			if !benchExists(benches, name) {
				t.Errorf("%s names %s, which no test file defines", doc, name)
			}
		}
		for _, line := range commandLines(text) {
			for _, seg := range shellSplitRE.Split(quotedRE.ReplaceAllString(line, "Q"), -1) {
				checkCommandFlags(t, doc, seg, flags)
			}
		}
	}
}

// checkCommandFlags checks the flags of the first documented command in
// one shell segment.
func checkCommandFlags(t *testing.T, doc, seg string, flags map[string]map[string]bool) {
	t.Helper()
	fields := strings.Fields(seg)
	for i, f := range fields {
		defined, ok := flags[f[strings.LastIndex(f, "/")+1:]]
		if !ok {
			continue
		}
		for _, arg := range fields[i+1:] {
			if m := flagUseRE.FindStringSubmatch(arg); m != nil && !defined[m[1]] {
				t.Errorf("%s: %q passes %s a flag it does not define: -%s", doc, strings.TrimSpace(seg), f, m[1])
			}
		}
		return
	}
}

// commandLines returns the lines of fenced code blocks, with backslash
// continuations joined, and the code spans of the prose.
func commandLines(text string) []string {
	var out, prose []string
	fenced, cont := false, ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, `\`) {
			cont += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		out = append(out, cont+line)
		cont = ""
	}
	// A code span may wrap onto the next line, never past a blank one.
	for _, para := range strings.Split(strings.Join(prose, "\n"), "\n\n") {
		for _, m := range codeSpanRE.FindAllStringSubmatch(strings.ReplaceAll(para, "\n", " "), -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// commandFlags returns the flags cmd/<name> defines, plus the -h and
// -help every flag set accepts.
func commandFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("cmd/%s: no sources (%v)", name, err)
	}
	defined := map[string]bool{"h": true, "help": true}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRE.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
	}
	return defined
}

// benchmarkFuncs returns every Benchmark function defined in a test file
// of the repository.
func benchmarkFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFuncRE.FindAllStringSubmatch(string(data), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// benchExists reports whether name, or with a trailing * any name it
// prefixes, is a defined benchmark.
func benchExists(benches map[string]bool, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return benches[name]
	}
	for b := range benches {
		if strings.HasPrefix(b, prefix) {
			return true
		}
	}
	return false
}
