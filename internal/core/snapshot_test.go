package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grp/internal/faults"
	"grp/internal/trace"
	"grp/internal/workloads"
)

// The per-cell goldens pin 23 fields of a Result. The cells below pin the
// whole Result instead, because what they exercise lives outside those
// fields: fault counts and cancelled prefetches under the fault presets,
// software-prefetch counts under swpf, the attribution summary, the
// metrics snapshot, and (as a digest) the Perfetto timeline. Regenerate
// with -update, like the goldens.

// resultCells is the whole-Result snapshot table. plan, when set, is a
// faults.Parse spec.
var resultCells = []struct {
	name   string
	bench  string
	scheme Scheme
	plan   string
	set    func(*Options)
}{
	{"light7", "mcf", GRPVar, "light,seed=7", nil},
	{"heavy11", "mcf", GRPVar, "heavy,seed=11", nil},
	{"chaos13", "mcf", GRPVar, "chaos,seed=13", nil},
	{"light7", "swim", SRP, "light,seed=7", nil},
	{"heavy11", "swim", SRP, "heavy,seed=11", nil},
	{"chaos13", "swim", SRP, "chaos,seed=13", nil},
	{"light7", "art", GRPAdaptive, "light,seed=7", nil},
	{"heavy11", "art", GRPAdaptive, "heavy,seed=11", nil},
	{"chaos13", "art", GRPAdaptive, "chaos,seed=13", nil},
	{"plain", "wupwise", SoftwarePF, "", nil},
	{"plain", "equake", SoftwarePF, "", nil},
	{"heavy11", "wupwise", SoftwarePF, "heavy,seed=11", nil},
	{"attrib", "mcf", GRPVar, "", func(o *Options) { o.Attrib = true }},
	{"metrics1024", "mcf", GRPVar, "", func(o *Options) { o.Metrics = true; o.SampleInterval = 1024 }},
}

func resultPath(bench string, sc Scheme, name, ext string) string {
	file := fmt.Sprintf("%s__%s__%s.%s", bench, strings.ReplaceAll(sc.String(), "/", "-"), name, ext)
	return filepath.Join("testdata", "golden-results", file)
}

// checkBytes compares got with the file at path, or rewrites the file
// under -update. A mismatch names the first line that differs.
func checkBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing snapshot (run with -update to generate): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s diverges at line %d:\n  got  %s\n  want %s", path, i+1, strings.TrimSpace(g), strings.TrimSpace(w))
		}
	}
}

// TestResultSnapshots runs each resultCells cell at Test factor and
// compares its whole Result, as indented JSON, with the committed file.
func TestResultSnapshots(t *testing.T) {
	for _, c := range resultCells {
		c := c
		t.Run(fmt.Sprintf("%s/%s/%s", c.bench, c.scheme, c.name), func(t *testing.T) {
			spec, err := workloads.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Factor: workloads.Test}
			if c.plan != "" {
				plan, err := faults.Parse(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				opt.Faults = &plan
			}
			if c.set != nil {
				c.set(&opt)
			}
			r, err := Run(spec, c.scheme, opt)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkBytes(t, resultPath(c.bench, c.scheme, c.name, "json"), append(data, '\n'))
		})
	}
}

// TestTimelineSnapshot pins mcf × grp/var's Perfetto timeline by its
// event count and the SHA-256 of its JSON export.
func TestTimelineSnapshot(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tl := trace.NewTimeline()
	if _, err := Run(spec, GRPVar, Options{Factor: workloads.Test, Timeline: tl}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := tl.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("events %d\nsha256 %s\n", tl.Len(), hex.EncodeToString(h.Sum(nil)))
	checkBytes(t, resultPath("mcf", GRPVar, "perfetto", "txt"), []byte(got))
}
