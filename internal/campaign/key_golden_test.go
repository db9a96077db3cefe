package campaign

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grp/internal/core"
	"grp/internal/workloads"
)

// The content-address golden pins today's keys: the program hash of every
// kernel at Test factor, with and without software-prefetch codegen, and
// the cell keys of mcf × grp/var at Test factor, solo and beside art. A
// key that moves turns every existing store into misses with no schema
// bump to say so; a deliberate move bumps cacheSchemaVersion (or a
// schemeVersions entry) and regenerates this file with
// go test ./internal/campaign -run TestContentAddressGolden -update.

var updateGolden = flag.Bool("update", false, "regenerate the content-address golden")

const contentAddressGolden = "testdata/content_addresses.golden"

// contentAddresses renders the pinned keys, one per line.
func contentAddresses(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, bench := range workloads.Names() {
		for _, swpf := range []bool{false, true} {
			h, err := programHash(bench, workloads.Test, 0, swpf)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "prog %s test swpf=%t %016x\n", bench, swpf, h)
		}
	}
	solo := Job{Bench: "mcf", Scheme: core.GRPVar, Opt: core.Options{Factor: workloads.Test}}
	corun := solo
	corun.Opt.CoRun = []string{"art"}
	keys, err := New(Config{Jobs: 1}).Keys([]Job{solo, corun})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "cell mcf grp/var test solo %s\n", keys[0].Digest)
	fmt.Fprintf(&b, "cell mcf grp/var test corun=art %s\n", keys[1].Digest)
	return b.String()
}

// TestContentAddressGolden recomputes the pinned keys and demands they
// equal the committed ones.
func TestContentAddressGolden(t *testing.T) {
	got := contentAddresses(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(contentAddressGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contentAddressGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(contentAddressGolden)
	if err != nil {
		t.Fatalf("missing content-address golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("content address moved at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("content addresses differ in length: %d lines, golden %d", len(gl), len(wl))
	}
}
